"""Input mutation fuzz: every edited RSL, policy or credential text fails closed.

Each example takes one of the bundled scenarios' sites (its resource and
VO policy files, one member's credential file) and one RSL text from the
``scenarios/*.script`` files, and makes one edit to the bytes of one of
the four texts: a bit flip, a deleted run, an inserted fragment (a
separator, a quote, an escape, a long integer, a keyword, a byte that is
no UTF-8), a line duplicated, dropped or swapped with the next, or a cut.
It then runs a pulled ``gridauth check`` of a start through `cli.main`.
The command must return one of the documented exit codes and raise
nothing.
"""

from __future__ import annotations

import contextlib
import io
import shlex
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import byte_edits
from gridauth.cli import EXIT_DENIED, EXIT_INPUT, EXIT_OK, EXIT_STATE, main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
CODES = (EXIT_OK, EXIT_DENIED, EXIT_INPUT, EXIT_STATE)

#: scenario prefix -> the members that have a credential file
MEMBERS = {"s1": ("alice", "bob"), "s2": ("ana", "dev"), "s3": ("alice", "carol")}
#: every RSL text the scenario scripts submit
RSL_TEXTS = sorted({
    word[len("rsl="):]
    for script in SCENARIOS.glob("*.script")
    for line in script.read_text(encoding="utf-8").splitlines()
    if "rsl=" in line
    for word in shlex.split(line)
    if word.startswith("rsl=")
})
FILES = ("rsl", "site", "vo", "cred")

#: what an insertion adds: separators and delimiters of the three grammars,
#: escapes, integers at and past the signed 64-bit edge, keywords, bytes
#: that are no UTF-8
INSERTS = (b"\n", b" ", b"\t", b"\v", b":", b",", b";", b"&", b"(", b")", b"=", b"{", b"}",
           b'"', b"\\", b'\\"', b"#", b"0", b"-", b"9223372036854775808", b"-9223372036854775809",
           "é".encode(), " ".encode(), b"\xff", b"\xc3", b"(count=0)", b'(arguments="a" "b")',
           b"subject any { allow action start; }", b"allocation 1;", b"expiry: 1\n", b"vo: astro\n")

EDITS = byte_edits.edits(INSERTS)


def _inputs(site: str, member: str, rsl: str) -> dict:
    """The four texts of one check, as bytes."""
    return {
        "rsl": (rsl + "\n").encode(),
        "site": (SCENARIOS / "policies" / f"{site}-site.pol").read_bytes(),
        "vo": (SCENARIOS / "policies" / f"{site}-fusion.pol").read_bytes(),
        "cred": (SCENARIOS / "creds" / f"{site}-{member}.cred").read_bytes(),
    }


def _check(texts: dict) -> int:
    """The exit code of a pulled start check over the four texts."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in texts.items():
            paths[name] = Path(tmp) / name
            paths[name].write_bytes(text)
        argv = ["check", "--resource-policy", str(paths["site"]),
                "--vo-policy", str(paths["vo"]), "--cred", str(paths["cred"]),
                "--action", "start", "--rsl", str(paths["rsl"]), "--explain"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in CODES, code
    return code


def test_the_unedited_inputs_decide():
    codes = {
        _check(_inputs(site, member, rsl))
        for site, members in MEMBERS.items()
        for member in members
        for rsl in RSL_TEXTS
    }
    assert codes == {EXIT_OK, EXIT_DENIED}


_SITES = st.sampled_from(sorted(MEMBERS)).flatmap(
    lambda site: st.tuples(st.just(site), st.sampled_from(MEMBERS[site]))
)


@given(site=_SITES, rsl=st.sampled_from(RSL_TEXTS), target=st.sampled_from(FILES), edit=EDITS)
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_an_edited_input_fails_closed(site, rsl, target, edit):
    texts = _inputs(*site, rsl)
    texts[target] = byte_edits.apply(texts[target], edit)
    _check(texts)
