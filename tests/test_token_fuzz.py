"""Token mutation fuzz: every edited capability fails closed.

Each example takes a token that ``gridauth issue-cap`` wrote for one of
scenario 1's members and makes one edit to its bytes: a bit flip, a
deleted run, an inserted fragment (a newline, a fence, a field, a byte
that is no UTF-8), a line duplicated, dropped or swapped with the next,
or a cut.  It then runs a pushed ``gridauth check`` of a start through `cli.main` with
the edited token.  The command must return one of the documented exit
codes and raise nothing, and it may permit only a token whose loaded
claims and MAC are the issued ones.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from gridauth.cli import EXIT_DENIED, EXIT_INPUT, EXIT_OK, EXIT_STATE, main
from gridauth.credential import load_token

ROOT = Path(__file__).resolve().parent.parent
SITE = str(ROOT / "scenarios" / "policies" / "s1-site.pol")
VO = str(ROOT / "scenarios" / "policies" / "s1-fusion.pol")
CREDS = {name: str(ROOT / "scenarios" / "creds" / f"{name}.cred")
         for name in ("s1-alice", "s1-bob")}
VO_KEY = "fusion=" + bytes(range(32)).hex()
RSL = '&(executable="/opt/vo/apps/transp")(count=1)(maxcputime=600)\n'
CODES = (EXIT_OK, EXIT_DENIED, EXIT_INPUT, EXIT_STATE)

#: what an insertion adds: separators, a fence, a field, digits, bytes that are no UTF-8
INSERTS = (b"\n", b":", b" ", b"0", b"-", b"\xff", b"\xc3", "é".encode(), b"\r\n",
           b"---BEGIN POLICY---\n", b"---END POLICY---\n", b"vo: astro\n", b"mac: 00\n",
           b"expiry: 1\n", b"groups: admins\n", b'  subject any { allow action start; }\n')

EDITS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(0, 7)),
    st.tuples(st.just("delete"), st.integers(0, 10**6), st.integers(1, 64)),
    st.tuples(st.just("insert"), st.integers(0, 10**6), st.sampled_from(INSERTS)),
    st.tuples(st.just("duplicate-line"), st.integers(0, 10**6)),
    st.tuples(st.just("drop-line"), st.integers(0, 10**6)),
    st.tuples(st.just("swap-lines"), st.integers(0, 10**6)),
    st.tuples(st.just("cut"), st.integers(0, 10**6)),
)


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in CODES, (argv[0], code)
    return code


def _issue(tmp: Path, member: str) -> bytes:
    cap = tmp / f"{member}.cap"
    assert _run(["issue-cap", "--vo-policy", VO, "--cred", CREDS[member], "--vo-key", VO_KEY,
                 "--expiry", "1900000000", "--cap", str(cap)]) == EXIT_OK
    return cap.read_bytes()


def _edit(token: bytes, edit: tuple) -> bytes:
    kind, at = edit[0], edit[1] % (len(token) + 1)
    lines = token.splitlines(keepends=True)
    line = edit[1] % len(lines)
    if kind == "flip":
        at %= len(token)
        return token[:at] + bytes([token[at] ^ 1 << edit[2]]) + token[at + 1:]
    if kind == "delete":
        return token[:at] + token[at + edit[2]:]
    if kind == "insert":
        return token[:at] + edit[2] + token[at:]
    if kind == "duplicate-line":
        lines.insert(line, lines[line])
    elif kind == "drop-line":
        del lines[line]
    elif kind == "swap-lines":  # with the next line
        other = (line + 1) % len(lines)
        lines[line], lines[other] = lines[other], lines[line]
    else:  # cut
        return token[:at]
    return b"".join(lines)


with tempfile.TemporaryDirectory() as _tmp:
    TOKENS = {member: _issue(Path(_tmp), member) for member in CREDS}


def _check(member: str, token: bytes) -> int:
    """The exit code of a pushed start check of ``member``'s job with ``token``."""
    with tempfile.TemporaryDirectory() as tmp:
        cap, rsl = Path(tmp) / "pushed.cap", Path(tmp) / "job.rsl"
        cap.write_bytes(token)
        rsl.write_text(RSL)
        return _run(["check", "--resource-policy", SITE, "--cred", CREDS[member],
                     "--cap", str(cap), "--vo-key", VO_KEY, "--action", "start",
                     "--rsl", str(rsl), "--explain"])


def test_the_issued_tokens_permit():
    assert {member: _check(member, token) for member, token in TOKENS.items()} == {
        member: EXIT_OK for member in TOKENS
    }


@given(member=st.sampled_from(sorted(TOKENS)), edit=EDITS)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_an_edited_token_fails_closed(member, edit):
    issued = TOKENS[member]
    edited = _edit(issued, edit)
    if _check(member, edited) == EXIT_OK:
        # only the issued claims under the issued MAC permit
        assert load_token(edited.decode("utf-8")) == load_token(issued.decode("utf-8"))
