"""Token mutation fuzz: every edited capability fails closed.

Each example takes a token that ``gridauth issue-cap`` wrote for one of
scenario 1's members and makes one edit to its bytes: a bit flip, a
deleted run, an inserted fragment (a newline, a fence, a field, a byte
that is no UTF-8), a line duplicated, dropped or swapped with the next,
or a cut.  It then runs a pushed ``gridauth check`` of a start through `cli.main` with
the edited token.  The command must return one of the documented exit
codes and raise nothing, and it may permit only the issued token's
bytes: a token file is exactly its canonical text, so an edit that
keeps the claims and MAC but changes the spelling is refused.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import byte_edits
from gridauth.cli import EXIT_DENIED, EXIT_INPUT, EXIT_OK, EXIT_STATE, main

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

EDITS = byte_edits.edits(INSERTS)


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
    edited = byte_edits.apply(issued, edit)
    if _check(member, edited) == EXIT_OK:
        # only the issued text permits: a token file is its canonical text
        assert edited == issued
