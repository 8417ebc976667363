"""Scenario-script mutation fuzz: every edited script fails closed.

Each example takes one of the bundled ``scenarios/*.script`` files and
makes one edit to its bytes: a bit flip, a deleted run, an inserted
fragment (a separator, a quote, an escape, a long integer, a byte that
is no UTF-8, a whole step), a line duplicated, dropped or swapped with
the next, or a cut.  It writes the edited script into a copy of the
``scenarios`` directory, next to the policy, credential and log files
its steps name, and runs it through ``gridauth scenario`` (`cli.main`).
The command must return one of the documented exit codes and raise
nothing.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import byte_edits
from gridauth.cli import EXIT_DENIED, EXIT_INPUT, EXIT_OK, EXIT_STATE, main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SCRIPTS = {path.name: path.read_bytes() for path in sorted(SCENARIOS.glob("*.script"))}
CODES = (EXIT_OK, EXIT_DENIED, EXIT_INPUT, EXIT_STATE)

#: what an insertion adds: separators and quotes of the step syntax,
#: escapes, integers at and past the signed 64-bit edge, bytes that are
#: no UTF-8, and whole steps, the push-mode ones included
INSERTS = (b"\n", b" ", b"\t", b"=", b"'", b'"', b"\\", b"#", b"0", b"-", b",",
           b"9223372036854775808", b"-9223372036854775809", "é".encode(), b"\xff", b"\x00",
           b"expect ", b"tick 1\n", b"tick 0\n", b"tick -5\n", b"cap=c1 ", b"rsl-file=x ",
           b"priority=9 ", b"memory=99999999999 ", b"job=a1 ", b"state=done ",
           b"load-policy site policies/s1-fusion.pol\n",
           b"issue-cap c1 policy=fusion cred=alice key=" + b"00" * 32 + b" expiry=1\n",
           b"submit z1 cred=alice rsl='&(count=1)(maxcputime=5)' runtime=1\n",
           b"manage m9 job=a1 action=cancel cred=alice\n",
           b"expect log scenario3.log\n", b"expect log contains x\n", b"expect z1 ok\n")

EDITS = byte_edits.edits(INSERTS)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory) -> Path:
    """A copy of the scenarios directory that the edited scripts run in."""
    copy = tmp_path_factory.mktemp("scenarios") / "scenarios"
    shutil.copytree(SCENARIOS, copy)
    return copy


def _run(bundle: Path, text: bytes) -> int:
    """The exit code of ``gridauth scenario`` over a script of ``text``."""
    script = bundle / "edited.script"
    script.write_bytes(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["scenario", str(script)])
    assert code in CODES, code
    return code


def test_the_unedited_scripts_pass(bundle):
    assert {name: _run(bundle, text) for name, text in SCRIPTS.items()} == dict.fromkeys(
        SCRIPTS, EXIT_OK
    )


@given(name=st.sampled_from(sorted(SCRIPTS)), edit=EDITS)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_an_edited_script_fails_closed(bundle, name, edit):
    _run(bundle, byte_edits.apply(SCRIPTS[name], edit))
