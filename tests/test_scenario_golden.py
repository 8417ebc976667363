"""Golden outcomes of ``gridauth scenario``: exit code, stdout and stderr.

The cases are the bundled ``scenarios/*.script`` files and a fixed list
of short faulty scripts: together they reach every script error the
runner reports, every kind of failed expectation and each step outcome
a domain error records.  Each case runs through `cli.main` in a copy of
the ``scenarios`` directory, next to the policy, credential and log
files its steps name, plus ``latin1.txt``, a file that is no UTF-8.
The copy's path is masked as ``<dir>`` in the output.
``tests/data/scenario-golden.json`` stores ``[name, exit code, stdout,
stderr]`` for each case, so any change to a report line or to a message
fails the test.

Regenerate the file (only when the outcomes are meant to change) with
``PYTHONPATH=src:tests python tests/test_scenario_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest

from gridauth.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = ROOT / "tests" / "data" / "scenario-golden.json"

SITE = (
    "load-policy site policies/s1-site.pol\n"
    "load-policy fusion policies/s1-fusion.pol\n"
    "load-cred alice creds/s1-alice.cred\n"
)
RSL = "rsl='&(executable=\"/opt/vo/apps/transp\")(count=1)(maxcputime=600)'"
A1 = SITE + f"submit a1 cred=alice {RSL} runtime=200\n"
KEY = "ab" * 32
CAP = f"issue-cap c1 policy=fusion cred=alice key={KEY} expiry=1000000\n"

#: name -> script text; None runs a script file that does not exist
FAULTS = {
    # reading and splitting the script
    "missing-script": None,
    "non-utf8-script": b"tick 1\n\xff\n",
    "bad-quoting": "submit a1 rsl='&(x\n",
    "unknown-step": "frobnicate everything\n",
    # load steps
    "load-policy-usage": "load-policy site\n",
    "load-policy-missing-file": "load-policy site policies/nope.pol\n",
    "load-policy-not-a-policy": "load-policy site creds/s1-alice.cred\n",
    "load-policy-non-utf8": "load-policy site latin1.txt\n",
    "load-policy-nul-in-path": "load-policy site po\x00l.pol\n",
    "load-policy-after-site": A1 + "load-policy more policies/s2-fusion.pol\n",
    "load-policy-duplicate-label": SITE + "load-policy fusion policies/s3-fusion.pol\n",
    "load-cred-usage": "load-cred alice\n",
    "load-cred-missing-file": "load-cred alice creds/nope.cred\n",
    "load-cred-not-a-cred": "load-cred alice policies/s1-site.pol\n",
    "load-cred-non-utf8": "load-cred alice latin1.txt\n",
    "load-cred-duplicate-label": SITE + "load-cred alice creds/s1-bob.cred\n"
    + f"submit a1 cred=alice {RSL} runtime=200\nexpect ledger \"member=/O=Grid/CN=bob used=600/600\"\n",
    # the site
    "no-resource-policy": "load-policy fusion policies/s1-fusion.pol\n"
    "load-cred alice creds/s1-alice.cred\n"
    f"submit a1 cred=alice {RSL} runtime=200\n",
    "two-resource-policies": SITE + "load-policy site2 policies/s2-site.pol\ntick 1\n",
    "two-vo-documents-one-name": SITE + "load-policy fusion3 policies/s3-fusion.pol\n"
    f"submit a1 cred=alice {RSL} runtime=200\n",
    "tick-before-policies": "tick 1\n",
    # key=value pairs
    "expected-key-value": A1 + "manage m1 job=a1 action status cred=alice\n",
    "unknown-key": SITE + f"issue-cap c1 policy=fusion cred=alice key={KEY} expiry=9 ttl=5\n",
    "duplicate-key": SITE + f"submit a1 cred=alice {RSL} runtime=1 runtime=2\n",
    "missing-key": SITE + f"issue-cap c1 policy=fusion cred=alice key={KEY}\n",
    "not-an-integer": SITE + f"submit a1 cred=alice {RSL} runtime=ten\n",
    "duplicate-step-label": A1 + f"submit a1 cred=alice {RSL} runtime=5\n",
    # issue-cap
    "issue-cap-no-label": "issue-cap\n",
    "issue-cap-unknown-policy": SITE + f"issue-cap c1 policy=vo cred=alice key={KEY} expiry=9\n",
    "issue-cap-unknown-cred": SITE + f"issue-cap c1 policy=fusion cred=bob key={KEY} expiry=9\n",
    "issue-cap-key-not-hex": SITE + "issue-cap c1 policy=fusion cred=alice key=zz expiry=9\n",
    "issue-cap-short-key": SITE + "issue-cap c1 policy=fusion cred=alice key=00 expiry=9\n",
    "issue-cap-resource-policy": SITE + f"issue-cap c1 policy=site cred=alice key={KEY} expiry=9\n",
    "issue-cap-bad-expiry": SITE + f"issue-cap c1 policy=fusion cred=alice key={KEY} expiry=x\n",
    "issue-cap-no-blocks": SITE + "load-cred ana creds/s2-ana.cred\n"
    f"issue-cap c1 policy=fusion cred=ana key={KEY} expiry=9\nexpect c1 error=NoApplicableBlocks\n"
    "expect c1 ok\n",
    "submit-cap-not-issued": SITE + "load-cred ana creds/s2-ana.cred\n"
    f"issue-cap c1 policy=fusion cred=ana key={KEY} expiry=9\nsubmit p1 cred=ana {RSL} runtime=5 cap=c1\n",
    # submit
    "submit-no-label": "submit\n",
    "submit-unknown-cred": SITE + f"submit a1 cred=bob {RSL} runtime=5\n",
    "submit-no-cred": SITE + f"submit a1 {RSL} runtime=5\n",
    "submit-no-rsl": SITE + "submit a1 cred=alice runtime=5\n",
    "submit-missing-rsl-file": SITE + "submit a1 cred=alice rsl-file=nope.rsl runtime=5\n",
    "submit-non-utf8-rsl-file": SITE + "submit a1 cred=alice rsl-file=latin1.txt runtime=5\n",
    "submit-negative-memory": SITE + f"submit a1 cred=alice {RSL} runtime=5 memory=-1\n",
    "submit-unknown-cap": SITE + f"submit a1 cred=alice {RSL} runtime=5 cap=c9\n",
    # manage
    "manage-no-label": "manage\n",
    "manage-unknown-cred": A1 + "manage m1 job=a1 action=status cred=bob\n",
    "manage-unknown-job": A1 + "manage m1 job=z9 action=status cred=alice\n",
    "manage-denied-job": SITE + "submit b1 cred=alice rsl='&(executable=\"/bin/sh\")' runtime=5\n"
    "manage m1 job=b1 action=status cred=alice\n",
    "manage-bad-action": A1 + "manage m1 job=a1 action=fly cred=alice\n",
    "manage-start-action": A1 + "manage m1 job=a1 action=start cred=alice\n",
    "manage-bad-priority": A1 + "manage m1 job=a1 action=status cred=alice priority=high\n",
    # tick
    "tick-usage": A1 + "tick\n",
    "tick-not-an-integer": A1 + "tick soon\n",
    "tick-zero": A1 + "tick 0\n",
    # expectations
    "expect-empty": A1 + "expect\n",
    "expect-unknown-label": A1 + "expect z9 ok\n",
    "expect-bad": A1 + "expect a1 frobbed\n",
    "expect-bad-trace": A1 + "expect a1 trace has it\n",
    "expect-job-no-label": A1 + "expect job\n",
    "expect-job-not-a-job": SITE + CAP + "expect job c1 state=done\n",
    "expect-job-unknown-key": A1 + "expect job a1 status=done\n",
    "expect-ledger-usage": A1 + "expect ledger\n",
    "expect-log-usage": A1 + "expect log a b c\n",
    "expect-log-missing-file": A1 + "expect log nope.log\n",
    "expect-log-non-utf8": A1 + "expect log latin1.txt\n",
    # outcomes and failed expectations
    "failed-expectations": A1
    + "submit b1 cred=alice rsl='&(executable=\"/bin/sh\")' runtime=5\n"
    "submit b2 cred=alice rsl='&(executable=\"/opt/vo/apps/transp\")(count=1)(maxcputime=900)' runtime=5\n"
    "expect a1\nexpect a1 denied\nexpect a1 error=QuotaExceeded\nexpect a1 trace contains nothing\n"
    "expect b1\nexpect b1 denied\nexpect b1 error=QuotaExceeded\nexpect b2 error=QuotaExceeded\n"
    "expect b1 trace contains \"no applicable\"\nexpect b1 trace contains deny\n"
    "expect job a1 state=done consumed=5 reserved=600 priority=0\n"
    "expect ledger \"vo=fusion used=0/1000\"\nexpect ledger \"vo=fusion used=600/1000\"\n"
    "expect log contains x\nexpect log scenario3.log\n",
    "push-and-manage": SITE + CAP
    + f"submit p1 cred=alice {RSL} runtime=50 memory=10 cap=c1\nexpect p1 ok\n"
    "manage m1 job=p1 action=set_priority priority=7 cred=alice cap=c1\n"
    "manage m2 job=p1 action=cancel cred=alice\nmanage m3 job=p1 action=suspend cred=alice\n"
    "expect m1 ok\nexpect m2 ok\nexpect m3 error=IllegalTransition\n"
    "expect job p1 state=canceled priority=7\ntick 60\n"
    "expect log contains \"t=0 job=j1 event=cancel detail=state=canceled by=/O=Grid/CN=alice\"\n",
    # a key registered after the site is built still reaches it; a1 ends
    # first, so that alice's member quota has room for p1
    "issue-cap-after-site": A1 + "tick 200\n" + CAP + "submit p1 cred=alice "
    "rsl='&(executable=\"/opt/vo/apps/transp\")(count=1)(maxcputime=300)' runtime=50 cap=c1\n"
    "expect p1 ok\n",
}


def cases() -> dict:
    """name -> script bytes (None for a missing script), bundled scripts first."""
    found = {path.name: path.read_bytes() for path in sorted(SCENARIOS.glob("*.script"))}
    for name, text in FAULTS.items():
        found[name] = text.encode("utf-8") if isinstance(text, str) else text
    return found


def make_bundle(parent: Path) -> Path:
    """A copy of the scenarios directory with ``latin1.txt`` added."""
    bundle = parent / "scenarios"
    shutil.copytree(SCENARIOS, bundle)
    (bundle / "latin1.txt").write_bytes(b"caf\xe9\n")
    return bundle


def outcome(bundle: Path, name: str, text: bytes | None) -> list:
    """``[name, exit code, stdout, stderr]`` of ``gridauth scenario`` over ``text``."""
    script = bundle / (name if name.endswith(".script") else f"{name}.script")
    if text is not None:
        script.write_bytes(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["scenario", str(script)])
    return [name, code] + [s.getvalue().replace(str(bundle), "<dir>") for s in (out, err)]


@pytest.fixture(scope="module")
def bundle(tmp_path_factory) -> Path:
    return make_bundle(tmp_path_factory.mktemp("golden"))


def test_every_outcome_matches_the_golden_file(bundle):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    found = cases()
    assert [row[0] for row in golden] == list(found)
    wrong = [
        (want, got) for want in golden if (got := outcome(bundle, want[0], found[want[0]])) != want
    ]
    assert not wrong, f"{len(wrong)} outcomes differ, first: {wrong[:1]}"


def test_the_bundled_scripts_pass_and_every_fault_names_its_line():
    for name, code, out, err in json.loads(GOLDEN.read_text(encoding="utf-8")):
        if name.endswith(".script"):
            assert (code, err) == (0, ""), name
            assert out and "FAIL" not in out, name
        elif code == 2:
            assert err.startswith("script error: step at line "), name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        made = make_bundle(Path(tmp))
        rows = [outcome(made, name, text) for name, text in cases().items()]
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(row, ensure_ascii=False) for row in rows) + "\n]\n",
        encoding="utf-8",
    )
