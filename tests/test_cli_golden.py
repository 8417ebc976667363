"""Golden outcomes of the state-file commands, in one chained run.

The cases run in order through `cli.main`, as a shell script chains
``gridauth`` commands, in a directory that holds copies of the
``scenarios/`` policies and credentials and the files `make_inputs`
writes beside them; a case may edit that directory first (its ``prep``).
Together they reach ``submit``, ``tick``, every ``manage`` action (of a
live and of a finished job), ``ledger``, pulled and pushed ``check`` and
``issue-cap``, with no state file, a journal shorter than the
snapshot's ``journal_bytes``, unreadable and mistyped inputs, empty
``--map`` and ``--resource-policy`` values, a wrong ``--vo-key`` and a
token whose lines end in CRLF.

``tests/data/cli-golden.json`` stores ``[name, exit code, stdout, stderr,
state sha256, journal sha256]`` for each case, with the directory's path
masked as ``<dir>``.  The digests are those of the case's ``--state``
snapshot slots, ``<state>`` then ``<state>.alt``, and of its journal
(``state.json`` for a command without one), or null where no such file
exists, so any change to what a command prints or stores fails the test.

Regenerate the file (only when the outcomes are meant to change) with
``PYTHONPATH=src:tests python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import shutil
import tempfile
from pathlib import Path

from gridauth.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = ROOT / "tests" / "data" / "cli-golden.json"

KEY = "fusion=" + "ab" * 32
WRONG_KEY = "fusion=" + "cd" * 32
STATE = "--state {d}/state.json"
SITE = "--resource-policy {d}/mgmt-site.pol"
PULL = SITE + " --vo-policy {d}/s1-fusion.pol"
ALICE, BOB = "--cred {d}/s1-alice.cred", "--cred {d}/s1-bob.cred"
SUBMIT = f"submit {STATE} {PULL} {ALICE}"
MANAGE = f"manage {STATE} {PULL} {ALICE}"
PUSH = f"--cap {{d}}/alice.cap --vo-key {KEY}"
CHECK = f"check {SITE} {ALICE} --rsl {{d}}/job.rsl --action start"


def make_inputs(d: Path) -> None:
    """The bundled policies and credentials, and the files derived from them."""
    for path in sorted((SCENARIOS / "policies").glob("*.pol")) + sorted(
        (SCENARIOS / "creds").glob("*.cred")
    ):
        shutil.copy(path, d / path.name)
    site = (SCENARIOS / "policies" / "s3-site.pol").read_text(encoding="utf-8")
    (d / "mgmt-site.pol").write_text(site.replace("status;", "status, set_priority;"))
    (d / "job.rsl").write_text('&(executable="/opt/vo/apps/transp")(count=1)(maxcputime=600)\n')
    (d / "small.rsl").write_text('&(executable="/opt/vo/apps/transp")(count=1)(maxcputime=100)\n')
    (d / "bob.rsl").write_text('&(executable="/opt/vo/apps/transp")(count=1)(maxcputime=500)\n')
    (d / "gridmap").write_text('"/O=Grid/CN=alice" alice_l\n"/O=Grid/CN=bob" bob_l\n')
    (d / "latin1.pol").write_bytes(b'policy "caf\xe9" source vo {}\n')


def _crlf(d: Path) -> None:
    text = (d / "alice.cap").read_bytes()
    (d / "crlf.cap").write_bytes(text.replace(b"\n", b"\r\n"))


def _short_journal(d: Path) -> None:
    """``short.json``: a copy of the site whose journal lost its last byte."""
    for suffix in ("", ".alt"):
        shutil.copy(d / f"state.json{suffix}", d / f"short.json{suffix}")
    journal = (d / "state.json.journal").read_bytes()
    (d / "short.json.journal").write_bytes(journal[:-1])


#: (name, argv with ``{d}`` for the directory, prep or None), run in order
CASES = [
    # no state file yet: tick and ledger refuse, manage sees an empty site
    ("tick-no-state", f"tick {STATE} --dt 1", None),
    ("ledger-no-state", f"ledger {STATE}", None),
    ("manage-no-state", f"{MANAGE} --job j1 --action status", None),
    # inputs that cannot be read or are of the wrong kind, on a new site
    ("submit-missing-policy",
     f"submit {STATE} --resource-policy {{d}}/nope.pol {ALICE} --rsl {{d}}/job.rsl --runtime 200",
     None),
    ("submit-non-utf8-policy",
     f"submit {STATE} {SITE} --vo-policy {{d}}/latin1.pol {ALICE} --rsl {{d}}/job.rsl --runtime 200",
     None),
    ("submit-vo-document-as-resource-policy",
     f"submit {STATE} --resource-policy {{d}}/s1-fusion.pol {ALICE} --rsl {{d}}/job.rsl --runtime 9",
     None),
    ("submit-missing-cred",
     f"submit {STATE} {PULL} --cred {{d}}/nope.cred --rsl {{d}}/job.rsl --runtime 9", None),
    # the site
    ("submit-a1",
     f"{SUBMIT} --rsl {{d}}/job.rsl --runtime 200 --pool dyn00,dyn01,dyn02 --map {{d}}/gridmap",
     None),
    ("submit-vo-document-as-resource-policy-existing",
     f"submit {STATE} --resource-policy {{d}}/s1-fusion.pol {ALICE} --rsl {{d}}/job.rsl --runtime 9",
     None),
    ("submit-over-quota", f"submit {STATE} {PULL} {BOB} --rsl {{d}}/bob.rsl --runtime 100", None),
    ("submit-denied-explain",
     f"submit {STATE} {PULL} --cred {{d}}/s2-ana.cred --rsl {{d}}/job.rsl --runtime 9 --explain",
     None),
    ("submit-negative-runtime", f"{SUBMIT} --rsl {{d}}/small.rsl --runtime -1", None),
    ("submit-bad-rsl", f"{SUBMIT} --rsl {{d}}/gridmap --runtime 5", None),
    ("submit-b1", f"submit {STATE} {PULL} {BOB} --rsl {{d}}/small.rsl --runtime 500", None),
    ("tick-50", f"tick {STATE} --dt 50", None),
    ("tick-zero", f"tick {STATE} --dt 0", None),
    ("manage-status", f"{MANAGE} --job j1 --action status", None),
    ("manage-set-priority",
     f"{MANAGE} --job j1 --action set_priority --priority 7 --map {{d}}/gridmap", None),
    ("manage-set-priority-without-value", f"{MANAGE} --job j1 --action set_priority", None),
    ("manage-suspend", f"{MANAGE} --job j1 --action suspend", None),
    ("manage-suspend-again", f"{MANAGE} --job j1 --action suspend", None),
    ("tick-10", f"tick {STATE} --dt 10", None),
    ("manage-resume", f"{MANAGE} --job j1 --action resume", None),
    ("manage-other-owner-explain", f"{MANAGE} --job j2 --action cancel --explain", None),
    ("manage-cancel", f"manage {STATE} {PULL} {BOB} --job j2 --action cancel", None),
    ("manage-unknown-job", f"{MANAGE} --job j9 --action status", None),
    ("tick-300", f"tick {STATE} --dt 300", None),
    ("ledger", f"ledger {STATE}", None),
    # a finished job is read from the journal
    ("manage-status-finished", f"{MANAGE} --job j1 --action status", None),
    ("manage-cancel-finished", f"{MANAGE} --job j1 --action cancel", None),
    ("manage-status-finished-missing-policy",
     f"manage {STATE} {SITE} --vo-policy {{d}}/nope.pol {ALICE} --job j1 --action status", None),
    ("manage-status-finished-missing-cred",
     f"manage {STATE} {PULL} --cred {{d}}/nope.cred --job j2 --action status", None),
    ("manage-status-finished-vo-document-as-resource-policy",
     f"manage {STATE} --resource-policy {{d}}/s1-fusion.pol {ALICE} --job j1 --action status",
     None),
    ("manage-status-finished-missing-map",
     f"{MANAGE} --job j1 --action status --map {{d}}/nope.map", None),
    # push mode
    ("issue-cap",
     f"issue-cap --vo-policy {{d}}/s1-fusion.pol {ALICE} --vo-key {KEY} --expiry 1900000000 "
     "--cap {d}/alice.cap", None),
    ("issue-cap-stdout",
     f"issue-cap --vo-policy {{d}}/s1-fusion.pol {BOB} --vo-key {KEY} --expiry 1000000", None),
    ("issue-cap-past-credential-expiry",
     f"issue-cap --vo-policy {{d}}/s1-fusion.pol {ALICE} --vo-key {KEY} --expiry 1900000001",
     None),
    ("issue-cap-no-blocks",
     f"issue-cap --vo-policy {{d}}/s1-fusion.pol --cred {{d}}/s2-ana.cred --vo-key {KEY} "
     "--expiry 1000000", None),
    ("check-pulled", f"{CHECK} --vo-policy {{d}}/s1-fusion.pol", None),
    ("check-pulled-deny-explain",
     f"check {SITE} --vo-policy {{d}}/s1-fusion.pol --cred {{d}}/s2-ana.cred "
     "--rsl {d}/job.rsl --action start --explain", None),
    ("check-pushed", f"{CHECK} {PUSH} --explain", None),
    ("check-pushed-wrong-key", f"{CHECK} --cap {{d}}/alice.cap --vo-key {WRONG_KEY} --explain", None),
    ("check-vo-document-as-resource-policy",
     f"check --resource-policy {{d}}/s1-fusion.pol {ALICE} --rsl {{d}}/job.rsl --action start "
     f"{PUSH}", None),
    ("check-crlf-cap", f"{CHECK} --cap {{d}}/crlf.cap --vo-key {KEY}", _crlf),
    ("submit-pushed", f"submit {STATE} {SITE} {ALICE} {PUSH} --rsl {{d}}/small.rsl --runtime 20",
     None),
    ("submit-pushed-wrong-key",
     f"submit {STATE} {SITE} {ALICE} --cap {{d}}/alice.cap --vo-key {WRONG_KEY} "
     "--rsl {d}/small.rsl --runtime 20", None),
    ("submit-malformed-vo-key",
     f"submit {STATE} {SITE} {ALICE} --cap {{d}}/alice.cap --vo-key fusion "
     "--rsl {d}/small.rsl --runtime 20", None),
    ("submit-short-vo-key",
     f"submit {STATE} {SITE} {ALICE} --cap {{d}}/alice.cap --vo-key fusion=00 "
     "--rsl {d}/small.rsl --runtime 20", None),
    ("submit-crlf-cap",
     f"submit {STATE} {SITE} {ALICE} --cap {{d}}/crlf.cap --vo-key {KEY} "
     "--rsl {d}/small.rsl --runtime 20", None),
    ("manage-pushed-set-priority",
     f"manage {STATE} {SITE} {ALICE} {PUSH} --job j3 --action set_priority --priority 3", None),
    # empty strings name no grid-mapfile and no resource policy
    ("submit-empty-map", f"{SUBMIT} --rsl {{d}}/small.rsl --runtime 5 --map ''", None),
    ("submit-empty-resource-policy",
     f"submit {STATE} --resource-policy '' --vo-policy {{d}}/s1-fusion.pol {ALICE} "
     "--rsl {d}/small.rsl --runtime 5", None),
    ("manage-empty-resource-policy",
     f"manage {STATE} --resource-policy '' --vo-policy {{d}}/s1-fusion.pol {ALICE} "
     "--job j4 --action status", None),
    ("tick-1000", f"tick {STATE} --dt 1000", None),
    ("ledger-after-push", f"ledger {STATE}", None),
    # a journal shorter than the snapshot's journal_bytes
    ("ledger-short-journal", "ledger --state {d}/short.json", _short_journal),
    ("tick-short-journal", "tick --state {d}/short.json --dt 1", None),
    ("manage-short-journal-finished",
     f"manage --state {{d}}/short.json {PULL} {ALICE} --job j1 --action status", None),
    ("submit-short-journal",
     f"submit --state {{d}}/short.json {PULL} {ALICE} --rsl {{d}}/small.rsl --runtime 5", None),
    # two VO documents with one name
    ("check-two-vo-documents-one-name",
     f"{CHECK} --vo-policy {{d}}/s1-fusion.pol --vo-policy {{d}}/s3-fusion.pol", None),
    ("manage-two-vo-documents-one-name",
     f"{MANAGE} --vo-policy {{d}}/s3-fusion.pol --job j4 --action status", None),
    ("submit-two-vo-documents-one-name",
     f"submit --state {{d}}/two.json {PULL} --vo-policy {{d}}/s3-fusion.pol {ALICE} "
     "--rsl {d}/job.rsl --runtime 5 --pool dyn00", None),
    ("ledger-two-vo-documents-one-name", "ledger --state {d}/two.json", None),
    # two keys for one VO
    ("check-two-vo-keys-one-vo", f"{CHECK} {PUSH} --vo-key {WRONG_KEY}", None),
]


def _sha256(*paths: Path):
    """The digest of the files that exist among ``paths``, one after another."""
    found = [path.read_bytes() for path in paths if path.exists()]
    return hashlib.sha256(b"".join(found)).hexdigest() if found else None


def outcome(d: Path, name: str, template: str, prep) -> list:
    """``[name, exit code, stdout, stderr, state sha256, journal sha256]`` of one case."""
    if prep is not None:
        prep(d)
    argv = [arg.replace("{d}", str(d)) for arg in shlex.split(template)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    state = Path(argv[argv.index("--state") + 1]) if "--state" in argv else d / "state.json"
    printed = [s.getvalue().replace(str(d), "<dir>") for s in (out, err)]
    slots = _sha256(state, Path(f"{state}.alt"))
    return [name, code, *printed, slots, _sha256(Path(f"{state}.journal"))]


def run_all(d: Path) -> list:
    make_inputs(d)
    return [outcome(d, name, template, prep) for name, template, prep in CASES]


def test_every_outcome_matches_the_golden_file(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [row[0] for row in golden] == [case[0] for case in CASES]
    wrong = [(want, got) for want, got in zip(golden, run_all(tmp_path)) if want != got]
    assert not wrong, f"{len(wrong)} outcomes differ, first: {wrong[:1]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = run_all(Path(tmp))
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(row, ensure_ascii=False) for row in rows) + "\n]\n",
        encoding="utf-8",
    )
    print(f"wrote {len(rows)} outcomes to {GOLDEN}")
