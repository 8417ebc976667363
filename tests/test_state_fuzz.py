"""State-file mutation fuzz: every edited site fails closed or loads.

Each example copies one committed site (``tests/data/state-v1`` to the
current version's) and makes one edit, to its snapshot or to one
committed line of its journal: a value at some path becomes a value of
another JSON type, -1, 0 or 2**63, or its key (a list entry) is deleted.
A snapshot edit goes to the newest slot, sealed again with its seq
(`state_slots`), so that it reaches `restore`'s checks, not the
checksum's.  It then runs
``ledger``, a ``manage --action status`` of the finished job ``j3`` and
``tick --dt 1`` through `cli.main`; the two reads write nothing, so all
three see the edited site.  Each call must return one of the documented
exit codes and raise nothing.  A call that exits non-zero leaves the
snapshot and the journal as they were, and a ``tick`` that exits 0
leaves a current-version site that ``ledger`` reads again.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridauth.cli import EXIT_DENIED, EXIT_INPUT, EXIT_OK, EXIT_STATE, STATE_VERSION, main

import state_slots

DATA = Path(__file__).resolve().parent / "data"
SITES = tuple(f"state-v{v}" for v in range(1, STATE_VERSION + 1))
CODES = (EXIT_OK, EXIT_DENIED, EXIT_INPUT, EXIT_STATE)

#: what an edited value becomes: a value of each JSON type, and the integer edges
VALUES = (None, True, "x", 2.5, [], {}, -1, 0, 2**63)
MUTATIONS = (("delete",), *(("set", value) for value in VALUES))


def _paths(value, path=()):
    """Every path into a decoded JSON value, the value itself first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _targets() -> list:
    """(site, journal line number or None for the snapshot, path) of each
    value an edit can change."""
    targets = []
    for site in SITES:
        snapshot = state_slots.read(DATA / site / "state.json")
        targets += [(site, None, path) for path in _paths(snapshot)]
        journal = DATA / site / "state.json.journal"
        if journal.exists():
            for n, line in enumerate(journal.read_text().splitlines()):
                targets += [(site, n, path) for path in _paths(json.loads(line))]
    return targets


TARGETS = _targets()


def _edit(document, path, mutation):
    """``document`` with one mutation at ``path``; the root is only replaced."""
    if not path:
        return document if mutation[0] == "delete" else mutation[1]
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if mutation[0] == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutation[1]
    return document


def _files(site: Path) -> dict:
    return {
        name: (site / name).read_bytes()
        for name in ("state.json", "state.json.alt", "state.json.journal")
        if (site / name).exists()
    }


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in CODES, (argv[0], code)
    return code


@given(target=st.sampled_from(TARGETS), mutation=st.sampled_from(MUTATIONS))
# a version-7 snapshot's events that are no list: iterated, either read as no
# events, and a finished-job manage that merged them with the journal's raised
# TypeError
@example(target=("state-v7", None, ("engine", "events")), mutation=("set", ""))
@example(target=("state-v7", None, ("engine", "events")), mutation=("set", {}))
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_one_edit_fails_closed_or_loads(target, mutation):
    name, line, path = target
    with tempfile.TemporaryDirectory() as tmp:
        site = Path(tmp)
        for source in (DATA / name).iterdir():
            shutil.copy(source, site / source.name)
        state = site / "state.json"
        snapshot = state_slots.read(state)
        if line is None:
            snapshot = _edit(snapshot, path, mutation)
        else:  # the edited line is committed: the snapshot covers the new journal
            lines = (site / "state.json.journal").read_text().splitlines()
            lines[line] = json.dumps(_edit(json.loads(lines[line]), path, mutation))
            journal = "".join(text + "\n" for text in lines).encode()
            (site / "state.json.journal").write_bytes(journal)
            snapshot["journal_bytes"] = len(journal)
        state_slots.write(state, json.dumps(snapshot))

        cred = "dave.cred" if (site / "dave.cred").exists() else "carol.cred"
        policies = ["--resource-policy", str(site / "site.pol"),
                    "--vo-policy", str(site / "fusion.pol")]
        ledger = ["ledger", "--state", str(state)]
        for argv in (
            ledger,
            ["manage", "--state", str(state), *policies, "--cred", str(site / cred),
             "--job", "j3", "--action", "status"],
            ["tick", "--state", str(state), "--dt", "1"],
        ):
            before = _files(site)
            code = _run(argv)
            if code != EXIT_OK:
                assert _files(site) == before, argv[0]
            elif argv[0] == "tick":
                assert state_slots.read(state)["version"] == STATE_VERSION
                assert _run(ledger) == EXIT_OK
