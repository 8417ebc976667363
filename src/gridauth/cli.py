"""Command-line frontend over the in-process simulator.

One binary, seven subcommands: ``check`` asks the decision point
directly; ``submit``, ``manage``, ``tick`` and ``ledger`` drive a
persistent simulated site; ``issue-cap`` mints a signed capability;
``scenario`` replays a scripted scenario in memory.

State persists between invocations so shell scripts can chain them.
``--state`` names a small JSON snapshot of the live site (clock, pool,
ledger, live jobs, requests as attribute maps, so no command re-parses
RSL); the events and finished jobs go to an append-only journal beside
it, which only a ``manage`` of a finished job reads.  The snapshot,
which records how much of the journal it covers, lives in two slot
files, ``<state>`` and ``<state>.alt``, each a header line
(``gridauth-state 9 <seq> <length> <crc32>``) and the JSON payload.  A
read takes the newest slot whose checksum holds.  A write appends to the
journal, then overwrites the other slot in place with the next seq; its
fsync is the commit point, so a crash leaves the site before or after
the write.  A command holds a lock on the state.
The four site commands open it through one skeleton, `_site`: lock,
read the snapshot, load the documents, grid-mapfile and VO keys once,
merge the journal only for a ``manage`` of a job the snapshot lacks,
and restore once; `JobManager.restore` alone judges the stored job rows
(a snapshot of version 4 or later must hold no events: the journal holds
the history).  A missing state file (neither slot exists)
is an empty new site for ``submit`` and ``manage``, and exit 3 (``no
state file at ...``) for ``tick`` and ``ledger``; slot files of which
none is valid exit 3 for every command.
Versions 8 and 9 store each job, live in the snapshot or finished in the
journal, as one JSON array in `jobmgr.JOB_FIELDS` order, with its
profile as ``[runtime, memory_peak]`` and its sandbox as ``[max_cpu,
max_memory]``, so no key name is stored per job.  An
older state version passes one upgrade step per version (`_UPGRADES`)
before `JobManager.restore`, which reads only the current version.
Policies, credentials and tokens are files named per command.  Two
``--vo-policy`` documents of one name are refused, as are two
``--vo-key`` entries for one VO and an ``issue-cap --expiry`` past the
credential's own (all exit 2).  Exit codes: 0 success/permit, 1 denied
or illegal, 2 bad input, 3 state-file trouble.
"""

from __future__ import annotations

import argparse
import functools
import heapq
import json
import os
import re
import sys
import zlib
from contextlib import contextmanager

from .credential import (
    ACCOUNT_NAME_RE,
    load_credential,
    load_gridmap,
    load_token,
    format_token,
    sign_capability,
)
from .enforce import DynamicAccountPool, QuotaExceededError
from .jobmgr import (
    DeniedByPolicyError,
    IllegalTransitionError,
    JOB_FIELDS,
    JobManager,
    JobManagerError,
    NoAccountsAvailableError,
    SimProfile,
    TERMINAL_STATES,
    _require_int,
)
from .pdp import (
    AuthzQuery,
    InvalidQueryError,
    NoApplicableBlocksError,
    authorize,
    derive_capability,
    explain,
    vo_documents,
)
from .policy import PolicyError, parse_policy
from .rsl import JobAction, parse_rsl
from .scenario import ScenarioError, run_scenario

EXIT_OK = 0
EXIT_DENIED = 1
EXIT_INPUT = 2
EXIT_STATE = 3

STATE_VERSION = 9
_FINISHED = frozenset(state.value for state in TERMINAL_STATES)
_ID, _STATE = JOB_FIELDS.index("id"), JOB_FIELDS.index("state")  # a row's places


def _without(record: dict, *keys) -> dict:
    return {key: value for key, value in record.items() if key not in keys}


def _each_job(step):
    return lambda engine: dict(engine, jobs=[step(job) for job in engine["jobs"]])


def _leases_as_list(engine: dict) -> dict:
    """Versions 1 and 2 map each leased job id to its account and an expiry,
    and store a lease TTL.  A lease must name its job's account; `restore`
    refuses one on a job that is not live or on an account held before."""
    _require_int(engine["lease_ttl"], "lease_ttl")
    live = {job["id"]: job["account"] for job in engine["jobs"] if job["state"] not in _FINISHED}
    leases, held = engine["pool"]["leased"], set()
    for job_id, lease in leases.items():
        _require_int(lease["expires_at"], "expires_at")
        account = live.get(job_id)
        if account is not None and account not in held:
            held.add(account)
            if lease["account"] != account:
                raise ValueError(
                    f"lease on {lease['account']!r} names job {job_id}, which runs on {account!r}"
                )
    return dict(_without(engine, "lease_ttl"), pool=dict(engine["pool"], leased=list(leases)))


def _request_as_map(job: dict) -> dict:
    """Versions 1-4 store a request as RSL text."""
    request = job["request"]
    return dict(job, request=parse_rsl(request).attributes) if isinstance(request, str) else job


def _without_disk(job: dict) -> dict:
    """Versions 1-5 also store a disk figure and cap, and the credential's
    groups; ignoring a set cap would change what the job does."""
    sandbox = job["sandbox"]
    if "max_disk" not in sandbox:
        return job
    if sandbox["max_disk"] is not None:
        raise ValueError(f"job {job['id']} max_disk {sandbox['max_disk']!r} is set, "
                         "but the sandbox enforces no disk cap")
    return dict(job, profile=_without(job["profile"], "disk"),
                sandbox=_without(sandbox, "max_disk", "groups"))


def _job_as_row(job: dict) -> list:
    """Versions 1-7 store a job as a map, and its profile and caps as maps.
    A sandbox map of other keys stays as it is, for `restore` to refuse."""
    row, profile, sandbox = [job[field] for field in JOB_FIELDS], job["profile"], job["sandbox"]
    row[JOB_FIELDS.index("profile")] = [profile["runtime"], profile["memory_peak"]]
    if sandbox.keys() == {"max_cpu", "max_memory"}:
        row[JOB_FIELDS.index("sandbox")] = [sandbox["max_cpu"], sandbox["max_memory"]]
    return row


#: the step that turns each old version's engine dict into the next one's.
#: Version 2 dropped each job's jobtag and dynamic-account flag, version 4
#: moved the history to the journal (the dict kept its form), version 7 the
#: target, which no decision read; version 8 stores each job as a row, and
#: version 9 only moved the snapshot into two checksummed slots.  A
#: journal keeps each line as written, so `_load_state` sends a job line of
#: versions 4-7 through the job steps from 4 on; the 4 and 5 steps pass on a
#: job already in the next form.
_UPGRADES = {
    1: _each_job(lambda job: _without(job, "jobtag", "dynamic_account")),
    2: _leases_as_list,
    3: lambda engine: engine,
    4: _each_job(_request_as_map),
    5: _each_job(_without_disk),
    6: lambda engine: _without(engine, "target"),
    7: _each_job(_job_as_row),
    8: lambda engine: engine,
}
READABLE_STATE_VERSIONS = (*_UPGRADES, STATE_VERSION)


def _upgrade(engine: dict, version: int) -> dict:
    """An engine dict of ``version`` as the current version stores it."""
    for old in range(version, STATE_VERSION):
        engine = _UPGRADES[old](engine)
    return engine


_COMPACT = {"sort_keys": True, "separators": (",", ":")}
#: `json.dumps(value, **_COMPACT)` without building an encoder per call; the
#: snapshot it encodes is fresh dicts and lists, so it holds no cycle to check
_encode = json.JSONEncoder(check_circular=False, **_COMPACT).encode

#: the two snapshot slots, as suffixes of the state path, and a slot's header
_SLOTS = ("", ".alt")
_HEADER = re.compile(rb"gridauth-state 9 ([0-9]{1,20}) .*\n")


class StateFileError(Exception):
    pass


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------


def _read(path: str, what: str, newline: str | None = None) -> str:
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from None


def _load_policy_file(path: str):
    return parse_policy(_read(path, "policy"))


def _load_cred_file(path: str):
    return load_credential(_read(path, "credential"))


def _load_token_file(path: str):
    """The token a file holds, read with no newline translation, so that a
    file whose lines end in CRLF or CR is refused as not canonical."""
    return load_token(_read(path, "capability", newline=""))


def _parse_vo_keys(entries) -> dict:
    registry = {}
    for entry in entries or []:
        name, sep, hexkey = entry.partition("=")
        if not sep:
            raise InputError(f"--vo-key expects <vo>=<hex>, got {entry!r}")
        try:
            key = bytes.fromhex(hexkey)
        except ValueError:
            raise InputError(f"--vo-key for '{name}' is not hex") from None
        if len(key) != 32:
            raise InputError(f"--vo-key for '{name}' must be 32 bytes (64 hex chars)")
        if name in registry:
            raise InputError(f"--vo-key for '{name}' is given twice")
        registry[name] = key
    return registry


@contextmanager
def _state_lock(path: str):
    try:  # a descriptor, not a text file: the lock file is never read or written
        fd = os.open(path + ".lock", os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        raise StateFileError(f"cannot lock state file {path!r}: {exc}") from None
    try:
        try:
            import fcntl

            fcntl.flock(fd, fcntl.LOCK_EX)
        except ImportError:  # pragma: no cover
            pass
        yield
    finally:
        os.close(fd)


def _malformed(path: str, exc: Exception) -> StateFileError:
    return StateFileError(
        f"state file {path!r} is incomplete or malformed: {type(exc).__name__}: {exc}"
    )


def _check_event(event, where: str, n: int) -> dict:
    if type(event["t"]) is not int:  # bool is an int subclass, but no time
        raise ValueError(f"{where} {n} t must be an integer, not {event['t']!r}")
    for key in ("job", "name", "detail"):
        if not isinstance(event[key], str):
            raise ValueError(f"{where} {n} {key} must be a string, not {event[key]!r}")
    return event


def _seal(seq: int, payload: bytes) -> bytes:
    """One slot's bytes: the header line, whose checksum covers ``seq``,
    the payload's length and the payload, then the payload."""
    head = b"%d %d" % (seq, len(payload))
    return b"gridauth-state 9 %s %d\n%s" % (head, zlib.crc32(payload, zlib.crc32(head)), payload)


def _newest_slot(path: str) -> tuple[tuple[int, int], bytes] | None:
    """``((seq, slot), payload)`` of the newest valid slot at ``path``, the
    slot an index into `_SLOTS`, or None if neither slot file exists.

    The headers order the slots, and the first, newest one whose length
    and checksum hold wins; a slot that fails them (a torn write) is
    skipped.  A ``path`` without a header is a version 1-8 file, at seq 0.
    """
    files, candidates = 0, []
    for slot, suffix in enumerate(_SLOTS):
        try:
            with open(path + suffix, "rb") as f:
                data = f.read()
        except FileNotFoundError:
            continue
        except OSError as exc:
            raise StateFileError(f"cannot read state file {path + suffix!r}: {exc}") from None
        files += 1
        if (header := _HEADER.match(data)) is not None:
            candidates.append((int(header[1]), slot, data, header.end()))
        elif not (slot or data.startswith(b"gridauth-state ")):
            candidates.append((0, slot, data, 0))  # no header, so no checksum
    for seq, slot, data, start in sorted(candidates, reverse=True):
        payload = data[start:]
        if not start or _seal(seq, payload) == data:
            return (seq, slot), payload
    if files:
        raise StateFileError(f"no slot of state file {path!r} is valid")
    return None


def _read_snapshot(path: str) -> tuple[dict | None, int, tuple[int, int] | None]:
    """The engine dict stored at ``path``, the journal length it covers and
    the ``(seq, slot)`` of the slot that holds it.

    A snapshot of version 4 or later holds only what its journal does
    not: the live jobs and the site's clock, pool and ledger.  Its
    ``events`` must be empty, since the journal holds the history.  An
    older file holds the whole site, events included, and covers no
    journal.  A state with neither slot file reads as ``(None, 0, None)``.
    The stored rows are left for `JobManager.restore` to judge.
    """
    newest = _newest_slot(path)
    if newest is None:
        return None, 0, None
    where, payload = newest
    try:
        data = json.loads(payload.decode("utf-8"))
    # ValueError: also bad UTF-8, and an integer past the int-string digit limit
    except ValueError as exc:
        raise StateFileError(f"cannot read state file {path!r}: {exc}") from None
    if not isinstance(data, dict) or data.get("format") != "gridauth-state":
        raise StateFileError(f"{path!r} is not a gridauth state file")
    version = data.get("version")
    # `True == 1` and `1.0 == 1`, so the type is checked first
    if type(version) is not int or version not in READABLE_STATE_VERSIONS:
        raise StateFileError(f"state file version {version!r} unsupported")
    engine = data.get("engine")
    if not isinstance(engine, dict):
        raise StateFileError(f"state file {path!r} holds no engine")
    try:
        events = engine["events"]
        if type(events) is not list:  # "" or {} would iterate as no events
            raise ValueError(f"events must be a list, not {events!r}")
        if events and version >= 4:
            raise ValueError(f"a version-{version} snapshot's events belong in its journal")
        for i, event in enumerate(events):
            _check_event(event, "event", i)
        engine = _upgrade(engine, version)
    # AttributeError: a list where an old version holds an object
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise _malformed(path, exc) from None
    if version < 4:
        return engine, 0, where
    journal_bytes = data.get("journal_bytes")
    if type(journal_bytes) is not int or journal_bytes < 0:
        raise StateFileError(
            f"state file {path!r} has no valid journal_bytes: {journal_bytes!r}"
        )
    journal = path + ".journal"
    try:
        have = os.stat(journal).st_size
    except FileNotFoundError:
        have = 0
    except OSError as exc:
        raise StateFileError(f"cannot read journal {journal!r}: {exc}") from None
    _require_journal(journal, have, journal_bytes)
    return engine, journal_bytes, where


def _require_journal(journal: str, have: int, journal_bytes: int) -> None:
    if have < journal_bytes:
        raise StateFileError(
            f"journal {journal!r} holds {have} bytes, "
            f"but the snapshot covers {journal_bytes}"
        )


def _load_state(path: str) -> dict | None:
    """The whole site's engine dict stored at ``path``: `_read_snapshot`,
    then `_with_journal` if the snapshot covers any journal."""
    engine, journal_bytes, _ = _read_snapshot(path)
    return _with_journal(path, engine, journal_bytes) if journal_bytes else engine


def _with_journal(path: str, engine: dict, journal_bytes: int) -> dict:
    """The snapshot ``engine`` read at ``path`` merged with the first
    ``journal_bytes`` (at least one) bytes of its journal: the journal's
    events, and its finished jobs merged in submission order into the
    snapshot's live ones.

    Journal bytes past the snapshot's ``journal_bytes`` belong to a
    command that never committed and are ignored.  Each line must be an
    event or a finished job, but the rows themselves are not judged here:
    the merge never raises on a row, and a malformed one, a job the
    journal and the snapshot both hold, or snapshot rows out of order
    are left for `JobManager.restore` to refuse in its own words.
    """
    journal = path + ".journal"
    try:
        with open(journal, "rb") as f:
            committed = f.read(journal_bytes)
    except OSError as exc:
        raise StateFileError(f"cannot read journal {journal!r}: {exc}") from None
    events, jobs = [], []
    try:
        if len(committed) < journal_bytes or not committed.endswith(b"\n"):
            raise ValueError(f"the journal's first {journal_bytes} bytes end mid-line")
        # one parse of all lines takes about a third of the time of one per line
        entries = json.loads(b"[" + committed[:-1].replace(b"\n", b",") + b"]")
        if len(entries) != committed.count(b"\n"):
            raise ValueError("a journal line holds other than one JSON value")
        for n, entry in enumerate(entries, 1):
            if not isinstance(entry, dict) or len(entry) != 1:
                raise ValueError(f"journal line {n} is not a one-key object")
            (kind, record), = entry.items()
            if kind == "event":
                events.append(_check_event(record, "journal line", n))
            elif kind == "job" and type(record) is dict and record["state"] in _FINISHED:
                # a line written before version 8
                jobs += _upgrade({"jobs": [record]}, 4)["jobs"]
            elif (kind == "job" and type(record) is list and len(record) == len(JOB_FIELDS)
                  and record[_STATE] in _FINISHED):
                jobs.append(record)
            else:
                raise ValueError(f"journal line {n} holds no event or finished job")
        # merged, not sorted, into the snapshot's rows, whose order `restore` checks
        jobs = list(heapq.merge(sorted(jobs, key=_job_order), engine["jobs"], key=_job_order))
    # AttributeError: a list where an old version holds an object
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise _malformed(path, exc) from None
    return dict(engine, jobs=jobs, events=events)


def _job_order(row) -> tuple[int, str]:
    """A job row's place in submission order: its id's length, then its
    text, which order ``j<n>`` ids by ``n``.  It never raises: a row that
    is not a list, or whose id is not text, goes first, and `restore`
    names the fault of each row it refuses wherever the row sits."""
    job_id = row[_ID] if type(row) is list and row else None
    return (len(job_id), job_id) if type(job_id) is str else (0, "")


def _save_state(path: str, engine: JobManager, journal_bytes: int = 0,
                newest: tuple[int, int] | None = None) -> None:
    """Commit ``engine``, which holds the history after the journal's first
    ``journal_bytes`` bytes: all of it, by default.

    Finished jobs and events go to the journal, the rest to the snapshot.
    The journal is cut back to ``journal_bytes`` (dropping what a crashed
    command left), appended to and synced.  Then the snapshot covering it
    overwrites, in place and with the next seq, the slot that does not
    hold ``newest``, the ``(seq, slot)`` of the newest valid slot as the
    caller read it (None: read it here); the sync of that slot is the
    commit point.  A slot file that does not exist yet is created whole:
    a temporary file, synced, replaces it, and the directory is synced.
    """
    state = engine.snapshot()
    live = [job for job in state["jobs"] if job[_STATE] not in _FINISHED]
    tail = [_encode({"event": e}) for e in state["events"]]
    tail += [_encode({"job": job}) for job in state["jobs"] if job[_STATE] in _FINISHED]
    tail = "".join(line + "\n" for line in tail).encode("utf-8")
    state.update(jobs=live, events=[])
    payload = {
        "format": "gridauth-state",
        "version": STATE_VERSION,
        "journal_bytes": journal_bytes + len(tail),
        "engine": state,
    }
    if newest is None:
        found = _newest_slot(path)
        newest = found[0] if found else (0, 1)  # a new site's first commit: slot 0, seq 1
    seq, slot = newest[0] + 1, 1 - newest[1]
    record = _seal(seq, (_encode(payload) + "\n").encode("utf-8"))
    journal, target, tmp = path + ".journal", path + _SLOTS[slot], path + ".tmp"
    try:
        created = not os.path.exists(journal)
        # only an empty journal may be created; a missing one that should
        # hold history fails here without a trace on disk
        flags = os.O_WRONLY | os.O_APPEND | (0 if journal_bytes else os.O_CREAT)
        with os.fdopen(os.open(journal, flags, 0o666), "ab") as f:
            # never let truncate zero-extend the journal
            _require_journal(journal, os.fstat(f.fileno()).st_size, journal_bytes)
            f.truncate(journal_bytes)
            f.write(tail)
            f.flush()
            os.fsync(f.fileno())
        if created:
            _fsync_dir(path)
        try:
            f, new_slot = open(target, "r+b"), False
        except FileNotFoundError:
            f, new_slot = open(tmp, "wb"), True
        with f:
            f.write(record)
            f.truncate()  # the slot may have held a longer record
            f.flush()
            os.fsync(f.fileno())
        if new_slot:
            os.replace(tmp, target)
            _fsync_dir(path)
    except OSError as exc:
        raise StateFileError(f"cannot write state file {path!r}: {exc}") from None


def _fsync_dir(path: str) -> None:
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextmanager
def _site(args, new: bool, job: str | None = None):
    """The site stored at ``args.state``, locked for the command, as
    ``(engine, save)``: ``save()`` commits the engine to the slot that
    does not hold the snapshot read.

    A missing file is an empty new site if ``new``, else a state error.
    The documents, grid-mapfile and VO keys are loaded once, and
    `JobManager.restore` runs once.  It restores the snapshot's live
    site, or, when no row of the snapshot has ``job``'s id, the whole
    site: a finished job lives only in the journal, which is merged into
    the snapshot already read, so the slots are read once.  No change is
    legal on a finished job, but were one made, saving the whole site
    from an empty journal would still be right.
    """
    pool = [name.strip() for name in (args.pool or "").split(",") if name.strip()]
    for name in pool:  # checked before the lock, so a bad name writes no file
        if not ACCOUNT_NAME_RE.match(name):
            raise InputError(f"--pool: bad account name {name!r}")
    with _state_lock(args.state):
        state, journal_bytes, newest = _read_snapshot(args.state)
        if state is None and not new:
            raise StateFileError(f"no state file at {args.state!r}")
        inputs = dict(
            resource_policy=_load_policy_file(args.resource_policy) if args.resource_policy else None,
            vo_policies=[_load_policy_file(path) for path in args.vo_policy or []],
            gridmap=load_gridmap(_read(args.map, "grid-mapfile")) if args.map else None,
            key_registry=_parse_vo_keys(args.vo_key),
        )
        if state is None:
            engine = JobManager(pool=DynamicAccountPool(pool), **inputs)
        else:
            # does a decoded row hold the job (by `_job_order`'s key for its id)?
            # The probe judges no row and never raises: `restore` judges them
            live = map(_job_order, state["jobs"] if type(state.get("jobs")) is list else ())
            if journal_bytes and job is not None and (len(job), job) not in live:
                state, journal_bytes = _with_journal(args.state, state, journal_bytes), 0
            try:
                engine = JobManager.restore(state, **inputs)
            except (PolicyError, InvalidQueryError):
                raise  # a policy of the wrong kind is bad input, not bad state
            # AttributeError: a list where the ledger holds an object
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise _malformed(args.state, exc) from None
        yield engine, functools.partial(_save_state, args.state, engine, journal_bytes, newest)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    if args.cap and args.vo_policy:
        raise InputError("use either --vo-policy (pull) or --cap (push), not both")
    resource = _load_policy_file(args.resource_policy)
    cred = _load_cred_file(args.cred)
    action = JobAction(args.action)
    request = None
    if action is JobAction.START:
        if not args.rsl:
            raise InputError("start checks need --rsl")
        request = parse_rsl(_read(args.rsl, "rsl"))
    query = AuthzQuery(
        credential=cred, action=action, request=request, jobtag=args.jobtag, owner=args.owner
    )
    token, registry, vo_docs = None, {}, {}
    if args.cap:
        token, registry = _load_token_file(args.cap), _parse_vo_keys(args.vo_key)
    elif args.vo_policy:
        vo_docs = vo_documents(_load_policy_file(path) for path in args.vo_policy)
    decision = authorize(query, resource, vo_docs, token, registry, args.now)
    print(decision.effect)
    if args.explain:
        print(explain(decision))
    return EXIT_OK if decision.permitted else EXIT_DENIED


def cmd_submit(args) -> int:
    with _site(args, new=True) as (engine, save):
        cred = _load_cred_file(args.cred)
        token = _load_token_file(args.cap) if args.cap else None
        profile = SimProfile(runtime=args.runtime, memory_peak=args.memory)
        job_id = engine.gatekeeper_submit(
            cred, _read(args.rsl, "rsl"), profile, token=token
        )
        save()
        job = engine.job_record(job_id)
        print(f"job={job.id} state={job.state.value} reserved={job.reserved}")
    return EXIT_OK


def cmd_manage(args) -> int:
    with _site(args, new=True, job=args.job) as (engine, save):
        cred = _load_cred_file(args.cred)
        token = _load_token_file(args.cap) if args.cap else None
        action = JobAction(args.action)
        job = engine.manage(
            args.job, action, cred, token=token, priority=args.priority
        )
        if action is JobAction.STATUS:
            print(
                f"job={job.id} state={job.state.value} owner={job.owner} "
                f"consumed={job.consumed} reserved={job.reserved} "
                f"priority={job.priority}"
            )
        else:
            save()
            print(f"job={job.id} state={job.state.value}")
    return EXIT_OK


def cmd_tick(args) -> int:
    with _site(args, new=False) as (engine, save):
        events = engine.tick(args.dt)
        save()
        for event in events:
            print(event.line)
    return EXIT_OK


def cmd_ledger(args) -> int:
    with _site(args, new=False) as (engine, _):
        report = engine.ledger_report()
        if report:
            print(report)
    return EXIT_OK


def cmd_issue_cap(args) -> int:
    vo_doc = _load_policy_file(args.vo_policy)
    cred = _load_cred_file(args.cred)
    registry = _parse_vo_keys(args.vo_key)
    if vo_doc.name not in registry:
        raise InputError(f"--vo-key must provide the key for vo '{vo_doc.name}'")
    claims = derive_capability(vo_doc, cred, args.expiry)
    token = sign_capability(registry[vo_doc.name], claims)
    text = format_token(token)
    if args.cap:
        try:
            with open(args.cap, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.cap!r}: {exc}") from None
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_scenario(args) -> int:
    report = run_scenario(args.script)
    for line in report.lines:
        print(line)
    return EXIT_OK if report.all_passed else EXIT_DENIED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built once: building costs far more than a parse, which leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="gridauth",
        description="Fine-grain authorization simulator for grid job management.",
    )
    # what a command without the flag reads: tick and ledger restore the
    # site under no documents, grid-mapfile or keys
    parser.set_defaults(resource_policy=None, vo_policy=None, map=None, vo_key=None,
                        pool=None, explain=False)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def command(name: str, func, help: str, site: bool = False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if site:  # a site command names its state file first
            p.add_argument("--state", metavar="FILE", required=True)
        return p

    def add_decision_flags(p):
        p.add_argument("--resource-policy", metavar="FILE", required=True)
        p.add_argument("--vo-policy", metavar="FILE", action="append")
        p.add_argument("--cap", metavar="FILE")
        p.add_argument("--vo-key", metavar="VO=HEX", action="append")
        p.add_argument("--cred", metavar="FILE", required=True)

    check = command("check", cmd_check, "evaluate one authorization query")
    add_decision_flags(check)
    check.add_argument("--rsl", metavar="FILE")
    check.add_argument(
        "--action", required=True, choices=[a.value for a in JobAction]
    )
    check.add_argument("--jobtag")
    check.add_argument("--owner", metavar="DN")
    check.add_argument("--now", type=int, default=0)
    check.add_argument("--explain", action="store_true")

    submit = command("submit", cmd_submit, "submit a job to the simulated site", site=True)
    add_decision_flags(submit)
    submit.add_argument("--rsl", metavar="FILE", required=True)
    submit.add_argument("--map", metavar="FILE", help="grid-mapfile")
    submit.add_argument("--pool", metavar="A,B,...", help="dynamic accounts (new state only)")
    submit.add_argument("--runtime", type=int, required=True)
    submit.add_argument("--memory", type=int, default=0)
    submit.add_argument("--explain", action="store_true")

    manage = command("manage", cmd_manage, "manage an existing job", site=True)
    add_decision_flags(manage)
    manage.add_argument("--map", metavar="FILE", help="grid-mapfile")
    manage.add_argument("--job", required=True)
    manage.add_argument(
        "--action",
        required=True,
        choices=[a.value for a in JobAction if a is not JobAction.START],
    )
    manage.add_argument("--priority", type=int)
    manage.add_argument("--explain", action="store_true")

    tick = command("tick", cmd_tick, "advance the simulated clock", site=True)
    tick.add_argument("--dt", type=int, required=True)
    command("ledger", cmd_ledger, "print the allocation ledger", site=True)

    issue = command("issue-cap", cmd_issue_cap, "derive and sign a capability token")
    issue.add_argument("--vo-policy", metavar="FILE", required=True)
    issue.add_argument("--cred", metavar="FILE", required=True)
    issue.add_argument("--vo-key", metavar="VO=HEX", action="append", required=True)
    issue.add_argument("--expiry", type=int, required=True)
    issue.add_argument("--cap", metavar="FILE", help="write the token here instead of stdout")

    scenario = command("scenario", cmd_scenario, "run a scripted scenario")
    scenario.add_argument("script", metavar="SCRIPT")

    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return EXIT_INPUT
    try:
        return args.func(args)
    except DeniedByPolicyError as exc:
        print(f"denied: {exc}", file=sys.stderr)
        if args.explain:
            print(explain(exc.decision), file=sys.stderr)
        return EXIT_DENIED
    except (
        QuotaExceededError,
        NoAccountsAvailableError,
        IllegalTransitionError,
        NoApplicableBlocksError,
    ) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_DENIED
    except StateFileError as exc:
        print(f"state error: {exc}", file=sys.stderr)
        return EXIT_STATE
    except ScenarioError as exc:
        print(f"script error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InputError, JobManagerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
