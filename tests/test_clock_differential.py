"""Differential test: `JobManager.tick` against the per-second reference stepper.

Twin engines receive the same seeded stream of submissions, management
requests, snapshot/restore round trips and ticks.  One advances with
`tick(dt)`, the other with `reference_clock.reference_tick`; after every
tick both must have returned the same events and hold the same
`snapshot()`.
"""

from __future__ import annotations

import copy
import json
import random

from gridauth.credential import GridCredential, GridMapFile
from gridauth.enforce import DynamicAccountPool
from gridauth.jobmgr import JobManager, JobManagerError, SimProfile
from gridauth.policy import parse_policy
from gridauth.rsl import JobAction
from reference_clock import reference_tick

RESOURCE = parse_policy(
    'policy "site" source resource { trust vo "fusion"; subject any {'
    " allow action start, cancel, status, suspend, resume, set_priority; } }"
)
VO = parse_policy(
    'policy "fusion" source vo {\n'
    "  allocation 100000000 cpu-seconds;\n"
    '  member-quota "/O=Grid/CN=bob" 4000 cpu-seconds;\n'
    '  subject group "members" { allow action start; attr maxmemory max 4096; }\n'
    "}\n"
)
ALICE = GridCredential("/O=Grid/CN=alice", expiry=10**9, vo="fusion", groups={"members"})
BOB = GridCredential("/O=Grid/CN=bob", expiry=10**9, vo="fusion", groups={"members"})
LOCAL = GridCredential("/O=Grid/CN=local", expiry=10**9)
GHOST = GridCredential("/O=Grid/CN=ghost", expiry=10**9)
CREDS = {c.subject: c for c in (ALICE, BOB, LOCAL, GHOST)}
# bob and ghost are unmapped, so their jobs run on leased dynamic accounts
GRIDMAP = GridMapFile({ALICE.subject: "alice_l", LOCAL.subject: "local_l"})
MANAGEMENT = (
    JobAction.SUSPEND,
    JobAction.RESUME,
    JobAction.CANCEL,
    JobAction.SET_PRIORITY,
    JobAction.STATUS,
)


def _engine() -> JobManager:
    return JobManager(
        resource_policy=RESOURCE,
        vo_policies=[VO],
        gridmap=GRIDMAP,
        pool=DynamicAccountPool(f"dyn{i}" for i in range(5)),
    )


def _restore(state: dict) -> JobManager:
    return JobManager.restore(
        copy.deepcopy(state), resource_policy=RESOURCE, vo_policies=[VO], gridmap=GRIDMAP
    )


def _submission(rng: random.Random, cred: GridCredential) -> tuple:
    """An RSL text and profile whose cpu cap sits below, at or above the runtime."""
    count = rng.randint(1, 8)
    clauses = ['&(executable="/x")', f"(count={count})"]
    if cred.vo is not None or rng.random() < 0.5:
        maxcputime = rng.randint(1, 40)
        cap = count * maxcputime  # the sandbox's cpu cap
        runtime = rng.choice([
            0,
            cap,
            max(cap - rng.randint(1, count + 2), 0),
            cap + rng.randint(1, 2 * count),
            rng.randint(0, 3 * cap),
        ])
        clauses.append(f"(maxcputime={maxcputime})")
    else:
        runtime = rng.choice([0, rng.randint(1, 400)])
    memory = rng.randint(0, 200)
    if rng.random() < 0.3:
        clauses.append(f"(maxmemory={rng.randint(1, 200)})")
    return "".join(clauses), SimProfile(runtime, memory)


def _dt(rng: random.Random) -> int:
    roll = rng.random()
    if roll < 0.6:
        return rng.randint(1, 3)
    if roll < 0.96:
        return rng.randint(1, 40)
    return rng.choice([500, rng.randint(41, 500)])


def _as_stored(state: dict) -> dict:
    """The state as a file would hold it."""
    return json.loads(json.dumps(state))


def _apply(engine: JobManager, op: tuple):
    """Run one non-tick operation; returns its result or its exception type."""
    kind, args = op
    try:
        if kind == "submit":
            return engine.gatekeeper_submit(*args)
        job_id, action, priority = args
        cred = CREDS[engine.jobs[job_id].owner]
        record = engine.manage(job_id, action, cred, priority=priority)
        return record.state, record.consumed, record.priority
    except (JobManagerError, ValueError) as exc:  # both twins must refuse alike
        return type(exc).__name__


def test_event_jump_tick_matches_per_second_stepper():
    rng = random.Random(0xC10C)
    ticks = restores = 0
    seen: set = set()
    for _ in range(40):
        jump, stepped = _engine(), _engine()
        for _ in range(120):
            roll = rng.random()
            if roll < 0.04:
                state = _as_stored(jump.snapshot())
                assert stepped.snapshot() == jump.snapshot()
                jump, stepped = _restore(state), _restore(state)
                restores += 1
            elif roll < 0.55:
                dt = _dt(rng)
                events = jump.tick(dt)
                assert events == reference_tick(stepped, dt), f"tick({dt}) events differ"
                assert jump.snapshot() == stepped.snapshot(), f"tick({dt}) state differs"
                # "state=failed limit=cpu", "state=done consumed=0 refunded=0", ...
                seen.update(e.detail.split()[1] for e in events if e.name in ("failed", "done"))
                ticks += 1
            else:
                if roll < 0.75 or not jump.jobs:
                    cred = rng.choice(list(CREDS.values()))
                    op = ("submit", (cred, *_submission(rng, cred)))
                else:
                    job_id = rng.choice(list(jump.jobs))
                    op = ("manage", (job_id, rng.choice(MANAGEMENT), rng.randint(-3, 3)))
                assert _apply(jump, op) == _apply(stepped, op)
    assert ticks >= 2000 and restores >= 50
    # every way a job can end was exercised
    assert {"limit=cpu", "limit=memory", "consumed=0"} <= seen
