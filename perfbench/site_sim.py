"""site-sim: one in-process JobManager driven by submits, management and ticks.

A small policy with a VO allocation and member quotas, a grid-mapfile
for half the users and a dynamic account pool for the rest.  Over the
simulated horizon thousands of jobs finish while tens to hundreds stay
live, so the per-second ``tick`` scan dominates and the PDP does little.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from gridauth.credential import GridCredential, GridMapFile, sign_capability
from gridauth.enforce import DynamicAccountPool, QuotaExceededError, UnknownMemberError
from gridauth.jobmgr import (
    TERMINAL_STATES,
    TRANSITIONS,
    DeniedByPolicyError,
    IllegalTransitionError,
    JobManager,
    JobState,
    NoAccountsAvailableError,
    SimProfile,
)
from gridauth.pdp import derive_capability
from gridauth.policy import parse_policy
from gridauth.rsl import JobAction

from common import Failure, Op, error_name

VO = "fusion"
N_USERS = 40
N_MAPPED = 20
N_OPERATORS = 4
N_PUSHERS = 8
#: pushers who are also operators: their tokens carry the operators block as
#: well, so their pushes are the costliest requests; a fixed number keeps the
#: request tail in that cost mode on every seed
N_OPERATOR_PUSHERS = 2
N_QUOTA = 6
QUOTA = 15_000
ALLOCATION = 10_000_000
POOL = tuple(f"dyn{i:03d}" for i in range(160))
#: one tick per interval; each interval also carries ``dt`` submits and one
#: management request, so a pass holds 3000 submits over 3000 seconds
TICK_DTS = (1, 2, 3, 4, 5) * 200
PUSH_SUBMITS = 600
RECENT = 150
MANAGE_ACTIONS = ("status",) * 6 + ("suspend",) * 4 + ("resume",) * 4 + ("set_priority",) * 3 + ("cancel",) * 3
#: refusals that are outcomes of the simulated site, not failures
OUTCOMES = (DeniedByPolicyError, QuotaExceededError, IllegalTransitionError, NoAccountsAvailableError)
#: event name -> lifecycle move it records (``failed`` covers limit kills and faults)
EVENT_MOVES = {
    "activate": ("activate",),
    "suspend": ("suspend",),
    "resume": ("resume",),
    "cancel": ("cancel",),
    "done": ("complete",),
    "failed": ("limit_kill", "fault"),
}


def policy_texts(rng: random.Random, quota_members: list) -> tuple:
    resource = (
        'policy "site" source resource {\n'
        f'  trust vo "{VO}";\n'
        "  subject any {\n"
        "    allow action start, status, cancel, suspend, resume, set_priority;\n"
        "    attr count max 8;\n"
        "  }\n"
        "}\n"
    )
    quotas = "".join(f'  member-quota "{dn}" {QUOTA} cpu-seconds;\n' for dn in quota_members)
    vo = (
        f'policy "{VO}" source vo {{\n'
        f"  allocation {ALLOCATION} cpu-seconds;\n"
        f"{quotas}"
        '  subject group "members" {\n'
        "    allow action start, status;\n"
        '    attr executable in {"/opt/fusion/*"};\n'
        "    attr count range 1..8;\n"
        "    attr maxcputime max 600;\n"
        "    attr maxmemory max 4096;\n"
        '    attr jobtag in {"batch", "sweep", "debug"};\n'
        "  }\n"
        '  subject group "operators" {\n'
        '    allow action cancel, suspend, resume, set_priority on jobtag "batch", "sweep";\n'
        "    allow action status;\n"
        "  }\n"
        "}\n"
    )
    return resource, vo


def job_input(rng: random.Random) -> tuple:
    """RSL text and simulated profile of one submitted job."""
    count = rng.choice((1, 1, 2, 2, 4, 8))
    seconds = rng.randint(20, 180)
    roll = rng.random()
    maxcputime = min(600, seconds + rng.randint(10, 200))
    memory = rng.randint(100, 2000)
    if roll < 0.08:
        maxcputime = seconds - rng.randint(5, 15)  # killed at the cpu cap
    elif roll < 0.12:
        memory = 8192  # killed at the memory cap
    clauses = [
        f'(executable="/opt/fusion/{rng.choice(("transp", "gyro", "nimrod"))}")',
        f"(count={count})",
        f'(jobtag="{rng.choice(("batch", "sweep", "debug"))}")',
    ]
    roll = rng.random()
    if roll < 0.02:
        pass  # no maxcputime: refused while accounting is active
    elif roll < 0.05:
        clauses += [f"(maxcputime={maxcputime})", '(queue="gold")']
        clauses[0] = '(executable="/usr/bin/evil")'
    else:
        clauses.append(f"(maxcputime={maxcputime})")
    if rng.random() < 0.5:
        clauses.append("(maxmemory=4096)")
    rng.shuffle(clauses)
    return "&" + "".join(clauses), SimProfile(runtime=count * seconds, memory_peak=memory)


class SiteSim:
    name = "site-sim"
    slots = ("request", "tick")

    def __init__(self, seed: int, workdir):
        rng = random.Random(f"site-sim/{seed}")
        dns = [f"/O=Grid/OU=site/CN=member{i:02d}" for i in range(N_USERS)]
        operators = set(rng.sample(dns, N_OPERATORS))
        self.creds = {
            dn: GridCredential(dn, 10**9, VO, {"members", "operators"} if dn in operators else {"members"})
            for dn in dns
        }
        self.users = dns
        resource_text, vo_text = policy_texts(rng, sorted(rng.sample(dns, N_QUOTA)))
        self.resource_doc = parse_policy(resource_text)
        self.vo_doc = parse_policy(vo_text)
        self.gridmap = GridMapFile({dn: f"local{i:02d}" for i, dn in enumerate(sorted(rng.sample(dns, N_MAPPED)))})
        key = rng.randbytes(32)
        self.registry = {VO: key}
        pushers = rng.sample(sorted(operators), N_OPERATOR_PUSHERS) + rng.sample(
            [dn for dn in dns if dn not in operators], N_PUSHERS - N_OPERATOR_PUSHERS)
        self.tokens = {
            dn: sign_capability(key, derive_capability(self.vo_doc, self.creds[dn], 10**9)) for dn in pushers
        }
        pullers = [dn for dn in dns if dn not in self.tokens]

        n_submits = sum(TICK_DTS)
        pushed = set(rng.sample(range(n_submits), PUSH_SUBMITS))
        dts = list(TICK_DTS)
        rng.shuffle(dts)
        ops, submitted = [], 0
        for dt in dts:
            interval = []
            for _ in range(dt):
                dn = rng.choice(pushers if submitted in pushed else pullers)
                text, profile = job_input(rng)
                interval.append(Op(0, "submit", (dn, text, profile)))
                submitted += 1
            roll = rng.random()
            if roll < 0.7:
                who = "owner"
            elif roll < 0.9:
                who = rng.choice(sorted(operators))
            else:
                who = rng.choice(dns)
            action = rng.choice(MANAGE_ACTIONS)
            priority = rng.randint(0, 9) if action == "set_priority" else None
            interval.append(Op(0, "manage", (rng.randint(1, RECENT), who, action, priority)))
            rng.shuffle(interval)
            ops += interval
            ops.append(Op(1, "tick", (dt,)))
        self.ops = ops

    # -- one pass ---------------------------------------------------------

    def begin_pass(self):
        engine = JobManager(
            resource_policy=self.resource_doc,
            vo_policies=[self.vo_doc],
            gridmap=self.gridmap,
            pool=DynamicAccountPool(POOL),
            key_registry=self.registry,
        )
        return SimpleNamespace(engine=engine, admitted=[], owners={})

    def execute(self, ctx, op: Op):
        engine = ctx.engine
        try:
            if op.kind == "tick":
                return engine.tick(op.args[0])
            if op.kind == "submit":
                dn, text, profile = op.args
                try:
                    job_id = engine.gatekeeper_submit(self.creds[dn], text, profile, token=self.tokens.get(dn))
                except OUTCOMES as exc:
                    return error_name(exc)
                ctx.admitted.append(job_id)
                ctx.owners[job_id] = dn
                return job_id
            offset, who, action, priority = op.args
            if not ctx.admitted:
                return "no-job"
            job_id = ctx.admitted[-min(offset, len(ctx.admitted))]
            dn = ctx.owners[job_id] if who == "owner" else who
            try:
                job = engine.manage(
                    job_id, JobAction(action), self.creds[dn], token=self.tokens.get(dn), priority=priority
                )
            except OUTCOMES as exc:
                return error_name(exc)
            return job
        except Exception:
            return Failure.current()

    def render(self, output) -> str:
        if isinstance(output, str):
            return output
        if isinstance(output, list):
            return "\n".join(e.line for e in output)
        return f"{output.id} {output.state.value} {output.consumed} {output.reserved} {output.priority}"

    def end_pass(self, ctx) -> list:
        return ctx.engine.event_lines() + [ctx.engine.ledger_report()]

    # -- checks -----------------------------------------------------------

    def check(self, ctx, outputs: list) -> list:
        engine = ctx.engine
        jobs = [engine.job_record(job_id) for job_id in ctx.admitted]
        failures = []

        charged: dict = {}
        for job in jobs:
            if job.accounted:
                amount = job.consumed if job.state in TERMINAL_STATES else job.reserved
                charged[job.vo] = charged.get(job.vo, 0) + amount
                charged[(job.vo, job.owner)] = charged.get((job.vo, job.owner), 0) + amount
        for vo in engine.ledger.vos():
            if engine.ledger.vo_used(vo) != charged.get(vo, 0):
                failures.append((None, f"ledger: vo {vo} used {engine.ledger.vo_used(vo)}, jobs hold {charged.get(vo, 0)}"))
            for dn in self.users:
                try:
                    used = engine.ledger.member_used(vo, dn)
                except UnknownMemberError:
                    used = 0
                if used != charged.get((vo, dn), 0):
                    failures.append((None, f"ledger: member {dn} used {used}, jobs hold {charged.get((vo, dn), 0)}"))

        leased = [
            job.account for job in jobs
            if job.state not in TERMINAL_STATES and self.gridmap.lookup(job.owner) is None
        ]
        if sorted(list(engine.pool.free_accounts) + leased) != sorted(POOL):
            failures.append((None, "pool: free plus leased accounts differ from the pool"))

        states: dict = {}
        for line in engine.event_lines():
            fields = dict(part.split("=", 1) for part in line.split(" ", 3)[:3])
            job_id, name = fields["job"], fields["event"]
            state = states.get(job_id)
            if name == "submit" and state is None:
                states[job_id] = JobState.PENDING
            elif name == "set_priority" and state is not None and state not in TERMINAL_STATES:
                pass
            else:
                moves = {TRANSITIONS.get((state, move)) for move in EVENT_MOVES.get(name, ())} - {None}
                if len(moves) != 1:
                    failures.append((None, f"events: illegal '{name}' for {job_id} in {state}"))
                    continue
                states[job_id] = moves.pop()
        for job in jobs:
            if states.get(job.id) is not job.state:
                failures.append((None, f"events: {job.id} ends {states.get(job.id)}, job is {job.state}"))
        return failures

    def layer_counts(self, ctx) -> dict:
        return {"jobmgr.events": len(ctx.engine.event_lines()), "cli.state_bytes": 0}

    def population(self) -> str:
        return (f"users={N_USERS} mapped={N_MAPPED} pushers={N_PUSHERS} (operators={N_OPERATOR_PUSHERS}) quota_members={N_QUOTA} "
                f"pool={len(POOL)} pass=({sum(TICK_DTS)} submits, {len(TICK_DTS)} manage, "
                f"{len(TICK_DTS)} ticks over {sum(TICK_DTS)} s)")

    def close(self) -> None:
        pass
