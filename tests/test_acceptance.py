"""Acceptance suite.

One test per criterion, each printing a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Stated runtime
budgets are asserted inside the tests themselves.

A1  combined resource/VO accounting scenario, exact ledger lines
A2  per-group fine-grain permit/deny matrix with first failed assertion
A3  VO-wide management, byte-exact event log, owner baseline
A4  push == pull over >= 1000 randomized (credential, policy, request)
    when the token's VO is the credential's; push denies otherwise
A5  decision point agrees with the brute-force oracle on >= 1000 cases
A6  state-machine safety and ledger conservation over >= 10^4 random ops
A7  baseline mode: owner-only management, mapped users submit
"""

from __future__ import annotations

import dataclasses
import functools
import random
import time
from pathlib import Path

import pytest

import oracle
from generators import rand_credential, rand_policy, rand_query, rand_trust
from gridauth.credential import GridCredential, GridMapFile, sign_capability
from gridauth.enforce import DynamicAccountPool, QuotaExceededError
from gridauth.jobmgr import (
    DeniedByPolicyError,
    IllegalTransitionError,
    JobManager,
    JobState,
    NoAccountsAvailableError,
    SimProfile,
    TERMINAL_STATES,
    TRANSITIONS,
)
from gridauth.pdp import (
    AuthzQuery,
    PolicySourceSet,
    TraceEntry,
    decide,
    decide_push,
    derive_capability,
    NoApplicableBlocksError,
)
from gridauth.policy import PolicyDocument, parse_policy
from gridauth.rsl import JobAction, parse_rsl
from gridauth.scenario import run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
KEY = bytes(range(32))


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"{name}: FAIL")
                raise
            print(f"{name}: PASS")
            return result

        return wrapper

    return deco


def _cred(cn, groups=(), vo="fusion"):
    return GridCredential(
        subject=f"/O=Grid/CN={cn}", expiry=10**9, vo=vo, groups=frozenset(groups)
    )


# ---------------------------------------------------------------------------
# A1: combining policies from different sources
# ---------------------------------------------------------------------------


@criterion("A1 combined-source accounting scenario")
def test_a1_allocation_and_quota_lifecycle():
    started = time.perf_counter()
    resource = parse_policy(
        'policy "site" source resource { trust vo "fusion";'
        " subject any { allow action start; } }"
    )
    vo = parse_policy(
        'policy "fusion" source vo {\n'
        "  allocation 1000 cpu-seconds;\n"
        '  member-quota "/O=Grid/CN=alice" 600 cpu-seconds;\n'
        '  member-quota "/O=Grid/CN=bob" 600 cpu-seconds;\n'
        '  subject group "members" { allow action start; }\n'
        "}"
    )
    alice, bob = _cred("alice", {"members"}), _cred("bob", {"members"})
    eng = JobManager(
        resource_policy=resource,
        vo_policies=[vo],
        gridmap=GridMapFile(
            {"/O=Grid/CN=alice": "alice_l", "/O=Grid/CN=bob": "bob_l"}
        ),
    )

    job = eng.gatekeeper_submit(
        alice,
        '&(executable="/opt/vo/apps/transp")(count=1)(maxcputime=600)',
        SimProfile(runtime=200),
    )
    assert eng.job_record(job).state is JobState.PENDING
    assert eng.ledger_report().splitlines() == [
        "vo=fusion used=600/1000",
        "member=/O=Grid/CN=alice used=600/600",
        "member=/O=Grid/CN=bob used=0/600",
    ]

    with pytest.raises(QuotaExceededError) as denial:
        eng.gatekeeper_submit(
            bob,
            '&(executable="/opt/vo/apps/transp")(count=1)(maxcputime=500)',
            SimProfile(runtime=100),
        )
    assert denial.value.scope == "vo"
    assert eng.ledger_report().splitlines() == [
        "vo=fusion used=600/1000",
        "member=/O=Grid/CN=alice used=600/600",
        "member=/O=Grid/CN=bob used=0/600",
    ]

    eng.tick(200)
    record = eng.job_record(job)
    assert record.state is JobState.DONE and record.consumed == 200
    assert eng.ledger_report().splitlines() == [
        "vo=fusion used=200/1000",
        "member=/O=Grid/CN=alice used=200/600",
        "member=/O=Grid/CN=bob used=0/600",
    ]

    eng.gatekeeper_submit(
        bob,
        '&(executable="/opt/vo/apps/transp")(count=1)(maxcputime=500)',
        SimProfile(runtime=100),
    )
    assert eng.ledger_report().splitlines() == [
        "vo=fusion used=700/1000",
        "member=/O=Grid/CN=alice used=200/600",
        "member=/O=Grid/CN=bob used=500/600",
    ]

    # the same story as a bundled scenario script
    report = run_scenario(SCENARIOS / "scenario1.script")
    assert report.all_passed and report.passed >= 10

    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# A2: fine-grain control matrix
# ---------------------------------------------------------------------------


@criterion("A2 fine-grain permit/deny matrix")
def test_a2_group_matrix_with_first_failed_assertion():
    started = time.perf_counter()
    resource = parse_policy(
        'policy "site" source resource { trust vo "fusion";'
        " subject any { allow action start; } }"
    )
    vo = parse_policy(
        'policy "fusion" source vo {\n'
        '  subject group "developers" {\n'
        "    allow action start;\n"
        '    attr executable in {"/opt/vo/dbg/*"};\n'
        "    attr maxcputime max 600;\n"
        "    require attr jobtag;\n"
        "    closed-world;\n"
        "  }\n"
        '  subject group "analysts" {\n'
        "    allow action start;\n"
        '    attr executable in {"/opt/vo/apps/transp"};\n'
        "    attr count range 1..512;\n"
        "  }\n"
        "}"
    )
    dev = _cred("dave", {"developers"})
    ana = _cred("ana", {"analysts"})

    matrix = [
        # (credential, rsl, expected effect, expected first failed assertion)
        (dev, '&(executable="/opt/vo/dbg/gdb")(maxcputime=300)(jobtag="dev")',
         "permit", None),
        (dev, '&(executable="/opt/vo/dbg/gdb")(maxcputime=900)(jobtag="dev")',
         "deny", "attr maxcputime: value 900 fails max 600"),
        (dev, '&(executable="/opt/vo/dbg/gdb")(maxcputime=300)',
         "deny", "require attr jobtag: attribute missing"),
        (dev, '&(executable="/opt/vo/dbg/gdb")(maxcputime=300)(jobtag="dev")(queue="gold")',
         "deny", "closed-world rejects attribute 'queue'"),
        (ana, '&(executable="/opt/vo/apps/transp")(count=512)',
         "permit", None),
        (ana, '&(executable="/opt/vo/apps/transp")(count=600)',
         "deny", "attr count: value 600 fails range 1..512"),
        (ana, '&(executable="/opt/vo/apps/transp")(count=1)',
         "permit", None),
        (ana, '&(executable="/opt/vo/apps/transp")(count=1)(queue="gold")',
         "permit", None),
    ]
    assert len(matrix) == 8
    for cred, rsl, effect, first_failure in matrix:
        query = AuthzQuery(
            credential=cred,
            action=JobAction.START,
            target="site",
            request=parse_rsl(rsl),
        )
        decision = decide(query, PolicySourceSet(resource, vo))
        assert decision.effect == effect, (rsl, decision)
        vo_entries = [e for e in decision.trace if e.source == "vo"]
        if effect == "deny":
            assert vo_entries and vo_entries[0].reason == first_failure, (
                rsl,
                vo_entries,
            )
        else:
            assert any(e.outcome == "permit" for e in vo_entries)

    report = run_scenario(SCENARIOS / "scenario2.script")
    assert report.all_passed and report.passed >= 12

    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# A3: VO-wide management
# ---------------------------------------------------------------------------


@criterion("A3 VO-wide management with byte-exact event log")
def test_a3_tagged_job_management():
    started = time.perf_counter()
    resource = parse_policy(
        'policy "site" source resource { trust vo "fusion";'
        " subject any { allow action start, suspend, resume, cancel, status; } }"
    )
    vo = parse_policy(
        'policy "fusion" source vo {\n'
        '  subject group "members" { allow action start; }\n'
        '  subject group "admins" { allow action suspend, cancel on jobtag "fusion-prod"; }\n'
        "}"
    )
    alice = _cred("alice", {"members"})
    carol = _cred("carol", {"admins"})
    eng = JobManager(
        resource_policy=resource,
        vo_policies=[vo],
        gridmap=GridMapFile({"/O=Grid/CN=alice": "alice_l"}),
    )

    tagged = eng.gatekeeper_submit(
        alice,
        '&(executable="/opt/vo/apps/transp")(jobtag="fusion-prod")',
        SimProfile(runtime=100),
    )
    eng.tick(2)
    assert eng.manage(tagged, JobAction.SUSPEND, carol).state is JobState.SUSPENDED
    assert eng.manage(tagged, JobAction.CANCEL, carol).state is JobState.CANCELED

    untagged = eng.gatekeeper_submit(
        alice, '&(executable="/opt/vo/apps/transp")', SimProfile(runtime=100)
    )
    with pytest.raises(DeniedByPolicyError):
        eng.manage(untagged, JobAction.SUSPEND, carol)
    status = eng.manage(untagged, JobAction.STATUS, alice)
    assert status.state is JobState.PENDING

    assert eng.event_lines() == [
        "t=0 job=j1 event=submit detail=owner=/O=Grid/CN=alice state=pending reserved=0",
        "t=0 job=j1 event=activate detail=state=active",
        "t=2 job=j1 event=suspend detail=state=suspended by=/O=Grid/CN=carol",
        "t=2 job=j1 event=cancel detail=state=canceled by=/O=Grid/CN=carol",
        "t=2 job=j2 event=submit detail=owner=/O=Grid/CN=alice state=pending reserved=0",
    ]

    # owner status keeps working when every policy document is empty
    eng.resource_policy = PolicyDocument(name="empty", source="resource")
    eng.vo_policies = {"fusion": PolicyDocument(name="fusion", source="vo")}
    assert eng.manage(untagged, JobAction.STATUS, alice).state is JobState.PENDING
    with pytest.raises(DeniedByPolicyError):
        eng.manage(untagged, JobAction.STATUS, carol)

    report = run_scenario(SCENARIOS / "scenario3.script")
    assert report.all_passed and report.passed >= 6

    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# A4: push == pull
# ---------------------------------------------------------------------------


@criterion("A4 push/pull equivalence over 1000 randomized triples, VO binding")
def test_a4_push_equals_pull():
    started = time.perf_counter()
    rng = random.Random(0xA4)
    compared = 0
    mismatched = 0
    attempts = 0
    while compared < 1000:
        attempts += 1
        assert attempts < 20_000, "generator starved"
        cred = rand_credential(rng)
        vo_doc = rand_policy(rng, "vo", min_blocks=1, with_accounting=True)
        resource_doc = rand_policy(rng, "resource", name="site", trust=rand_trust(rng))
        # the token is issued to ``cred``; the query may present another VO
        presented = rng.choice(
            (cred,) * 8
            + (
                dataclasses.replace(cred, vo="astro"),
                dataclasses.replace(cred, vo=None, groups=frozenset()),
            )
        )
        query = rand_query(rng, presented, with_budget=True)

        pull = decide(query, PolicySourceSet(resource_doc, vo_doc))
        try:
            claims = derive_capability(vo_doc, cred, expiry=10**9)
        except NoApplicableBlocksError:
            # with no applicable blocks the pull-mode VO source denies too
            assert not any(
                e.source == "vo" and e.outcome == "permit" for e in pull.trace
            )
            continue
        token = sign_capability(KEY, claims)
        push = decide_push(query, resource_doc, token, {vo_doc.name: KEY}, now=0)

        if presented.vo != cred.vo:
            assert push.effect == "deny"
            assert push.trace == (TraceEntry("vo", None, "deny", "vo-mismatch"),)
            mismatched += 1
            continue
        assert push.effect == pull.effect
        assert push.charged_estimate == pull.charged_estimate
        # a permitted start's obligations: the fragment keeps the blocks
        # verbatim, the allocation and the member's own quota
        assert (push.caps, push.terms) == (pull.caps, pull.terms)
        applicable = [
            i
            for i, b in enumerate(vo_doc.blocks)
            if oracle.matcher_applies(b.matcher, cred.subject, cred.groups)
        ]
        pull_permits = {
            e.block
            for e in pull.trace
            if e.source == "vo" and e.outcome == "permit" and e.block is not None
        }
        push_permits = {
            applicable[e.block]
            for e in push.trace
            if e.source == "vo" and e.outcome == "permit" and e.block is not None
        }
        assert push_permits == pull_permits
        compared += 1

    elapsed = time.perf_counter() - started
    assert compared == 1000
    assert mismatched >= 100
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# A5: oracle equivalence
# ---------------------------------------------------------------------------


@criterion("A5 oracle equivalence over 1000 randomized cases")
def test_a5_brute_force_agreement():
    started = time.perf_counter()
    rng = random.Random(0xA5)
    for _ in range(1000):
        has_vo = rng.random() < 0.8
        cred = rand_credential(rng, vo="fusion" if has_vo else None)
        resource_doc = rand_policy(rng, "resource", name="site", trust=rand_trust(rng))
        vo_doc = rand_policy(rng, "vo") if rng.random() < 0.8 else None
        query = rand_query(rng, cred)
        expected = oracle.brute_decide(query, resource_doc, vo_doc)
        got = decide(query, PolicySourceSet(resource_doc, vo_doc)).effect
        assert got == expected, (query, resource_doc, vo_doc)
    assert time.perf_counter() - started < 10.0


# ---------------------------------------------------------------------------
# A6: structural properties
# ---------------------------------------------------------------------------


def _check_structures(eng: JobManager, pool_accounts: list):
    # ledger conservation: vo usage == live reservations + settled consumption
    expected: dict[str, int] = {}
    for job in eng.jobs.values():
        if not job.accounted:
            continue
        charge = job.consumed if job.state in TERMINAL_STATES else job.reserved
        expected[job.vo] = expected.get(job.vo, 0) + charge
    for vo, amount in expected.items():
        assert eng.ledger.vo_used(vo) == amount
    # ledger internal invariants
    for vo, acct in eng.ledger.to_dict().items():
        assert acct["used"] >= 0
        if acct["allocation"] is not None:
            assert acct["used"] <= acct["allocation"]
        member_sum = 0
        for member in acct["members"].values():
            assert member["used"] >= 0
            if member["quota"] is not None:
                assert member["used"] <= member["quota"]
            member_sum += member["used"]
        assert member_sum <= acct["used"]
    # no lost accounts: the free accounts and those of live unmapped jobs
    # partition the pool
    leased = [
        job.account
        for job in eng.jobs.values()
        if job.state not in TERMINAL_STATES and eng.gridmap.lookup(job.owner) is None
    ]
    assert sorted(list(eng.pool.free_accounts) + leased) == sorted(pool_accounts)


def _single_step_targets():
    targets: dict[JobState, set] = {}
    for (state, _event), nxt in TRANSITIONS.items():
        targets.setdefault(state, set()).add(nxt)
    return targets


def _reachable():
    step = _single_step_targets()
    reach: dict[JobState, set] = {}
    for state in JobState:
        seen: set = set()
        frontier = [state]
        while frontier:
            current = frontier.pop()
            for nxt in step.get(current, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        reach[state] = seen
    return reach


@criterion("A6 state-machine safety and ledger conservation (10^4 ops)")
def test_a6_structural_properties():
    started = time.perf_counter()
    one_step = _single_step_targets()
    multi_step = _reachable()
    rng = random.Random(0xA6)

    resource = parse_policy(
        'policy "site" source resource { trust vo "fusion"; subject any {'
        " allow action start, suspend, resume, cancel, status, set_priority; } }"
    )
    vo = parse_policy(
        'policy "fusion" source vo { allocation 100000 cpu-seconds;'
        '  member-quota "/O=Grid/CN=alice" 60000 cpu-seconds;'
        '  subject group "members" { allow action start; } }'
    )
    alice = _cred("alice", {"members"})
    bob = _cred("bob", {"members"})
    creds = {"/O=Grid/CN=alice": alice, "/O=Grid/CN=bob": bob}
    actions = (JobAction.SUSPEND, JobAction.RESUME, JobAction.CANCEL, JobAction.SET_PRIORITY)

    total_ops = 0
    violations = 0
    for _ in range(50):  # 50 sequences x 200 operations
        pool_accounts = [f"dyn{i:02d}" for i in range(8)]
        eng = JobManager(
            resource_policy=resource,
            vo_policies=[vo],
            gridmap=GridMapFile({"/O=Grid/CN=alice": "alice_l"}),
            pool=DynamicAccountPool(pool_accounts),
        )
        ids: list[str] = []
        for _ in range(200):
            total_ops += 1
            before = {j: eng.job_record(j).state for j in ids}
            roll = rng.random()
            ticked = False
            try:
                if roll < 0.30:
                    count = rng.randint(1, 3)
                    budget = rng.randint(1, 30)
                    ids.append(
                        eng.gatekeeper_submit(
                            rng.choice((alice, bob)),
                            f'&(executable="/x")(count={count})(maxcputime={budget})',
                            SimProfile(runtime=rng.randint(0, 50)),
                        )
                    )
                elif roll < 0.70 and ids:
                    job_id = rng.choice(ids)
                    owner = eng.job_record(job_id).owner
                    eng.manage(
                        job_id,
                        rng.choice(actions),
                        creds[owner],
                        priority=rng.randint(-2, 2),
                    )
                else:
                    ticked = True
                    eng.tick(rng.randint(1, 3))
            except (IllegalTransitionError, QuotaExceededError, NoAccountsAvailableError):
                pass
            # a manage call moves at most one table edge; a tick may chain
            # several, but always along table edges; terminal states absorb
            for job_id, old in before.items():
                new = eng.job_record(job_id).state
                if new is old:
                    continue
                if old in TERMINAL_STATES:
                    violations += 1
                elif new not in (multi_step[old] if ticked else one_step.get(old, set())):
                    violations += 1
            _check_structures(eng, pool_accounts)

    assert total_ops >= 10_000
    assert violations == 0
    assert time.perf_counter() - started < 30.0


# ---------------------------------------------------------------------------
# A7: baseline mode
# ---------------------------------------------------------------------------


@criterion("A7 baseline owner-only management")
def test_a7_baseline_gram_mode():
    resource = parse_policy(
        'policy "open" source resource { subject any { allow action start; } }'
    )
    alice = GridCredential("/O=Grid/CN=alice", expiry=10**9)
    bob = GridCredential("/O=Grid/CN=bob", expiry=10**9)
    eng = JobManager(
        resource_policy=resource,
        vo_policies=[],
        gridmap=GridMapFile(
            {"/O=Grid/CN=alice": "alice_l", "/O=Grid/CN=bob": "bob_l"}
        ),
    )

    # any mapped user can submit what the resource policy allows
    j_alice = eng.gatekeeper_submit(
        alice, '&(executable="/bin/work")(count=1)', SimProfile(runtime=30)
    )
    j_bob = eng.gatekeeper_submit(
        bob, '&(executable="/bin/work")(count=1)', SimProfile(runtime=30)
    )
    eng.tick(1)

    # owners manage their own jobs freely
    assert eng.manage(j_alice, JobAction.STATUS, alice).state is JobState.ACTIVE
    assert eng.manage(j_alice, JobAction.SUSPEND, alice).state is JobState.SUSPENDED
    assert eng.manage(j_alice, JobAction.RESUME, alice).state is JobState.ACTIVE

    # nobody else can do anything, not even query status
    for action in (JobAction.STATUS, JobAction.SUSPEND, JobAction.CANCEL,
                   JobAction.RESUME, JobAction.SET_PRIORITY):
        with pytest.raises(DeniedByPolicyError):
            eng.manage(j_alice, action, bob, priority=1)
    assert eng.job_record(j_alice).state is JobState.ACTIVE

    # and symmetrically for bob's job
    with pytest.raises(DeniedByPolicyError):
        eng.manage(j_bob, JobAction.CANCEL, alice)
    assert eng.manage(j_bob, JobAction.CANCEL, bob).state is JobState.CANCELED

    # an unmapped user without dynamic accounts cannot enter at all
    ghost = GridCredential("/O=Grid/CN=ghost", expiry=10**9)
    with pytest.raises(NoAccountsAvailableError):
        eng.gatekeeper_submit(ghost, '&(executable="/bin/work")', SimProfile(runtime=1))
