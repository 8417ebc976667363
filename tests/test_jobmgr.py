"""Gatekeeper/job-manager engine tests: admission, lifecycle, clock, accounting."""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridauth import jobmgr, pdp, policy
from gridauth.credential import (
    CapabilityToken,
    GridCredential,
    GridMapFile,
    canonical_claims_text,
    sign_capability,
)
from gridauth.enforce import DynamicAccountPool, QuotaExceededError
from gridauth.jobmgr import (
    DeniedByPolicyError,
    Event,
    IllegalTransitionError,
    JOB_FIELDS,
    JobManager,
    JobState,
    NoAccountsAvailableError,
    SimProfile,
    TERMINAL_STATES,
    TRANSITIONS,
    UnknownJobError,
)
from gridauth.pdp import derive_capability
from gridauth.policy import format_policy, parse_policy
from gridauth.rsl import JobAction, RslError, parse_rsl
from reference_clock import reference_tick

KEY = bytes(range(32))

ALICE = GridCredential("/O=Grid/CN=alice", expiry=10**9, vo="fusion", groups={"members"})
BOB = GridCredential("/O=Grid/CN=bob", expiry=10**9, vo="fusion", groups={"members"})
CAROL = GridCredential("/O=Grid/CN=carol", expiry=10**9, vo="fusion", groups={"admins"})
GHOST = GridCredential("/O=Grid/CN=ghost", expiry=10**9, vo="fusion", groups={"members"})

GRIDMAP = GridMapFile(
    {
        "/O=Grid/CN=alice": "alice_l",
        "/O=Grid/CN=bob": "bob_l",
        "/O=Grid/CN=carol": "carol_l",
    }
)

RESOURCE = parse_policy(
    'policy "site" source resource { trust vo "fusion"; subject any {'
    " allow action start, cancel, status, suspend, resume, set_priority; } }"
)

VO_ACCOUNTING = parse_policy(
    'policy "fusion" source vo {\n'
    "  allocation 1000 cpu-seconds;\n"
    '  member-quota "/O=Grid/CN=alice" 600 cpu-seconds;\n'
    '  member-quota "/O=Grid/CN=bob" 600 cpu-seconds;\n'
    '  subject group "members" { allow action start; }\n'
    '  subject group "admins" { allow action suspend, cancel on jobtag "fusion-prod"; }\n'
    "}\n"
)

VO_PLAIN = parse_policy(
    'policy "fusion" source vo {\n'
    '  subject group "members" { allow action start; }\n'
    '  subject group "admins" { allow action suspend, cancel on jobtag "fusion-prod"; }\n'
    "}\n"
)

TRANSP = '&(executable="/opt/vo/apps/transp")(count=1)(maxcputime=600)'


def _engine(vo=VO_ACCOUNTING, pool=(), gridmap=GRIDMAP, **kw):
    return JobManager(
        resource_policy=RESOURCE,
        vo_policies=[vo] if vo else [],
        gridmap=gridmap,
        pool=DynamicAccountPool(pool),
        key_registry={"fusion": KEY},
        **kw,
    )


class TestSubmit:
    def test_admission_reserves_count_times_maxcputime(self):
        eng = _engine()
        rsl = '&(executable="/opt/vo/apps/transp")(count=3)(maxcputime=50)'
        job_id = eng.gatekeeper_submit(ALICE, rsl, SimProfile(runtime=60))
        job = eng.job_record(job_id)
        request = parse_rsl(rsl)
        assert job.state is JobState.PENDING
        assert job.reserved == request.attributes["count"] * request.attributes["maxcputime"]
        assert eng.ledger.vo_used("fusion") == job.reserved

    def test_denied_executable_for_wrong_group(self):
        vo = parse_policy(
            'policy "fusion" source vo { subject group "members" {'
            " allow action start;"
            ' attr executable in {"/opt/vo/dbg/*"}; } }'
        )
        eng = _engine(vo=vo)
        with pytest.raises(DeniedByPolicyError) as exc:
            eng.gatekeeper_submit(ALICE, TRANSP, SimProfile(runtime=10))
        reasons = [e.reason for e in exc.value.decision.trace if e.reason]
        assert any("fails" in r for r in reasons)
        assert eng.jobs == {}

    def test_unmapped_dn_leases_dynamic_account(self):
        eng = _engine(pool=("dyn00",))
        job_id = eng.gatekeeper_submit(GHOST, TRANSP, SimProfile(runtime=10))
        job = eng.job_record(job_id)
        assert job.account == "dyn00"
        assert eng.pool.free_accounts == ()

    def test_unmapped_dn_with_empty_pool_is_atomic(self):
        eng = _engine()
        before = eng.ledger.report()
        with pytest.raises(NoAccountsAvailableError):
            eng.gatekeeper_submit(GHOST, TRANSP, SimProfile(runtime=10))
        assert eng.ledger.report() == before
        assert eng.jobs == {}
        assert eng.event_lines() == []

    def test_quota_denial_changes_nothing(self):
        eng = _engine()
        eng.gatekeeper_submit(ALICE, TRANSP, SimProfile(runtime=200))
        before = eng.ledger.report()
        with pytest.raises(QuotaExceededError) as exc:
            eng.gatekeeper_submit(
                BOB,
                '&(executable="/opt/vo/apps/transp")(count=1)(maxcputime=500)',
                SimProfile(runtime=100),
            )
        assert exc.value.scope == "vo"
        assert eng.ledger.report() == before
        assert len(eng.jobs) == 1

    def test_parse_error_propagates(self):
        from gridauth.rsl import RslError

        eng = _engine()
        with pytest.raises(RslError):
            eng.gatekeeper_submit(ALICE, "&(count=1)(count=2)", SimProfile(runtime=1))

    def test_push_submission(self):
        eng = _engine(vo=None)  # resource knows nothing about the VO locally
        claims = derive_capability(VO_ACCOUNTING, ALICE, expiry=10**9)
        token = sign_capability(KEY, claims)
        job_id = eng.gatekeeper_submit(ALICE, TRANSP, SimProfile(runtime=10), token=token)
        job = eng.job_record(job_id)
        assert job.reserved == 600
        # the pushed fragment's allocation and quota registered in the ledger
        assert eng.ledger.to_dict()["fusion"]["allocation"] == 1000
        assert eng.ledger.member_used("fusion", ALICE.subject) == 600

    def test_push_management(self):
        # the site holds no fusion policy; carol's rights travel in her token
        eng = _engine(vo=None)
        alice_claims = derive_capability(VO_PLAIN, ALICE, expiry=10**9)
        job_id = eng.gatekeeper_submit(
            ALICE,
            '&(executable="/opt/vo/apps/transp")(jobtag="fusion-prod")',
            SimProfile(runtime=100),
            token=sign_capability(KEY, alice_claims),
        )
        eng.tick(1)
        carol_token = sign_capability(KEY, derive_capability(VO_PLAIN, CAROL, expiry=10**9))
        job = eng.manage(job_id, JobAction.SUSPEND, CAROL, token=carol_token)
        assert job.state is JobState.SUSPENDED
        # a tampered token gets nobody anywhere
        bad = type(carol_token)(claims=carol_token.claims, mac=bytes(32))
        with pytest.raises(DeniedByPolicyError):
            eng.manage(job_id, JobAction.CANCEL, CAROL, token=bad)

    @pytest.mark.parametrize("vo", ["astro", None])
    def test_push_with_another_vo_changes_nothing(self, vo):
        # a fusion token presented with an astro (or VO-less) credential
        eng = _engine(vo=None, pool=("dyn00",))
        token = sign_capability(KEY, derive_capability(VO_ACCOUNTING, GHOST, expiry=10**9))
        groups = {"members"} if vo else ()
        cred = GridCredential(GHOST.subject, expiry=10**9, vo=vo, groups=groups)
        with pytest.raises(DeniedByPolicyError) as exc:
            eng.gatekeeper_submit(cred, TRANSP, SimProfile(runtime=10), token=token)
        assert str(exc.value) == "denied by policy: vo-mismatch"
        assert eng.ledger.to_dict() == {}
        assert eng.pool.free_accounts == ("dyn00",)
        assert eng.jobs == {} and eng.event_lines() == []

    def test_job_count_and_jobtag_ignore_case(self):
        eng = _engine(vo=VO_PLAIN)
        job_id = eng.gatekeeper_submit(
            ALICE, '&(executable="/x")(COUNT=3)(JobTag="t")', SimProfile(runtime=9)
        )
        job = eng.job_record(job_id)
        assert (job.count, job.jobtag) == (3, "t")
        eng.tick(1)
        assert eng.job_record(job_id).consumed == 3

    def test_jobtag_recorded_from_request(self):
        eng = _engine()
        job_id = eng.gatekeeper_submit(
            ALICE,
            '&(executable="/opt/vo/apps/transp")(count=1)(maxcputime=10)(jobtag="fusion-prod")',
            SimProfile(runtime=5),
        )
        assert eng.job_record(job_id).jobtag == "fusion-prod"


def _hand_mac(claims) -> CapabilityToken:
    """A token over claims that `sign_capability` would refuse to sign."""
    text = canonical_claims_text(claims).encode("utf-8")
    return CapabilityToken(claims=claims, mac=hmac.new(KEY, text, hashlib.sha256).digest())


class TestRefusedAdmissionChangesNothing:
    """Every refusal of a submit, in pull and in push mode, leaves the
    snapshot byte for byte as it was: the jobs, the ledger (its VO and
    member records, their figures and their order), the pool and the
    events."""

    TIGHT = parse_policy(
        'policy "fusion" source vo { allocation 100 cpu-seconds;'
        '  member-quota "/O=Grid/CN=ghost" 50 cpu-seconds;'
        '  member-quota "/O=Grid/CN=alice" 90 cpu-seconds;'
        '  subject group "members" { allow action start; attr maxcputime max 300; } }'
    )
    #: refusal -> (its error, the submitter, the RSL text, the pool)
    REFUSALS = {
        "rsl": (RslError, GHOST, "&(count=1)(count=2)", ("dyn00",)),
        "policy": (DeniedByPolicyError, GHOST, '&(executable="/x")(maxcputime=900)', ("dyn00",)),
        "accounting": (DeniedByPolicyError, GHOST, '&(executable="/x")', ("dyn00",)),
        "vo-allocation": (QuotaExceededError, ALICE, '&(executable="/x")(count=2)(maxcputime=60)',
                          ()),
        "member-quota": (QuotaExceededError, GHOST, '&(executable="/x")(maxcputime=60)',
                         ("dyn00",)),
        "quota-before-pool": (QuotaExceededError, GHOST, '&(executable="/x")(maxcputime=60)', ()),
        "empty-pool": (NoAccountsAvailableError, GHOST, '&(executable="/x")(maxcputime=10)', ()),
    }

    @pytest.mark.parametrize("push", [False, True], ids=["pull", "push"])
    @pytest.mark.parametrize("kind", list(REFUSALS))
    def test_snapshot_is_unchanged(self, kind, push):
        error, cred, rsl, pool = self.REFUSALS[kind]
        # in push mode the site holds no document of the VO
        eng = _engine(vo=None if push else self.TIGHT, pool=pool)
        token = None
        if push:
            token = sign_capability(KEY, derive_capability(self.TIGHT, cred, expiry=10**9))
        before = json.dumps(eng.snapshot())
        with pytest.raises(error):
            eng.gatekeeper_submit(cred, rsl, SimProfile(runtime=10), token=token)
        assert json.dumps(eng.snapshot()) == before

    def test_refused_push_keeps_the_local_terms(self):
        # the site's own fusion document allows 1000 cpu-seconds; a token
        # whose fragment states 100 is refused, and the ledger keeps 1000
        eng = _engine(pool=("dyn00",))
        eng.gatekeeper_submit(ALICE, TRANSP.replace("600", "50"), SimProfile(runtime=10))
        token = sign_capability(KEY, derive_capability(self.TIGHT, GHOST, expiry=10**9))
        before = json.dumps(eng.snapshot())
        for rsl in ('&(executable="/x")(maxcputime=60)', '&(executable="/x")(maxcputime=200)'):
            with pytest.raises(QuotaExceededError):
                eng.gatekeeper_submit(GHOST, rsl, SimProfile(runtime=10), token=token)
            assert json.dumps(eng.snapshot()) == before
        assert eng.ledger.to_dict()["fusion"]["allocation"] == 1000
        # an admitted push writes the fragment's terms, as it always has
        eng.gatekeeper_submit(GHOST, '&(executable="/x")(maxcputime=40)', SimProfile(runtime=10),
                              token=token)
        assert eng.ledger_report().splitlines() == [
            "vo=fusion used=90/100",
            "member=/O=Grid/CN=alice used=50/600",
            "member=/O=Grid/CN=bob used=0/600",
            "member=/O=Grid/CN=ghost used=40/50",
        ]

    def test_fragment_naming_another_vo_is_refused(self):
        eng = _engine(pool=("dyn00",))
        claims = derive_capability(self.TIGHT, GHOST, expiry=10**9)
        claims = dataclasses.replace(
            claims, policy_fragment=claims.policy_fragment.replace('policy "fusion"', 'policy "other"')
        )
        before = json.dumps(eng.snapshot())
        with pytest.raises(DeniedByPolicyError) as exc:
            eng.gatekeeper_submit(GHOST, '&(executable="/x")(maxcputime=60)', SimProfile(runtime=10),
                                  token=_hand_mac(claims))
        assert str(exc.value) == "denied by policy: policy fragment names vo 'other', not the token's"
        assert json.dumps(eng.snapshot()) == before


class TestCapsCompiledOnce:
    @pytest.mark.parametrize("push", [False, True], ids=["pull", "push"])
    def test_admission_derives_no_interval(self, monkeypatch, push):
        vo = parse_policy(
            'policy "fusion" source vo { subject group "members" { allow action start;'
            " attr maxcputime max 300; require attr maxmemory max 512; } }"
        )
        eng = _engine(vo=None if push else vo)
        token = None
        if push:
            token = sign_capability(KEY, derive_capability(vo, ALICE, expiry=10**9))
            pdp._parse_fragment(token.claims.policy_fragment)  # its blocks are built here

        def interval(spec):
            raise AssertionError("admission derived a cap from a spec")

        for module in (policy, pdp, jobmgr):
            monkeypatch.setattr(module, "_interval", interval, raising=False)
        for rsl, caps in (('&(executable="/x")(count=2)(maxmemory=100)', (600, 100)),
                          ('&(executable="/x")(maxcputime=20)(maxmemory=9)', (20, 9))):
            job_id = eng.gatekeeper_submit(ALICE, rsl, SimProfile(runtime=10), token=token)
            sandbox = eng.job_record(job_id).sandbox
            assert (sandbox.max_cpu, sandbox.max_memory) == caps


class TestSimProfile:
    """`SimProfile` is a checked tuple of a runtime and a memory peak."""

    def test_keywords_defaults_and_repr(self):
        profile = SimProfile(runtime=5)
        assert (profile.runtime, profile.memory_peak) == (5, 0)
        assert SimProfile(memory_peak=3, runtime=0) == SimProfile(0, 3)
        assert repr(profile) == "SimProfile(runtime=5, memory_peak=0)"

    @pytest.mark.parametrize("figures, message", [
        ((True,), "profile figure must be an integer, not True"),
        ((5, False), "profile figure must be an integer, not False"),
        ((5, 2.5), "profile figure must be an integer, not 2.5"),
        ((-1,), "profile figures must be non-negative"),
        ((5, -1), "profile figures must be non-negative"),
        # the first fault, runtime before memory peak
        ((-1, True), "profile figures must be non-negative"),
    ])
    def test_refuses(self, figures, message):
        with pytest.raises(ValueError) as exc:
            SimProfile(*figures)
        assert str(exc.value) == message

    def test_make_and_replace_run_the_checks(self):
        assert SimProfile(5)._replace(memory_peak=9) == SimProfile(5, 9)
        with pytest.raises(ValueError, match="non-negative"):
            SimProfile(5)._replace(runtime=-5)
        with pytest.raises(ValueError, match="not True"):
            SimProfile._make((1, True))


class TestEvent:
    def test_fields_and_line(self):
        event = Event(3, "j1", "done", "state=done consumed=2 refunded=598")
        assert Event._fields == ("t", "job", "name", "detail")
        assert (event.t, event.job, event.name, event.detail) == (
            3, "j1", "done", "state=done consumed=2 refunded=598"
        )
        assert event.line == "t=3 job=j1 event=done detail=state=done consumed=2 refunded=598"

    def test_is_immutable(self):
        event = Event(0, "j1", "submit", "x")
        for name in ("t", "job", "name", "detail", "other"):
            with pytest.raises(AttributeError):
                setattr(event, name, 1)
        assert event == Event(0, "j1", "submit", "x")

    def test_restore_and_snapshot_keep_the_events(self):
        eng = _engine(pool=("dyn00",))
        eng.gatekeeper_submit(ALICE, TRANSP, SimProfile(runtime=2))
        eng.gatekeeper_submit(GHOST, TRANSP.replace("600", "100"), SimProfile(runtime=50))
        eng.tick(3)
        eng.manage("j2", JobAction.SUSPEND, GHOST)
        snap = json.loads(json.dumps(eng.snapshot()))
        assert snap["events"][:2] == [
            {"t": 0, "job": "j1", "name": "submit",
             "detail": "owner=/O=Grid/CN=alice state=pending reserved=600"},
            {"t": 0, "job": "j2", "name": "submit",
             "detail": "owner=/O=Grid/CN=ghost state=pending reserved=100"},
        ]
        assert [list(e) for e in snap["events"]] == [["t", "job", "name", "detail"]] * 6
        again = JobManager.restore(snap, resource_policy=RESOURCE, vo_policies=[VO_ACCOUNTING],
                                   gridmap=GRIDMAP)
        assert again.events == eng.events
        assert all(type(e) is Event for e in again.events)
        assert "\n".join(again.event_lines()).encode() == "\n".join(eng.event_lines()).encode()
        assert again.snapshot()["events"] == snap["events"]


def _count_policy_parses(monkeypatch) -> list:
    """Count `parse_policy` calls from every gridauth module that binds it."""
    calls = []
    real = policy.parse_policy

    def counted(text):
        calls.append(text)
        return real(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("gridauth") and getattr(module, "parse_policy", None) is real:
            monkeypatch.setattr(module, "parse_policy", counted)
    return calls


class TestFragmentParsedOnce:
    def test_valid_token_parses_its_fragment_once(self, monkeypatch):
        # the fragment cache lives as long as the process, so an earlier
        # test may have parsed this very text already
        pdp._parse_fragment.cache_clear()
        eng = _engine(vo=None)
        token = sign_capability(KEY, derive_capability(VO_ACCOUNTING, ALICE, expiry=10**9))
        calls = _count_policy_parses(monkeypatch)
        half = TRANSP.replace("(maxcputime=600)", "(maxcputime=300)")
        first = eng.gatekeeper_submit(ALICE, half, SimProfile(runtime=10), token=token)
        second = eng.gatekeeper_submit(ALICE, half, SimProfile(runtime=10), token=token)
        assert calls == [token.claims.policy_fragment]
        assert eng.job_record(first).reserved == eng.job_record(second).reserved == 300

        # a forged token copies the genuine MAC but edits the cached text:
        # it fails verification, which runs before the cache is consulted
        forged_claims = dataclasses.replace(
            token.claims,
            policy_fragment=token.claims.policy_fragment.replace("600", "6000"),
        )
        assert forged_claims.policy_fragment != token.claims.policy_fragment
        forged = CapabilityToken(claims=forged_claims, mac=token.mac)
        before = pdp._parse_fragment.cache_info()
        with pytest.raises(DeniedByPolicyError) as denied:
            eng.gatekeeper_submit(ALICE, half, SimProfile(runtime=10), token=forged)
        assert denied.value.decision.trace[0].reason.startswith("BadSignature")
        assert calls == [token.claims.policy_fragment]
        assert pdp._parse_fragment.cache_info() == before

    @pytest.mark.parametrize("kind", ["bad-mac", "expired", "wrong-subject", "wrong-vo"])
    def test_refused_token_parses_nothing(self, monkeypatch, kind):
        eng = _engine(vo=None)
        eng.clock = 100
        cred, expiry = ALICE, 10**9
        if kind == "expired":
            expiry = 100
        elif kind == "wrong-subject":
            cred = BOB
        token = sign_capability(KEY, derive_capability(VO_ACCOUNTING, cred, expiry=expiry))
        if kind == "bad-mac":
            token = type(token)(claims=token.claims, mac=bytes(32))
        presented = ALICE
        if kind == "wrong-vo":
            presented = GridCredential(ALICE.subject, expiry=10**9, vo="astro")
        calls = _count_policy_parses(monkeypatch)
        with pytest.raises(DeniedByPolicyError):
            eng.gatekeeper_submit(presented, TRANSP, SimProfile(runtime=10), token=token)
        assert calls == []


class TestManage:
    def test_owner_cancels_own_pending_job_with_empty_policies(self):
        empty_res = parse_policy(
            'policy "open" source resource { subject any { allow action start; } }'
        )
        eng = JobManager(
            resource_policy=empty_res,
            gridmap=GRIDMAP,
            pool=DynamicAccountPool(),
        )
        local_alice = GridCredential("/O=Grid/CN=alice", expiry=10**9)
        job_id = eng.gatekeeper_submit(
            local_alice, '&(executable="/bin/work")', SimProfile(runtime=10)
        )
        job = eng.manage(job_id, JobAction.CANCEL, local_alice)
        assert job.state is JobState.CANCELED
        assert job.ended_at == 0

    def test_admin_suspends_tagged_job_of_other_member(self):
        eng = _engine(vo=VO_PLAIN)
        job_id = eng.gatekeeper_submit(
            ALICE,
            '&(executable="/opt/vo/apps/transp")(jobtag="fusion-prod")',
            SimProfile(runtime=100),
        )
        eng.tick(1)
        job = eng.manage(job_id, JobAction.SUSPEND, CAROL)
        assert job.state is JobState.SUSPENDED

    def test_admin_cannot_touch_untagged_job(self):
        eng = _engine(vo=VO_PLAIN)
        job_id = eng.gatekeeper_submit(
            ALICE, '&(executable="/opt/vo/apps/transp")', SimProfile(runtime=100)
        )
        eng.tick(1)
        with pytest.raises(DeniedByPolicyError):
            eng.manage(job_id, JobAction.SUSPEND, CAROL)
        assert eng.job_record(job_id).state is JobState.ACTIVE

    def test_non_owner_without_grants_cannot_query_status(self):
        eng = _engine(vo=VO_PLAIN)
        job_id = eng.gatekeeper_submit(
            ALICE, '&(executable="/opt/vo/apps/transp")', SimProfile(runtime=100)
        )
        with pytest.raises(DeniedByPolicyError):
            eng.manage(job_id, JobAction.STATUS, BOB)

    def test_illegal_transition(self):
        eng = _engine(vo=VO_PLAIN)
        job_id = eng.gatekeeper_submit(
            ALICE, '&(executable="/opt/vo/apps/transp")', SimProfile(runtime=100)
        )
        with pytest.raises(IllegalTransitionError):
            eng.manage(job_id, JobAction.RESUME, ALICE)  # resume on pending
        assert eng.job_record(job_id).state is JobState.PENDING

    def test_unknown_job(self):
        with pytest.raises(UnknownJobError):
            _engine().manage("j99", JobAction.CANCEL, ALICE)

    def test_set_priority(self):
        eng = _engine(vo=VO_PLAIN)
        job_id = eng.gatekeeper_submit(
            ALICE, '&(executable="/opt/vo/apps/transp")', SimProfile(runtime=100)
        )
        job = eng.manage(job_id, JobAction.SET_PRIORITY, ALICE, priority=5)
        assert job.priority == 5
        assert job.state is JobState.PENDING

    def test_status_returns_snapshot(self):
        eng = _engine(vo=VO_PLAIN)
        job_id = eng.gatekeeper_submit(
            ALICE, '&(executable="/opt/vo/apps/transp")', SimProfile(runtime=100)
        )
        snap = eng.manage(job_id, JobAction.STATUS, ALICE)
        snap.consumed = 12345  # mutating the snapshot must not touch the engine
        assert eng.job_record(job_id).consumed == 0


class TestTick:
    def test_consumption_rate_is_count_per_second(self):
        eng = _engine(vo=VO_PLAIN)
        job_id = eng.gatekeeper_submit(
            ALICE,
            '&(executable="/opt/vo/apps/transp")(count=2)',
            SimProfile(runtime=10),
        )
        eng.tick(5)
        job = eng.job_record(job_id)
        # arithmetic oracle: consumed = count * elapsed = 2 * 5
        assert job.consumed == 2 * 5
        assert job.state is JobState.DONE
        assert job.ended_at == 5

    def test_suspended_job_consumes_nothing(self):
        eng = _engine(vo=VO_PLAIN)
        job_id = eng.gatekeeper_submit(
            ALICE, '&(executable="/opt/vo/apps/transp")', SimProfile(runtime=100)
        )
        eng.tick(2)
        eng.manage(job_id, JobAction.SUSPEND, ALICE)
        before = eng.job_record(job_id).consumed
        eng.tick(50)
        assert eng.job_record(job_id).consumed == before
        eng.manage(job_id, JobAction.RESUME, ALICE)
        eng.tick(1)
        assert eng.job_record(job_id).consumed == before + 1

    def test_priority_orders_activation(self):
        eng = _engine(vo=VO_PLAIN)
        j1 = eng.gatekeeper_submit(
            ALICE, '&(executable="/opt/vo/apps/transp")', SimProfile(runtime=5)
        )
        j2 = eng.gatekeeper_submit(
            ALICE, '&(executable="/opt/vo/apps/transp")(count=2)', SimProfile(runtime=5)
        )
        eng.manage(j2, JobAction.SET_PRIORITY, ALICE, priority=5)
        events = eng.tick(1)
        activations = [e.job for e in events if e.name == "activate"]
        assert activations == [j2, j1]

    def test_equal_priorities_activate_by_submission_time_then_id(self):
        # restore checks that ids grow, not that submission times do, so a
        # restored site may hold pending jobs whose two orders differ
        eng = _engine(vo=VO_PLAIN)
        eng.tick(5)
        for _ in range(3):
            eng.gatekeeper_submit(ALICE, TRANSP, SimProfile(runtime=5))
        snap = eng.snapshot()
        at = JOB_FIELDS.index("submitted_at")
        for row, submitted_at in zip(snap["jobs"], (5, 4, 4)):
            row[at] = submitted_at
        again = JobManager.restore(snap, resource_policy=RESOURCE, vo_policies=[VO_PLAIN],
                                   gridmap=GRIDMAP, key_registry={"fusion": KEY})
        assert [e.job for e in again.tick(1) if e.name == "activate"] == ["j2", "j3", "j1"]

    def test_done_settles_and_refunds(self):
        eng = _engine()
        job_id = eng.gatekeeper_submit(ALICE, TRANSP, SimProfile(runtime=200))
        assert eng.ledger.vo_used("fusion") == 600
        eng.tick(200)
        job = eng.job_record(job_id)
        assert job.state is JobState.DONE
        assert job.consumed == 200
        assert eng.ledger.vo_used("fusion") == 200
        assert eng.ledger.member_used("fusion", ALICE.subject) == 200

    def test_cpu_limit_kill(self):
        # profiled work exceeds the request's cpu budget: enforcement kills it
        eng = _engine()
        job_id = eng.gatekeeper_submit(
            ALICE,
            '&(executable="/opt/vo/apps/transp")(count=1)(maxcputime=50)',
            SimProfile(runtime=80),
        )
        eng.tick(60)
        job = eng.job_record(job_id)
        assert job.state is JobState.FAILED
        assert job.consumed == 50  # charged exactly the cap
        assert eng.ledger.vo_used("fusion") == 50

    def test_memory_limit_kill(self):
        vo = parse_policy(
            'policy "fusion" source vo { subject group "members" {'
            " allow action start; attr maxmemory max 512; } }"
        )
        eng = _engine(vo=vo)
        job_id = eng.gatekeeper_submit(
            ALICE,
            '&(executable="/opt/vo/apps/transp")(maxmemory=256)',
            SimProfile(runtime=100, memory_peak=300),
        )
        eng.tick(1)
        job = eng.job_record(job_id)
        assert job.state is JobState.FAILED
        assert "limit=memory" in eng.event_lines()[-1]

    def test_policy_cap_tightens_sandbox(self):
        vo = parse_policy(
            'policy "fusion" source vo { subject group "members" {'
            " allow action start; attr maxcputime max 40; } }"
        )
        eng = _engine(vo=vo)
        job_id = eng.gatekeeper_submit(
            ALICE,
            '&(executable="/x")(maxcputime=30)',
            SimProfile(runtime=10),
        )
        assert eng.job_record(job_id).sandbox.max_cpu == 30  # request tighter
        job_id2 = eng.gatekeeper_submit(
            ALICE,
            '&(executable="/x")(count=2)',
            SimProfile(runtime=10),
        )
        # request silent: the permitting block's cap bounds the sandbox
        assert eng.job_record(job_id2).sandbox.max_cpu == 2 * 40

    def test_attr_lines_union_into_one_cap(self):
        # two attr lines form one union: a request the union permits runs
        # under its own value, not under the tighter line
        vo = parse_policy(
            'policy "fusion" source vo { subject group "members" { allow action start;'
            " attr maxcputime max 100; attr maxcputime max 500; } }"
        )
        eng = _engine(vo=vo)
        job_id = eng.gatekeeper_submit(
            ALICE, '&(executable="/x")(maxcputime=300)', SimProfile(runtime=300)
        )
        assert eng.job_record(job_id).sandbox.max_cpu == 300
        eng.tick(400)
        job = eng.job_record(job_id)
        assert (job.state, job.consumed) == (JobState.DONE, 300)
        silent = eng.gatekeeper_submit(ALICE, '&(executable="/x")', SimProfile(runtime=1))
        assert eng.job_record(silent).sandbox.max_cpu == 500

    def test_attr_and_require_on_one_attribute_take_the_minimum(self):
        vo = parse_policy(
            'policy "fusion" source vo { subject group "members" { allow action start;'
            " attr maxcputime max 500; require attr maxcputime range 1..200; } }"
        )
        eng = _engine(vo=vo)
        with pytest.raises(DeniedByPolicyError):
            eng.gatekeeper_submit(
                ALICE, '&(executable="/x")(maxcputime=250)', SimProfile(runtime=1)
            )
        job_id = eng.gatekeeper_submit(
            ALICE, '&(executable="/x")(count=3)(maxcputime=200)', SimProfile(runtime=1)
        )
        assert eng.job_record(job_id).sandbox.max_cpu == 3 * 200

    def test_tightest_source_caps_a_silent_request(self):
        resource = parse_policy(
            'policy "site" source resource { trust vo "fusion"; subject any {'
            " allow action start; attr maxcputime max 120; } }"
        )
        vo = parse_policy(
            'policy "fusion" source vo { subject group "members" { allow action start;'
            " attr maxcputime max 500; } }"
        )
        eng = JobManager(resource_policy=resource, vo_policies=[vo], gridmap=GRIDMAP)
        job_id = eng.gatekeeper_submit(
            ALICE, '&(executable="/x")(count=2)', SimProfile(runtime=1)
        )
        assert eng.job_record(job_id).sandbox.max_cpu == 2 * 120

    def test_maxmemory_cap(self):
        vo = parse_policy(
            'policy "fusion" source vo { subject group "members" { allow action start;'
            " attr maxmemory range 1..256 or max 512; attr maxcputime min 10 or max 5; } }"
        )
        eng = _engine(vo=vo)
        silent = eng.gatekeeper_submit(ALICE, '&(executable="/x")', SimProfile(runtime=1))
        # the hull of the union bounds memory; an or with an open end caps nothing
        assert eng.job_record(silent).sandbox.max_memory == 512
        assert eng.job_record(silent).sandbox.max_cpu is None
        tighter = eng.gatekeeper_submit(
            ALICE, '&(executable="/x")(maxmemory=128)', SimProfile(runtime=1, memory_peak=200)
        )
        assert eng.job_record(tighter).sandbox.max_memory == 128
        eng.tick(1)
        assert eng.job_record(tighter).state is JobState.FAILED
        assert eng.event_lines()[-1].endswith("limit=memory")

    def test_push_and_pull_give_one_sandbox(self):
        vo = parse_policy(
            'policy "fusion" source vo {\n'
            '  subject group "members" { allow action start;'
            " attr maxcputime max 100; attr maxcputime max 400; attr maxmemory max 64; }\n"
            '  subject any { allow action start; require attr maxcputime range 0..300; }\n'
            "}\n"
        )
        token = sign_capability(KEY, derive_capability(vo, ALICE, expiry=10**6))
        for rsl in (
            '&(executable="/x")(count=2)(maxcputime=250)',
            '&(executable="/x")(maxcputime=350)',
        ):
            pulled, pushed = _engine(vo=vo), _engine(vo=None)
            pull_id = pulled.gatekeeper_submit(ALICE, rsl, SimProfile(runtime=1))
            push_id = pushed.gatekeeper_submit(ALICE, rsl, SimProfile(runtime=1), token=token)
            assert pulled.job_record(pull_id).sandbox == pushed.job_record(push_id).sandbox
        assert pushed.job_record(push_id).sandbox.max_cpu == 350
        assert pulled.job_record(pull_id).sandbox.max_memory == 64

    def test_dynamic_account_released_on_completion(self):
        eng = _engine(vo=VO_PLAIN, pool=("dyn00",), gridmap=GridMapFile({}))
        eng.gatekeeper_submit(
            ALICE, '&(executable="/opt/vo/apps/transp")', SimProfile(runtime=3)
        )
        assert eng.pool.free_accounts == ()
        eng.tick(3)
        assert eng.pool.free_accounts == ("dyn00",)

    def test_zero_runtime_completes_immediately(self):
        eng = _engine(vo=VO_PLAIN)
        job_id = eng.gatekeeper_submit(
            ALICE, '&(executable="/opt/vo/apps/transp")', SimProfile(runtime=0)
        )
        eng.tick(1)
        assert eng.job_record(job_id).state is JobState.DONE

    def test_tick_requires_positive_dt(self):
        with pytest.raises(ValueError):
            _engine().tick(0)


class TestEventJump:
    """`tick(dt)` costs the same whatever ``dt``, however many jobs ended and
    however many run on through it."""

    def test_huge_dt_lands_each_closed_form_ending(self):
        eng = _engine(
            vo=VO_PLAIN,
            pool=("dyn00", "dyn01", "dyn02"),
            gridmap=GridMapFile({ALICE.subject: "alice_l"}),
        )
        held = eng.gatekeeper_submit(BOB, '&(executable="/x")', SimProfile(runtime=50))
        eng.tick(1)
        eng.manage(held, JobAction.SUSPEND, BOB)
        done = eng.gatekeeper_submit(BOB, '&(executable="/x")(count=2)', SimProfile(runtime=10**6 + 1))
        killed = eng.gatekeeper_submit(
            BOB, '&(executable="/x")(count=3)(maxcputime=100)', SimProfile(runtime=1000)
        )
        running = eng.gatekeeper_submit(ALICE, '&(executable="/x")', SimProfile(runtime=10**12))
        events = eng.tick(10**9)
        end = 1 + 10**9
        assert [e.line for e in events] == [
            f"t=1 job={done} event=activate detail=state=active",
            f"t=1 job={killed} event=activate detail=state=active",
            f"t=1 job={running} event=activate detail=state=active",
            # cap 300 is first exceeded at 3 cpu-seconds a second on step 101
            f"t=102 job={killed} event=failed detail=state=failed limit=cpu",
            # 10**6 + 1 cpu-seconds at 2 a second take ceil(500000.5) steps
            f"t={1 + 500001} job={done} event=done detail=state=done consumed={10**6 + 1} refunded=0",
        ]
        assert (eng.job_record(killed).consumed, eng.job_record(killed).ended_at) == (300, 102)
        assert eng.job_record(done).ended_at == 1 + 500001
        assert eng.job_record(held).consumed == 1
        assert eng.job_record(running).consumed == 10**9
        assert eng.job_record(running).ended_at is None
        assert eng.clock == end

    def test_work_grows_with_live_jobs_only(self, monkeypatch):
        eng = _engine(vo=VO_PLAIN)
        eng.gatekeeper_submit(ALICE, '&(executable="/x")', SimProfile(runtime=0))
        eng.tick(1)
        state = eng.snapshot()
        finished = state["jobs"][0]
        at = JOB_FIELDS.index("id")
        state["jobs"] = [finished[:at] + [f"j{i}"] + finished[at + 1:] for i in range(1, 10_001)]
        state["next_seq"] = 10_001
        eng = JobManager.restore(
            state, resource_policy=RESOURCE, vo_policies=[VO_PLAIN], gridmap=GRIDMAP
        )

        calls = []
        real = jobmgr.record_usage

        def counted(spec, cpu, memory):
            calls.append(cpu)
            return real(spec, cpu, memory)

        monkeypatch.setattr(jobmgr, "record_usage", counted)
        assert eng.tick(1000) == []
        assert calls == []
        assert eng.clock == 1001

        live = [
            eng.gatekeeper_submit(ALICE, '&(executable="/x")', SimProfile(runtime=runtime))
            for runtime in (0, 5, 999, 1000, 1001, 10**6)
        ]
        eng.tick(1000)
        assert len(calls) <= len(live)
        assert [eng.job_record(j).state for j in live] == [JobState.DONE] * 4 + [JobState.ACTIVE] * 2

    def test_tick_without_endings_visits_no_running_job(self, monkeypatch):
        eng = _engine(vo=VO_PLAIN)
        for runtime in (10, 20, 10**6):
            eng.gatekeeper_submit(ALICE, '&(executable="/x")', SimProfile(runtime=runtime))
        eng.tick(1)  # activates and schedules all three

        calls = []
        real = jobmgr._end_step

        def counted(job):
            calls.append(job.id)
            return real(job)

        monkeypatch.setattr(jobmgr, "_end_step", counted)
        assert eng.tick(5) == []
        assert calls == []
        assert [e.job for e in eng.tick(4)] == ["j1"]  # ends at t=10
        assert calls == []

    def test_suspend_and_resume_at_one_clock(self):
        eng = _engine(vo=VO_PLAIN)
        job_id = eng.gatekeeper_submit(ALICE, '&(executable="/x")', SimProfile(runtime=10))
        eng.tick(3)
        eng.manage(job_id, JobAction.SUSPEND, ALICE)
        eng.manage(job_id, JobAction.RESUME, ALICE)
        assert eng.job_record(job_id).consumed == 3
        events = eng.tick(100)
        # the entry voided by the suspend ends nothing: one ending, at t=10
        assert [e.line for e in events] == [
            f"t=10 job={job_id} event=done detail=state=done consumed=10 refunded=0"
        ]

    def test_suspended_and_resumed_twice_between_ticks_ends_once(self):
        # the entry scheduled at activation is void once j1 is suspended, and
        # stays in the heap (j2's entry keeps it from being compacted away),
        # so it surfaces at t=20 while j1 is scheduled again to end at t=23
        fast, slow = _engine(vo=VO_PLAIN), _engine(vo=VO_PLAIN)
        for eng, tick in ((fast, JobManager.tick), (slow, reference_tick)):
            eng.gatekeeper_submit(ALICE, '&(executable="/x")', SimProfile(runtime=20))
            eng.gatekeeper_submit(BOB, '&(executable="/x")', SimProfile(runtime=1000))
            tick(eng, 5)
            eng.manage("j1", JobAction.SUSPEND, ALICE)
            tick(eng, 3)
            for action in (JobAction.RESUME, JobAction.SUSPEND, JobAction.RESUME):
                eng.manage("j1", action, ALICE)
            tick(eng, 30)
        assert fast.event_lines() == slow.event_lines()
        assert [line for line in fast.event_lines() if "job=j1 event=done" in line] == [
            "t=23 job=j1 event=done detail=state=done consumed=20 refunded=0"
        ]
        assert fast.snapshot() == slow.snapshot()

    def test_current_consumption_between_ticks(self):
        eng = _engine(vo=VO_PLAIN)
        job_id = eng.gatekeeper_submit(
            ALICE, '&(executable="/x")(count=2)', SimProfile(runtime=100)
        )
        eng.tick(1)
        eng.tick(4)
        assert eng.job_record(job_id).consumed == 10
        assert eng.snapshot()["jobs"][0][JOB_FIELDS.index("consumed")] == 10
        assert eng.manage(job_id, JobAction.STATUS, ALICE).consumed == 10
        eng.manage(job_id, JobAction.SUSPEND, ALICE)
        eng.tick(7)
        assert eng.manage(job_id, JobAction.STATUS, ALICE).consumed == 10

    def test_restored_active_job_ends_when_it_would_have(self):
        eng = _engine(vo=VO_PLAIN)
        job_id = eng.gatekeeper_submit(
            ALICE, '&(executable="/x")(count=3)', SimProfile(runtime=100)
        )
        eng.tick(10)
        again = JobManager.restore(
            eng.snapshot(), resource_policy=RESOURCE, vo_policies=[VO_PLAIN], gridmap=GRIDMAP
        )
        assert again.job_record(job_id).consumed == 30
        assert again.tick(100) == eng.tick(100)
        # 100 cpu-seconds at 3 a second take ceil(33.3) seconds
        assert again.job_record(job_id).ended_at == eng.job_record(job_id).ended_at == 34
        assert again.snapshot() == eng.snapshot()

    def test_suspend_resume_cycles_keep_the_heap_small(self):
        eng = _engine(vo=VO_PLAIN)
        job_id = eng.gatekeeper_submit(ALICE, '&(executable="/x")', SimProfile(runtime=10**12))
        eng.tick(1)
        for _ in range(1000):
            eng.manage(job_id, JobAction.SUSPEND, ALICE)
            eng.tick(1)
            assert len(eng._ends) <= 2 * len(eng._scheduled)
            eng.manage(job_id, JobAction.RESUME, ALICE)
            eng.tick(1)
            assert len(eng._ends) <= 2 * len(eng._scheduled)
        assert eng.job_record(job_id).consumed == 1001


class TestJobRecord:
    def test_fresh_submission(self):
        eng = _engine()
        job_id = eng.gatekeeper_submit(ALICE, TRANSP, SimProfile(runtime=10))
        job = eng.job_record(job_id)
        assert job.state is JobState.PENDING
        assert job.consumed == 0
        assert job.ended_at is None

    def test_after_cancel(self):
        eng = _engine()
        job_id = eng.gatekeeper_submit(ALICE, TRANSP, SimProfile(runtime=10))
        eng.manage(job_id, JobAction.CANCEL, ALICE)
        job = eng.job_record(job_id)
        assert job.state is JobState.CANCELED
        assert job.ended_at == 0

    def test_unknown_id(self):
        with pytest.raises(UnknownJobError):
            _engine().job_record("j404")

    def test_a_copy_with_the_consumption_of_now(self):
        eng = _engine()
        job_id = eng.gatekeeper_submit(ALICE, TRANSP, SimProfile(runtime=100))
        eng.tick(30)
        job = eng.jobs[job_id]
        record = eng.job_record(job_id)
        assert record is not job
        # an active job's stored `consumed` stands at its scheduling second
        assert (job.consumed, record.consumed) == (0, 30)
        for name in JOB_FIELDS:
            if name != "consumed":
                assert getattr(record, name) is getattr(job, name), name
        record.priority = 9
        assert job.priority == 0


class TestDeterminism:
    def _run(self):
        eng = _engine()
        eng.gatekeeper_submit(ALICE, TRANSP, SimProfile(runtime=20))
        eng.tick(3)
        eng.gatekeeper_submit(
            BOB,
            '&(executable="/opt/vo/apps/transp")(count=2)(maxcputime=100)',
            SimProfile(runtime=8),
        )
        eng.tick(10)
        eng.manage("j1", JobAction.CANCEL, ALICE)
        eng.tick(2)
        return eng.event_lines(), eng.ledger_report()

    def test_identical_inputs_identical_logs(self):
        assert self._run() == self._run()

    def test_event_line_format(self):
        eng = _engine()
        eng.gatekeeper_submit(ALICE, TRANSP, SimProfile(runtime=2))
        eng.tick(2)
        assert eng.event_lines() == [
            "t=0 job=j1 event=submit detail=owner=/O=Grid/CN=alice state=pending reserved=600",
            "t=0 job=j1 event=activate detail=state=active",
            "t=2 job=j1 event=done detail=state=done consumed=2 refunded=598",
        ]


def _conservation_holds(eng: JobManager) -> bool:
    by_vo: dict[str, int] = {}
    for job in eng.jobs.values():
        if not job.accounted:
            continue
        charge = job.consumed if job.state in TERMINAL_STATES else job.reserved
        by_vo[job.vo] = by_vo.get(job.vo, 0) + charge
    for vo, expected in by_vo.items():
        if eng.ledger.vo_used(vo) != expected:
            return False
    return True


class TestStructuralProperties:
    def test_conservation_under_random_operations(self):
        rng = random.Random(0xFEED)
        vo = parse_policy(
            'policy "fusion" source vo { allocation 100000 cpu-seconds;'
            ' subject group "members" { allow action start; } }'
        )
        eng = _engine(vo=vo)
        creds = [ALICE, BOB]
        live: list[str] = []
        for _ in range(2_000):
            roll = rng.random()
            try:
                if roll < 0.35:
                    cred = rng.choice(creds)
                    count = rng.randint(1, 3)
                    budget = rng.randint(1, 30)
                    job_id = eng.gatekeeper_submit(
                        cred,
                        f'&(executable="/x")(count={count})(maxcputime={budget})',
                        SimProfile(runtime=rng.randint(0, 40)),
                    )
                    live.append(job_id)
                elif roll < 0.65 and live:
                    job_id = rng.choice(live)
                    owner = eng.job_record(job_id).owner
                    cred = ALICE if owner == ALICE.subject else BOB
                    action = rng.choice(
                        [JobAction.SUSPEND, JobAction.RESUME, JobAction.CANCEL,
                         JobAction.SET_PRIORITY]
                    )
                    eng.manage(job_id, action, cred, priority=rng.randint(-2, 2))
                else:
                    eng.tick(rng.randint(1, 3))
            except (IllegalTransitionError, QuotaExceededError):
                pass
            assert _conservation_holds(eng)
            for job in eng.jobs.values():
                if job.accounted:
                    assert job.consumed <= job.reserved

    def test_state_machine_safety_under_random_events(self):
        legal_moves = set(TRANSITIONS)
        rng = random.Random(0xBEEF)
        eng = _engine(vo=VO_PLAIN)
        actions = [
            JobAction.SUSPEND,
            JobAction.RESUME,
            JobAction.CANCEL,
            JobAction.SET_PRIORITY,
        ]
        ids = [
            eng.gatekeeper_submit(
                ALICE, '&(executable="/opt/vo/apps/transp")', SimProfile(runtime=6)
            )
            for _ in range(5)
        ]
        for _ in range(3_000):
            states = {j: eng.job_record(j).state for j in ids}
            if rng.random() < 0.6:
                job_id = rng.choice(ids)
                action = rng.choice(actions)
                try:
                    eng.manage(job_id, action, ALICE, priority=rng.randint(0, 3))
                except IllegalTransitionError:
                    assert eng.job_record(job_id).state == states[job_id]
            else:
                eng.tick(1)
            for job_id, old in states.items():
                new = eng.job_record(job_id).state
                if new != old:
                    assert any(
                        (old, event) in legal_moves and TRANSITIONS[(old, event)] is new
                        for event in ("activate", "suspend", "resume", "cancel",
                                      "complete", "limit_kill")
                    )
                if old in TERMINAL_STATES:
                    assert new == old


class TestPersistence:
    def test_editing_a_snapshots_ledger_changes_no_later_one(self):
        eng = _engine()
        eng.gatekeeper_submit(ALICE, TRANSP, SimProfile(runtime=50))
        report, earlier = eng.ledger_report(), eng.snapshot()
        fusion = earlier["ledger"]["fusion"]
        fusion["used"] += 1
        fusion["members"]["/O=Grid/CN=alice"]["quota"] = None
        fusion["members"].clear()
        earlier["ledger"]["astro"] = {"allocation": 5, "used": 0, "members": {}}
        assert eng.ledger_report() == report
        later = eng.snapshot()
        assert later["ledger"] == {"fusion": {
            "allocation": 1000, "used": 600, "members": {
                "/O=Grid/CN=alice": {"quota": 600, "used": 600},
                "/O=Grid/CN=bob": {"quota": 600, "used": 0},
            },
        }}
        later["ledger"]["fusion"]["members"]["/O=Grid/CN=bob"]["used"] = 7
        assert eng.ledger_report() == report

    def test_snapshot_restore_round_trip(self):
        eng = _engine(pool=("dyn00", "dyn01"))
        eng.gatekeeper_submit(ALICE, TRANSP, SimProfile(runtime=50))
        eng.gatekeeper_submit(
            GHOST,
            '&(executable="/opt/vo/apps/transp")(count=1)(maxcputime=100)',
            SimProfile(runtime=50),
        )
        eng.tick(7)
        snap = eng.snapshot()
        again = JobManager.restore(
            snap,
            resource_policy=RESOURCE,
            vo_policies=[VO_ACCOUNTING],
            gridmap=GRIDMAP,
            key_registry={"fusion": KEY},
        )
        assert again.event_lines() == eng.event_lines()
        assert again.ledger_report() == eng.ledger_report()
        assert again.snapshot() == snap
        # the restored engine keeps evolving identically
        eng.tick(50)
        again.tick(50)
        assert again.event_lines() == eng.event_lines()
        assert again.ledger_report() == eng.ledger_report()

    def _restore(self, eng: JobManager, vo_policies) -> JobManager:
        return JobManager.restore(eng.snapshot(), resource_policy=RESOURCE,
                                  vo_policies=vo_policies, gridmap=GRIDMAP,
                                  key_registry={"fusion": KEY})

    def test_two_vo_documents_of_one_name_are_refused(self):
        # VO_PLAIN would silently replace VO_ACCOUNTING's allocation and quotas
        with pytest.raises(policy.PolicyError, match="two vo documents are named 'fusion'"):
            JobManager(resource_policy=RESOURCE, vo_policies=[VO_ACCOUNTING, VO_PLAIN])
        with pytest.raises(policy.PolicyError, match="two vo documents are named 'fusion'"):
            self._restore(_engine(), [VO_ACCOUNTING, VO_PLAIN])

    def test_restore_takes_the_loaded_documents_terms(self):
        eng = _engine()
        eng.gatekeeper_submit(ALICE, TRANSP.replace("600", "40"), SimProfile(runtime=10))
        edited = parse_policy(
            format_policy(VO_ACCOUNTING)
            .replace("allocation 1000", "allocation 50")
            .replace("600 cpu-seconds", "45 cpu-seconds", 1)
        )
        again = self._restore(eng, [edited])
        assert again.ledger_report().splitlines() == [
            "vo=fusion used=40/50",
            "member=/O=Grid/CN=alice used=40/45",
            "member=/O=Grid/CN=bob used=0/600",
        ]
        # as a fresh engine with that document would judge the next admission
        assert _engine(vo=edited).ledger_report().splitlines()[0] == "vo=fusion used=0/50"
        with pytest.raises(QuotaExceededError):
            again.gatekeeper_submit(BOB, TRANSP.replace("600", "20"), SimProfile(runtime=10))
        again.gatekeeper_submit(ALICE, TRANSP.replace("600", "5"), SimProfile(runtime=5))
        assert again.ledger_report().splitlines()[:2] == [
            "vo=fusion used=45/50",
            "member=/O=Grid/CN=alice used=45/45",
        ]
        # the unedited document leaves the stored ledger as it was
        assert self._restore(eng, [VO_ACCOUNTING]).snapshot() == eng.snapshot()

    def test_deleted_member_quota_stops_applying(self):
        eng = _engine()
        eng.gatekeeper_submit(ALICE, TRANSP, SimProfile(runtime=200))
        eng.tick(200)
        assert "member=/O=Grid/CN=alice used=200/600" in eng.ledger_report().splitlines()
        text = format_policy(VO_ACCOUNTING)
        line = 'member-quota "/O=Grid/CN=alice" 600 cpu-seconds;'
        assert line in text
        again = self._restore(eng, [parse_policy(text.replace(line, ""))])
        # her quota is gone, as in a fresh engine with that document
        again.gatekeeper_submit(ALICE, TRANSP.replace("600", "500"), SimProfile(runtime=5))
        assert again.ledger_report().splitlines() == [
            "vo=fusion used=700/1000",
            "member=/O=Grid/CN=alice used=700/unlimited",
            "member=/O=Grid/CN=bob used=0/600",
        ]
        # a member with no usage left and no quota has no record, as settling leaves it
        bob = line.replace("alice", "bob")
        again = self._restore(again, [parse_policy(text.replace(line, "").replace(bob, ""))])
        assert again.ledger_report().splitlines() == [
            "vo=fusion used=700/1000",
            "member=/O=Grid/CN=alice used=700/unlimited",
        ]

    def test_deleted_accounting_lines_stop_applying(self):
        eng = _engine()
        eng.gatekeeper_submit(ALICE, TRANSP.replace("600", "40"), SimProfile(runtime=10))
        again = self._restore(eng, [VO_PLAIN])
        # no allocation and no quota: the VO and alice are unlimited, and
        # bob, who has no usage, has no record
        assert again.ledger_report().splitlines() == [
            "vo=fusion used=40/unlimited",
            "member=/O=Grid/CN=alice used=40/unlimited",
        ]
        # as under a fresh engine with that document, her next job, beyond
        # the deleted quota of 600, is admitted and charged nothing
        again.gatekeeper_submit(ALICE, TRANSP.replace("600", "900"), SimProfile(runtime=10))
        assert again.ledger_report().splitlines()[0] == "vo=fusion used=40/unlimited"

    def test_a_missing_member_record_is_reported_at_its_first_live_job(self, monkeypatch):
        eng = _engine()
        for _ in range(2):
            eng.gatekeeper_submit(ALICE, TRANSP.replace("600", "40"), SimProfile(runtime=10))
        snap = eng.snapshot()
        reads = []
        used = jobmgr.AllocationLedger.member_used
        monkeypatch.setattr(jobmgr.AllocationLedger, "member_used",
                            lambda ledger, *key: reads.append(key) or used(ledger, *key))
        # each record is read once, however many live jobs name it
        again = JobManager.restore(json.loads(json.dumps(snap)), resource_policy=RESOURCE,
                                   vo_policies=[VO_ACCOUNTING], gridmap=GRIDMAP)
        assert reads == [("fusion", ALICE.subject)]
        assert again.snapshot() == snap
        del snap["ledger"]["fusion"]["members"][ALICE.subject]
        with pytest.raises(ValueError) as exc:
            JobManager.restore(snap, resource_policy=RESOURCE, vo_policies=[VO_ACCOUNTING])
        assert str(exc.value) == (
            "live job j1 cannot settle: '/O=Grid/CN=alice' has no record under vo 'fusion'"
        )

    def test_pushed_vo_keeps_its_stored_terms(self):
        # the site holds no fusion document; the token's fragment wrote the terms
        eng = _engine(vo=None)
        token = sign_capability(KEY, derive_capability(VO_ACCOUNTING, ALICE, expiry=10**9))
        eng.gatekeeper_submit(ALICE, TRANSP.replace("600", "40"), SimProfile(runtime=10),
                              token=token)
        astro = parse_policy(
            'policy "astro" source vo { allocation 70 cpu-seconds;'
            ' subject any { allow action start; } }'
        )
        for vo_policies in ([], [astro]):
            again = self._restore(eng, vo_policies)
            assert again.ledger.to_dict()["fusion"] == eng.ledger.to_dict()["fusion"]
        assert again.ledger_report().splitlines()[0] == "vo=astro used=0/70"


class TestRestoreRoundTrip:
    """After every step of a random run, the snapshot survives a JSON round
    trip and `restore`, and the restored engine ticks as the original does.

    The runs mix sandbox caps (a cpu cap from the VO, a memory cap from
    the site), memory kills, member quotas, unmapped users on a small
    dynamic pool, and every management action, in the manner of A6.
    """

    SITE = parse_policy(
        'policy "site" source resource { trust vo "fusion"; subject any {'
        " allow action start, cancel, status, suspend, resume, set_priority;"
        " attr maxmemory max 400; } }"
    )
    VO = parse_policy(
        'policy "fusion" source vo { allocation 400 cpu-seconds;'
        '  member-quota "/O=Grid/CN=alice" 150 cpu-seconds;'
        '  member-quota "/O=Grid/CN=ghost" 100 cpu-seconds;'
        '  subject group "members" { allow action start; attr maxcputime max 60; } }'
    )
    USERS = (ALICE, BOB, GHOST)
    ACTIONS = (JobAction.STATUS, JobAction.SUSPEND, JobAction.RESUME, JobAction.CANCEL,
               JobAction.SET_PRIORITY)

    STEPS = st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 2), st.integers(1, 3), st.integers(1, 80),
                  st.one_of(st.none(), st.integers(1, 600)), st.integers(0, 120),
                  st.integers(0, 450)),
        st.tuples(st.just("manage"), st.integers(0, 30), st.sampled_from(ACTIONS),
                  st.integers(-2, 2)),
        st.tuples(st.just("tick"), st.integers(1, 40)),
    )

    def _restore(self, engine: JobManager) -> JobManager:
        state = json.loads(json.dumps(engine.snapshot()))
        again = JobManager.restore(state, resource_policy=self.SITE, vo_policies=[self.VO],
                                   gridmap=GRIDMAP)
        assert again.snapshot() == state
        return again

    @given(steps=st.lists(STEPS, min_size=1, max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_restore_after_every_step(self, steps):
        engine = JobManager(resource_policy=self.SITE, vo_policies=[self.VO],
                            gridmap=GRIDMAP, pool=DynamicAccountPool(["dyn00"]))
        for step in steps:
            try:
                if step[0] == "tick":
                    again = self._restore(engine)
                    assert again.tick(step[1]) == engine.tick(step[1])
                    assert again.snapshot() == engine.snapshot()
                elif step[0] == "submit":
                    _, user, count, cpu, memory, runtime, peak = step
                    rsl = f'&(executable="/x")(count={count})(maxcputime={cpu})'
                    if memory is not None:
                        rsl += f"(maxmemory={memory})"
                    engine.gatekeeper_submit(self.USERS[user], rsl, SimProfile(runtime, peak))
                elif engine.jobs:
                    _, n, action, priority = step
                    job = list(engine.jobs.values())[n % len(engine.jobs)]
                    owner = next(u for u in self.USERS if u.subject == job.owner)
                    engine.manage(job.id, action, owner, priority=priority)
            except (DeniedByPolicyError, IllegalTransitionError, QuotaExceededError,
                    NoAccountsAvailableError):
                pass
            self._restore(engine)
