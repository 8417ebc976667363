"""Account pool, sandbox limits and allocation ledger tests."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridauth.enforce import (
    AllocationLedger,
    DynamicAccountPool,
    EnforcementError,
    LedgerUnderflowError,
    PoolExhaustedError,
    QuotaExceededError,
    SandboxSpec,
    UnknownLeaseError,
    UnknownMemberError,
    UnknownVoError,
    record_usage,
)


class TestPool:
    def test_fifo_then_exhausted(self):
        pool = DynamicAccountPool(["u1", "u2"])
        assert pool.lease("j1") == "u1"
        assert pool.lease("j2") == "u2"
        assert pool.leases == {"j1": "u1", "j2": "u2"}
        with pytest.raises(PoolExhaustedError):
            pool.lease("j3")
        assert pool.leases == {"j1": "u1", "j2": "u2"}

    def test_release_returns_account(self):
        pool = DynamicAccountPool(["u1"])
        pool.lease("j1")
        pool.release("j1")
        assert pool.free_accounts == ("u1",)
        assert pool.leases == {}
        assert pool.lease("j2") == "u1"

    def test_double_release(self):
        pool = DynamicAccountPool(["u1"])
        pool.lease("j1")
        pool.release("j1")
        with pytest.raises(UnknownLeaseError, match="^no active lease for job 'j1'$"):
            pool.release("j1")
        with pytest.raises(UnknownLeaseError):
            pool.release("j2")
        assert pool.free_accounts == ("u1",)

    def test_one_subject_may_hold_two_leases(self):
        pool = DynamicAccountPool(["u1", "u2"])
        assert {pool.lease("j1"), pool.lease("j2")} == {"u1", "u2"}

    def test_release_preserves_size(self):
        pool = DynamicAccountPool(["u1", "u2", "u3"])
        account = pool.lease("j1")
        assert sorted(pool.free_accounts + (account,)) == ["u1", "u2", "u3"]
        pool.release("j1")
        assert sorted(pool.free_accounts) == ["u1", "u2", "u3"]

    def test_constructor_takes_leases(self):
        pool = DynamicAccountPool(["u1"], [("j4", "u3"), ("j2", "u2")])
        assert pool.leases == {"j4": "u3", "j2": "u2"}
        assert pool.free_accounts == ("u1",)
        pool.release("j2")
        assert pool.free_accounts == ("u1", "u2")

    @pytest.mark.parametrize(
        "accounts, leases, message",
        [
            (["u1"], [("j1", "u1")], "account 'u1' is both free and leased to j1"),
            ([], [("j1", "u1"), ("j2", "u1")], "account 'u1' is leased to both j1 and j2"),
            ([], [("j1", "u1"), ("j1", "u1")], "account 'u1' is leased to both j1 and j1"),
        ],
        ids=["free-and-leased", "two-jobs", "one-job-twice"],
    )
    def test_constructor_refuses_an_account_listed_twice(self, accounts, leases, message):
        with pytest.raises(ValueError) as exc:
            DynamicAccountPool(accounts, leases)
        # `JobManager.restore` reports these under the name ValueError
        assert (type(exc.value), str(exc.value)) == (ValueError, message)

    @given(ops=st.lists(st.integers(0, 1), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_no_lost_accounts(self, ops):
        pool = DynamicAccountPool([f"u{i}" for i in range(4)])
        live = []
        for seq, op in enumerate(ops):
            if op == 0:
                try:
                    pool.lease(f"j{seq}")
                    live.append(f"j{seq}")
                except PoolExhaustedError:
                    assert len(live) == 4
            elif live:
                pool.release(live.pop())
            assert list(pool.leases) == live
            leased = tuple(pool.leases.values())
            assert sorted(pool.free_accounts + leased) == [f"u{i}" for i in range(4)]


class TestRecordUsage:
    def test_cpu_breach(self):
        spec = SandboxSpec(max_cpu=100)
        assert record_usage(spec, 101, 0) == "cpu"

    def test_limits_inclusive(self):
        spec = SandboxSpec(max_cpu=100, max_memory=10)
        assert record_usage(spec, 100, 10) is None

    def test_cpu_checked_before_memory(self):
        spec = SandboxSpec(max_cpu=100, max_memory=10)
        assert record_usage(spec, 50, 11) == "memory"
        assert record_usage(spec, 101, 11) == "cpu"

    def test_unlimited_dimensions(self):
        assert record_usage(SandboxSpec(), 10**9, 10**9) is None

    def test_breach_is_monotonic_for_cumulative_samples(self):
        spec = SandboxSpec(max_cpu=10)
        cumulative = [3, 7, 11, 12, 20]
        breached = [record_usage(spec, c, 0) for c in cumulative]
        first = breached.index("cpu")
        assert all(b == "cpu" for b in breached[first:])

    def test_positive_limits_enforced(self):
        with pytest.raises(Exception):
            SandboxSpec(max_cpu=0)


class TestSandboxSpec:
    """`SandboxSpec` is a checked tuple of the two caps."""

    def test_keywords_defaults_and_repr(self):
        assert SandboxSpec() == SandboxSpec(None, None)
        spec = SandboxSpec(max_memory=64)
        assert (spec.max_cpu, spec.max_memory) == (None, 64)
        assert repr(spec) == "SandboxSpec(max_cpu=None, max_memory=64)"

    @pytest.mark.parametrize("caps, message", [
        ({"max_cpu": True}, "max_cpu must be an integer, not True"),
        ({"max_memory": False}, "max_memory must be an integer, not False"),
        ({"max_cpu": 5, "max_memory": 2.5}, "max_memory must be an integer, not 2.5"),
        ({"max_cpu": -1}, "max_cpu must be positive when set"),
        ({"max_memory": 0}, "max_memory must be positive when set"),
        # the first fault, cpu before memory
        ({"max_cpu": 0, "max_memory": True}, "max_cpu must be positive when set"),
    ])
    def test_refuses(self, caps, message):
        with pytest.raises(EnforcementError) as exc:
            SandboxSpec(**caps)
        assert str(exc.value) == message

    def test_make_and_replace_run_the_checks(self):
        assert SandboxSpec(4, 8)._replace(max_memory=None) == SandboxSpec(max_cpu=4)
        with pytest.raises(EnforcementError, match="max_memory must be positive"):
            SandboxSpec(4, 8)._replace(max_memory=0)
        with pytest.raises(EnforcementError, match="max_cpu must be an integer"):
            SandboxSpec._make((True, None))


#: the terms of the VO document `TestLedger._ledger` registers, its quotas
#: left to the members' own records
FUSION = (1000, None)


class TestLedger:
    def _ledger(self):
        ledger = AllocationLedger()
        ledger.set_terms("fusion", 1000, {"alice": 600, "bob": 600})
        return ledger

    def test_member_quota_bound(self):
        ledger = self._ledger()
        ledger.reserve("fusion", "alice", 600, FUSION)
        with pytest.raises(QuotaExceededError) as exc:
            ledger.reserve("fusion", "alice", 1, FUSION)
        assert exc.value.scope == "member"

    def test_vo_bound(self):
        ledger = self._ledger()
        ledger.reserve("fusion", "alice", 600, FUSION)
        with pytest.raises(QuotaExceededError) as exc:
            ledger.reserve("fusion", "bob", 500, FUSION)
        assert exc.value.scope == "vo"
        # nothing moved
        assert ledger.vo_used("fusion") == 600
        assert ledger.member_used("fusion", "bob") == 0

    def test_each_bound_admits_up_to_itself_exactly(self):
        ledger = self._ledger()
        ledger.reserve("fusion", "alice", 600, FUSION)  # alice's quota, exactly
        with pytest.raises(QuotaExceededError) as exc:
            ledger.reserve("fusion", "alice", 1, FUSION)
        assert exc.value.scope == "member"
        ledger.reserve("fusion", "bob", 400, FUSION)  # the VO's allocation, exactly
        with pytest.raises(QuotaExceededError) as exc:
            ledger.reserve("fusion", "bob", 1, FUSION)
        assert exc.value.scope == "vo"
        assert ledger.report().splitlines() == [
            "vo=fusion used=1000/1000",
            "member=alice used=600/600",
            "member=bob used=400/600",
        ]

    def test_zero_reserve_is_a_no_op(self):
        ledger = self._ledger()
        before = ledger.to_dict()
        ledger.reserve("fusion", "alice", 0, FUSION)
        ledger.reserve("fusion", "carol", 0, FUSION)
        assert ledger.vo_used("fusion") == 0
        assert ledger.to_dict() == before

    def test_unknown_vo(self):
        # reads and settlements need a registered VO; a reservation
        # registers its VO under the terms it carries
        ledger = self._ledger()
        with pytest.raises(UnknownVoError):
            ledger.vo_used("astro")
        with pytest.raises(UnknownVoError):
            ledger.settle("astro", "alice", 1, 0)
        ledger.reserve("astro", "alice", 1, (10, 5))
        assert ledger.vos() == ("astro", "fusion")
        assert ledger.report().splitlines()[:2] == [
            "vo=astro used=1/10",
            "member=alice used=1/5",
        ]

    def test_member_without_quota_is_bounded_by_vo_only(self):
        ledger = self._ledger()
        ledger.reserve("fusion", "carol", 900, FUSION)
        assert ledger.member_used("fusion", "carol") == 900
        with pytest.raises(QuotaExceededError) as exc:
            ledger.reserve("fusion", "carol", 200, FUSION)
        assert exc.value.scope == "vo"

    def test_refused_reserve_writes_no_terms(self):
        ledger = self._ledger()
        ledger.reserve("fusion", "alice", 100, FUSION)
        before = ledger.to_dict()
        # refused by the new allocation, by the new quota, and by a member's own
        # quota under a larger allocation; each leaves every figure as it was
        for member, amount, terms in (
            ("alice", 450, (500, None)),
            ("carol", 60, (2000, 50)),
            ("bob", 700, (2000, None)),
        ):
            with pytest.raises(QuotaExceededError):
                ledger.reserve("fusion", member, amount, terms)
            assert ledger.to_dict() == before
        with pytest.raises(QuotaExceededError):
            ledger.reserve("astro", "zed", 11, (10, None))
        assert ledger.vos() == ("fusion",)
        # an admitted reservation writes its terms
        ledger.reserve("fusion", "carol", 50, (2000, 50))
        assert ledger.report().splitlines() == [
            "vo=fusion used=150/2000",
            "member=alice used=100/600",
            "member=bob used=0/600",
            "member=carol used=50/50",
        ]

    def test_settle_refunds_unconsumed(self):
        ledger = self._ledger()
        ledger.reserve("fusion", "alice", 100, FUSION)
        ledger.settle("fusion", "alice", 100, 40)
        assert ledger.vo_used("fusion") == 40
        assert ledger.member_used("fusion", "alice") == 40

    def test_settle_full_consumption_refunds_nothing(self):
        ledger = self._ledger()
        ledger.reserve("fusion", "alice", 100, FUSION)
        ledger.settle("fusion", "alice", 100, 100)
        assert ledger.vo_used("fusion") == 100

    def test_settle_over_reservation_underflows(self):
        ledger = self._ledger()
        ledger.reserve("fusion", "alice", 100, FUSION)
        with pytest.raises(LedgerUnderflowError):
            ledger.settle("fusion", "alice", 100, 150)

    def test_negative_reservation_is_refused(self):
        ledger = self._ledger()
        with pytest.raises(ValueError, match="^reservation amount must be non-negative$"):
            ledger.reserve("fusion", "alice", -5, FUSION)
        assert ledger.vo_used("fusion") == 0

    def test_settle_refund_past_usage_underflows(self):
        ledger = self._ledger()
        ledger.reserve("fusion", "alice", 100, FUSION)
        with pytest.raises(LedgerUnderflowError, match="^refund 200 exceeds outstanding usage$"):
            ledger.settle("fusion", "alice", 200, 0)
        assert ledger.vo_used("fusion") == ledger.member_used("fusion", "alice") == 100

    def test_settle_refund_past_the_vos_usage_underflows(self):
        # no reservation leaves a member's use above its VO's; a ledger read
        # from a mapping can, and settle refuses it without a change
        data = {"fusion": {"allocation": 1000, "used": 50,
                           "members": {"alice": {"quota": None, "used": 200}}}}
        ledger = AllocationLedger.from_dict(data)
        with pytest.raises(LedgerUnderflowError, match="^refund 100 exceeds outstanding usage$"):
            ledger.settle("fusion", "alice", 100, 0)
        assert ledger.to_dict() == data

    def test_settle_unknown_member(self):
        ledger = self._ledger()
        with pytest.raises(UnknownMemberError):
            ledger.settle("fusion", "nobody", 10, 0)

    def test_report_format(self):
        ledger = self._ledger()
        ledger.reserve("fusion", "alice", 600, FUSION)
        assert ledger.report().splitlines() == [
            "vo=fusion used=600/1000",
            "member=alice used=600/600",
            "member=bob used=0/600",
        ]

    def test_unlimited_allocation_report(self):
        ledger = AllocationLedger()
        ledger.set_terms("astro", None, {"zed": 10})
        ledger.reserve("astro", "zed", 5, (None, None))
        assert ledger.report().splitlines() == [
            "vo=astro used=5/unlimited",
            "member=zed used=5/10",
        ]

    def test_round_trips_through_dict(self):
        ledger = self._ledger()
        ledger.reserve("fusion", "alice", 250, FUSION)
        again = AllocationLedger.from_dict(ledger.to_dict())
        assert again.report() == ledger.report()


    def test_a_copy_shares_no_map_with_the_ledger(self):
        ledger = self._ledger()
        ledger.reserve("fusion", "alice", 250, FUSION)
        report, stored = ledger.report(), ledger.to_dict()
        copy = ledger.to_dict()
        copy["fusion"]["used"] = 7
        copy["fusion"]["members"]["alice"]["quota"] = None
        del copy["fusion"]["members"]["bob"]
        copy["astro"] = {"allocation": None, "used": 0, "members": {}}
        assert ledger.report() == report
        assert ledger.to_dict() == stored
        # nor does a ledger built from a map share it
        again = AllocationLedger.from_dict(stored)
        stored["fusion"]["members"]["alice"]["used"] = 0
        again.settle("fusion", "alice", 250, 0)
        assert again.vo_used("fusion") == 0

    def test_from_dict_keeps_only_the_stored_keys(self):
        data = {"fusion": {
            "note": "x", "members": {"alice": {"used": 5, "quota": 600, "since": 3}},
            "used": 5, "allocation": 1000,
        }}
        # in the order a state file stores them
        assert json.dumps(AllocationLedger.from_dict(data).to_dict()) == (
            '{"fusion": {"allocation": 1000, "used": 5,'
            ' "members": {"alice": {"quota": 600, "used": 5}}}}'
        )


def _check_ledger_invariants(ledger: AllocationLedger):
    data = ledger.to_dict()
    for vo, acct in data.items():
        assert acct["used"] >= 0
        if acct["allocation"] is not None:
            assert acct["used"] <= acct["allocation"]
        member_sum = 0
        for dn, member in acct["members"].items():
            assert member["used"] >= 0
            if member["quota"] is not None:
                assert member["used"] <= member["quota"]
            member_sum += member["used"]
        assert member_sum <= acct["used"]


class TestLedgerRandomized:
    def test_invariants_hold_under_random_interleavings(self):
        rng = random.Random(0xAB)
        ledger = AllocationLedger()
        ledger.set_terms("fusion", 1000, {"alice": 600, "bob": 400})
        ledger.set_terms("astro", None, {"zed": 50})
        terms = {"fusion": (1000, None), "astro": (None, None)}
        members = {"fusion": ["alice", "bob", "carol"], "astro": ["zed", "quinn"]}
        outstanding = []  # (vo, member, amount)
        for _ in range(10_000):
            vo = rng.choice(["fusion", "astro"])
            member = rng.choice(members[vo])
            if outstanding and rng.random() < 0.45:
                idx = rng.randrange(len(outstanding))
                svo, smember, amount = outstanding.pop(idx)
                consumed = rng.randint(0, amount)
                ledger.settle(svo, smember, amount, consumed)
            else:
                amount = rng.randint(0, 120)
                try:
                    ledger.reserve(vo, member, amount, terms[vo])
                except QuotaExceededError:
                    pass
                else:
                    if amount:
                        outstanding.append((vo, member, amount))
            _check_ledger_invariants(ledger)
