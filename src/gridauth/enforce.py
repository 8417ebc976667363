"""Enforcement primitives: dynamic accounts, sandbox limits, usage ledger.

The account pool hands out pre-created local accounts to grid users who
have no static mapping.  A lease lasts exactly as long as its job: the
pool records which job holds each leased account, and gets the account
back when the job ends.  The allocation ledger charges VO and per-member
cpu-second budgets at admission and refunds the unconsumed remainder
when a job settles.  Its terms, a VO's allocation and its members'
quotas, have one writer, `AllocationLedger.set_terms`: the engine writes
the loaded VO documents' terms when it is built or restored (a member a
document sets no quota for has none), and each accounted admission
writes its permit's, so a report shows the terms written last.  The
ledger keeps its records as the maps a state file stores (see
`AllocationLedger`), and `to_dict` and `from_dict` copy them.  A sandbox
holds the two caps a policy can set, cpu-seconds and memory, in
`SandboxSpec`, a checked tuple.  Limits are inclusive: usage may equal a
cap, exceeding it is a breach.
"""

from __future__ import annotations

from collections import deque, namedtuple
from typing import Iterable, Mapping

from .rsl import _checked_make


class EnforcementError(ValueError):
    pass


class PoolExhaustedError(EnforcementError):
    pass


class UnknownLeaseError(EnforcementError):
    pass


class UnknownVoError(EnforcementError):
    pass


class UnknownMemberError(EnforcementError):
    pass


class QuotaExceededError(EnforcementError):
    def __init__(self, scope: str, message: str):
        self.scope = scope  # "vo" | "member"
        super().__init__(message)


class LedgerUnderflowError(EnforcementError):
    pass


class SandboxSpec(namedtuple("SandboxSpec", "max_cpu max_memory")):
    """Per-job resource caps, a checked tuple; None means the dimension is
    unlimited."""

    __slots__ = ()

    def __new__(cls, max_cpu: int | None = None, max_memory: int | None = None):
        if not ((max_cpu is None or type(max_cpu) is int and max_cpu > 0)
                and (max_memory is None or type(max_memory) is int and max_memory > 0)):
            # the first fault
            for name, limit in (("max_cpu", max_cpu), ("max_memory", max_memory)):
                if limit is not None and type(limit) is not int:  # true/false is no cap
                    raise EnforcementError(f"{name} must be an integer, not {limit!r}")
                if limit is not None and limit <= 0:
                    raise EnforcementError(f"{name} must be positive when set")
        return tuple.__new__(cls, (max_cpu, max_memory))

    _make = _checked_make


def record_usage(spec: SandboxSpec, cpu: int, memory: int) -> str | None:
    """First breached dimension of a job's cumulative usage, cpu before
    memory, or None."""
    if spec.max_cpu is not None and cpu > spec.max_cpu:
        return "cpu"
    if spec.max_memory is not None and memory > spec.max_memory:
        return "memory"
    return None


class DynamicAccountPool:
    """FIFO pool of local accounts, each leased to one live job at a time.

    ``leases`` maps each job that holds an account to it.  The constructor
    takes the free accounts and ``(job id, account)`` lease pairs, and
    refuses an account listed twice among them.
    """

    def __init__(self, accounts: Iterable[str] = (), leases: Iterable = ()):
        self._free: deque = deque(accounts)
        self.leases: dict = {}
        free, holders = set(self._free), {}  # holders: account -> the job leasing it
        # ValueError, not EnforcementError: `JobManager.restore` reports these
        # faults of a stored pool under that name
        for job_id, name in leases:
            if name in holders:
                raise ValueError(f"account {name!r} is leased to both {holders[name]} and {job_id}")
            if name in free:
                raise ValueError(f"account {name!r} is both free and leased to {job_id}")
            holders[name] = job_id
            self.leases[job_id] = name
        if len(free) < len(self._free):  # some free account is listed twice
            seen: set = set()  # the first listed twice: set.add returns None
            name = next(name for name in self._free if name in seen or seen.add(name))
            raise EnforcementError(f"duplicate account {name!r}")

    @property
    def free_accounts(self) -> tuple:
        return tuple(self._free)

    @property
    def exhausted(self) -> bool:
        return not self._free

    def lease(self, job_id: str) -> str:
        if not self._free:
            raise PoolExhaustedError("no dynamic accounts available")
        self.leases[job_id] = account = self._free.popleft()
        return account

    def release(self, job_id: str) -> None:
        if job_id not in self.leases:
            raise UnknownLeaseError(f"no active lease for job {job_id!r}")
        self._free.append(self.leases.pop(job_id))

    # never called: perfbench/spans.py fetches it as __dict__["renew"] to count calls
    def renew(self, *_) -> None: ...


class AllocationLedger:
    """VO-allocation and member-quota accounting in whole cpu-seconds.

    ``reserve`` is all-or-nothing: both bounds are checked before any
    figure moves.  ``settle`` refunds the unconsumed part of an earlier
    reservation; the consumed part stays charged.

    The ledger holds the maps a state file stores: each VO maps to
    ``{"allocation", "used", "members"}``, and ``members`` each member's
    DN to ``{"quota", "used"}``.  An allocation or a quota of None is
    unlimited.
    """

    def __init__(self):
        self._vos: dict[str, dict] = {}

    def set_terms(self, vo: str, allocation: int | None, quotas: Mapping) -> None:
        """Write ``vo``'s allocation and the quota of each member ``quotas``
        names, registering the VO and those members if they are missing.
        A quota of None removes the member's, and with it a record that
        holds no usage."""
        account = self._vos.setdefault(vo, {"allocation": None, "used": 0, "members": {}})
        account["allocation"] = allocation
        members = account["members"]
        for member, quota in quotas.items():
            record = members.setdefault(member, {"quota": None, "used": 0})
            record["quota"] = quota
            if quota is None and record["used"] == 0:  # as `settle` drops a refunded one
                del members[member]

    def set_document_terms(self, vo: str, allocation: int | None, quotas: Mapping) -> None:
        """Write the terms a VO document sets, as `set_terms` does, except that
        a member the ledger holds whom ``quotas`` omits has none; a VO the
        ledger does not hold is registered only if the document sets a term."""
        account = self._vos.get(vo)
        if account is not None or allocation is not None or quotas:
            held = () if account is None else account["members"]
            self.set_terms(vo, allocation, dict.fromkeys(held) | quotas)

    def vos(self) -> tuple:
        return tuple(sorted(self._vos))

    def vo_used(self, vo: str) -> int:
        return self._require_vo(vo)["used"]

    def member_used(self, vo: str, member: str) -> int:
        members = self._require_vo(vo)["members"]
        if member not in members:
            raise UnknownMemberError(f"'{member}' has no record under vo '{vo}'")
        return members[member]["used"]

    def _require_vo(self, vo: str) -> dict:
        account = self._vos.get(vo)
        if account is None:
            raise UnknownVoError(f"vo '{vo}' is not registered")
        return account

    def reserve(self, vo: str, member: str, amount: int, terms: tuple) -> None:
        """Charge ``amount`` to ``vo`` and ``member`` under ``terms``, the
        ``(allocation, quota)`` of the VO's document, a quota of None leaving
        the member's own.  Both bounds are checked before anything moves;
        the terms are written only when the reservation is made."""
        self.check_reserve(vo, member, amount, terms)
        allocation, quota = terms
        self.set_terms(vo, allocation, {} if quota is None else {member: quota})
        if amount:
            account = self._vos[vo]
            account["used"] += amount
            account["members"].setdefault(member, {"quota": None, "used": 0})["used"] += amount

    def check_reserve(self, vo: str, member: str, amount: int, terms: tuple) -> None:
        """Raise what `reserve` would raise, changing nothing."""
        if amount < 0:
            raise ValueError("reservation amount must be non-negative")
        allocation, quota = terms
        account = self._vos.get(vo) or {"used": 0, "members": {}}
        record = account["members"].get(member)
        if quota is None and record is not None:
            quota = record["quota"]
        used = 0 if record is None else record["used"]
        if amount and allocation is not None and account["used"] + amount > allocation:
            raise QuotaExceededError(
                "vo", f"vo '{vo}' allocation exceeded: {account['used']} + {amount} > {allocation}"
            )
        if amount and quota is not None and used + amount > quota:
            raise QuotaExceededError(
                "member", f"member '{member}' quota exceeded: {used} + {amount} > {quota}"
            )

    def settle(self, vo: str, member: str, reserved: int, consumed: int) -> None:
        if consumed > reserved:
            raise LedgerUnderflowError(f"consumed {consumed} exceeds reservation {reserved}")
        account = self._require_vo(vo)
        members = account["members"]
        record = members.get(member)
        if record is None:
            raise UnknownMemberError(f"'{member}' has no record under vo '{vo}'")
        refund = reserved - consumed
        if refund > record["used"] or refund > account["used"]:
            raise LedgerUnderflowError(f"refund {refund} exceeds outstanding usage")
        account["used"] -= refund
        record["used"] -= refund
        # an auto-created record (no quota) disappears once fully refunded,
        # so a rolled-back reservation leaves no trace
        if record["quota"] is None and record["used"] == 0:
            del members[member]

    def report(self) -> str:
        """One line per scope: ``vo=... used=n/alloc``, ``member=... used=n/quota``."""
        lines = []
        for vo in sorted(self._vos):
            account = self._vos[vo]
            alloc = "unlimited" if account["allocation"] is None else account["allocation"]
            lines.append(f"vo={vo} used={account['used']}/{alloc}")
            members = account["members"]
            for member in sorted(members):
                record = members[member]
                quota = "unlimited" if record["quota"] is None else record["quota"]
                lines.append(f"member={member} used={record['used']}/{quota}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """A copy of the ledger's maps that shares none of them with it."""
        return {
            vo: {**account, "members": {dn: dict(m) for dn, m in account["members"].items()}}
            for vo, account in self._vos.items()
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AllocationLedger":
        """The inverse of `to_dict`, which keeps only the keys it stores; a
        bad figure raises ValueError."""
        ledger = cls()
        for vo, acct in data.items():
            ledger._vos[vo] = {
                "allocation": _figure(acct["allocation"], f"vo {vo} allocation", bound=True),
                "used": _figure(acct["used"], f"vo {vo} used"),
                "members": {dn: {"quota": _figure(m["quota"], f"member {dn} quota", bound=True),
                                 "used": _figure(m["used"], f"member {dn} used")}
                            for dn, m in acct["members"].items()},
            }
        return ledger


def _figure(value, what: str, bound: bool = False) -> int | None:
    """``value`` if it is a non-negative int, or None for an unlimited bound."""
    # bool is an int subclass, but true/false in a state file is no figure
    if not (bound and value is None) and (type(value) is not int or value < 0):
        raise ValueError(f"ledger {what} must be a non-negative integer, not {value!r}")
    return value
