"""Simulated gatekeeper and job manager with a discrete clock.

Submission and management requests each pass one enforcement point that
asks the decision point before anything changes; a denied request
leaves no state behind.  An admitted job's sandbox holds only the cpu
and memory caps that the permit carries (`pdp.Decision.caps`), and its
reservation is charged under the permit's terms (`pdp.Decision.terms`);
the engine knows nothing of policy semantics.  Admitted jobs move
through a fixed lifecycle (pending, active, suspended, and the absorbing
done/failed/canceled).

Simulated time moves only in `tick(dt)`, and its result is that of
``dt`` one-second steps.  Each step activates the pending jobs (highest
priority first, then submission order) at the second it starts, then
advances the clock; every active job consumes ``count`` cpu-seconds,
capped at its profiled runtime, and is killed if that breaches its
sandbox or completes once its consumption reaches the runtime.  Every
ending settles the job's reservation and hands its dynamic account, if
it holds one, back to the pool: a lease lasts exactly as long as its job.

Nothing arrives and no management request runs inside one `tick`, so the
steps need not be taken one at a time: `tick` jumps between events.
Pending jobs can only activate at step 1, and after step k an active job
has consumed ``min(consumed + count*k, runtime)``.  So the second at
which an active job ends has a closed form: the first second if its
memory cap is already exceeded, the first second whose
consumption exceeds its cpu cap (a cpu breach wins a tie with
completion), or the second at which it reaches its runtime.  Nor does
that second move while the job stays active, so it is computed once,
when `tick` schedules the job: at activation, or at the start of the
first tick after a resume or a restore (the clock cannot move before
then, so an unscheduled job's ``consumed`` stays current).  Scheduling
pushes one heap entry, ``(end second, submission number, second
scheduled, job)``, and that entry is the job's whole schedule: the job
keeps ``consumed`` as it stood at the second scheduled, and
`job_record`, `snapshot`, suspend and cancel work out the current figure
from the seconds gone since.  A suspend or a cancel forgets the entry,
which leaves it void in the heap; a void entry is dropped when it
surfaces or when void entries outnumber valid ones.

A tick therefore touches only the pending jobs it activates, the jobs
it schedules and the jobs that end within it; jobs that run on through
it are not visited.  Endings are applied in order of their second, then
of submission, each at its own clock second, and one `record_usage`
call confirms each outcome.  Apart from a logarithm per heap operation,
the work per call grows with none of ``dt``, the running jobs or the
jobs that have finished.

All mutations go through one engine instance and are serialized by the
caller; records returned to callers are snapshots.
"""

from __future__ import annotations

import enum
import heapq
import re
from collections import namedtuple
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple

from .credential import CapabilityToken, GridCredential, GridMapFile
from .enforce import (
    AllocationLedger,
    DynamicAccountPool,
    EnforcementError,
    SandboxSpec,
    record_usage,
)
from .pdp import AuthzQuery, Decision, PolicySourceSet, authorize, vo_documents
from .policy import PolicyDocument
from .rsl import JobAction, RslRequest, _checked_make, parse_rsl


class JobManagerError(Exception):
    pass


class DeniedByPolicyError(JobManagerError):
    def __init__(self, decision: Decision):
        self.decision = decision
        detail = next((e.reason for e in decision.trace if e.outcome == "deny"), "denied")
        super().__init__(f"denied by policy: {detail}")


class UnknownJobError(JobManagerError):
    pass


class IllegalTransitionError(JobManagerError):
    pass


class NoAccountsAvailableError(JobManagerError):
    pass


class JobState(enum.Enum):
    __hash__ = object.__hash__  # by identity, in C, as `JobAction`

    PENDING = "pending"
    ACTIVE = "active"
    SUSPENDED = "suspended"
    DONE = "done"
    FAILED = "failed"
    CANCELED = "canceled"


TERMINAL_STATES = frozenset({JobState.DONE, JobState.FAILED, JobState.CANCELED})
#: each state by its stored value, and each state's stored value; a lookup
#: is cheaper than `JobState(value)` and than the `value` property
_STATES = {state.value: state for state in JobState}
_STATE_VALUES = {state: value for value, state in _STATES.items()}

#: the only lifecycle moves the engine will ever perform
TRANSITIONS: Mapping = {
    (JobState.PENDING, "activate"): JobState.ACTIVE,
    (JobState.ACTIVE, "suspend"): JobState.SUSPENDED,
    (JobState.SUSPENDED, "resume"): JobState.ACTIVE,
    (JobState.PENDING, "cancel"): JobState.CANCELED,
    (JobState.ACTIVE, "cancel"): JobState.CANCELED,
    (JobState.SUSPENDED, "cancel"): JobState.CANCELED,
    (JobState.ACTIVE, "complete"): JobState.DONE,
    (JobState.ACTIVE, "limit_kill"): JobState.FAILED,
}


def _require_int(value, what: str) -> int:
    # bool is an int subclass, but true/false in a state file is no figure
    if type(value) is not int:
        raise _not_int(value, what)
    return value


def _not_int(value, what: str) -> ValueError:
    return ValueError(f"{what} must be an integer, not {value!r}")


#: a job id as `gatekeeper_submit` numbers them
_JOB_ID = re.compile("j[1-9][0-9]*").fullmatch


class SimProfile(namedtuple("SimProfile", "runtime memory_peak")):
    """What the simulated job would really do if it ran, a checked tuple:
    the total cpu-seconds it consumes before finishing, and its memory
    peak in MB."""

    __slots__ = ()

    def __new__(cls, runtime: int, memory_peak: int = 0):
        if not (type(runtime) is int and runtime >= 0
                and type(memory_peak) is int and memory_peak >= 0):
            for figure in (runtime, memory_peak):  # the first fault
                _require_int(figure, "profile figure")
                if figure < 0:
                    raise ValueError("profile figures must be non-negative")
        return tuple.__new__(cls, (runtime, memory_peak))

    _make = _checked_make


@dataclass(slots=True)
class Job:
    id: str
    owner: str
    vo: str | None
    request: RslRequest
    state: JobState
    account: str
    reserved: int
    consumed: int
    priority: int
    submitted_at: int
    ended_at: int | None
    profile: SimProfile
    sandbox: SandboxSpec
    accounted: bool

    @property
    def count(self) -> int:
        return self.request.attributes.get("count") or 1

    @property
    def jobtag(self) -> str | None:
        return self.request.attributes.get("jobtag")


#: a stored job is one row of these fields, `Job`'s, in this order; its
#: profile is the pair (runtime, memory peak), its sandbox (cpu, memory cap)
JOB_FIELDS = tuple(field.name for field in fields(Job))
_job_row = attrgetter(*JOB_FIELDS)


class Event(NamedTuple):
    t: int
    job: str
    name: str
    detail: str

    @property
    def line(self) -> str:
        return f"t={self.t} job={self.job} event={self.name} detail={self.detail}"


def _consumed_after(job: Job, steps: int) -> int:
    """An active job's consumption after ``steps`` more seconds of running."""
    return min(job.consumed + job.count * steps, job.profile.runtime)


def _end_step(job: Job) -> int:
    """The first step at which an active job breaches its sandbox or completes."""
    spec, profile = job.sandbox, job.profile
    if spec.max_memory is not None and profile.memory_peak > spec.max_memory:
        return 1
    # consumption reaches the runtime at this step ...
    step = -((job.consumed - profile.runtime) // job.count)
    if spec.max_cpu is not None and profile.runtime > spec.max_cpu:
        # ... unless it first exceeds the cpu cap
        step = min(step, (spec.max_cpu - job.consumed) // job.count + 1)
    return max(step, 1)


class JobManager:
    """Gatekeeper, job-manager instances, clock and bookkeeping in one place."""

    def __init__(
        self,
        resource_policy: PolicyDocument | None = None,
        vo_policies: Iterable = (),
        gridmap: GridMapFile | None = None,
        pool: DynamicAccountPool | None = None,
        key_registry: Mapping | None = None,
    ):
        self._configure(resource_policy, vo_policies, gridmap, key_registry)
        self.clock = 0
        self._next_seq = 1
        self.ledger = AllocationLedger()
        self.pool = pool or DynamicAccountPool()
        self._register_accounting()

    def _configure(self, resource_policy, vo_policies, gridmap, key_registry) -> None:
        """All but the clock, the next job number, the ledger and the pool,
        which `restore` takes from the state: the documents (one of the
        wrong kind raises), the grid-mapfile, the VO keys, no jobs, no events."""
        if resource_policy is not None:
            PolicySourceSet(resource_policy)  # refuses a document of another source
        self.resource_policy = resource_policy
        self.vo_policies: dict[str, PolicyDocument] = vo_documents(vo_policies)
        self.gridmap = gridmap or GridMapFile({})
        self.key_registry = dict(key_registry or {})
        self.jobs: dict[str, Job] = {}
        self._pending: dict[str, Job] = {}  # the pending jobs, in submission order
        # active jobs the next tick schedules: resumed or restored ones
        self._unscheduled: dict[str, Job] = {}
        # heap of (end second, submission number, second at which the job's
        # `consumed` stands, job), and each scheduled job id -> its entry; an
        # entry `_scheduled` does not hold is void
        self._ends: list = []
        self._scheduled: dict[str, tuple] = {}
        self.events: list[Event] = []

    # -- plumbing ---------------------------------------------------------

    def _register_accounting(self) -> None:
        """Write the loaded VO documents' terms into the ledger; a member the
        ledger holds under a VO whose document sets them no quota has none,
        and a VO it holds whose document sets no terms is unlimited."""
        for doc in self.vo_policies.values():
            self.ledger.set_document_terms(doc.name, doc.allocation, doc.member_quotas)

    def _emit(self, job_id: str, name: str, detail: str) -> Event:
        event = Event(self.clock, job_id, name, detail)
        self.events.append(event)
        return event

    def _transition(self, job: Job, event: str) -> None:
        new_state = TRANSITIONS.get((job.state, event))
        if new_state is None:
            raise IllegalTransitionError(
                f"cannot {event} job {job.id} in state {job.state.value}"
            )
        job.state = new_state

    def _authorize(self, q: AuthzQuery, token: CapabilityToken | None) -> Decision:
        """The PDP's permit (see `pdp.authorize`); a denial raises."""
        resource = self.resource_policy
        if resource is None:
            raise ValueError("no resource policy configured")
        decision = authorize(q, resource, self.vo_policies, token, self.key_registry, self.clock)
        if not decision.permitted:
            raise DeniedByPolicyError(decision)
        return decision

    # -- gatekeeper -------------------------------------------------------

    def gatekeeper_submit(
        self,
        cred: GridCredential,
        rsl_text: str,
        profile: SimProfile,
        token: CapabilityToken | None = None,
    ) -> str:
        """Admit a job or raise; admission is atomic.

        Raises RslError for malformed requests, DeniedByPolicyError,
        QuotaExceededError or NoAccountsAvailableError (a quota refusal
        first when both hold); each is raised before anything changes.
        The job runs under the permit's obligations: its caps, and for an
        accounted job a reservation that writes the permit's terms, the VO
        allocation and the member's quota, into the ledger.
        """
        request = parse_rsl(rsl_text)
        query = AuthzQuery(credential=cred, action=JobAction.START, request=request)
        decision = self._authorize(query, token)
        reserved, terms = decision.charged_estimate or 0, decision.terms
        account = self.gridmap.lookup(cred.subject)
        if account is None and self.pool.exhausted:
            if terms is not None:
                self.ledger.check_reserve(cred.vo, cred.subject, reserved, terms)
            raise NoAccountsAvailableError(
                f"no local account for {cred.subject} and the dynamic pool is empty"
            )
        if terms is not None:
            self.ledger.reserve(cred.vo, cred.subject, reserved, terms)
        job_id = f"j{self._next_seq}"
        self._next_seq += 1
        if account is None:
            account = self.pool.lease(job_id)
        job = Job(
            id=job_id,
            owner=cred.subject,
            vo=cred.vo,
            request=request,
            state=JobState.PENDING,
            account=account,
            reserved=reserved,
            consumed=0,
            priority=0,
            submitted_at=self.clock,
            ended_at=None,
            profile=profile,
            sandbox=SandboxSpec(*decision.caps),
            accounted=terms is not None,
        )
        self.jobs[job_id] = job
        self._pending[job_id] = job
        self._emit(job_id, "submit", f"owner={cred.subject} state=pending reserved={reserved}")
        return job_id

    # -- job manager ------------------------------------------------------

    def manage(
        self,
        job_id: str,
        action: JobAction,
        cred: GridCredential,
        token: CapabilityToken | None = None,
        priority: int | None = None,
    ) -> Job:
        """Authorize and apply one management request; returns a snapshot."""
        if action is JobAction.START:
            raise ValueError("start is not a management action")
        job = self.jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"no such job '{job_id}'")
        query = AuthzQuery(credential=cred, action=action, jobtag=job.jobtag, owner=job.owner)
        self._authorize(query, token)

        if action is JobAction.STATUS:
            return self.job_record(job_id)
        if action is JobAction.SET_PRIORITY:
            if priority is None:
                raise ValueError("set_priority requires a priority value")
            if job.state in TERMINAL_STATES:
                raise IllegalTransitionError(
                    f"cannot set_priority job {job.id} in state {job.state.value}"
                )
            job.priority = priority
            self._emit(job_id, "set_priority", f"priority={priority} by={cred.subject}")
            return self.job_record(job_id)

        event = action.value  # suspend | resume | cancel
        was_active = job.state is JobState.ACTIVE
        self._transition(job, event)
        if was_active:
            self._unschedule(job)
        if action is JobAction.SUSPEND:
            self._emit(job_id, "suspend", f"state=suspended by={cred.subject}")
        elif action is JobAction.RESUME:
            self._unscheduled[job_id] = job
            self._emit(job_id, "resume", f"state=active by={cred.subject}")
        else:
            self._pending.pop(job_id, None)
            self._emit(job_id, "cancel", f"state=canceled by={cred.subject}")
            self._settle(job)
        return self.job_record(job_id)

    def _settle(self, job: Job) -> None:
        if job.accounted:
            self.ledger.settle(job.vo, job.owner, job.reserved, job.consumed)
        if job.id in self.pool.leases:
            self.pool.release(job.id)
        job.ended_at = self.clock

    # -- clock ------------------------------------------------------------

    def tick(self, dt: int) -> list:
        """Advance the clock ``dt`` whole seconds; returns the new events."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        first_new = len(self.events)
        start = self.clock
        activated = sorted(
            self._pending.values(),
            key=lambda j: (-j.priority, j.submitted_at, int(j.id[1:])),
        )
        self._pending.clear()
        for job in activated:
            self._transition(job, "activate")
            self._emit(job.id, "activate", "state=active")
            self._schedule(job)
        for job in self._unscheduled.values():
            if job.state is JobState.ACTIVE:
                self._schedule(job)
        self._unscheduled.clear()

        horizon = start + dt
        ends, scheduled = self._ends, self._scheduled
        while ends and ends[0][0] <= horizon:
            entry = heapq.heappop(ends)
            end, _, since, job = entry
            if scheduled.get(job.id) is not entry:
                continue  # suspended or canceled after it was scheduled
            del scheduled[job.id]
            self.clock = end
            tentative = _consumed_after(job, end - since)
            breach = record_usage(job.sandbox, tentative, job.profile.memory_peak)
            if breach is not None:
                if breach == "cpu":
                    # the kill lands the moment the cap is crossed
                    job.consumed = min(tentative, job.sandbox.max_cpu)
                else:
                    job.consumed = tentative
                self._transition(job, "limit_kill")
                self._emit(job.id, "failed", f"state=failed limit={breach}")
            else:
                job.consumed = tentative
                self._transition(job, "complete")
                refund = max(job.reserved - job.consumed, 0)
                self._emit(
                    job.id,
                    "done",
                    f"state=done consumed={job.consumed} refunded={refund}",
                )
            self._settle(job)
        self.clock = horizon
        if len(ends) > 2 * len(scheduled):
            # void entries outnumber valid ones: keep only the valid ones
            self._ends = [e for e in ends if scheduled.get(e[3].id) is e]
            heapq.heapify(self._ends)
        return self.events[first_new:]

    def _schedule(self, job: Job) -> None:
        """Enter an active job's end second in the heap, as of the current second.

        Only a tick's start schedules, at most once per job, so two entries
        of one job differ in their third field and the heap never compares
        two jobs."""
        entry = self._scheduled[job.id] = (
            self.clock + _end_step(job), int(job.id[1:]), self.clock, job
        )
        heapq.heappush(self._ends, entry)

    def _unschedule(self, job: Job) -> None:
        """Store a job's consumption as of now and void its heap entry."""
        job.consumed = self._consumed_now(job)
        self._scheduled.pop(job.id, None)

    def _consumed_now(self, job: Job) -> int:
        """A job's consumption at the current second."""
        entry = self._scheduled.get(job.id)
        if entry is None:
            return job.consumed
        return _consumed_after(job, self.clock - entry[2])

    # -- inspection -------------------------------------------------------

    def job_record(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"no such job '{job_id}'")
        record = Job(*_job_row(job))
        record.consumed = self._consumed_now(job)
        return record

    def event_lines(self) -> list:
        return [e.line for e in self.events]

    def ledger_report(self) -> str:
        return self.ledger.report()

    # -- persistence ------------------------------------------------------

    def snapshot(self) -> dict:
        consumed_now = self._consumed_now
        return {
            "clock": self.clock,
            "next_seq": self._next_seq,
            "jobs": [  # one row per job, in `JOB_FIELDS` order
                [job.id, job.owner, job.vo, dict(job.request.attributes), _STATE_VALUES[job.state],
                 job.account, job.reserved, consumed_now(job), job.priority, job.submitted_at,
                 job.ended_at, list(job.profile), list(job.sandbox), job.accounted]
                for job in self.jobs.values()
            ],
            "ledger": self.ledger.to_dict(),
            "pool": {
                "free": list(self.pool.free_accounts),
                "leased": [job_id for job_id in self.jobs if job_id in self.pool.leases],
            },
            "events": [
                {"t": e.t, "job": e.job, "name": e.name, "detail": e.detail}
                for e in self.events
            ],
        }

    @classmethod
    def restore(
        cls,
        state: dict,
        resource_policy: PolicyDocument | None = None,
        vo_policies: Iterable = (),
        gridmap: GridMapFile | None = None,
        key_registry: Mapping | None = None,
    ) -> "JobManager":
        """The engine a `snapshot` of the current state version describes
        (`gridauth.cli` upgrades older ones); a fault raises ValueError.

        Each stored job is a row of the `JOB_FIELDS`, checked in this
        order, so a job with several faults reports the first of them:

        1. it is a list of as many fields as `JOB_FIELDS` names;
        2. its id is ``j<n>``, not stored before, below ``next_seq`` and
           above the previous job's (ties between endings in one second
           go by submission number);
        3. ``reserved``, ``consumed``, ``priority`` and ``submitted_at``
           are integers, ``owner`` and ``account`` strings, ``vo`` a
           string or null, ``ended_at`` an integer or null, and
           ``reserved`` is not negative (one test passes a well-formed
           row; only a row that fails it runs these one by one);
        4. its sandbox is the pair of the two caps (a map a version-7
           file held with other caps is reported by its keys);
        5. its profile is a pair, whose runtime, then memory peak, is a
           non-negative integer, then each cap a positive integer or null;
        6. ``consumed`` lies between 0 and the most the job can be
           charged, the lesser of its runtime and its cpu cap;
        7. ``request`` is a map, ``state`` a job state and ``accounted``
           true or false;
        8. the request passes `RslRequest`'s checks;
        9. a live accounted job's VO and member have ledger records (read
           at the first live job that names them), and its ``reserved``
           covers the most it can be charged.

        Then each VO's and member's ledger usage must cover their live
        jobs' reservations, and the pool must lease accounts only to
        live jobs.
        """
        engine = cls.__new__(cls)  # no fresh ledger or pool: both are read from the state
        engine._configure(resource_policy, vo_policies, gridmap, key_registry)
        engine.clock = _require_int(state["clock"], "clock")
        next_seq = engine._next_seq = _require_int(state["next_seq"], "next_seq")
        engine.ledger = ledger = AllocationLedger.from_dict(state["ledger"])
        jobs, live = engine.jobs, {}  # live: job id -> account
        # (vo, None) -> ([the VO's ledger usage, what its live accounted jobs
        # hold reserved],) and (vo, member) -> (the VO's record, [the member's
        # usage, reserved]), in the order the jobs name them: a scope's own
        # record is last, and a live row reads both records in one lookup
        live_reserved: dict = {}
        last_seq = 0
        # a well-formed row passes each group of checks as one condition, and
        # a message is built only for a fault
        for row in state["jobs"]:
            if type(row) is not list or len(row) != len(JOB_FIELDS):
                raise ValueError(f"stored job {row!r} is not a row of {len(JOB_FIELDS)} fields")
            (job_id, owner, vo, request, stored_state, account, reserved, consumed,
             priority, submitted_at, ended_at, profile, sandbox, accounted) = row
            seq = int(job_id[1:]) if type(job_id) is str and _JOB_ID(job_id) else 0
            if not last_seq < seq < next_seq:
                if not seq:
                    raise ValueError(f"job id {job_id!r} is not j<n>")
                if job_id in jobs:
                    raise ValueError(f"job {job_id} is stored twice")
                if seq >= next_seq:
                    raise ValueError(f"job {job_id} is not below next_seq {next_seq}")
                raise ValueError(f"job {job_id} is stored out of submission order")
            last_seq = seq
            # step 3 as one test; only a row that fails it runs the checks
            # one by one, which name its first fault
            if not (type(reserved) is type(consumed) is type(priority) is type(submitted_at) is int
                    and type(owner) is type(account) is str and (vo is None or type(vo) is str)
                    and (ended_at is None or type(ended_at) is int) and reserved >= 0):
                for name, figure in (("reserved", reserved), ("consumed", consumed),
                                     ("priority", priority), ("submitted_at", submitted_at)):
                    _require_int(figure, f"job {job_id} {name}")
                # a lease, a settlement and the pool take these on as they are
                if type(owner) is not str:
                    raise ValueError(f"job {job_id} owner must be a string, not {owner!r}")
                if type(account) is not str:
                    raise ValueError(f"job {job_id} account must be a string, not {account!r}")
                if type(vo) is not str and vo is not None:  # a job without a VO stores null
                    raise ValueError(f"job {job_id} vo must be a string, not {vo!r}")
                if ended_at is not None and type(ended_at) is not int:
                    raise _not_int(ended_at, f"job {job_id} ended_at")
                # a figure a scheduled end second would turn into nonsense
                raise ValueError(f"job {job_id} reserved {reserved} is negative")
            if type(sandbox) is not list or len(sandbox) != 2:  # a cap no code knows goes unenforced
                held = sorted(sandbox) if type(sandbox) is dict else sandbox
                raise ValueError(f"job {job_id} sandbox holds {held!r}, not the two caps")
            try:  # each constructor checks its own figures
                if type(profile) is not list or len(profile) != 2:
                    raise ValueError(f"profile {profile!r} is not a runtime and memory peak pair")
                profile = SimProfile(*profile)
                spec = SandboxSpec(*sandbox)
            except ValueError as exc:
                raise ValueError(f"job {job_id} {exc}") from None
            # the most the job can consume: a cpu kill charges exactly the cap
            most = profile.runtime if spec.max_cpu is None else min(profile.runtime, spec.max_cpu)
            if not 0 <= consumed <= most:
                raise ValueError(f"job {job_id} consumed {consumed} is outside 0..{most}")
            if type(request) is not dict:
                raise ValueError(f"job {job_id} request must be an attribute map, not {request!r}")
            if (job_state := _STATES.get(stored_state)) is None:
                raise ValueError(f"job {job_id} state {stored_state!r} is not a job state")
            if type(accounted) is not bool:
                raise ValueError(f"job {job_id} accounted must be true or false, not {accounted!r}")
            # a map takes every check of `RslRequest`: names, duplicates,
            # int64 range, types and emptiness
            job = jobs[job_id] = Job(
                job_id, owner, vo, RslRequest(request), job_state, account, reserved,
                consumed, priority, submitted_at, ended_at, profile, spec, accounted,
            )
            if job_state is JobState.PENDING:
                engine._pending[job_id] = job
            elif job_state is JobState.ACTIVE:
                engine._unscheduled[job_id] = job
            elif job_state is not JobState.SUSPENDED:
                continue  # a finished job holds no reservation and no lease
            live[job_id] = account
            if accounted:
                # the job's settlement needs its VO and member records, read
                # at the first live job that names them
                records = live_reserved.get((vo, owner))
                if records is None:
                    try:
                        held = live_reserved.setdefault((vo, None), ([ledger.vo_used(vo), 0],))
                        records = live_reserved[vo, owner] = (
                            *held, [ledger.member_used(vo, owner), 0])
                    except EnforcementError as exc:
                        raise ValueError(f"live job {job_id} cannot settle: {exc}") from None
                # and a reservation that covers what it may consume
                if reserved < most:
                    raise ValueError(
                        f"live job {job_id} cannot settle: reserved {reserved} "
                        f"is below the {most} cpu-seconds it may consume"
                    )
                records[0][1] += reserved
                records[1][1] += reserved
        # each refund comes out of the usage of the job's VO and member
        for (vo, member), records in live_reserved.items():
            used, reserved = records[-1]
            if used < reserved:
                what = f"vo {vo}" if member is None else f"member {member}"
                raise ValueError(
                    f"ledger {what} used {used} is below its live reservations {reserved}"
                )
        free, leased = state["pool"]["free"], state["pool"]["leased"]
        if type(free) is not list or type(leased) is not list:
            raise ValueError(f"pool free and leased must be lists, not {free!r} and {leased!r}")
        if not set(map(type, free)) <= {str}:  # one pass in C, not a Python step per account
            raise ValueError(f"pool free must list account names, not {free!r}")
        try:
            leases = [(job_id, live[job_id]) for job_id in leased]
        except KeyError as exc:
            raise ValueError(f"a lease names no live job {exc.args[0]!r}") from None
        engine.pool = DynamicAccountPool(free, leases)
        engine.events = [
            Event(e["t"], e["job"], e["name"], e["detail"]) for e in state["events"]
        ]
        # the loaded documents' terms replace the stored ones, as an admission's would
        engine._register_accounting()
        return engine
