"""Reference clock: advance a JobManager one simulated second at a time.

This is the stepper `JobManager.tick` replaced.  It drives the engine
through its own `_transition`, `_emit` and `_settle` and scans every
job every second, so it is slow but plainly right.  The differential tests check that `tick(dt)` leaves the
engine exactly as `reference_tick(engine, dt)` does.
"""

from __future__ import annotations

from gridauth.enforce import record_usage
from gridauth.jobmgr import JobManager, JobState


def reference_tick(engine: JobManager, dt: int) -> list:
    """Advance the clock ``dt`` whole seconds; returns the new events."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    first_new = len(engine.events)
    for _ in range(dt):
        _step(engine)
    return engine.events[first_new:]


def _step(engine: JobManager) -> None:
    pending = sorted(
        (j for j in engine.jobs.values() if j.state is JobState.PENDING),
        key=lambda j: (-j.priority, j.submitted_at, int(j.id[1:])),
    )
    for job in pending:
        engine._transition(job, "activate")
        engine._emit(job.id, "activate", "state=active")

    engine.clock += 1

    for job in list(engine.jobs.values()):
        if job.state is not JobState.ACTIVE:
            continue
        delta = min(job.count, job.profile.runtime - job.consumed)
        tentative = job.consumed + delta
        breach = record_usage(job.sandbox, tentative, job.profile.memory_peak)
        if breach is not None:
            if breach == "cpu":
                # the kill lands the moment the cap is crossed
                job.consumed = min(tentative, job.sandbox.max_cpu)
            else:
                job.consumed = tentative
            engine._transition(job, "limit_kill")
            engine._emit(job.id, "failed", f"state=failed limit={breach}")
            engine._settle(job)
            continue
        job.consumed = tentative
        if job.consumed >= job.profile.runtime:
            engine._transition(job, "complete")
            refund = max(job.reserved - job.consumed, 0)
            engine._emit(
                job.id,
                "done",
                f"state=done consumed={job.consumed} refunded={refund}",
            )
            engine._settle(job)
