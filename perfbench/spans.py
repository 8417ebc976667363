"""In-memory span tracing around calls into gridauth's public functions.

Spans are recorded from the benchmark's side only: each traced function
is wrapped, and every ``gridauth`` module that imported the function by
name gets its binding replaced too, so calls between modules (such as
``jobmgr`` calling ``decide`` or ``record_usage``) are seen.  Functions
called once per job per simulated second are counted, not spanned, to
keep the traced run close to the untraced one.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

from gridauth import cli, credential, enforce, jobmgr, pdp, policy, rsl

#: (span name, owner, attribute): module functions and class methods
SPANNED = (
    ("rsl.parse_rsl", rsl, "parse_rsl"),
    ("policy.parse_policy", policy, "parse_policy"),
    ("credential.verify_capability", credential, "verify_capability"),
    ("pdp.decide", pdp, "decide"),
    ("pdp.decide_push", pdp, "decide_push"),
    ("enforce.reserve", enforce.AllocationLedger, "reserve"),
    ("enforce.settle", enforce.AllocationLedger, "settle"),
    ("jobmgr.gatekeeper_submit", jobmgr.JobManager, "gatekeeper_submit"),
    ("jobmgr.manage", jobmgr.JobManager, "manage"),
    ("jobmgr.tick", jobmgr.JobManager, "tick"),
    ("jobmgr.snapshot", jobmgr.JobManager, "snapshot"),
    ("jobmgr.restore", jobmgr.JobManager, "restore"),
    ("cli.main", cli, "main"),
)
#: (counter name, owner, attribute): hot per-job calls, counted only
COUNTED = (
    ("enforce.record_usage", enforce, "record_usage"),
    ("enforce.renew", enforce.DynamicAccountPool, "renew"),
)
_PDP_SPANS = ("pdp.decide", "pdp.decide_push")


class Tracer:
    """Spans as ``(name, start_ns, end_ns, parent_index, op_id)`` tuples."""

    def __init__(self):
        self.spans: list = []
        self.calls: dict = {}
        self.permits = 0
        self.trace_entries = 0
        self.live_fraction_sum = 0.0
        self.tick_samples = 0
        self.op = 0
        self._stack: list = []
        self._pdp_depth = 0
        self._undo: list = []

    # -- spans ------------------------------------------------------------

    def root(self, op_id: int, name: str, fn, *args):
        """Run one benchmark operation as the root span of its call tree."""
        self.op = op_id
        return self._run(name, fn, args, {})

    def _run(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def _spanned(self, name: str, fn):
        run = self._run
        if name in _PDP_SPANS:
            def traced(*args, **kwargs):
                self._pdp_depth += 1
                try:
                    decision = run(name, fn, args, kwargs)
                finally:
                    self._pdp_depth -= 1
                if self._pdp_depth == 0:  # decide_push delegates to decide
                    self.permits += decision.permitted
                    self.trace_entries += len(decision.trace)
                return decision
        elif name == "jobmgr.tick":
            def traced(engine, *args, **kwargs):
                self._sample_live(engine)
                return run(name, fn, (engine,) + args, kwargs)
        else:
            def traced(*args, **kwargs):
                return run(name, fn, args, kwargs)
        return traced

    def _counted(self, name: str, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _sample_live(self, engine) -> None:
        jobs = engine.jobs
        if jobs:
            live = sum(1 for j in jobs.values() if j.state not in jobmgr.TERMINAL_STATES)
            self.live_fraction_sum += live / len(jobs)
            self.tick_samples += 1

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, owner, attr in SPANNED:
            self._wrap(owner, attr, lambda fn, name=name: self._spanned(name, fn))
        for name, owner, attr in COUNTED:
            self._wrap(owner, attr, lambda fn, name=name: self._counted(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr: str, make) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(make(original.__func__))
            else:
                wrapped = make(original)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "gridauth" or module is None:
                continue
            if vars(module).get(attr) is original:
                self._undo.append((module, attr, original))
                setattr(module, attr, wrapped)

    # -- results ----------------------------------------------------------

    def count(self, name: str) -> int:
        if name in self.calls:
            return self.calls[name]
        return sum(1 for span in self.spans if span[0] == name)

    @property
    def live_fraction(self) -> float:
        return self.live_fraction_sum / self.tick_samples if self.tick_samples else 0.0

    def write(self, path) -> None:
        """Write spans as tab-separated ``name start end parent op`` lines."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(f"{name}\t{start}\t{end}\t{parent}\t{op}\n")
