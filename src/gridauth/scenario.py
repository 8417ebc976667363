"""Scripted scenario runner.

A scenario is a line-oriented script, one step per line, ``#`` starting
a comment.  Steps either act (load inputs, issue capabilities, submit,
manage, tick) or assert (``expect ...``).  Action steps carry a label;
expectations refer back to those labels.  Relative file paths resolve
against the script's own directory, so scenario bundles are relocatable.

Step forms (a key that a step does not list is an error)::

    load-policy <label> <path>   # before the site's first use
    load-cred   <label> <path>
    issue-cap   <label> policy=<label> cred=<label> key=<hex64> expiry=<int>
    submit      <label> cred=<label> rsl=<text>|rsl-file=<path> runtime=<int>
                        [memory=<int>] [cap=<label>]
    manage      <label> job=<label> action=<name> cred=<label>
                        [priority=<int>] [cap=<label>]
    tick        <int>
    expect      <assertion>

Assertions::

    expect <label> ok | denied | error=<Name>
    expect <label> trace contains <text>
    expect job <label> state=<state> [consumed=<n>] [reserved=<n>] [priority=<n>]
    expect ledger <exact report line>
    expect log <path>            # whole event log, byte-exact
    expect log contains <line>

The runner executes every step in order and evaluates every
expectation; the report carries one pass/fail line per expectation.
Two rules hold for every script.  Every fault in it, a value a step's
callee refuses included, stops the run as ``ScenarioError``, which
``gridauth scenario`` prints as ``script error: step at line N: ...``
and exits 2 (line 0 is the script itself).  A label names one policy,
one credential and one step: loading a policy or a credential under a
label already loaded is a fault, as giving two steps one label is.
A domain error an action step meets is no fault but the step's failed
outcome, which ``expect`` can assert.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass
from pathlib import Path

from .credential import (
    CredentialError,
    GridMapFile,
    load_credential,
    sign_capability,
)
from .enforce import DynamicAccountPool, EnforcementError
from .jobmgr import JobManager, JobManagerError, SimProfile
from .pdp import Decision, NoApplicableBlocksError, derive_capability, explain
from .policy import PolicyError, parse_policy
from .rsl import JobAction, RslError

SCENARIO_POOL = tuple(f"dyn{i:02d}" for i in range(16))

_DOMAIN_ERRORS = (
    RslError,
    PolicyError,
    CredentialError,
    EnforcementError,
    JobManagerError,
    NoApplicableBlocksError,
)


class ScenarioError(Exception):
    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"step at line {lineno}: {message}")


@dataclass
class StepOutcome:
    ok: bool
    error: str | None = None
    detail: str | None = None
    job_id: str | None = None
    decision: Decision | None = None


@dataclass
class ScenarioReport:
    lines: list
    passed: int
    failed: int

    @property
    def all_passed(self) -> bool:
        return self.failed == 0


def _kv(tokens: list, lineno: int, step: str, keys: tuple, required: tuple = ()) -> dict:
    """The key=value pairs of a step that takes ``keys``; any other key fails."""
    pairs = {}
    for tok in tokens:
        key, sep, value = tok.partition("=")
        if not sep:
            raise ScenarioError(lineno, f"expected key=value, got {tok!r}")
        if key not in keys:
            raise ScenarioError(lineno, f"unknown key {key!r}; {step} takes {', '.join(keys)}")
        if key in pairs:
            raise ScenarioError(lineno, f"duplicate key {key!r}")
        pairs[key] = value
    for key in required:
        if key not in pairs:
            raise ScenarioError(lineno, f"{step} needs {key}=")
    return pairs


def _read(path: Path, lineno: int, failure: str) -> str:
    """The text of ``path``; a file that cannot be read, or that is no
    UTF-8, is a script error whose message ``failure`` begins."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(lineno, f"{failure}: {exc}") from None


def _int(value: str, lineno: int, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ScenarioError(lineno, f"{what} must be an integer") from None


class ScenarioRunner:
    def __init__(self, script_path: str | Path):
        self.path = Path(script_path)
        self.base = self.path.parent
        self.policies = {}
        self.creds = {}
        self.caps = {}
        self.registry = {}
        self.outcomes: dict[str, StepOutcome] = {}
        self.engine: JobManager | None = None
        self.report_lines: list[str] = []
        self.failed = 0

    def _require_engine(self, lineno: int) -> JobManager:
        if self.engine is None:
            resource = [d for d in self.policies.values() if d.source == "resource"]
            if len(resource) != 1:
                raise ScenarioError(
                    lineno, "exactly one resource policy must be loaded first"
                )
            vos = [d for d in self.policies.values() if d.source == "vo"]
            try:
                self.engine = JobManager(
                    resource_policy=resource[0],
                    vo_policies=vos,
                    gridmap=GridMapFile({}),
                    pool=DynamicAccountPool(SCENARIO_POOL),
                    key_registry=self.registry,
                )
            except PolicyError as exc:  # two vo documents of one name
                raise ScenarioError(lineno, str(exc)) from None
            # the site keeps a copy of the keys: a later issue-cap adds to it
            self.registry = self.engine.key_registry
        return self.engine

    def run(self) -> ScenarioReport:
        text = _read(self.path, 0, "cannot read script")
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                verb, *rest = shlex.split(line)
            except ValueError as exc:
                raise ScenarioError(lineno, f"bad quoting: {exc}") from None
            try:
                if verb in self._ACTIONS:
                    self._act(lineno, verb, rest)
                elif verb in ("load-policy", "load-cred"):
                    self._load(lineno, verb, rest)
                elif verb == "tick":
                    if len(rest) != 1:
                        raise ScenarioError(lineno, "usage: tick <dt>")
                    self._require_engine(lineno).tick(_int(rest[0], lineno, "dt"))
                elif verb == "expect":
                    self._expect(lineno, rest)
                else:
                    raise ScenarioError(lineno, f"unknown step {verb!r}")
            except ValueError as exc:  # a value a step's callee refuses
                raise ScenarioError(lineno, str(exc)) from None
        passed = len(self.report_lines) - self.failed
        return ScenarioReport(self.report_lines, passed, self.failed)

    # -- action steps -----------------------------------------------------

    def _load(self, lineno: int, verb: str, rest: list) -> None:
        """``load-policy`` or ``load-cred``: parse a file under a new label."""
        if len(rest) != 2:
            raise ScenarioError(lineno, f"usage: {verb} <label> <path>")
        if verb == "load-cred":
            kind, store, parse = "credential", self.creds, load_credential
        elif self.engine is None:
            kind, store, parse = "policy", self.policies, parse_policy
        else:
            raise ScenarioError(lineno, "load-policy must precede the first step using the site")
        label, path = rest
        if label in store:
            raise ScenarioError(lineno, f"duplicate {kind} label {label!r}")
        text = _read(self.base / path, lineno, f"cannot load {kind}")
        try:
            store[label] = parse(text)
        except (PolicyError, CredentialError) as exc:
            raise ScenarioError(lineno, f"cannot load {kind}: {exc}") from None

    def _act(self, lineno: int, verb: str, rest: list) -> None:
        """A labelled step: its body's outcome, or the domain error it
        raised as a failed one, is recorded under the label."""
        if not rest:
            raise ScenarioError(lineno, f"{verb} needs a label")
        body, keys, required = self._ACTIONS[verb]
        label, kv = rest[0], _kv(rest[1:], lineno, verb, keys, required)
        try:
            outcome = body(self, lineno, label, kv)
        except _DOMAIN_ERRORS as exc:
            name = type(exc).__name__.removesuffix("Error")
            decision = getattr(exc, "decision", None)
            outcome = StepOutcome(False, name, str(exc), None, decision)
        if label in self.outcomes:
            raise ScenarioError(lineno, f"duplicate step label {label!r}")
        self.outcomes[label] = outcome

    def _issue_cap(self, lineno: int, label: str, kv: dict) -> StepOutcome:
        doc, cred = self.policies.get(kv["policy"]), self.creds.get(kv["cred"])
        if doc is None or cred is None:
            raise ScenarioError(lineno, "issue-cap references an unknown label")
        try:
            key = bytes.fromhex(kv["key"])
        except ValueError:
            raise ScenarioError(lineno, "key must be hex") from None
        claims = derive_capability(doc, cred, _int(kv["expiry"], lineno, "expiry"))
        token = sign_capability(key, claims)
        self.caps[label] = token
        self.registry[token.claims.vo] = key
        return StepOutcome(True)

    def _submit(self, lineno: int, label: str, kv: dict) -> StepOutcome:
        cred = self._cred(lineno, "submit", kv)
        if "rsl" in kv:
            rsl_text = kv["rsl"]
        elif "rsl-file" in kv:
            rsl_text = _read(self.base / kv["rsl-file"], lineno, "cannot read rsl file")
        else:
            raise ScenarioError(lineno, "submit needs rsl= or rsl-file=")
        profile = SimProfile(
            runtime=_int(kv["runtime"], lineno, "runtime"),
            memory_peak=_int(kv.get("memory", "0"), lineno, "memory"),
        )
        token = self._token(lineno, kv)
        engine = self._require_engine(lineno)
        job_id = engine.gatekeeper_submit(cred, rsl_text, profile, token=token)
        return StepOutcome(True, job_id=job_id)

    def _manage(self, lineno: int, label: str, kv: dict) -> StepOutcome:
        cred = self._cred(lineno, "manage", kv)
        target = self.outcomes.get(kv.get("job", ""))
        if target is None or target.job_id is None:
            raise ScenarioError(lineno, "manage references an unknown job label")
        try:
            action = JobAction(kv.get("action", ""))
        except ValueError:
            raise ScenarioError(lineno, f"bad action {kv.get('action')!r}") from None
        priority = (
            _int(kv["priority"], lineno, "priority") if "priority" in kv else None
        )
        token = self._token(lineno, kv)
        job = self._require_engine(lineno).manage(
            target.job_id, action, cred, token=token, priority=priority
        )
        return StepOutcome(True, job_id=job.id, detail=job.state.value)

    #: labelled step -> (body, the keys it takes, the keys it needs)
    _ACTIONS = {
        "issue-cap": (_issue_cap, ("policy", "cred", "key", "expiry"),
                      ("policy", "cred", "key", "expiry")),
        "submit": (_submit, ("cred", "rsl", "rsl-file", "runtime", "memory", "cap"), ("runtime",)),
        "manage": (_manage, ("job", "action", "cred", "priority", "cap"), ()),
    }

    def _cred(self, lineno: int, verb: str, kv: dict):
        """The credential a step's ``cred=`` names."""
        cred = self.creds.get(kv.get("cred", ""))
        if cred is None:
            raise ScenarioError(lineno, f"{verb} references an unknown credential")
        return cred

    def _token(self, lineno: int, kv: dict):
        """The capability a step's ``cap=`` names, or None without one."""
        if "cap" not in kv:
            return None
        token, outcome = self.caps.get(kv["cap"]), self.outcomes.get(kv["cap"])
        if token is None:
            detail = f" ({outcome.error})" if outcome and outcome.error else ""
            raise ScenarioError(lineno, f"cap {kv['cap']!r} unknown or not issued{detail}")
        return token

    # -- expectations -----------------------------------------------------

    def _expect(self, lineno: int, rest: list) -> None:
        """One report line for each check an ``expect`` step makes."""
        for description, ok, detail in self._checks(lineno, rest):
            suffix = f" ({detail})" if detail else ""
            result = "ok" if ok else f"FAIL{suffix}"
            self.failed += not ok
            self.report_lines.append(f"step {lineno}: expect {description} -> {result}")

    def _checks(self, lineno: int, rest: list):
        """``(description, passed, detail)`` for each check of an expectation."""
        if not rest:
            raise ScenarioError(lineno, "empty expectation")
        head, args = rest[0], rest[1:]
        if head == "job":
            if not args:
                raise ScenarioError(lineno, "expect job needs a label")
            label = args[0]
            outcome = self.outcomes.get(label)
            if outcome is None or outcome.job_id is None:
                raise ScenarioError(lineno, f"label {label!r} does not name a job")
            job = self._require_engine(lineno).job_record(outcome.job_id)
            actual = {
                "state": job.state.value,
                "consumed": str(job.consumed),
                "reserved": str(job.reserved),
                "priority": str(job.priority),
            }
            for key, wanted in _kv(args[1:], lineno, "expect job", tuple(actual)).items():
                yield f"job {label} {key}={wanted}", actual[key] == wanted, f"got {actual[key]}"
        elif head == "ledger":
            if len(args) != 1:
                raise ScenarioError(lineno, "usage: expect ledger <exact line>")
            report = self._require_engine(lineno).ledger_report().splitlines()
            yield f"ledger {args[0]!r}", args[0] in report, "line not in report"
        elif head == "log":
            lines = self._require_engine(lineno).event_lines()
            if len(args) == 2 and args[0] == "contains":
                yield f"log contains {args[1]!r}", args[1] in lines, "line not in log"
            elif len(args) == 1:
                wanted = _read(self.base / args[0], lineno, "cannot read expected log")
                actual = "".join(line + "\n" for line in lines)
                yield f"log matches {args[0]}", actual == wanted, "event log differs"
            else:
                raise ScenarioError(
                    lineno, "usage: expect log <path> | expect log contains <line>"
                )
        else:
            outcome = self.outcomes.get(head)
            if outcome is None:
                raise ScenarioError(lineno, f"unknown step label {head!r}")
            what = args[0] if args else "ok"
            description = f"{head} {' '.join(args) if args else 'ok'}"
            if what == "ok":
                yield description, outcome.ok, outcome.detail or ""
            elif what == "denied" or what.startswith("error="):
                wanted = "DeniedByPolicy" if what == "denied" else what[len("error=") :]
                ok = not outcome.ok and outcome.error == wanted
                yield description, ok, f"got {outcome.error or 'ok'}"
            elif what == "trace" and len(args) == 3 and args[1] == "contains":
                rendered = explain(outcome.decision) if outcome.decision else ""
                yield description, args[2] in rendered, "trace does not contain it"
            else:
                raise ScenarioError(lineno, f"bad expectation {' '.join(rest)!r}")


def run_scenario(script_path: str | Path) -> ScenarioReport:
    """Execute a scenario script and return its expectation report."""
    return ScenarioRunner(script_path).run()
