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


def _error_name(exc: Exception) -> str:
    name = type(exc).__name__
    return name[: -len("Error")] if name.endswith("Error") else name


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


def _failed(exc: Exception) -> StepOutcome:
    decision = getattr(exc, "decision", None)
    return StepOutcome(False, _error_name(exc), str(exc), None, decision)


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
        self.passed = 0
        self.failed = 0

    def _resolve(self, path: str) -> Path:
        p = Path(path)
        return p if p.is_absolute() else self.base / p

    def _require_engine(self, lineno: int) -> JobManager:
        if self.engine is None:
            resource = [d for d in self.policies.values() if d.source == "resource"]
            if len(resource) != 1:
                raise ScenarioError(
                    lineno, "exactly one resource policy must be loaded first"
                )
            vos = [d for d in self.policies.values() if d.source == "vo"]
            self.engine = JobManager(
                resource_policy=resource[0],
                vo_policies=vos,
                gridmap=GridMapFile({}),
                pool=DynamicAccountPool(SCENARIO_POOL),
                key_registry=self.registry,
            )
        return self.engine

    def _record(self, lineno: int, label: str, outcome: StepOutcome) -> None:
        if label in self.outcomes:
            raise ScenarioError(lineno, f"duplicate step label {label!r}")
        self.outcomes[label] = outcome

    def run(self) -> ScenarioReport:
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ScenarioError(0, f"cannot read script: {exc}") from None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                tokens = shlex.split(line)
            except ValueError as exc:
                raise ScenarioError(lineno, f"bad quoting: {exc}") from None
            self._step(lineno, tokens)
        return ScenarioReport(self.report_lines, self.passed, self.failed)

    def _step(self, lineno: int, tokens: list) -> None:
        verb = tokens[0]
        if verb == "load-policy":
            self._load_policy(lineno, tokens[1:])
        elif verb == "load-cred":
            self._load_cred(lineno, tokens[1:])
        elif verb == "issue-cap":
            self._issue_cap(lineno, tokens[1:])
        elif verb == "submit":
            self._submit(lineno, tokens[1:])
        elif verb == "manage":
            self._manage(lineno, tokens[1:])
        elif verb == "tick":
            self._tick(lineno, tokens[1:])
        elif verb == "expect":
            self._expect(lineno, tokens[1:])
        else:
            raise ScenarioError(lineno, f"unknown step {verb!r}")

    # -- action steps -----------------------------------------------------

    def _load_policy(self, lineno: int, rest: list) -> None:
        if len(rest) != 2:
            raise ScenarioError(lineno, "usage: load-policy <label> <path>")
        if self.engine is not None:
            raise ScenarioError(lineno, "load-policy must precede the first step using the site")
        label, path = rest
        try:
            doc = parse_policy(self._resolve(path).read_text(encoding="utf-8"))
        except (OSError, PolicyError) as exc:
            raise ScenarioError(lineno, f"cannot load policy: {exc}") from None
        self.policies[label] = doc

    def _load_cred(self, lineno: int, rest: list) -> None:
        if len(rest) != 2:
            raise ScenarioError(lineno, "usage: load-cred <label> <path>")
        label, path = rest
        try:
            cred = load_credential(self._resolve(path).read_text(encoding="utf-8"))
        except (OSError, CredentialError) as exc:
            raise ScenarioError(lineno, f"cannot load credential: {exc}") from None
        self.creds[label] = cred

    def _issue_cap(self, lineno: int, rest: list) -> None:
        if not rest:
            raise ScenarioError(lineno, "issue-cap needs a label")
        keys = ("policy", "cred", "key", "expiry")
        label, kv = rest[0], _kv(rest[1:], lineno, "issue-cap", keys, required=keys)
        doc = self.policies.get(kv["policy"])
        cred = self.creds.get(kv["cred"])
        if doc is None or cred is None:
            raise ScenarioError(lineno, "issue-cap references an unknown label")
        try:
            key = bytes.fromhex(kv["key"])
        except ValueError:
            raise ScenarioError(lineno, "key must be hex") from None
        try:
            claims = derive_capability(doc, cred, _int(kv["expiry"], lineno, "expiry"))
            token = sign_capability(key, claims)
        except _DOMAIN_ERRORS as exc:
            self._record(lineno, label, _failed(exc))
            return
        self.caps[label] = token
        self.registry[token.claims.vo] = key
        self._record(lineno, label, StepOutcome(True))

    def _submit(self, lineno: int, rest: list) -> None:
        if not rest:
            raise ScenarioError(lineno, "submit needs a label")
        keys = ("cred", "rsl", "rsl-file", "runtime", "memory", "cap")
        label, kv = rest[0], _kv(rest[1:], lineno, "submit", keys, required=("runtime",))
        cred = self.creds.get(kv.get("cred", ""))
        if cred is None:
            raise ScenarioError(lineno, "submit references an unknown credential")
        if "rsl" in kv:
            rsl_text = kv["rsl"]
        elif "rsl-file" in kv:
            try:
                rsl_text = self._resolve(kv["rsl-file"]).read_text(encoding="utf-8")
            except OSError as exc:
                raise ScenarioError(lineno, f"cannot read rsl file: {exc}") from None
        else:
            raise ScenarioError(lineno, "submit needs rsl= or rsl-file=")
        profile = SimProfile(
            runtime=_int(kv["runtime"], lineno, "runtime"),
            memory_peak=_int(kv.get("memory", "0"), lineno, "memory"),
        )
        token = self._token(lineno, kv)
        engine = self._require_engine(lineno)
        try:
            job_id = engine.gatekeeper_submit(cred, rsl_text, profile, token=token)
        except _DOMAIN_ERRORS as exc:
            self._record(lineno, label, _failed(exc))
            return
        self._record(lineno, label, StepOutcome(True, job_id=job_id))

    def _manage(self, lineno: int, rest: list) -> None:
        if not rest:
            raise ScenarioError(lineno, "manage needs a label")
        keys = ("job", "action", "cred", "priority", "cap")
        label, kv = rest[0], _kv(rest[1:], lineno, "manage", keys)
        cred = self.creds.get(kv.get("cred", ""))
        if cred is None:
            raise ScenarioError(lineno, "manage references an unknown credential")
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
        engine = self._require_engine(lineno)
        try:
            job = engine.manage(
                target.job_id, action, cred, token=token, priority=priority
            )
        except _DOMAIN_ERRORS as exc:
            self._record(lineno, label, _failed(exc))
            return
        self._record(
            lineno, label,
            StepOutcome(True, job_id=job.id, detail=job.state.value),
        )

    def _token(self, lineno: int, kv: dict):
        """The capability a step's ``cap=`` names, or None without one."""
        if "cap" not in kv:
            return None
        token, outcome = self.caps.get(kv["cap"]), self.outcomes.get(kv["cap"])
        if token is None:
            detail = f" ({outcome.error})" if outcome and outcome.error else ""
            raise ScenarioError(lineno, f"cap {kv['cap']!r} unknown or not issued{detail}")
        return token

    def _tick(self, lineno: int, rest: list) -> None:
        if len(rest) != 1:
            raise ScenarioError(lineno, "usage: tick <dt>")
        self._require_engine(lineno).tick(_int(rest[0], lineno, "dt"))

    # -- expectations -----------------------------------------------------

    def _check(self, lineno: int, description: str, ok: bool, detail: str = "") -> None:
        if ok:
            self.passed += 1
            self.report_lines.append(f"step {lineno}: expect {description} -> ok")
        else:
            self.failed += 1
            suffix = f" ({detail})" if detail else ""
            self.report_lines.append(
                f"step {lineno}: expect {description} -> FAIL{suffix}"
            )

    def _expect(self, lineno: int, rest: list) -> None:
        if not rest:
            raise ScenarioError(lineno, "empty expectation")
        head = rest[0]
        if head == "job":
            self._expect_job(lineno, rest[1:])
        elif head == "ledger":
            self._expect_ledger(lineno, rest[1:])
        elif head == "log":
            self._expect_log(lineno, rest[1:])
        else:
            self._expect_outcome(lineno, rest)

    def _expect_outcome(self, lineno: int, rest: list) -> None:
        label = rest[0]
        outcome = self.outcomes.get(label)
        if outcome is None:
            raise ScenarioError(lineno, f"unknown step label {label!r}")
        what = rest[1] if len(rest) > 1 else "ok"
        description = f"{label} {' '.join(rest[1:]) if len(rest) > 1 else 'ok'}"
        if what == "ok":
            self._check(lineno, description, outcome.ok, outcome.detail or "")
        elif what == "denied" or what.startswith("error="):
            wanted = "DeniedByPolicy" if what == "denied" else what[len("error=") :]
            self._check(
                lineno,
                description,
                not outcome.ok and outcome.error == wanted,
                f"got {outcome.error or 'ok'}",
            )
        elif what == "trace" and len(rest) == 4 and rest[2] == "contains":
            text = rest[3]
            rendered = explain(outcome.decision) if outcome.decision else ""
            self._check(
                lineno, description, text in rendered, "trace does not contain it"
            )
        else:
            raise ScenarioError(lineno, f"bad expectation {' '.join(rest)!r}")

    def _expect_job(self, lineno: int, rest: list) -> None:
        if not rest:
            raise ScenarioError(lineno, "expect job needs a label")
        label = rest[0]
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
        for key, wanted in _kv(rest[1:], lineno, "expect job", tuple(actual)).items():
            self._check(
                lineno,
                f"job {label} {key}={wanted}",
                actual[key] == wanted,
                f"got {actual[key]}",
            )

    def _expect_ledger(self, lineno: int, rest: list) -> None:
        if len(rest) != 1:
            raise ScenarioError(lineno, "usage: expect ledger <exact line>")
        line = rest[0]
        report = self._require_engine(lineno).ledger_report().splitlines()
        self._check(lineno, f"ledger {line!r}", line in report, "line not in report")

    def _expect_log(self, lineno: int, rest: list) -> None:
        engine = self._require_engine(lineno)
        log_text = "\n".join(engine.event_lines())
        if len(rest) == 2 and rest[0] == "contains":
            self._check(
                lineno,
                f"log contains {rest[1]!r}",
                rest[1] in engine.event_lines(),
                "line not in log",
            )
            return
        if len(rest) != 1:
            raise ScenarioError(lineno, "usage: expect log <path> | expect log contains <line>")
        try:
            wanted = self._resolve(rest[0]).read_text(encoding="utf-8")
        except OSError as exc:
            raise ScenarioError(lineno, f"cannot read expected log: {exc}") from None
        actual = log_text + "\n" if log_text else ""
        self._check(
            lineno,
            f"log matches {rest[0]}",
            actual == wanted,
            "event log differs",
        )


def run_scenario(script_path: str | Path) -> ScenarioReport:
    """Execute a scenario script and return its expectation report."""
    return ScenarioRunner(script_path).run()
