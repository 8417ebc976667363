"""cli-state: ``gridauth.cli.main`` called in-process on a persistent state file.

Set-up builds a state file holding over a thousand terminal jobs and a
few dozen live ones; every pass starts from an identical copy of it.
Commands fall in two classes: reads (``ledger``, and a minority of
``manage --action status``, which today rewrites the file) and writes
(``submit``, ``tick`` and ``manage --action suspend|resume|cancel``).
Interpreter start-up is excluded; argument parsing, JSON load,
``restore``, ``snapshot`` and the dump are all inside each timing.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
from pathlib import Path
from types import SimpleNamespace

from gridauth import cli
from gridauth.credential import GridCredential, format_credential, format_token, sign_capability
from gridauth.enforce import DynamicAccountPool
from gridauth.jobmgr import JobManager, JobState, SimProfile
from gridauth.pdp import derive_capability
from gridauth.policy import parse_policy
from gridauth.rsl import JobAction

from common import Failure, Op
from site_sim import OUTCOMES, VO, policy_texts

N_USERS = 16
N_PUSHERS = 2
N_QUOTA = 4
POOL = tuple(f"dyn{i:03d}" for i in range(120))
#: the state file: BATCHES x BATCH short jobs run to completion, then LIVE
#: long jobs that stay pending, active or suspended
BATCHES = 60
BATCH = 20
LIVE = 40
SUSPENDED = 6
#: commands per pass, forty of each class so that each has a p75 with ten
#: commands beyond it; status rewrites the file, so it stays a small
#: minority of reads and the read median and tail both sit in the
#: ``ledger`` mode
READS = ("ledger",) * 39 + ("status",)
WRITES = ("submit",) * 10 + ("push-submit",) * 4 + ("tick",) * 8 + ("suspend", "resume", "cancel") * 6
#: job states in which each management command succeeds
MANAGE_FROM = {
    "status": {JobState.PENDING, JobState.ACTIVE, JobState.SUSPENDED},
    "suspend": {JobState.ACTIVE},
    "resume": {JobState.SUSPENDED},
    "cancel": {JobState.PENDING, JobState.ACTIVE, JobState.SUSPENDED},
}


def _short_job(rng: random.Random) -> tuple:
    count = rng.choice((1, 2))
    text = (f'&(executable="/opt/fusion/transp")(count={count})(maxcputime=60)'
            f'(jobtag="{rng.choice(("batch", "sweep"))}")')
    return text, SimProfile(runtime=count * rng.randint(1, 3), memory_peak=rng.randint(100, 2000))


def _long_job(rng: random.Random) -> tuple:
    count = rng.choice((1, 2, 4))
    text = (f'&(executable="/opt/fusion/gyro")(count={count})(maxcputime=600)'
            f'(jobtag="{rng.choice(("batch", "sweep", "debug"))}")')
    return text, SimProfile(runtime=count * rng.randint(300, 500), memory_peak=rng.randint(100, 2000))


class CliState:
    name = "cli-state"
    slots = ("read", "write")

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"cli-state/{seed}")
        self.workdir = workdir
        for sub in ("creds", "caps", "rsl", "pristine"):
            (workdir / sub).mkdir(parents=True)
        dns = [f"/O=Grid/OU=cli/CN=user{i:02d}" for i in range(N_USERS)]
        creds = {dn: GridCredential(dn, 10**9, VO, {"members"}) for dn in dns}
        resource_text, vo_text = policy_texts(rng, sorted(rng.sample(dns, N_QUOTA)))
        self.resource_doc = parse_policy(resource_text)
        self.vo_doc = parse_policy(vo_text)
        (workdir / "site.pol").write_text(resource_text, encoding="utf-8")
        (workdir / "vo.pol").write_text(vo_text, encoding="utf-8")
        self.cred_path = {}
        for i, dn in enumerate(dns):
            self.cred_path[dn] = workdir / "creds" / f"user{i:02d}.cred"
            self.cred_path[dn].write_text(format_credential(creds[dn]), encoding="utf-8")
        self.creds = creds
        key = rng.randbytes(32)
        self.registry = {VO: key}
        pushers = rng.sample(dns, N_PUSHERS)
        self.tokens, self.cap_path = {}, {}
        for i, dn in enumerate(pushers):
            self.tokens[dn] = sign_capability(key, derive_capability(self.vo_doc, creds[dn], 10**9))
            self.cap_path[dn] = workdir / "caps" / f"user{i:02d}.cap"
            self.cap_path[dn].write_text(format_token(self.tokens[dn]), encoding="utf-8")

        engine = JobManager(self.resource_doc, [self.vo_doc], pool=DynamicAccountPool(POOL),
                            key_registry=self.registry)
        for _ in range(BATCHES):
            for _ in range(BATCH):
                text, profile = _short_job(rng)
                engine.gatekeeper_submit(creds[rng.choice(dns)], text, profile)
            engine.tick(4)
        live = []
        for _ in range(LIVE):
            owner = rng.choice(dns)
            text, profile = _long_job(rng)
            live.append((engine.gatekeeper_submit(creds[owner], text, profile), owner))
        engine.tick(1)
        for job_id, owner in rng.sample(live, SUSPENDED):
            engine.manage(job_id, JobAction.SUSPEND, creds[owner])
        self.n_jobs = len(engine.jobs)
        self.n_events = len(engine.event_lines())
        self.pristine = workdir / "pristine" / "state.json"
        cli._save_state(str(self.pristine), engine)
        self.state_dir = workdir / "state"
        self.state = self.state_dir / "state.json"

        # Commands are chosen by running them on the set-up engine, which then
        # holds the state every pass reaches: each write targets a job in a
        # state where it succeeds, so every write rewrites the file and each
        # class keeps one cost mode.
        policy_flags = ["--resource-policy", str(workdir / "site.pol"), "--vo-policy", str(workdir / "vo.pol")]
        state_flag = ["--state", str(self.state)]
        kinds = list(READS + WRITES)
        rng.shuffle(kinds)
        ops = []
        for i, kind in enumerate(kinds):
            slot = 0 if kind in READS else 1
            if kind == "ledger":
                ops.append(Op(slot, kind, (["ledger"] + state_flag, None)))
            elif kind == "tick":
                dt = rng.randint(1, 3)
                engine.tick(dt)
                ops.append(Op(slot, kind, (["tick"] + state_flag + ["--dt", str(dt)], dt)))
            elif kind.endswith("submit"):
                dn = rng.choice(pushers if kind == "push-submit" else dns)
                text, profile = _long_job(rng)
                engine.gatekeeper_submit(creds[dn], text, profile, token=self.tokens.get(dn))
                rsl_path = workdir / "rsl" / f"op{i:02d}.rsl"
                rsl_path.write_text(text, encoding="utf-8")
                argv = ["submit"] + state_flag + policy_flags + [
                    "--cred", str(self.cred_path[dn]), "--rsl", str(rsl_path),
                    "--runtime", str(profile.runtime), "--memory", str(profile.memory_peak)]
                if dn in self.tokens:
                    argv += ["--cap", str(self.cap_path[dn]), "--vo-key", f"{VO}={key.hex()}"]
                ops.append(Op(slot, "submit", (argv, (dn, text, profile))))
            else:
                states = MANAGE_FROM[kind]
                job_id, owner = rng.choice([(j, o) for j, o in live if engine.job_record(j).state in states])
                engine.manage(job_id, JobAction(kind), creds[owner])
                argv = ["manage"] + state_flag + policy_flags + [
                    "--cred", str(self.cred_path[owner]), "--job", job_id, "--action", kind]
                ops.append(Op(slot, "manage", (argv, (job_id, owner, kind))))
        self.ops = ops

    # -- one pass ---------------------------------------------------------

    def begin_pass(self):
        shutil.rmtree(self.state_dir, ignore_errors=True)
        shutil.copytree(self.pristine.parent, self.state_dir)
        return SimpleNamespace(final=None)

    def execute(self, ctx, op: Op):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op.args[0])
        except (Exception, SystemExit):  # argparse exits through SystemExit
            return Failure.current()
        if code not in (0, 1):
            return Failure(f"exit {code}: {err.getvalue().strip()}")
        return code, out.getvalue()

    def render(self, output) -> str:
        code, stdout = output
        return f"exit={code}\n{stdout}"

    def _load(self, path: Path) -> JobManager:
        return JobManager.restore(cli._load_state(str(path)), resource_policy=self.resource_doc,
                                  vo_policies=[self.vo_doc], key_registry=self.registry)

    def end_pass(self, ctx) -> list:
        ctx.final = self._load(self.state)
        ctx.state_bytes = sum(p.stat().st_size for p in self.state_dir.iterdir() if p.suffix != ".lock")
        return ctx.final.event_lines() + [ctx.final.ledger_report()]

    # -- checks -----------------------------------------------------------

    def check(self, ctx, outputs: list) -> list:
        """Replay the commands on an in-process engine and compare."""
        engine = self._load(self.pristine)
        failures = []
        for i, (op, output) in enumerate(zip(self.ops, outputs)):
            expected_out = None
            if op.kind == "ledger":
                report = engine.ledger_report()
                code, expected_out = 0, report + "\n" if report else ""
            elif op.kind == "tick":
                code = 0
                expected_out = "".join(e.line + "\n" for e in engine.tick(op.args[1]))
            else:
                try:
                    if op.kind == "submit":
                        dn, text, profile = op.args[1]
                        engine.gatekeeper_submit(self.creds[dn], text, profile, token=self.tokens.get(dn))
                    else:
                        job_id, dn, action = op.args[1]
                        engine.manage(job_id, JobAction(action), self.creds[dn])
                    code = 0
                except OUTCOMES:
                    code = 1
            if isinstance(output, Failure):
                continue
            if output[0] != code or (expected_out is not None and output[1] != expected_out):
                failures.append((i, f"{op.kind}: cli gave exit {output[0]} {output[1]!r}, "
                                    f"replay exit {code} {expected_out!r}"))
        if ctx.final.ledger_report() != engine.ledger_report():
            failures.append((None, "final ledger report differs from the replay"))
        if ctx.final.event_lines() != engine.event_lines():
            failures.append((None, "final event lines differ from the replay"))
        return failures

    def layer_counts(self, ctx) -> dict:
        return {"jobmgr.events": len(ctx.final.event_lines()) - self.n_events,
                "cli.state_bytes": ctx.state_bytes}

    def population(self) -> str:
        return (f"users={N_USERS} pushers={N_PUSHERS} state_jobs={self.n_jobs} "
                f"(live={LIVE}) state_events={self.n_events} pass=({len(READS)} read: "
                f"{READS.count('status')} status; {len(WRITES)} write)")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
