"""authz-mix: a stream of pull and push decisions made straight on the PDP.

One resource policy and one large VO policy (group and identity blocks,
enum/glob/regex/range/or specs, some closed-world blocks).  A fixed
minority of users push a signed capability they reuse on every request;
a small share of pushed tokens fail verification.  Each operation parses
its RSL text (start actions only) and asks ``decide`` or ``decide_push``.
"""

from __future__ import annotations

import random

from gridauth import pdp, rsl
from gridauth.credential import GridCredential, sign_capability
from gridauth.pdp import AuthzQuery, PolicySourceSet, derive_capability, explain
from gridauth.policy import parse_policy
from gridauth.rsl import JobAction

import oracle
from common import Failure, Op

VO = "grid"
NOW = 1_000_000
N_USERS = 240
N_GROUPS = 24
N_IDENTITY = 24
GROUPS_PER_USER = 3
N_PUSHERS = 48
#: operations per pass, by class, 70% of them start requests; a pass replays
#: the same stream
PASS_PULL = 2400
PASS_PUSH = 300
PASS_BAD_PUSH = 15
TAGS = ("t0", "t1", "t2", "t3", "t4", "t5")
APPS = tuple(f"app{i:02d}" for i in range(12))
MANAGEMENT = ("cancel", "resume", "set_priority", "status", "suspend")
#: management actions a group block grants on jobtags (status is granted outright)
TAGGED = ("cancel", "resume", "set_priority", "suspend")
BAD_KINDS = ("expired", "wrong-key", "other-subject")
BAD_REASONS = {"expired": "Expired", "wrong-key": "BadSignature", "other-subject": "subject-mismatch"}


def _q(values) -> str:
    return ", ".join(f'"{v}"' for v in values)


def _group_block(rng: random.Random, group: str, apps: list, shape: tuple) -> list:
    count_hi, cpu_max, extra, closed = shape
    lines = [
        f'  subject group "{group}" {{',
        "    allow action start, status;",
        f"    allow action {', '.join(sorted(rng.sample(TAGGED, 2)))}"
        f" on jobtag {_q(sorted(rng.sample(TAGS, 2)))};",
        f'    attr executable in {{"/opt/{apps[0]}/bin/*", "/opt/{apps[1]}/*", "/usr/bin/{apps[2]}"}};',
        f"    attr count range 1..{count_hi};",
        f"    attr maxcputime max {cpu_max};",
        f'    attr queue matches "^(short|long|{group})$";',
        '    attr jobtag in {"t*"};',
        "    attr maxmemory range 64..2048 or min 8192;",
        extra,
    ]
    if closed:
        lines.append("    closed-world;")
    lines.append("  }")
    return lines


def _identity_block(rng: random.Random, user: dict, closed: bool) -> list:
    cn = user["cn"]
    lines = [
        f'  subject identity "{user["dn"]}" {{',
        "    allow action start, cancel, suspend, resume;",
        f'    attr executable in {{"/home/{cn}/*", "/opt/{rng.choice(APPS)}/bin/*"}};',
        '    attr project matches "^p[0-9][0-9]$";',
        "    require attr project;",
        f"    attr count max {rng.choice((8, 32))};",
        '    forbid attr queue in {"short"};',
    ]
    if closed:
        lines.append("    closed-world;")
    lines.append("  }")
    return lines


def _shuffled(rng: random.Random, values: tuple, n: int) -> list:
    """``n`` values in equal shares of ``values``, in random order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def policy_texts(rng: random.Random, groups: list, identity: list) -> tuple:
    """Resource and VO policy text, and the applications each group may run."""
    resource = (
        'policy "site" source resource {\n'
        f'  trust vo "{VO}";\n'
        "  subject any {\n"
        "    allow action start, status, cancel, suspend, resume, set_priority;\n"
        "    attr count max 32;\n"
        '    forbid attr queue in {"blocked"};\n'
        "  }\n"
        "}\n"
    )
    # block shapes come in fixed shares so that evaluation cost varies little by seed
    shapes = zip(
        _shuffled(rng, (4, 8, 16, 64), len(groups)),
        _shuffled(rng, (600, 3600, 36000), len(groups)),
        _shuffled(rng, ("    require attr jobtag;", '    forbid attr queue in {"long"};',
                        "    require attr maxcputime range 1..36000;"), len(groups)),
        _shuffled(rng, (True, False, False, False), len(groups)),
    )
    group_apps = {group: rng.sample(APPS, 3) for group in groups}
    lines = [f'policy "{VO}" source vo {{']
    for group, shape in zip(groups, shapes):
        lines += _group_block(rng, group, group_apps[group], shape)
    closed = _shuffled(rng, (True, False, False, False), len(identity))
    for user, is_closed in zip(identity, closed):
        lines += _identity_block(rng, user, is_closed)
    lines += ["  subject any {", "    allow action status;", "  }", "}"]
    return resource, "\n".join(lines) + "\n", group_apps


def _rsl_text(rng: random.Random, user: dict, group_apps: dict) -> str:
    roll = rng.random()
    if roll < 0.7:
        app = rng.choice(group_apps[rng.choice(user["groups"])])
        executable = rng.choice((f"/opt/{app}/bin/run", f"/opt/{app}/tool", f"/usr/bin/{app}"))
    elif roll < 0.85 and user["identity"]:
        executable = f"/home/{user['cn']}/a.out"
    else:
        executable = f"/opt/{rng.choice(APPS)}/bin/run"
    clauses = [f'(executable="{executable}")']
    if rng.random() < 0.8:
        clauses.append(f"(count={rng.choice((1, 2, 4, 8, 64))})")
    if rng.random() < 0.75:
        clauses.append(f"(maxcputime={rng.choice((60, 600, 3600, 50000))})")
    if rng.random() < 0.5:
        clauses.append(f'(queue="{rng.choice(("short", "long", rng.choice(user["groups"]), "blocked", "other"))}")')
    if rng.random() < 0.6:
        clauses.append(f'(jobtag="{rng.choice(TAGS + ("x1",))}")')
    if rng.random() < 0.25:
        clauses.append(f"(maxmemory={rng.choice((128, 4096, 16384))})")
    if rng.random() < (0.7 if user["identity"] else 0.2):
        clauses.append(f'(project="{rng.choice(("p07", "p42", "p123", "pz"))}")')
    rng.shuffle(clauses)
    return "&" + "".join(clauses)


class AuthzMix:
    name = "authz-mix"
    slots = ("pull", "push")

    def __init__(self, seed: int, workdir):
        rng = random.Random(f"authz-mix/{seed}")
        groups = [f"g{i:02d}" for i in range(N_GROUPS)]
        users = []
        for i in range(N_USERS):
            cn = f"user{i:03d}"
            users.append(
                {
                    "dn": f"/O=Grid/OU=authz/CN={cn}",
                    "cn": cn,
                    "groups": sorted(rng.sample(groups, GROUPS_PER_USER)),
                    "identity": False,
                }
            )
        for user in rng.sample(users, N_IDENTITY):
            user["identity"] = True
        identity = [u for u in users if u["identity"]]
        self.resource_text, self.vo_text, group_apps = policy_texts(rng, groups, identity)
        self.resource_doc = parse_policy(self.resource_text)
        self.vo_doc = parse_policy(self.vo_text)
        self.sources = PolicySourceSet(self.resource_doc, self.vo_doc)
        self.n_blocks = len(self.vo_doc.blocks)

        creds = {
            u["dn"]: GridCredential(u["dn"], 2 * NOW, VO, frozenset(u["groups"])) for u in users
        }
        key, wrong_key = rng.randbytes(32), rng.randbytes(32)
        self.registry = {VO: key}
        pushers = rng.sample(users, N_PUSHERS)
        pusher_dns = {u["dn"] for u in pushers}
        pullers = [u for u in users if u["dn"] not in pusher_dns]
        tokens = {
            u["dn"]: sign_capability(key, derive_capability(self.vo_doc, creds[u["dn"]], 2 * NOW))
            for u in pushers
        }
        self.n_tokens = len(tokens)

        def query_args(user, start):
            cred = creds[user["dn"]]
            if start:
                return (cred, "start", _rsl_text(rng, user, group_apps), None, None)
            owner = user["dn"] if rng.random() < 0.05 else rng.choice(users)["dn"]
            return (cred, rng.choice(MANAGEMENT), None, rng.choice(TAGS + (None,)), owner)

        starts = _shuffled(rng, (True,) * 7 + (False,) * 3, PASS_PULL)
        ops = [Op(0, "pull", query_args(rng.choice(pullers), start)) for start in starts]
        starts = _shuffled(rng, (True,) * 7 + (False,) * 3, PASS_PUSH)
        bad = {
            i: BAD_KINDS[j % len(BAD_KINDS)]
            for j, i in enumerate(sorted(rng.sample(range(PASS_PUSH), PASS_BAD_PUSH)))
        }
        for i in range(PASS_PUSH):
            user = rng.choice(pushers)
            token, kind = tokens[user["dn"]], bad.get(i, "valid")
            if kind == "expired":
                token = sign_capability(key, derive_capability(self.vo_doc, creds[user["dn"]], NOW // 2))
            elif kind == "wrong-key":
                token = sign_capability(wrong_key, token.claims)
            elif kind == "other-subject":
                token = tokens[rng.choice([u for u in pushers if u is not user])["dn"]]
            ops.append(Op(1, "push", query_args(user, starts[i]) + (token, kind)))
        rng.shuffle(ops)
        self.ops = ops

    # -- one pass ---------------------------------------------------------

    def begin_pass(self):
        return None

    def execute(self, ctx, op: Op):
        cred, action, rsl_text, jobtag, owner = op.args[:5]
        try:
            request = rsl.parse_rsl(rsl_text) if rsl_text is not None else None
            query = AuthzQuery(cred, JobAction(action), "site", request, jobtag, owner)
            if op.kind == "pull":
                return query, pdp.decide(query, self.sources)
            token = op.args[5]
            return query, pdp.decide_push(query, self.resource_doc, token, self.registry, NOW)
        except Exception:
            return Failure.current()

    def render(self, output) -> str:
        _query, decision = output
        return f"{decision.effect} charged={decision.charged_estimate}\n{explain(decision)}"

    def end_pass(self, ctx) -> list:
        return []

    # -- checks -----------------------------------------------------------

    def check(self, ctx, outputs: list) -> list:
        """Failures among one pass's outputs, as ``(op index, message)``."""
        failures = []
        for i, (op, output) in enumerate(zip(self.ops, outputs)):
            if isinstance(output, Failure):
                continue
            query, decision = output
            if op.kind == "pull":
                expected = oracle.brute_decide(query, self.resource_doc, self.vo_doc)
                if decision.effect != expected:
                    failures.append((i, f"pull {decision.effect}, oracle {expected}"))
                continue
            kind = op.args[6]
            if kind == "valid":
                pull = pdp.decide(query, self.sources)
                if (decision.effect, decision.charged_estimate) != (pull.effect, pull.charged_estimate):
                    failures.append((i, f"push {decision.effect}/{decision.charged_estimate}, "
                                        f"pull {pull.effect}/{pull.charged_estimate}"))
            elif decision.effect != "deny" or not (decision.trace[0].reason or "").startswith(BAD_REASONS[kind]):
                failures.append((i, f"{kind} token gave {decision.effect}: {explain(decision)}"))
        return failures

    def layer_counts(self, ctx) -> dict:
        return {"jobmgr.events": 0, "cli.state_bytes": 0}

    def population(self) -> str:
        return (f"users={N_USERS} groups/user={GROUPS_PER_USER} vo_blocks={self.n_blocks} "
                f"pushers={N_PUSHERS} tokens={self.n_tokens} pass=({PASS_PULL} pull, "
                f"{PASS_PUSH} push of which {PASS_BAD_PUSH} bad)")

    def close(self) -> None:
        pass
