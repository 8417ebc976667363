"""Golden corpus: the decision point's text for every kind of failure.

The cases are hand-written pull and push decisions that reach each
failure a trace can record (an action, a jobtag grant, each assertion
kind, a list-valued ``arguments``, closed-world, no applicable blocks,
no VO document, an untrusted VO, accounting, the built-in owner rule
and every push refusal), plus decisions on `generators` documents and queries drawn
from a fixed seed.  ``tests/data/decision-golden.json`` stores, for each
case, its name, the effect, ``charged_estimate``, the full ``explain``
text and, for a denial, the message of the `DeniedByPolicyError` the
gatekeeper would raise.  Any change to a decision, to a trace line's
wording or to the gatekeeper's message fails the test.

Regenerate the file (only when the decision text is meant to change)
with ``PYTHONPATH=src:tests python tests/test_decision_golden.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import json
import random
import re
from pathlib import Path

from generators import rand_credential, rand_policy, rand_query
from gridauth.credential import (
    CapabilityToken,
    GridCredential,
    canonical_claims_text,
    sign_capability,
)
from gridauth.jobmgr import DeniedByPolicyError
from gridauth.pdp import (
    AuthzQuery,
    NoApplicableBlocksError,
    PolicySourceSet,
    decide,
    decide_push,
    derive_capability,
    explain,
)
from gridauth.policy import format_policy, parse_policy
from gridauth.rsl import JobAction, parse_rsl

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "decision-golden.json"
SEED = "decision-golden/1"
N_PULL = 300
N_PUSH = 100
KEY = bytes(range(32))

RESOURCE = parse_policy(
    'policy "site" source resource { trust vo "fusion"; trust vo "astro"; subject any {'
    " allow action start, cancel, status, suspend, resume, set_priority; } }"
)
#: a resource document no credential below but ``staff`` members reach
STAFF_ONLY = parse_policy(
    'policy "site" source resource { trust vo "fusion";'
    ' subject group "staff" { allow action start; } }'
)
VO = parse_policy(
    'policy "fusion" source vo {\n'
    '  subject group "developers" {\n'
    "    allow action start;\n"
    '    attr executable in {"/opt/vo/dbg/*"};\n'
    "    attr maxcputime max 600;\n"
    "    require attr jobtag;\n"
    "    closed-world;\n"
    "  }\n"
    '  subject group "analysts" {\n'
    "    allow action start;\n"
    '    attr executable in {"/opt/vo/apps/transp", "/opt/vo/apps/\\"q\\""};\n'
    "    attr count range 1..512; attr count range 1000..2000;\n"
    '    attr arguments in {"-v", "-q"} or matches "^--";\n'
    '    require attr queue in {"gold", "silver*"};\n'
    "    forbid attr mode;\n"
    "    forbid attr priority min 10;\n"
    '    require attr stdout matches "^/scratch/";\n'
    "  }\n"
    '  subject group "testers" {\n'
    "    allow action start;\n"
    "    attr level range 1..4 or min 10;\n"
    '    require attr arguments in {"-v"};\n'
    "  }\n"
    '  subject group "auditors" { allow action start; forbid attr arguments; }\n'
    '  subject group "admins" {\n'
    '    allow action status, suspend, cancel on jobtag "fusion-prod", "t2";\n'
    "  }\n"
    "}\n"
)
ACCOUNTED_VO = parse_policy(
    'policy "fusion" source vo { allocation 1000 cpu-seconds;'
    ' member-quota "/O=Grid/CN=ana" 600 cpu-seconds;'
    ' subject any { allow action start; attr maxcputime max 500; } }'
)


def _cred(cn, groups=(), vo="fusion"):
    return GridCredential(f"/O=Grid/CN={cn}", expiry=10**9, vo=vo, groups=frozenset(groups))


DEV = _cred("dave", {"developers"})
ANA = _cred("ana", {"analysts"})
ADMIN = _cred("carol", {"admins"})
TESTER = _cred("tess", {"testers"})
AUDITOR = _cred("aud", {"auditors"})
NOBODY = _cred("eve", {"visitors"})
LOCAL = _cred("local", vo=None)
ASTRO = _cred("ana", {"analysts"}, vo="astro")
#: a member of a VO that `RESOURCE` does not trust, and that VO's document
OTHER = _cred("ana", {"analysts"}, vo="other")
OTHER_VO = parse_policy(format_policy(VO).replace('policy "fusion"', 'policy "other"'))

#: an analysts request that the VO document permits; cases edit one clause
ANA_OK = (
    '&(executable="/opt/vo/apps/transp")(count=4)(queue="gold")'
    '(stdout="/scratch/o")(maxcputime=100)'
)


def _start(cred, rsl):
    return AuthzQuery(cred, JobAction.START, request=parse_rsl(rsl))


def _manage(cred, action, jobtag=None, owner=None):
    return AuthzQuery(cred, action, jobtag=jobtag, owner=owner)


def _pull_cases() -> list:
    both = PolicySourceSet(RESOURCE, VO)
    return [
        ("permit-charged", _start(ANA, ANA_OK), both),
        ("permit-no-estimate", _start(ANA, ANA_OK.replace("(maxcputime=100)", "")), both),
        ("permit-developer", _start(DEV, '&(executable="/opt/vo/dbg/gdb")(jobtag="dev")'), both),
        ("action", _start(ADMIN, '&(executable="/bin/sh")'), both),
        ("action-management", _manage(ANA, JobAction.RESUME, jobtag="t2"), both),
        ("jobtag", _manage(ADMIN, JobAction.SUSPEND, jobtag="other"), both),
        ("jobtag-quoted", _manage(ADMIN, JobAction.CANCEL, jobtag="it's"), both),
        ("jobtag-only", _manage(ADMIN, JobAction.SUSPEND), both),
        ("jobtag-permit", _manage(ADMIN, JobAction.STATUS, jobtag="fusion-prod"), both),
        ("attr-enum", _start(ANA, ANA_OK.replace("/opt/vo/apps/transp", "/bin/\\\"x\\\"")), both),
        ("attr-enum-non-ascii", _start(ANA, ANA_OK.replace("transp", "tränsp")), both),
        ("attr-union", _start(ANA, ANA_OK.replace("(count=4)", "(count=600)")), both),
        ("attr-type-mismatch", _start(TESTER, '&(arguments="-v")(level="high")'), both),
        ("attr-or-min", _start(TESTER, '&(arguments="-v")(level=7)'), both),
        ("attr-max", _start(DEV, '&(executable="/opt/vo/dbg/gdb")(maxcputime=900)(jobtag="d")'), both),
        ("attr-list-arguments", _start(ANA, ANA_OK + '(arguments="-v" "x y" "\\"")'), both),
        ("attr-list-arguments-one", _start(ANA, ANA_OK + '(arguments="--a")'), both),
        ("attr-list-arguments-two", _start(ANA, ANA_OK + '(arguments="--a" "--b")'), both),
        ("require-missing", _start(DEV, '&(executable="/opt/vo/dbg/gdb")'), both),
        ("require-missing-analyst", _start(ANA, ANA_OK.replace('(queue="gold")', "")), both),
        ("require-value", _start(ANA, ANA_OK.replace('"gold"', '"bronze"')), both),
        ("require-value-list", _start(TESTER, '&(arguments="-v" "-x")'), both),
        ("require-value-regex", _start(ANA, ANA_OK.replace("/scratch/o", "/tmp/o")), both),
        ("forbid-present", _start(ANA, ANA_OK + '(mode="debug")'), both),
        ("forbid-present-list", _start(AUDITOR, '&(executable="/x")(arguments="a" "b")'), both),
        ("forbid-value", _start(ANA, ANA_OK + "(priority=20)"), both),
        ("forbid-value-passes", _start(ANA, ANA_OK + "(priority=2)"), both),
        ("closed-world", _start(DEV, '&(executable="/opt/vo/dbg/gdb")(jobtag="d")(queue="g")'), both),
        ("no-blocks-vo", _start(NOBODY, '&(executable="/bin/sh")'), both),
        ("no-blocks-both", _start(NOBODY, '&(executable="/bin/sh")'), PolicySourceSet(STAFF_ONLY, VO)),
        ("no-blocks-resource", _start(LOCAL, '&(executable="/bin/sh")'), PolicySourceSet(STAFF_ONLY)),
        ("no-vo-document", _start(ASTRO, ANA_OK), PolicySourceSet(RESOURCE)),
        ("no-vo-document-management", _manage(ADMIN, JobAction.CANCEL, jobtag="t2"), PolicySourceSet(RESOURCE)),
        ("accounting", _start(ANA, '&(executable="/x")(count=2)'), PolicySourceSet(RESOURCE, ACCOUNTED_VO)),
        ("accounting-charged", _start(ANA, '&(executable="/x")(count=2)(maxcputime=50)'),
         PolicySourceSet(RESOURCE, ACCOUNTED_VO)),
        ("accounting-after-deny", _start(ANA, '&(executable="/x")(maxcputime=900)'),
         PolicySourceSet(RESOURCE, ACCOUNTED_VO)),
        ("builtin-owner", _manage(ANA, JobAction.CANCEL, owner=ANA.subject), PolicySourceSet(STAFF_ONLY)),
        ("not-owner", _manage(ANA, JobAction.CANCEL, owner=DEV.subject), both),
        ("untrusted-vo", _start(OTHER, ANA_OK), PolicySourceSet(RESOURCE, OTHER_VO)),
    ]


def _hand_mac(claims) -> CapabilityToken:
    """A token over claims that `sign_capability` would refuse to sign."""
    text = canonical_claims_text(claims).encode("utf-8")
    return CapabilityToken(claims=claims, mac=hmac.new(KEY, text, hashlib.sha256).digest())


def _push_cases() -> list:
    claims = derive_capability(VO, ANA, expiry=1000)
    token = sign_capability(KEY, claims)
    registry = {"fusion": KEY}
    ok = _start(ANA, ANA_OK)
    bad_mac = CapabilityToken(claims=claims, mac=bytes([token.mac[0] ^ 1]) + token.mac[1:])
    other = sign_capability(KEY, derive_capability(VO, _cred("bob", {"analysts"}), expiry=1000))
    syntax = _hand_mac(dataclasses.replace(claims, policy_fragment='policy "fusion" source vo {'))
    too_long = _hand_mac(dataclasses.replace(
        claims, policy_fragment=claims.policy_fragment.replace("1..512", "1.." + "9" * 30)
    ))
    resource_fragment = _hand_mac(dataclasses.replace(
        claims, policy_fragment=claims.policy_fragment.replace("source vo", "source resource")
    ))
    other_vo_fragment = _hand_mac(dataclasses.replace(
        claims, policy_fragment=claims.policy_fragment.replace('policy "fusion"', 'policy "other"')
    ))
    return [
        ("push-permit", ok, token, registry, 0),
        ("push-deny", _start(ANA, ANA_OK.replace('"gold"', '"bronze"')), token, registry, 0),
        ("push-management-action", _manage(ANA, JobAction.CANCEL, jobtag="t2"), token, registry, 0),
        ("push-BadSignature", ok, bad_mac, registry, 0),
        ("push-Expired", ok, token, registry, 1000),
        ("push-UnknownIssuer", ok, token, {"astro": KEY}, 0),
        ("push-subject-mismatch", ok, other, registry, 0),
        ("push-vo-mismatch", _start(ASTRO, ANA_OK), token, registry, 0),
        ("push-vo-mismatch-no-vo", _start(_cred("ana", vo=None), ANA_OK), token, registry, 0),
        ("push-invalid-fragment", ok, syntax, registry, 0),
        ("push-invalid-fragment-int64", ok, too_long, registry, 0),
        ("push-not-a-vo-fragment", ok, resource_fragment, registry, 0),
        ("push-fragment-vo-mismatch", ok, other_vo_fragment, registry, 0),
        ("push-untrusted-vo", ok._replace(credential=OTHER),
         sign_capability(KEY, derive_capability(OTHER_VO, OTHER, expiry=1000)), {"other": KEY}, 0),
    ]


def cases() -> list:
    """``(name, decision)`` pairs, in order; the same on every run."""
    out = [(name, decide(q, sources)) for name, q, sources in _pull_cases()]
    out += [
        (name, decide_push(q, RESOURCE, token, registry, now))
        for name, q, token, registry, now in _push_cases()
    ]
    rng = random.Random(SEED)
    for i in range(N_PULL):
        cred = rand_credential(rng, vo="fusion" if rng.random() < 0.8 else None)
        resource_doc = rand_policy(rng, "resource", name="site", trust=("fusion",))
        vo_doc = rand_policy(rng, "vo", with_accounting=True) if rng.random() < 0.8 else None
        q = rand_query(rng, cred, with_budget=True)
        out.append((f"random-pull-{i}", decide(q, PolicySourceSet(resource_doc, vo_doc))))
    pushed = 0
    while pushed < N_PUSH:
        cred = rand_credential(rng)
        vo_doc = rand_policy(rng, "vo", min_blocks=1, with_accounting=True)
        resource_doc = rand_policy(rng, "resource", name="site", trust=("fusion",))
        try:
            token = sign_capability(KEY, derive_capability(vo_doc, cred, expiry=10**9))
        except NoApplicableBlocksError:
            continue
        q = rand_query(rng, cred, with_budget=True)
        out.append((f"random-push-{pushed}", decide_push(q, resource_doc, token, {"fusion": KEY}, 0)))
        pushed += 1
    return out


def record(name: str, decision) -> list:
    message = None if decision.permitted else str(DeniedByPolicyError(decision))
    return [name, decision.effect, decision.charged_estimate, explain(decision), message]


def test_every_decision_text_matches_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = [record(name, decision) for name, decision in cases()]
    assert [r[0] for r in got] == [r[0] for r in golden], (
        "the case list itself changed; regenerate it with the decision point it is meant to pin"
    )
    wrong = [(want, have) for want, have in zip(golden, got) if want != have]
    assert not wrong, f"{len(wrong)} decisions differ, first: {wrong[:3]}"


#: one line form per failure a trace records, as ``explain`` renders it
LINE_FORMS = {
    "action": r"action '\w+' not allowed",
    "jobtag": r"jobtag '.*' not in grants for action '\w+'",
    "jobtag-only": r"action '\w+' granted only on jobtags '.*'",
    "attr": r"attr \w+: value .* fails .*",
    "require-missing": r"require attr \w+: attribute missing",
    "require-value": r"require attr \w+: value .* fails .*",
    "forbid-present": r"forbid attr \w+: attribute present",
    "forbid-value": r"forbid attr \w+: value .* matches .*",
    "closed-world": r"closed-world rejects attribute '\w+'",
    "no-blocks": r"no applicable blocks",
    "no-vo-document": r"no policy document for vo '\w+'",
    "untrusted-vo": r"vo '\w+' is not trusted by this resource",
    "accounting": r"accounting-requires-maxcputime",
    "BadSignature": r"BadSignature: .+",
    "Expired": r"Expired: .+",
    "UnknownIssuer": r"UnknownIssuer: .+",
    "subject-mismatch": r"subject-mismatch",
    "vo-mismatch": r"vo-mismatch",
    "invalid-fragment": r"invalid policy fragment: .+",
    "not-a-vo-fragment": r"policy fragment is not a vo document",
    "fragment-vo-mismatch": r"policy fragment names vo '\w+', not the token's",
}


def test_corpus_reaches_every_failure_line():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    reasons = [
        line.partition(" — ")[2] for r in golden for line in r[3].splitlines() if " — " in line
    ]
    missed = [
        kind for kind, form in LINE_FORMS.items()
        if not any(re.fullmatch(form, reason) for reason in reasons)
    ]
    assert not missed
    random_kinds = {
        kind
        for r in golden if r[0].startswith("random-")
        for kind, form in LINE_FORMS.items()
        for line in r[3].splitlines()
        if re.fullmatch(form, line.partition(" — ")[2])
    }
    assert random_kinds >= {"action", "jobtag", "jobtag-only", "attr", "require-missing",
                            "require-value", "forbid-present", "forbid-value", "closed-world",
                            "no-blocks", "no-vo-document", "accounting"}
    assert "builtin-owner: permit" in {r[3] for r in golden}


if __name__ == "__main__":
    GOLDEN.write_text(
        "[\n"
        + ",\n".join(json.dumps(record(*case), ensure_ascii=False) for case in cases())
        + "\n]\n",
        encoding="utf-8",
    )
