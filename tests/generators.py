"""Seeded random generators for small policies, credentials and requests.

Universe sizes follow the equivalence-suite bounds: at most four
attribute names with at most four values each, documents of at most
three blocks with at most four assertions.
"""

from __future__ import annotations

import random

from gridauth.credential import GridCredential
from gridauth.policy import (
    AnySubject,
    EnumSpec,
    Group,
    Identity,
    MaxSpec,
    MayContain,
    MinSpec,
    MustContain,
    MustNotContain,
    OrSpec,
    PolicyDocument,
    RangeSpec,
    RegexSpec,
    SubjectBlock,
)
from gridauth.pdp import AuthzQuery
from gridauth.rsl import JobAction, RslRequest

TEXT_ATTRS = ("queue", "jobtag", "mode")
INT_ATTR = "count"
ATTRS = TEXT_ATTRS + (INT_ATTR,)
TEXT_VALUES = ("a", "b", "c", "d")
INT_VALUES = (1, 2, 3, 4)
GROUPS = ("g1", "g2")
SUBJECTS = ("/O=Test/CN=u1", "/O=Test/CN=u2")
JOBTAGS = ("t1", "t2")
SAFE_REGEXES = ("a", "^b", "c$", "[ab]", "a|d")
GLOBS = ("a*", "*", "*d", "a*c")


def rand_value(rng: random.Random, attr: str):
    if attr == INT_ATTR:
        return rng.choice(INT_VALUES)
    return rng.choice(TEXT_VALUES)


def rand_spec(rng: random.Random, attr: str, depth: int = 0, values: tuple = TEXT_VALUES):
    if attr == INT_ATTR:
        kind = rng.randrange(4 if depth else 5)
        if kind == 0:
            lo, hi = sorted(rng.sample(range(0, 6), 2))
            return RangeSpec(lo, hi)
        if kind == 1:
            return MaxSpec(rng.randrange(0, 6))
        if kind == 2:
            return MinSpec(rng.randrange(0, 6))
        if kind == 3:
            n = rng.randrange(0, 6)
            return RangeSpec(n, n)
        return OrSpec((rand_spec(rng, attr, 1), rand_spec(rng, attr, 1)))
    kind = rng.randrange(3 if depth else 4)
    if kind == 0:
        return EnumSpec(tuple(rng.sample(values, rng.randrange(1, 3))))
    if kind == 1:
        return EnumSpec((rng.choice(GLOBS),))
    if kind == 2:
        return RegexSpec(rng.choice(SAFE_REGEXES))
    return OrSpec((rand_spec(rng, attr, 1, values), rand_spec(rng, attr, 1, values)))


def rand_assertion(rng: random.Random, values: tuple = TEXT_VALUES):
    attr = rng.choice(ATTRS)
    kind = rng.randrange(4)
    if kind == 0:
        return MayContain(attr, rand_spec(rng, attr, values=values))
    if kind == 1:
        spec = rand_spec(rng, attr, values=values) if rng.random() < 0.5 else None
        return MustContain(attr, spec)
    if kind == 2:
        spec = rand_spec(rng, attr, values=values) if rng.random() < 0.5 else None
        return MustNotContain(attr, spec)
    return MayContain(attr, rand_spec(rng, attr, values=values))


def rand_matcher(rng: random.Random):
    roll = rng.random()
    if roll < 0.4:
        return AnySubject()
    if roll < 0.8:
        return Group(rng.choice(GROUPS))
    return Identity(rng.choice(SUBJECTS))


def rand_block(rng: random.Random, values: tuple = TEXT_VALUES) -> SubjectBlock:
    allowed = {a for a in JobAction if rng.random() < 0.35}
    if rng.random() < 0.7:
        allowed.add(JobAction.START)
    grants = {}
    # sorted: a set of enum members iterates in an order that varies with
    # string hashing, and the draws below must not
    for action in sorted(allowed, key=lambda a: a.value):
        if action is not JobAction.START and rng.random() < 0.4:
            grants[action] = frozenset(rng.sample(JOBTAGS, rng.randrange(1, 3)))
    assertions = tuple(rand_assertion(rng, values) for _ in range(rng.randrange(0, 5)))
    return SubjectBlock(
        matcher=rand_matcher(rng),
        allowed_actions=frozenset(allowed),
        jobtag_grants=grants,
        assertions=assertions,
        closed_world=rng.random() < 0.25,
    )


def rand_policy(
    rng: random.Random,
    source: str,
    name: str = "fusion",
    min_blocks: int = 0,
    with_accounting: bool = False,
    values: tuple = TEXT_VALUES,
    trust: tuple = (),
) -> PolicyDocument:
    """A document of at most three blocks that trusts the VOs ``trust``
    names; its enum specs draw their strings from ``values``."""
    blocks = tuple(rand_block(rng, values) for _ in range(rng.randrange(min_blocks, 4)))
    allocation = None
    quotas = {}
    if source == "vo" and with_accounting and rng.random() < 0.5:
        allocation = rng.randrange(100, 2000)
        for dn in SUBJECTS:
            if rng.random() < 0.5:
                quotas[dn] = rng.randrange(10, allocation + 1)
    return PolicyDocument(
        name=name,
        source=source,
        blocks=blocks,
        allocation=allocation,
        member_quotas=quotas,
        trust=trust,
    )


def rand_trust(rng: random.Random) -> tuple:
    """The VOs a resource document trusts: mostly the VO `rand_credential`
    claims, with or without another, and sometimes none or only another."""
    roll = rng.random()
    if roll < 0.6:
        return ("fusion",)
    if roll < 0.8:
        return ("astro", "fusion")
    return () if roll < 0.9 else ("astro",)


def rand_credential(rng: random.Random, vo: str | None = "fusion") -> GridCredential:
    groups = frozenset(g for g in GROUPS if rng.random() < 0.5) if vo else frozenset()
    return GridCredential(
        subject=rng.choice(SUBJECTS), expiry=1900000000, vo=vo, groups=groups
    )


def rand_request(rng: random.Random, with_budget: bool = False) -> RslRequest:
    attrs = {}
    for attr in rng.sample(ATTRS, rng.randrange(1, len(ATTRS) + 1)):
        attrs[attr] = rand_value(rng, attr)
    if with_budget and rng.random() < 0.8:
        attrs["maxcputime"] = rng.choice((10, 50, 100))
    return RslRequest(attrs)


def rand_query(
    rng: random.Random, cred: GridCredential, with_budget: bool = False
) -> AuthzQuery:
    if rng.random() < 0.6:
        return AuthzQuery(
            credential=cred,
            action=JobAction.START,
            target="site",
            request=rand_request(rng, with_budget),
        )
    management = sorted(
        (a for a in JobAction if a is not JobAction.START), key=lambda a: a.value
    )
    action = rng.choice(management)
    jobtag = rng.choice(JOBTAGS + (None,))
    owner = rng.choice(SUBJECTS + (None,))
    return AuthzQuery(
        credential=cred, action=action, target="site", jobtag=jobtag, owner=owner
    )
