"""Independent brute-force evaluator used as a test oracle.

This reimplements the authorization semantics directly and naively:
each assertion kind is checked with plain loops, globs are matched by
greedy segment scanning (no regex translation), and the combination
rule is spelled out literally.  It deliberately shares no evaluation
code with the package under test.
"""

from __future__ import annotations

import re

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
    RangeSpec,
    RegexSpec,
)
from gridauth.rsl import JobAction


def glob_match(pattern: str, value: str) -> bool:
    """Anchored '*' glob via greedy left-to-right segment scanning."""
    parts = pattern.split("*")
    if len(parts) == 1:
        return pattern == value
    if not value.startswith(parts[0]):
        return False
    pos = len(parts[0])
    for part in parts[1:-1]:
        idx = value.find(part, pos)
        if idx < 0:
            return False
        pos = idx + len(part)
    last = parts[-1]
    if last == "":
        return True
    return value.endswith(last) and len(value) - len(last) >= pos


def spec_allows(spec, value) -> bool:
    if isinstance(spec, EnumSpec):
        return isinstance(value, str) and any(glob_match(p, value) for p in spec.values)
    # booleans are not part of the value model: True is no integer here
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if isinstance(spec, RangeSpec):
        return is_int and spec.lo <= value <= spec.hi
    if isinstance(spec, MaxSpec):
        return is_int and value <= spec.bound
    if isinstance(spec, MinSpec):
        return is_int and value >= spec.bound
    if isinstance(spec, RegexSpec):
        return isinstance(value, str) and re.search(spec.pattern, value) is not None
    if isinstance(spec, OrSpec):
        return any(spec_allows(alt, value) for alt in spec.alternatives)
    raise TypeError(f"unknown spec {spec!r}")


def matcher_applies(matcher, subject, groups) -> bool:
    if isinstance(matcher, Identity):
        return matcher.dn == subject
    if isinstance(matcher, Group):
        return matcher.name in groups
    if isinstance(matcher, AnySubject):
        return True
    raise TypeError(f"unknown matcher {matcher!r}")


def block_permits_start(block, attrs: dict) -> bool:
    """Literal reading of the four assertion kinds for a start request."""
    if JobAction.START not in block.allowed_actions:
        return False
    # must contain (with or without values)
    for a in block.assertions:
        if isinstance(a, MustContain):
            if a.attr not in attrs:
                return False
            if a.spec is not None and not spec_allows(a.spec, attrs[a.attr]):
                return False
    # must not contain (with or without values)
    for a in block.assertions:
        if isinstance(a, MustNotContain):
            if a.attr in attrs:
                if a.spec is None or spec_allows(a.spec, attrs[a.attr]):
                    return False
    # can contain: every present attribute with declared values must hit one
    for attr, value in attrs.items():
        declared = [a.spec for a in block.assertions if isinstance(a, MayContain) and a.attr == attr]
        if declared and not any(spec_allows(s, value) for s in declared):
            return False
    # anything not specified is forbidden
    if block.closed_world:
        named = set()
        for a in block.assertions:
            if isinstance(a, (MayContain, MustContain)):
                named.add(a.attr)
        for attr in attrs:
            if attr not in named:
                return False
    return True


def first_failure(block, query):
    """None when ``block`` permits the query, else its first failure as
    ``(kind, name)``: the attribute an assertion or closed-world rejects,
    or the action an action or jobtag check refuses.  The checks run in
    the decision point's documented order: action, then the assertions in
    document order (a block's ``attr`` lines on one attribute are one
    union, checked at the first of them), then closed-world."""
    action = query.action
    if action not in block.allowed_actions:
        return "action", action
    if action is not JobAction.START:
        if action not in block.jobtag_grants:
            return None
        if query.jobtag is None:
            return "jobtag-only", action
        if query.jobtag not in block.jobtag_grants[action]:
            return "jobtag", action
        return None
    attrs = dict(query.request.attributes)
    unions_checked = set()
    for a in block.assertions:
        value = attrs.get(a.attr)
        if isinstance(a, MayContain):
            if a.attr in unions_checked:
                continue
            unions_checked.add(a.attr)
            union = [x.spec for x in block.assertions if isinstance(x, MayContain) and x.attr == a.attr]
            if value is not None and not any(spec_allows(s, value) for s in union):
                return "attr", a.attr
        elif isinstance(a, MustContain):
            if value is None:
                return "require-missing", a.attr
            if a.spec is not None and not spec_allows(a.spec, value):
                return "require-value", a.attr
        elif value is not None:
            if a.spec is None:
                return "forbid-present", a.attr
            if spec_allows(a.spec, value):
                return "forbid-value", a.attr
    if block.closed_world:
        named = {a.attr for a in block.assertions if isinstance(a, (MayContain, MustContain))}
        for attr in attrs:
            if attr not in named:
                return "closed-world", attr
    return None


def first_failures(doc, query) -> list:
    """``(block index, first_failure)`` for each block of ``doc`` that
    applies to the query's credential, in document order."""
    subject, groups = query.credential.subject, query.credential.groups
    return [
        (i, first_failure(b, query))
        for i, b in enumerate(doc.blocks)
        if matcher_applies(b.matcher, subject, groups)
    ]


def block_permits_management(block, action, jobtag) -> bool:
    if action not in block.allowed_actions:
        return False
    if action in block.jobtag_grants:
        return jobtag is not None and jobtag in block.jobtag_grants[action]
    return True


def block_permits(block, query) -> bool:
    if query.action is JobAction.START:
        return block_permits_start(block, dict(query.request.attributes))
    return block_permits_management(block, query.action, query.jobtag)


def source_permits(doc, query) -> bool:
    applicable = [
        b
        for b in doc.blocks
        if matcher_applies(b.matcher, query.credential.subject, query.credential.groups)
    ]
    if not applicable:
        return False
    return any(block_permits(b, query) for b in applicable)


def trusts(resource_doc, query) -> bool:
    """Whether the resource accepts the query's VO: a credential that
    claims no VO needs no trust; one that claims a VO needs the resource
    document to name it in a ``trust`` clause."""
    vo = query.credential.vo
    return vo is None or any(trusted == vo for trusted in resource_doc.trust)


def brute_decide(query, resource_doc, vo_doc) -> str:
    """Full combination rule: owner bypass, then trust, then per-source,
    deny-overrides."""
    if (
        query.action is not JobAction.START
        and query.owner is not None
        and query.owner == query.credential.subject
    ):
        return "permit"
    if not trusts(resource_doc, query):
        return "deny"
    if not source_permits(resource_doc, query):
        return "deny"
    if query.credential.vo is not None:
        if vo_doc is None:
            return "deny"
        if not source_permits(vo_doc, query):
            return "deny"
    return "permit"


def spec_cap(spec):
    """The largest integer a spec allows, found by probing the integers it
    names and one far beyond them; None when it allows arbitrarily large
    values or has a non-numeric alternative."""
    numbers, todo = [], [spec]
    while todo:
        s = todo.pop()
        if isinstance(s, OrSpec):
            todo.extend(s.alternatives)
        elif isinstance(s, (EnumSpec, RegexSpec)):
            return None
        elif isinstance(s, RangeSpec):
            numbers += [s.lo, s.hi]
        else:
            numbers.append(s.bound)
    if spec_allows(spec, 2**63 - 1):
        return None
    return max(n for n in numbers if spec_allows(spec, n))


def sandbox_caps(query, resource_doc, vo_doc) -> tuple:
    """``(max_cpu, max_memory)`` of a permitted start, read off each
    permitting block's raw assertions: a block's ``attr`` lines on one
    attribute cap as one union, each ``require attr`` spec on its own."""
    attrs = dict(query.request.attributes)
    caps = {"maxcputime": [], "maxmemory": []}
    docs = [resource_doc] if query.credential.vo is None else [resource_doc, vo_doc]
    subject, groups = query.credential.subject, query.credential.groups
    for doc in docs:
        for b in doc.blocks:
            if not (matcher_applies(b.matcher, subject, groups) and block_permits(b, query)):
                continue
            for attr, found in caps.items():
                union = [a.spec for a in b.assertions if isinstance(a, MayContain) and a.attr == attr]
                specs = union[:1] if len(union) < 2 else [OrSpec(tuple(union))]
                specs += [
                    a.spec
                    for a in b.assertions
                    if isinstance(a, MustContain) and a.attr == attr and a.spec is not None
                ]
                for s in specs:
                    cap = spec_cap(s)
                    if cap is not None and cap >= 1:
                        found.append(cap)
    for attr, found in caps.items():
        if attr in attrs:
            found.append(attrs[attr])
    cpu = min(caps["maxcputime"]) * attrs.get("count", 1) if caps["maxcputime"] else None
    return cpu, (min(caps["maxmemory"]) if caps["maxmemory"] else None)


def ledger_terms(query, vo_doc):
    """``(allocation, quota)`` a permitted start is charged under: the VO
    document's allocation and the member's own quota, when the credential
    claims a VO and the document sets either; None otherwise."""
    subject = query.credential.subject
    if query.credential.vo is None:
        return None
    if vo_doc.allocation is None and subject not in vo_doc.member_quotas:
        return None
    return vo_doc.allocation, vo_doc.member_quotas.get(subject)
