"""Static lints of a policy document, which no command runs yet.

`validate_policy` flags a block whose matcher repeats an earlier one's, a
block that requires an attribute it forbids every acceptable value of, and
a member quota larger than the VO's allocation.  The lints are
conservative: an ``always-deny`` diagnostic is never wrong, but some
unsatisfiable blocks go unflagged.  They live beside the tests, their one
caller, until a ``gridauth lint`` command gives them a place in the
package.
"""

from __future__ import annotations

from dataclasses import dataclass

from gridauth.policy import (
    EnumSpec,
    Matcher,
    MustContain,
    MustNotContain,
    OrSpec,
    PolicyDocument,
    ValueSpec,
    _interval,
)


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    block: int | None = None


def _interval_contains(outer, inner) -> bool:
    olo, ohi = outer
    ilo, ihi = inner
    if olo is not None and (ilo is None or ilo < olo):
        return False
    if ohi is not None and (ihi is None or ihi > ohi):
        return False
    return True


def _spec_implies(required: ValueSpec | None, forbidden: ValueSpec | None) -> bool:
    """Conservatively decide: every value passing ``required`` hits ``forbidden``."""
    if forbidden is None:
        return True
    if required is None:
        return False
    if isinstance(required, OrSpec):
        return all(_spec_implies(alt, forbidden) for alt in required.alternatives)
    if isinstance(required, EnumSpec):
        if any("*" in v for v in required.values):
            return False
        return all(forbidden.allows(v) for v in required.values)
    ri = _interval(required)
    if ri is not None:
        # a hull is wider than the union it covers
        if isinstance(forbidden, OrSpec):
            return any(_spec_implies(required, alt) for alt in forbidden.alternatives)
        fi = _interval(forbidden)
        return fi is not None and _interval_contains(fi, ri)
    return False


def validate_policy(doc: PolicyDocument) -> list:
    """Non-fatal lints; an empty list means the document looks clean."""
    diagnostics: list[Diagnostic] = []
    seen_matchers: dict[Matcher, int] = {}
    for i, block in enumerate(doc.blocks):
        if block.matcher in seen_matchers:
            diagnostics.append(
                Diagnostic(
                    "shadowed-block",
                    f"block {i} repeats the matcher of block {seen_matchers[block.matcher]}",
                    block=i,
                )
            )
        else:
            seen_matchers[block.matcher] = i
        requires = [a for a in block.assertions if isinstance(a, MustContain)]
        forbids = [a for a in block.assertions if isinstance(a, MustNotContain)]
        flagged = False
        for req in requires:
            for forb in forbids:
                if req.attr == forb.attr and _spec_implies(req.spec, forb.spec):
                    diagnostics.append(
                        Diagnostic(
                            "always-deny",
                            f"block {i}: attribute '{req.attr}' is required but "
                            "every acceptable value is forbidden",
                            block=i,
                        )
                    )
                    flagged = True
                    break
            if flagged:
                break
    if doc.allocation is not None:
        for dn in sorted(doc.member_quotas):
            quota = doc.member_quotas[dn]
            if quota > doc.allocation:
                diagnostics.append(
                    Diagnostic(
                        "quota-exceeds-allocation",
                        f"member quota {quota} for {dn!r} exceeds allocation "
                        f"{doc.allocation}",
                    )
                )
    return diagnostics
