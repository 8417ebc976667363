"""The policy decision point.

A query carries a credential, an action and (for job startup) the
parsed request.  Evaluation consults the resource document always and
the VO document whenever the credential claims a VO, then combines
outcomes:

* within one source, a single permitting subject block suffices;
* across sources, every consulted source must permit (deny-overrides);
* no applicable policy means deny;
* a management request by the job's own owner is permitted outright,
  reproducing the stock gatekeeper behaviour the VO extensions build on;
* otherwise a credential that claims a VO the resource document does not
  trust (a document with no ``trust`` clause trusts none) is denied
  before any block, with one ``untrusted-vo`` entry: the resource owner
  decides which VOs' policy may apply at all.

Pull mode (`decide`) evaluates locally available documents; push mode
(`decide_push`) verifies a capability token, reconstructs the VO
document from its embedded fragment and delegates to `decide`.  A pushed
token binds its subject and its VO: unless both equal the credential's
(a credential naming no VO never matches), the query is denied before
the fragment is parsed, with reason ``subject-mismatch`` or
``vo-mismatch``.  The fragment must be a VO document named for the
token's VO; one of another source or naming another VO is denied
(``not-a-vo-fragment``, ``fragment-vo-mismatch``) before any block is
evaluated, so its allocation never reaches admission.  The token's MAC
is verified once per distinct (key, claims bytes, MAC) per process
(`credential.verify_capability`); its issuer and expiry, then the
binding, are checked on every call.  The fragment is parsed once per
distinct text per process, and only after those checks:
`_parse_fragment` is a `functools.lru_cache` of at most
``FRAGMENT_CACHE_SIZE`` (128) documents keyed on the whole fragment
text, so a forged token that copies a genuine MAC but edits the text
fails verification before the cache is consulted.  A permitted start's
obligations come from the fragment through the `decide` that push mode
delegates to, so the gatekeeper needs no second parse, and the trust
check runs in push mode after the token's checks.  `authorize`,
which the gatekeeper, the job manager and ``gridauth check`` call, is
the one place that picks push mode (a token is presented) or pull mode
(the VO document is the one held under the credential's VO), and the one
place that denies a credential from its expiry on (``credential-expired``),
before either mode runs.

A trace entry records what failed (the kind, the failing check and the
offending value), and its `reason` renders the sentence only when read.
Entries are immutable and one policy yields few distinct ones, so
`_evaluate_source` takes a block's entries from a cache of at most
``TRACE_ENTRY_CACHE_SIZE`` (4096) and decisions share them: a permit, an
action's refusal, which goes straight to the trace, or the first failure
of a block's checks, which each call one function, the spec's compiled
``allows``.  The builtin owner rule's decision and the accounting denial
are built once, when the module is loaded, and shared too.

Documents are compiled when they are built (see `SubjectBlock` and
`PolicyDocument`).  A decision takes a source's applicable blocks from
one pass over its blocks, in document order, and looks the query's
action up once per source, in the document's per-action table.
A block's entry in it is the action's refusal, a permit, a jobtag grant
set, or for a start the block's check plan, which reads the request's
attributes by their stored, lower-case names.  A document memoizes the
applicable blocks of each subject and groups it is asked about
(`PolicyDocument.applicable_indices`), so it scans only on a miss, and
each assertion hashes once, when it is built; neither changes a result,
so every entry point is a pure function of its inputs, and those are
immutable but for that memo.

A permitted start obliges the site to run the job within the caps of
its permitting blocks and to charge it under the VO document's terms.
As in XACML 3.0, the decision point returns these obligations with the
permit (`Decision.caps`, `Decision.terms`, from the caps each block
compiles when it is built, `SubjectBlock.caps`) and the enforcement
point, the gatekeeper, discharges them.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from .credential import (
    BadSignatureError,
    CapabilityClaims,
    CapabilityToken,
    ExpiredTokenError,
    GridCredential,
    UnknownIssuerError,
    verify_capability,
)
from .policy import (
    PERMITTED,
    REFUSED,
    PolicyDocument,
    PolicyError,
    applicable_blocks,
    format_policy,
    parse_policy,
)
from .rsl import JobAction, RslRequest, _checked_make, render_value


class InvalidQueryError(ValueError):
    pass


class NoApplicableBlocksError(ValueError):
    """The VO refuses to issue a capability that grants nothing."""


class AuthzQuery(namedtuple("AuthzQuery", "credential action target request jobtag owner")):
    """One authorization question for the decision point, a checked tuple:
    every construction (``_make`` and ``_replace`` included) runs the checks.

    ``jobtag`` and ``owner`` describe the targeted job and are only
    meaningful for management actions; start requests carry the full
    job description instead.  No decision reads ``target``; it is kept
    for positional callers.
    """

    __slots__ = ()

    def __new__(cls, credential: GridCredential, action: JobAction, target: str = "site",
                request: RslRequest | None = None, jobtag: str | None = None,
                owner: str | None = None):
        if action is JobAction.START:
            if request is None:
                raise InvalidQueryError("start queries require a job description")
        elif request is not None:
            raise InvalidQueryError("management queries carry no job description")
        return tuple.__new__(cls, (credential, action, target, request, jobtag, owner))

    _make = _checked_make


#: distinct verified fragment texts whose parsed documents a process keeps
FRAGMENT_CACHE_SIZE = 128
#: distinct trace entries a process shares between decisions
TRACE_ENTRY_CACHE_SIZE = 4096


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """A source's or block's outcome and, on a denial, what failed: the
    ``kind``, the ``check`` (the assertion, or a jobtag failure's
    ``(action, jobtags)`` grant) and the offending ``value``."""

    source: str
    block: int | None
    outcome: str  # "permit" | "deny"
    kind: str | None = None
    check: object = None
    value: object = None

    @property
    def reason(self) -> str | None:
        return None if self.kind is None else _REASONS[self.kind](self)


def _spec_failure(lead: str, verb: str):
    return lambda e: (
        f"{lead} {e.check.attr}: value {render_value(e.value)} {verb} {e.check.spec.describe()}"
    )


#: failure kind -> the sentence `TraceEntry.reason` renders for it
_REASONS = {
    "action": lambda e: f"action '{e.value.value}' not allowed",
    "jobtag-only": lambda e: f"action '{e.check[0].value}' granted only on jobtags "
        + ", ".join(f"'{t}'" for t in sorted(e.check[1])),
    "jobtag": lambda e: f"jobtag '{e.value}' not in grants for action '{e.check[0].value}'",
    "attr": _spec_failure("attr", "fails"),
    "require-missing": lambda e: f"require attr {e.check.attr}: attribute missing",
    "require-value": _spec_failure("require attr", "fails"),
    "forbid-present": lambda e: f"forbid attr {e.check.attr}: attribute present",
    "forbid-value": _spec_failure("forbid attr", "matches"),
    "closed-world": lambda e: f"closed-world rejects attribute '{e.value}'",
    "no-blocks": lambda e: "no applicable blocks",
    "no-vo-document": lambda e: f"no policy document for vo '{e.value}'",
    "credential-expired": lambda e: f"credential expired at {e.value}",
    "untrusted-vo": lambda e: f"vo '{e.value}' is not trusted by this resource",
    "accounting": lambda e: "accounting-requires-maxcputime",
    **dict.fromkeys(("BadSignature", "Expired", "UnknownIssuer"), lambda e: f"{e.kind}: {e.value}"),
    **dict.fromkeys(("subject-mismatch", "vo-mismatch"), lambda e: e.kind),
    "invalid-fragment": lambda e: f"invalid policy fragment: {e.value}",
    "not-a-vo-fragment": lambda e: "policy fragment is not a vo document",
    "fragment-vo-mismatch": lambda e: f"policy fragment names vo '{e.value}', not the token's",
}

_trace_entry = lru_cache(maxsize=TRACE_ENTRY_CACHE_SIZE)(TraceEntry)


class Decision(namedtuple("Decision", "effect trace charged_estimate caps terms",
                          defaults=(None, None, None))):
    """A decision, as a named tuple: the effect (``"permit"`` or
    ``"deny"``), the trace and, on a permitted start, its obligations,
    all None otherwise.  ``charged_estimate`` is the ``count *
    maxcputime`` cpu-seconds admission reserves (None without
    ``maxcputime``); ``caps``, the job's ``(max_cpu, max_memory)``
    sandbox, None for no cap; and ``terms``, the ``(allocation, quota)``
    the reservation is charged under, None when the VO document does not
    account for the subject.

    ``caps`` holds the least of the request's own ``maxcputime`` and
    ``maxmemory`` and the caps of every permitting block of a consulted
    source (`SubjectBlock.caps`: the least upper bound of at least 1 its
    checks set on the attribute; an ``or`` with an open end sets none),
    with ``max_cpu`` then multiplied by ``count``.  ``terms`` are the VO
    document's allocation and the subject's own quota: the local document
    in pull mode, in push mode the token's fragment.
    """

    __slots__ = ()

    @property
    def permitted(self) -> bool:
        return self.effect == "permit"


class PolicySourceSet(namedtuple("PolicySourceSet", "resource vo")):
    """The documents a pull decision consults, a checked tuple: every
    construction (``_make`` and ``_replace`` included) runs the checks."""

    __slots__ = ()

    def __new__(cls, resource: PolicyDocument, vo: PolicyDocument | None = None):
        if resource.source != "resource":
            raise InvalidQueryError("resource slot needs a resource-source document")
        if vo is not None and vo.source != "vo":
            raise InvalidQueryError("vo slot needs a vo-source document")
        return tuple.__new__(cls, (resource, vo))

    _make = _checked_make


def _plan_failure(entry: tuple, attrs: dict) -> tuple | None:
    """Check a start request's ``attrs`` against a block's start entry,
    ``(plan, accepted)``; None when it passes, else the first failure
    ``(kind, assertion, value)``.

    The steps run in document order, then closed-world (``accepted`` is
    None for an open block).  A numeric spec tested against a non-integer
    value (or vice versa) counts as a violation with a reason, never an
    error: a malformed clause must not fail open or abort the decision.
    """
    plan, accepted = entry
    for attr, kind, allows, check in plan:
        value = attrs.get(attr)
        if value is None:
            if kind == "require":
                return "require-missing", check, None
        elif kind == "attr":
            if not allows(value):
                return "attr", check, value
        elif kind == "require":
            if allows is not None and not allows(value):
                return "require-value", check, value
        elif allows is None:
            return "forbid-present", check, value
        elif allows(value):
            return "forbid-value", check, value
    if accepted is not None:
        for name in attrs:
            if name not in accepted:
                return "closed-world", None, name
    return None


def _evaluate_source(name: str, doc: PolicyDocument, q: AuthzQuery, trace: list) -> bool:
    """Trace each block of ``doc`` that applies to the query's credential,
    from its entry in the table for the query's action (see
    `PolicyDocument.tables`), or a ``no-blocks`` denial; whether one
    block permits."""
    indices = doc.applicable_indices(q.credential.subject, q.credential.groups)
    if not indices:
        trace.append(_trace_entry(name, None, "deny", "no-blocks"))
        return False
    action = q.action
    table = doc.tables[action]
    attrs = None if q.request is None else q.request.attributes
    permitted = False
    for i in indices:
        entry = table[i]
        if entry is REFUSED:
            trace.append(_trace_entry(name, i, "deny", "action", None, action))
            continue
        if entry is PERMITTED:
            failure = None
        elif attrs is not None:  # a start's entry: (plan, accepted names)
            failure = _plan_failure(entry, attrs)
        elif q.jobtag is None:
            failure = "jobtag-only", (action, entry), None
        elif q.jobtag not in entry:
            failure = "jobtag", (action, entry), q.jobtag
        else:
            failure = None
        if failure is None:
            trace.append(_trace_entry(name, i, "permit"))
            permitted = True
        else:
            kind, check, value = failure
            if type(value) is list:  # `arguments`: the cache key must hash
                value = tuple(value)
            trace.append(_trace_entry(name, i, "deny", kind, check, value))
    return permitted


#: the decision of the builtin owner rule, shared by every decision it makes
_OWNER_PERMIT = Decision("permit", (TraceEntry("builtin-owner", None, "permit"),), None)
#: the denial of a start that the VO accounts for but that names no maxcputime
_ACCOUNTING_DENIAL = TraceEntry("accounting", None, "deny", "accounting")


def decide(q: AuthzQuery, sources: PolicySourceSet) -> Decision:
    """Apply the owner rule, then the resource's trust in the credential's
    VO, then evaluate the query against every consulted source and
    combine; a permitted start carries its obligations (see `Decision`)."""
    if q.action is not JobAction.START and q.owner is not None:
        if q.owner == q.credential.subject:
            return _OWNER_PERMIT
    if q.credential.vo is not None and q.credential.vo not in sources.resource.trust:
        entry = TraceEntry("resource", None, "deny", "untrusted-vo", None, q.credential.vo)
        return Decision("deny", (entry,), None)

    trace: list[TraceEntry] = []
    all_permit = _evaluate_source("resource", sources.resource, q, trace)

    if q.credential.vo is not None:
        if sources.vo is None:
            trace.append(TraceEntry("vo", None, "deny", "no-vo-document", None, q.credential.vo))
            all_permit = False
        else:
            all_permit = _evaluate_source("vo", sources.vo, q, trace) and all_permit

    if not all_permit:
        return Decision("deny", tuple(trace), None)
    if q.action is not JobAction.START:
        return Decision("permit", tuple(trace), None)
    subject, vo = q.credential.subject, sources.vo
    terms = None
    # a permit with a claimed vo means the vo document was consulted
    if q.credential.vo is not None and vo.accounts_for(subject):
        terms = vo.allocation, vo.member_quotas.get(subject)
    attrs = q.request.attributes  # names are stored lower-case
    cpu, memory = attrs.get("maxcputime"), attrs.get("maxmemory")
    if cpu is None and terms is not None:
        trace.append(_ACCOUNTING_DENIAL)
        return Decision("deny", tuple(trace), None)
    count = attrs.get("count") or 1
    charged = None if cpu is None else count * cpu
    for entry in trace:  # every permit names its block
        if entry.outcome == "permit":
            doc = sources.resource if entry.source == "resource" else vo
            block_cpu, block_memory = doc.blocks[entry.block].caps
            if block_cpu is not None and (cpu is None or block_cpu < cpu):
                cpu = block_cpu
            if block_memory is not None and (memory is None or block_memory < memory):
                memory = block_memory
    caps = (None if cpu is None else count * cpu), memory
    return Decision("permit", tuple(trace), charged, caps, terms)


def authorize(q: AuthzQuery, resource: PolicyDocument, vo_policies: Mapping,
              token: CapabilityToken | None, registry, now: int) -> Decision:
    """The decision at the gatekeeper, pull or push: `decide_push` when a
    ``token`` is presented, else `decide` with the document that
    ``vo_policies`` (see `vo_documents`) holds under the credential's VO,
    none for a credential that names no VO or one it does not hold.  A
    ``resource`` of another source raises `InvalidQueryError` in either
    mode, first, so the refusal depends on neither the token nor the
    credential.  A credential whose ``expiry`` is at or before ``now`` is
    then denied before either mode runs, with one ``credential-expired``
    entry."""
    # refuses a document of another source, whatever the token or the credential
    sources = PolicySourceSet(resource, vo_policies.get(q.credential.vo))
    expiry = q.credential.expiry
    if expiry <= now:
        return Decision(
            "deny", (TraceEntry("credential", None, "deny", "credential-expired", None, expiry),)
        )
    if token is not None:
        return decide_push(q, resource, token, registry, now)
    return decide(q, sources)


def vo_documents(docs: Iterable) -> dict:
    """``docs`` by name, as `authorize` looks a credential's VO up; a
    document of another source, or a second one of a name, raises
    `PolicyError`."""
    by_name = {}
    for doc in docs:
        if doc.source != "vo":
            raise PolicyError(f"policy '{doc.name}' is not a vo document")
        if doc.name in by_name:
            raise PolicyError(f"two vo documents are named '{doc.name}'")
        by_name[doc.name] = doc
    return by_name


def derive_capability(
    vo_doc: PolicyDocument, cred: GridCredential, expiry: int
) -> CapabilityClaims:
    """Restrict a VO document to the credential and wrap it as claims.

    The fragment keeps the applicable blocks verbatim (matchers
    included) plus the allocation clause and the member's own quota, so
    a pushed decision sees exactly the policy a pull-mode decision
    would apply to this credential.  The claims carry the fragment's
    document too, so `sign_capability` does not parse its text.  A
    capability may not outlive its credential: an ``expiry`` past
    ``cred.expiry`` raises ValueError.
    """
    if vo_doc.source != "vo":
        raise ValueError("capabilities derive from vo documents")
    if cred.vo is None or cred.vo != vo_doc.name:
        raise NoApplicableBlocksError(
            f"credential vo {cred.vo!r} does not match policy '{vo_doc.name}'"
        )
    blocks = applicable_blocks(vo_doc, cred)
    if not blocks:
        raise NoApplicableBlocksError(
            f"no blocks of '{vo_doc.name}' apply to {cred.subject}"
        )
    if expiry > cred.expiry:
        raise ValueError(f"capability would outlive its credential: {expiry} > {cred.expiry}")
    quotas = {}
    if cred.subject in vo_doc.member_quotas:
        quotas[cred.subject] = vo_doc.member_quotas[cred.subject]
    fragment = PolicyDocument(
        name=vo_doc.name,
        source="vo",
        blocks=tuple(blocks),
        allocation=vo_doc.allocation,
        member_quotas=quotas,
    )
    claims = CapabilityClaims(
        subject=cred.subject,
        vo=cred.vo,
        groups=cred.groups,
        expiry=expiry,
        policy_fragment=format_policy(fragment),
    )
    object.__setattr__(claims, "document", fragment)
    return claims


@lru_cache(maxsize=FRAGMENT_CACHE_SIZE)
def _parse_fragment(text: str) -> PolicyDocument:
    """The document of a verified fragment text, parsed once per process.

    Calls the module-global `parse_policy`, so that a replacement of it
    (a counter, a tracer) sees every miss.  A fragment that fails to
    parse raises, and is not cached.  The document is shared by every
    decision on the same text; nothing mutates a document.
    """
    return parse_policy(text)


_TOKEN_FAILURES = {
    UnknownIssuerError: "UnknownIssuer",
    BadSignatureError: "BadSignature",
    ExpiredTokenError: "Expired",
}


def _vo_denial(kind: str, value: str | None = None) -> Decision:
    """A push decision the token or its fragment denies before any block."""
    return Decision("deny", (TraceEntry("vo", None, "deny", kind, None, value),), None)


def decide_push(
    q: AuthzQuery,
    resource_doc: PolicyDocument,
    token: CapabilityToken,
    registry,
    now: int,
) -> Decision:
    """Decide from a pushed capability instead of a local VO document.

    The token's issuer, MAC and expiry, then its subject and VO binding,
    are checked on every call, though the MAC's HMAC is computed once per
    distinct (key, claims bytes, MAC) per process (see
    `verify_capability`).  Only a token that passes them reaches the
    fragment, which `_parse_fragment` parses once per distinct text per
    process (at most ``FRAGMENT_CACHE_SIZE`` texts are kept).  It must be
    a VO document named for the token's VO, or the query is denied before
    any block is evaluated; a permitted start's obligations come from it.
    """
    try:
        claims = verify_capability(registry, token, now)
    except (UnknownIssuerError, BadSignatureError, ExpiredTokenError) as exc:
        return _vo_denial(_TOKEN_FAILURES[type(exc)], str(exc))
    if claims.subject != q.credential.subject:
        return _vo_denial("subject-mismatch")
    if claims.vo != q.credential.vo:
        return _vo_denial("vo-mismatch")
    try:
        fragment = _parse_fragment(claims.policy_fragment)
    except PolicyError as exc:
        return _vo_denial("invalid-fragment", str(exc))
    if fragment.source != "vo":
        return _vo_denial("not-a-vo-fragment")
    if fragment.name != claims.vo:
        return _vo_denial("fragment-vo-mismatch", fragment.name)
    return decide(q, PolicySourceSet(resource=resource_doc, vo=fragment))


def explain(decision: Decision) -> str:
    """Render the trace, one line per entry, deterministically."""
    lines = []
    for e in decision.trace:
        where = e.source if e.block is None else f"{e.source}/block[{e.block}]"
        if e.reason is None:
            lines.append(f"{where}: {e.outcome}")
        else:
            lines.append(f"{where}: {e.outcome} — {e.reason}")
    return "\n".join(lines)
