"""Decision point tests: assertion/block evaluation, combination, push mode."""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from generators import rand_credential, rand_policy, rand_query, rand_trust
from gridauth import credential
from gridauth.credential import (
    CapabilityToken,
    GridCredential,
    canonical_claims_text,
    sign_capability,
)
from gridauth import pdp
from gridauth.pdp import (
    AuthzQuery,
    Decision,
    InvalidQueryError,
    NoApplicableBlocksError,
    PolicySourceSet,
    TraceEntry,
    authorize,
    decide,
    decide_push,
    derive_capability,
    explain,
    vo_documents,
)
from gridauth.policy import (
    AnySubject,
    EnumSpec,
    Group,
    MaxSpec,
    MayContain,
    MinSpec,
    MustContain,
    MustNotContain,
    OrSpec,
    PolicyDocument,
    PolicyError,
    RangeSpec,
    SubjectBlock,
    format_policy,
    parse_policy,
)
from gridauth.rsl import JobAction, RslRequest, parse_rsl

KEY = bytes(range(32))

ALICE = GridCredential("/O=Grid/CN=alice", expiry=10**9, vo="fusion", groups={"analysts"})
DAVE = GridCredential("/O=Grid/CN=dave", expiry=10**9, vo="fusion", groups={"developers"})
CAROL = GridCredential("/O=Grid/CN=carol", expiry=10**9, vo="fusion", groups={"admins"})
LOCAL = GridCredential("/O=Grid/CN=local", expiry=10**9)

OPEN_RESOURCE = parse_policy(
    'policy "site" source resource { trust vo "fusion"; subject any {'
    " allow action start, cancel, status, suspend, resume, set_priority; } }"
)

SCENARIO2_VO = parse_policy(
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
    '    attr executable in {"/opt/vo/apps/transp"};\n'
    "    attr count range 1..512;\n"
    "  }\n"
    "}\n"
)

#: a VO document with both terms and both caps
ACCOUNTED_VO = parse_policy(
    'policy "fusion" source vo {\n'
    "  allocation 1000 cpu-seconds;\n"
    '  member-quota "/O=Grid/CN=alice" 600 cpu-seconds;\n'
    '  member-quota "/O=Grid/CN=bob" 50 cpu-seconds;\n'
    '  subject group "analysts" {\n'
    "    allow action start;\n"
    "    attr maxcputime max 300;\n"
    "    attr maxmemory max 64;\n"
    "  }\n"
    "}\n"
)

ADMINS_VO = parse_policy(
    'policy "fusion" source vo {\n'
    '  subject group "members" { allow action start; }\n'
    '  subject group "admins" { allow action suspend, cancel on jobtag "fusion-prod"; }\n'
    "}\n"
)


def _start_query(cred, rsl_text):
    return AuthzQuery(
        credential=cred, action=JobAction.START, target="site", request=parse_rsl(rsl_text)
    )


def _mgmt_query(cred, action, jobtag=None, owner=None):
    return AuthzQuery(
        credential=cred, action=action, target="site", jobtag=jobtag, owner=owner
    )


class TestQueryInvariants:
    def test_start_requires_request(self):
        with pytest.raises(InvalidQueryError):
            AuthzQuery(ALICE, JobAction.START, "site")

    def test_management_forbids_request(self):
        with pytest.raises(InvalidQueryError):
            AuthzQuery(
                ALICE,
                JobAction.CANCEL,
                "site",
                request=RslRequest({"count": 1}),
            )

    def test_source_set_checks_sources(self):
        with pytest.raises(InvalidQueryError):
            PolicySourceSet(resource=SCENARIO2_VO)


#: (class, fields it refuses, the refusal's message); each is refused on every path
REFUSED_TUPLES = [
    (AuthzQuery, (ALICE, JobAction.START, "site", None, None, None),
     "start queries require a job description"),
    (AuthzQuery, (ALICE, JobAction.CANCEL, "site", RslRequest({"count": 1}), None, None),
     "management queries carry no job description"),
    (PolicySourceSet, (SCENARIO2_VO, None), "resource slot needs a resource-source document"),
    (PolicySourceSet, (OPEN_RESOURCE, OPEN_RESOURCE), "vo slot needs a vo-source document"),
]


class TestCheckedTuples:
    """`AuthzQuery` and `PolicySourceSet` are tuples that check their fields
    however they are built."""

    def test_positional_and_keyword_construction_agree(self):
        request = parse_rsl('&(executable="/bin/sh")')
        by_position = AuthzQuery(ALICE, JobAction.START, "site", request)
        by_keyword = AuthzQuery(credential=ALICE, action=JobAction.START, request=request)
        assert by_position == by_keyword == (ALICE, JobAction.START, "site", request, None, None)
        assert by_keyword.target == "site" and by_keyword.request is request
        assert by_keyword._fields == (
            "credential", "action", "target", "request", "jobtag", "owner"
        )
        managed = AuthzQuery(CAROL, JobAction.CANCEL, "site", None, "t1", "/O=Grid/CN=dave")
        assert (managed.jobtag, managed.owner) == ("t1", "/O=Grid/CN=dave")
        assert managed == AuthzQuery(
            credential=CAROL, action=JobAction.CANCEL, jobtag="t1", owner="/O=Grid/CN=dave"
        )
        sources = PolicySourceSet(OPEN_RESOURCE, SCENARIO2_VO)
        assert sources == PolicySourceSet(resource=OPEN_RESOURCE, vo=SCENARIO2_VO)
        assert (sources.resource, sources.vo) == (OPEN_RESOURCE, SCENARIO2_VO)
        assert PolicySourceSet(OPEN_RESOURCE).vo is None

    @pytest.mark.parametrize("cls, values, message", REFUSED_TUPLES)
    def test_every_construction_path_refuses(self, cls, values, message):
        good = (
            AuthzQuery(ALICE, JobAction.CANCEL)
            if cls is AuthzQuery
            else PolicySourceSet(OPEN_RESOURCE, SCENARIO2_VO)
        )
        builds = {
            "position": lambda: cls(*values),
            "keyword": lambda: cls(**dict(zip(cls._fields, values))),
            "_make": lambda: cls._make(values),
            "_replace": lambda: good._replace(**dict(zip(cls._fields, values))),
        }
        for path, build in builds.items():
            with pytest.raises(InvalidQueryError) as exc:
                build()
            assert str(exc.value) == message, path

    def test_fields_cannot_be_assigned(self):
        query = AuthzQuery(ALICE, JobAction.STATUS)
        sources = PolicySourceSet(OPEN_RESOURCE)
        for value, name in ((query, "action"), (query, "request"), (query, "flag"),
                            (sources, "vo"), (sources, "extra")):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        assert query == (ALICE, JobAction.STATUS, "site", None, None, None)
        assert sources == (OPEN_RESOURCE, None)


def _block_reason(block: SubjectBlock, q: AuthzQuery) -> str | None:
    """``block``'s outcome for ``q``, decided against a resource document
    holding only that block, made to apply to any subject: None on a
    permit, else the denial's sentence."""
    applying = dataclasses.replace(block, matcher=AnySubject())
    doc = PolicyDocument("one-block", "resource", blocks=(applying,), trust=("fusion",))
    entry = decide(q, PolicySourceSet(doc)).trace[0]
    assert (entry.source, entry.block) == ("resource", 0)
    return entry.reason


def _eval_start(assertion, attrs: dict) -> str | None:
    """One assertion's outcome for a start request, on a one-assertion block."""
    block = SubjectBlock(AnySubject(), {JobAction.START}, assertions=(assertion,))
    q = AuthzQuery(ALICE, JobAction.START, "site", request=RslRequest(attrs))
    return _block_reason(block, q)


class TestEvalAssertion:
    def test_must_contain_missing_attribute(self):
        reason = _eval_start(MustContain("jobtag", None), {"count": 1})
        assert reason == "require attr jobtag: attribute missing"

    def test_must_not_contain_present(self):
        reason = _eval_start(MustNotContain("queue", None), {"queue": "batch"})
        assert reason == "forbid attr queue: attribute present"

    def test_may_contain_membership(self):
        assert _eval_start(MayContain("count", RangeSpec(1, 4)), {"count": 3}) is None
        assert (
            _eval_start(MayContain("count", RangeSpec(1, 4)), {"count": 5})
            == "attr count: value 5 fails range 1..4"
        )

    def test_type_mismatch_is_violation_not_error(self):
        reason = _eval_start(MustContain("weird", RangeSpec(1, 4)), {"weird": "abc"})
        assert reason == 'require attr weird: value "abc" fails range 1..4'

    def test_list_values_never_satisfy_value_specs(self):
        attrs = {"arguments": ["a", "b"]}
        reason = _eval_start(MayContain("arguments", EnumSpec(("a",))), attrs)
        assert reason == 'attr arguments: value "a" "b" fails in {"a"}'
        # presence checks still work on list-valued attributes
        assert _eval_start(MustContain("arguments", None), attrs) is None
        assert (
            _eval_start(MustNotContain("arguments", None), attrs)
            == "forbid attr arguments: attribute present"
        )

    def test_mixed_case_assertion_names_are_refused(self):
        # a request stores names lower-case, and a block is checked by the
        # names it holds, so "Count" would deny count=1 as closed-world
        # yet never check count=5 against its range; such an assertion is
        # refused when it is built
        for cls, name, spec in (
            (MayContain, "Count", RangeSpec(1, 2)),
            (MustContain, "JOBTAG", None),
            (MustNotContain, "queue ", None),
            (MustContain, "k\u212a", None),  # the Kelvin sign lowers to 'k'
        ):
            with pytest.raises(PolicyError, match=re.escape(repr(name))):
                cls(name, spec)
        block = SubjectBlock(
            AnySubject(), {JobAction.START}, {}, (MayContain("count", RangeSpec(1, 2)),),
            closed_world=True,
        )
        assert _block_reason(block, _start_query(ALICE, "&(COUNT=1)")) is None
        assert (
            _block_reason(block, _start_query(ALICE, "&(count=5)"))
            == "attr count: value 5 fails range 1..2"
        )
        assert oracle.first_failure(block, _start_query(ALICE, "&(count=5)")) == ("attr", "count")
        doc = PolicyDocument("p", "resource", blocks=(block,))
        assert parse_policy(format_policy(doc)) == doc


class TestEvalBlock:
    def test_developers_block_permit(self):
        block = SCENARIO2_VO.blocks[0]
        request = parse_rsl(
            '&(executable="/opt/vo/dbg/gdb")(maxcputime=300)(jobtag="dev")'
        )
        # the oracle agrees this request satisfies the block
        assert oracle.block_permits_start(block, dict(request.attributes))
        q = AuthzQuery(DAVE, JobAction.START, "site", request=request)
        assert _block_reason(block, q) is None

    def test_closed_world_rejects_extra_attribute(self):
        block = SCENARIO2_VO.blocks[0]
        request = parse_rsl(
            '&(executable="/opt/vo/dbg/gdb")(maxcputime=300)(jobtag="dev")(queue="gold")'
        )
        assert not oracle.block_permits_start(block, dict(request.attributes))
        q = AuthzQuery(DAVE, JobAction.START, "site", request=request)
        assert _block_reason(block, q) == "closed-world rejects attribute 'queue'"

    def test_jobtag_grant_matches(self):
        block = ADMINS_VO.blocks[1]
        q = _mgmt_query(CAROL, JobAction.SUSPEND, jobtag="fusion-prod")
        assert _block_reason(block, q) is None

    def test_jobtag_grant_mismatch(self):
        block = ADMINS_VO.blocks[1]
        q = _mgmt_query(CAROL, JobAction.SUSPEND, jobtag="other")
        assert _block_reason(block, q) == "jobtag 'other' not in grants for action 'suspend'"

    def test_action_not_allowed(self):
        block = ADMINS_VO.blocks[0]
        q = _mgmt_query(ALICE, JobAction.SUSPEND, jobtag="x")
        assert _block_reason(block, q) == "action 'suspend' not allowed"

    def test_may_contain_union(self):
        doc = parse_policy(
            'policy "p" source vo { subject any { allow action start;'
            " attr count range 1..2; attr count range 10..20; } }"
        )
        ok = AuthzQuery(ALICE, JobAction.START, "site", request=RslRequest({"count": 11}))
        bad = AuthzQuery(ALICE, JobAction.START, "site", request=RslRequest({"count": 5}))
        assert _block_reason(doc.blocks[0], ok) is None
        assert (
            _block_reason(doc.blocks[0], bad)
            == "attr count: value 5 fails range 1..2 or range 10..20"
        )


class TestDecide:
    def test_resource_permits_vo_denies(self):
        q = _start_query(ALICE, '&(executable="/bin/sh")(count=1)')
        d = decide(q, PolicySourceSet(OPEN_RESOURCE, SCENARIO2_VO))
        assert d.effect == "deny"
        resource_entries = [e for e in d.trace if e.source == "resource"]
        assert any(e.outcome == "permit" for e in resource_entries)

    def test_owner_management_with_empty_policies(self):
        empty = PolicyDocument(name="empty", source="resource")
        q = _mgmt_query(ALICE, JobAction.STATUS, owner=ALICE.subject)
        d = decide(q, PolicySourceSet(empty))
        assert d.effect == "permit"
        assert d.trace == (
            type(d.trace[0])("builtin-owner", None, "permit", None),
        )

    def test_vo_credential_without_vo_document(self):
        q = _start_query(ALICE, '&(executable="/opt/vo/apps/transp")(count=1)')
        d = decide(q, PolicySourceSet(OPEN_RESOURCE, None))
        assert d.effect == "deny"
        assert any(
            e.source == "vo" and e.reason == "no policy document for vo 'fusion'"
            for e in d.trace
        )

    def test_no_applicable_blocks_denies_source(self):
        doc = parse_policy(
            'policy "p" source resource { subject group "staff" { allow action start; } }'
        )
        q = _start_query(LOCAL, '&(executable="/bin/sh")')
        d = decide(q, PolicySourceSet(doc))
        assert d.effect == "deny"
        assert d.trace[0].reason == "no applicable blocks"

    def test_charged_estimate(self):
        q = _start_query(ALICE, '&(executable="/opt/vo/apps/transp")(count=4)(maxcputime=100)')
        d = decide(q, PolicySourceSet(OPEN_RESOURCE, SCENARIO2_VO))
        assert d.effect == "permit"
        assert d.charged_estimate == 400

    def test_count_defaults_to_one(self):
        q = _start_query(ALICE, '&(executable="/opt/vo/apps/transp")(maxcputime=100)')
        d = decide(q, PolicySourceSet(OPEN_RESOURCE, SCENARIO2_VO))
        assert d.charged_estimate == 100

    def test_accounting_requires_maxcputime(self):
        vo = parse_policy(
            'policy "fusion" source vo { allocation 1000 cpu-seconds;'
            " subject any { allow action start; } }"
        )
        q = _start_query(ALICE, '&(executable="/x")(count=1)')
        d = decide(q, PolicySourceSet(OPEN_RESOURCE, vo))
        assert d.effect == "deny"
        assert d.trace[-1].source == "accounting"
        assert d.trace[-1].reason == "accounting-requires-maxcputime"

    def test_accounting_inactive_without_allocation_or_quota(self):
        q = _start_query(ALICE, '&(executable="/opt/vo/apps/transp")(count=1)')
        d = decide(q, PolicySourceSet(OPEN_RESOURCE, SCENARIO2_VO))
        assert d.effect == "permit"
        assert d.charged_estimate is None


class TestDeriveCapability:
    def test_fragment_restricted_to_applicable_blocks(self):
        claims = derive_capability(SCENARIO2_VO, ALICE, expiry=10**9)
        fragment = parse_policy(claims.policy_fragment)
        assert len(fragment.blocks) == 1
        assert fragment.blocks[0] == SCENARIO2_VO.blocks[1]

    def test_no_applicable_blocks(self):
        outsider = GridCredential("/O=Grid/CN=eve", expiry=10**9, vo="fusion")
        with pytest.raises(NoApplicableBlocksError):
            derive_capability(SCENARIO2_VO, outsider, expiry=10**9)

    @pytest.mark.parametrize("vo", ["astro", None])
    def test_credential_of_another_vo_is_refused(self, vo):
        cred = dataclasses.replace(ALICE, vo=vo, groups=frozenset())
        with pytest.raises(NoApplicableBlocksError,
                           match=f"^credential vo {vo!r} does not match policy 'fusion'$"):
            derive_capability(SCENARIO2_VO, cred, expiry=10**9)

    def test_fragment_always_reparses(self):
        rng = random.Random(11)
        derived = 0
        for _ in range(200):
            vo = rand_policy(rng, "vo", with_accounting=True)
            cred = rand_credential(rng)
            try:
                claims = derive_capability(vo, cred, expiry=10**9)
            except NoApplicableBlocksError:
                continue
            derived += 1
            fragment = parse_policy(claims.policy_fragment)
            assert fragment.source == "vo"
            assert len(fragment.blocks) >= 1
        assert derived > 50

    def test_a_capability_may_not_outlive_its_credential(self):
        cred = dataclasses.replace(ALICE, expiry=500)
        assert derive_capability(SCENARIO2_VO, cred, expiry=500).expiry == 500
        with pytest.raises(ValueError, match=r"outlive its credential: 501 > 500"):
            derive_capability(SCENARIO2_VO, cred, expiry=501)
        # a credential the document does not serve is refused for that first
        outsider = GridCredential("/O=Grid/CN=eve", expiry=500, vo="fusion")
        with pytest.raises(NoApplicableBlocksError):
            derive_capability(SCENARIO2_VO, outsider, expiry=501)

    def test_quota_restricted_to_subject(self):
        vo = parse_policy(
            'policy "fusion" source vo { allocation 100 cpu-seconds;'
            ' member-quota "/O=Grid/CN=alice" 60 cpu-seconds;'
            ' member-quota "/O=Grid/CN=bob" 60 cpu-seconds;'
            " subject any { allow action start; } }"
        )
        claims = derive_capability(vo, ALICE, expiry=10**9)
        fragment = parse_policy(claims.policy_fragment)
        assert fragment.member_quotas == {"/O=Grid/CN=alice": 60}
        assert fragment.allocation == 100


def _assert_push_equals_pull(rng, cred, vo_doc, resource_doc, query) -> bool:
    """Compare pull and push decisions; returns True when actually compared."""
    pull = decide(query, PolicySourceSet(resource_doc, vo_doc))
    try:
        claims = derive_capability(vo_doc, cred, expiry=10**9)
    except NoApplicableBlocksError:
        return False
    token = sign_capability(KEY, claims)
    push = decide_push(query, resource_doc, token, {vo_doc.name: KEY}, now=0)
    assert push.effect == pull.effect, (query, vo_doc)
    assert push.charged_estimate == pull.charged_estimate
    applicable = [
        i
        for i, b in enumerate(vo_doc.blocks)
        if oracle.matcher_applies(b.matcher, cred.subject, cred.groups)
    ]
    pull_permits = {
        e.block
        for e in pull.trace
        if e.source == "vo" and e.outcome == "permit" and e.block is not None
    }
    push_permits = {
        applicable[e.block]
        for e in push.trace
        if e.source == "vo" and e.outcome == "permit" and e.block is not None
    }
    assert push_permits == pull_permits
    return True


class TestDecidePush:
    def test_matches_pull_on_random_cases(self):
        rng = random.Random(42)
        compared = 0
        for _ in range(300):
            cred = rand_credential(rng)
            vo_doc = rand_policy(rng, "vo", min_blocks=1, with_accounting=True)
            resource_doc = rand_policy(rng, "resource", name="site", trust=rand_trust(rng))
            query = rand_query(rng, cred, with_budget=True)
            if _assert_push_equals_pull(rng, cred, vo_doc, resource_doc, query):
                compared += 1
        assert compared > 100

    def test_a_grant_on_a_refused_action_cannot_be_built(self):
        # its text, 'allow action cancel on jobtag "t"', would permit in push
        # mode the cancel that the block refuses in pull mode
        with pytest.raises(PolicyError, match="jobtag grant"):
            SubjectBlock(AnySubject(), {JobAction.START}, jobtag_grants={JobAction.CANCEL: {"t"}})
        vo = parse_policy('policy "fusion" source vo { subject any {'
                          ' allow action start; allow action cancel on jobtag "t"; } }')
        q = _mgmt_query(ALICE, JobAction.CANCEL, jobtag="t")
        assert _assert_push_equals_pull(None, ALICE, vo, OPEN_RESOURCE, q)
        assert decide(q, PolicySourceSet(OPEN_RESOURCE, vo)).permitted

    def test_tampered_token_denies(self):
        claims = derive_capability(SCENARIO2_VO, ALICE, expiry=10**9)
        token = sign_capability(KEY, claims)
        bad = type(token)(
            claims=token.claims,
            mac=bytes([token.mac[0] ^ 1]) + token.mac[1:],
        )
        q = _start_query(ALICE, '&(executable="/opt/vo/apps/transp")(count=1)')
        d = decide_push(q, OPEN_RESOURCE, bad, {"fusion": KEY}, now=0)
        assert d.effect == "deny"
        assert d.trace[0].reason.startswith("BadSignature")

    def test_subject_mismatch(self):
        bob = GridCredential("/O=Grid/CN=bob", expiry=10**9, vo="fusion", groups={"analysts"})
        claims = derive_capability(SCENARIO2_VO, bob, expiry=10**9)
        token = sign_capability(KEY, claims)
        q = _start_query(ALICE, '&(executable="/opt/vo/apps/transp")(count=1)')
        d = decide_push(q, OPEN_RESOURCE, token, {"fusion": KEY}, now=0)
        assert d.effect == "deny"
        assert d.trace[0].reason == "subject-mismatch"

    @pytest.mark.parametrize("vo", ["astro", None])
    def test_vo_mismatch_denies_before_the_fragment(self, vo):
        # a fusion token presented with an astro or a VO-less credential
        claims = derive_capability(SCENARIO2_VO, ALICE, expiry=10**9)
        token = sign_capability(KEY, claims)
        cred = GridCredential(
            ALICE.subject, expiry=10**9, vo=vo, groups=ALICE.groups if vo else ()
        )
        q = _start_query(cred, '&(executable="/opt/vo/apps/transp")(count=1)')
        d = decide_push(q, OPEN_RESOURCE, token, {"fusion": KEY, "astro": KEY}, now=0)
        assert d.effect == "deny"
        assert d.trace == (TraceEntry("vo", None, "deny", "vo-mismatch"),)
        assert d.caps is None and d.terms is None

    def test_subject_is_checked_before_vo(self):
        bob = GridCredential("/O=Grid/CN=bob", expiry=10**9, vo="fusion", groups={"analysts"})
        token = sign_capability(KEY, derive_capability(SCENARIO2_VO, bob, expiry=10**9))
        astro = GridCredential(ALICE.subject, expiry=10**9, vo="astro")
        q = _start_query(astro, '&(executable="/opt/vo/apps/transp")(count=1)')
        d = decide_push(q, OPEN_RESOURCE, token, {"fusion": KEY}, now=0)
        assert d.trace == (TraceEntry("vo", None, "deny", "subject-mismatch"),)

    def test_decision_carries_the_fragments_obligations(self):
        claims = derive_capability(ACCOUNTED_VO, ALICE, expiry=10**9)
        token = sign_capability(KEY, claims)
        q = _start_query(ALICE, '&(executable="/x")(count=2)(maxcputime=200)')
        d = decide_push(q, OPEN_RESOURCE, token, {"fusion": KEY}, now=0)
        assert d.permitted
        assert (d.charged_estimate, d.caps, d.terms) == (400, (400, 64), (1000, 600))

    def test_over_long_integer_in_fragment_denies(self):
        # sign_capability refuses such claims, so the token is MACed by hand
        claims = derive_capability(SCENARIO2_VO, ALICE, expiry=10**9)
        fragment = claims.policy_fragment.replace("1..512", "1.." + "5" * 5000)
        assert fragment != claims.policy_fragment
        claims = dataclasses.replace(claims, policy_fragment=fragment)
        mac = hmac.new(KEY, canonical_claims_text(claims).encode("utf-8"), hashlib.sha256)
        token = CapabilityToken(claims=claims, mac=mac.digest())
        q = _start_query(ALICE, '&(executable="/opt/vo/apps/transp")(count=1)')
        d = decide_push(q, OPEN_RESOURCE, token, {"fusion": KEY}, now=0)
        assert d.effect == "deny"
        (entry,) = d.trace
        assert entry.reason.startswith("invalid policy fragment: line ")
        assert entry.reason.endswith(": integer out of signed 64-bit range")

    def test_fragment_naming_another_vo_denies_before_any_block(self):
        # sign_capability refuses such claims, so the token is MACed by hand
        claims = derive_capability(SCENARIO2_VO, ALICE, expiry=10**9)
        fragment = claims.policy_fragment.replace('policy "fusion"', 'policy "other"')
        assert fragment != claims.policy_fragment
        claims = dataclasses.replace(claims, policy_fragment=fragment)
        mac = hmac.new(KEY, canonical_claims_text(claims).encode("utf-8"), hashlib.sha256)
        token = CapabilityToken(claims=claims, mac=mac.digest())
        q = _start_query(ALICE, '&(executable="/opt/vo/apps/transp")(count=1)')
        d = decide_push(q, OPEN_RESOURCE, token, {"fusion": KEY}, now=0)
        assert d.trace == (TraceEntry("vo", None, "deny", "fragment-vo-mismatch", None, "other"),)
        assert d.trace[0].reason == "policy fragment names vo 'other', not the token's"
        assert d.caps is None and d.terms is None

    def test_expired_token_denies(self):
        claims = derive_capability(SCENARIO2_VO, ALICE, expiry=50)
        token = sign_capability(KEY, claims)
        q = _start_query(ALICE, '&(executable="/opt/vo/apps/transp")(count=1)')
        d = decide_push(q, OPEN_RESOURCE, token, {"fusion": KEY}, now=50)
        assert d.effect == "deny"
        assert d.trace[0].reason.startswith("Expired")

    def test_unknown_issuer_denies(self):
        claims = derive_capability(SCENARIO2_VO, ALICE, expiry=10**9)
        token = sign_capability(KEY, claims)
        q = _start_query(ALICE, '&(executable="/opt/vo/apps/transp")(count=1)')
        d = decide_push(q, OPEN_RESOURCE, token, {}, now=0)
        assert d.effect == "deny"
        assert d.trace[0].reason.startswith("UnknownIssuer")


def _pushed_cases(rng, n):
    """``n`` (resource document, token, queries) triples from the generators."""
    cases = []
    while len(cases) < n:
        cred = rand_credential(rng)
        vo_doc = rand_policy(rng, "vo", min_blocks=1, with_accounting=True)
        resource_doc = rand_policy(rng, "resource", name="site", trust=("fusion",))
        try:
            claims = derive_capability(vo_doc, cred, expiry=10**9)
        except NoApplicableBlocksError:
            continue
        queries = [rand_query(rng, cred, with_budget=True) for _ in range(3)]
        cases.append((resource_doc, sign_capability(KEY, claims), queries))
    return cases


def _assert_push_equals_fresh_decide(resource_doc, token, q) -> Decision:
    """``decide_push`` equals ``decide`` over a freshly parsed fragment."""
    fresh = parse_policy(token.claims.policy_fragment)
    want = decide(q, PolicySourceSet(resource_doc, fresh))
    got = decide_push(q, resource_doc, token, {"fusion": KEY}, now=0)
    assert got == want  # the obligations, caps and terms, included
    assert explain(got) == explain(want)
    return got


class TestFragmentMemo:
    """Push decisions through the fragment and trace-entry caches."""

    def test_warm_memo_equals_a_fresh_parse(self):
        pdp._parse_fragment.cache_clear()
        permits = 0
        for resource_doc, token, queries in _pushed_cases(random.Random("memo/1"), 150):
            for q in queries:  # the first query warms the cache for the others
                permits += _assert_push_equals_fresh_decide(resource_doc, token, q).permitted
        info = pdp._parse_fragment.cache_info()
        assert info.misses <= 150 and info.hits >= 300
        assert permits >= 50

    def test_more_fragments_than_the_cache_holds(self):
        pdp._parse_fragment.cache_clear()
        cases = _pushed_cases(random.Random("memo/2"), pdp.FRAGMENT_CACHE_SIZE + 80)
        distinct = {token.claims.policy_fragment for _, token, _ in cases}
        assert len(distinct) > pdp.FRAGMENT_CACHE_SIZE
        for _ in range(2):  # the second round decides on evicted fragments
            for resource_doc, token, queries in cases:
                _assert_push_equals_fresh_decide(resource_doc, token, queries[0])
        assert pdp._parse_fragment.cache_info().currsize <= pdp.FRAGMENT_CACHE_SIZE

    def test_clearing_the_trace_entry_cache_changes_no_decision(self):
        cases = _pushed_cases(random.Random("memo/3"), 60)

        def decisions():
            return [
                decide_push(q, resource_doc, token, {"fusion": KEY}, now=0)
                for resource_doc, token, queries in cases
                for q in queries
            ]

        before = decisions()
        pdp._trace_entry.cache_clear()
        after = decisions()
        assert after == before
        assert [explain(d) for d in after] == [explain(d) for d in before]


class TestSubjectScans:
    """Each document scans its blocks once per subject and groups."""

    @pytest.fixture
    def scans(self, monkeypatch):
        counts = {}
        scan = PolicyDocument._scan_blocks

        def counted(doc, subject, groups):
            counts[doc.source] = counts.get(doc.source, 0) + 1
            return scan(doc, subject, groups)

        monkeypatch.setattr(PolicyDocument, "_scan_blocks", counted)
        return counts

    def test_a_repeated_pull_decision_scans_once_per_source(self, scans):
        fresh = (parse_policy(format_policy(doc)) for doc in (OPEN_RESOURCE, ACCOUNTED_VO))
        sources = PolicySourceSet(*fresh)
        q = _start_query(ALICE, '&(executable="/x")(count=2)(maxcputime=200)')
        first = decide(q, sources)
        assert first.permitted and scans == {"resource": 1, "vo": 1}
        for action in (JobAction.CANCEL, JobAction.STATUS):  # other actions, one credential
            decide(_mgmt_query(ALICE, action), sources)
        assert decide(q, sources) == first and scans == {"resource": 1, "vo": 1}

    def test_a_repeated_push_decision_scans_once_per_source(self, scans):
        resource = parse_policy(format_policy(OPEN_RESOURCE))
        token = sign_capability(KEY, derive_capability(ACCOUNTED_VO, ALICE, expiry=10**9))
        pdp._parse_fragment.cache_clear()
        scans.clear()
        q = _start_query(ALICE, '&(executable="/x")(count=2)(maxcputime=200)')
        first = decide_push(q, resource, token, {"fusion": KEY}, now=0)
        assert first.permitted and scans == {"resource": 1, "vo": 1}
        for _ in range(3):
            assert decide_push(q, resource, token, {"fusion": KEY}, now=0) == first
        assert scans == {"resource": 1, "vo": 1}


def _bad_signature() -> Decision:
    return Decision("deny", (TraceEntry("vo", None, "deny", "BadSignature", None,
                                        "token MAC does not verify"),))


class TestVerifiedMacCache:
    """Push decisions through the cache of verified token MACs: a token is
    refused on every presentation that its MAC, key or expiry fails."""

    RSL = '&(executable="/opt/vo/apps/transp")(count=1)'

    def setup_method(self):
        credential._verify_mac.cache_clear()

    def _genuine(self, expiry=10**9):
        token = sign_capability(KEY, derive_capability(SCENARIO2_VO, ALICE, expiry=expiry))
        q = _start_query(ALICE, self.RSL)
        assert decide_push(q, OPEN_RESOURCE, token, {"fusion": KEY}, now=0).permitted
        return token, q

    def test_a_verified_token_past_its_expiry_is_denied_on_every_call(self):
        token, q = self._genuine(expiry=50)
        want = Decision("deny", (TraceEntry("vo", None, "deny", "Expired", None,
                                            "token expired at 50"),))
        for now in (50, 50, 10**6):
            assert decide_push(q, OPEN_RESOURCE, token, {"fusion": KEY}, now) == want
        assert decide_push(q, OPEN_RESOURCE, token, {"fusion": KEY}, now=49).permitted

    def test_a_registry_whose_key_was_replaced_refuses_the_old_token(self):
        token, q = self._genuine()
        registry = {"fusion": KEY}
        registry["fusion"] = bytes(reversed(KEY))
        for _ in range(2):
            assert decide_push(q, OPEN_RESOURCE, token, registry, now=0) == _bad_signature()

    def test_the_same_claims_under_another_key_are_refused(self):
        token, q = self._genuine()
        forged = sign_capability(bytes(reversed(KEY)), token.claims)
        for _ in range(2):
            assert decide_push(q, OPEN_RESOURCE, forged, {"fusion": KEY}, now=0) == _bad_signature()

    def test_a_genuine_mac_on_an_edited_fragment_is_refused(self):
        token, q = self._genuine()
        fragment = token.claims.policy_fragment.replace("1..512", "1..4096")
        assert fragment != token.claims.policy_fragment
        edited = CapabilityToken(dataclasses.replace(token.claims, policy_fragment=fragment),
                                 token.mac)
        pdp._parse_fragment.cache_clear()
        for _ in range(2):
            assert decide_push(q, OPEN_RESOURCE, edited, {"fusion": KEY}, now=0) == _bad_signature()
        assert pdp._parse_fragment.cache_info().currsize == 0
        assert credential._verify_mac.cache_info().currsize == 1

    def test_more_tokens_than_the_cache_holds(self):
        cases = _pushed_cases(random.Random("mac/1"), credential.MAC_CACHE_SIZE + 40)
        assert len({token.mac for _, token, _ in cases}) > credential.MAC_CACHE_SIZE
        for _ in range(2):  # the second round decides on evicted tokens
            for resource_doc, token, queries in cases:
                _assert_push_equals_fresh_decide(resource_doc, token, queries[0])
                forged = CapabilityToken(token.claims, bytes(32))
                got = decide_push(queries[0], resource_doc, forged, {"fusion": KEY}, now=0)
                assert got == _bad_signature()
        assert credential._verify_mac.cache_info().currsize <= credential.MAC_CACHE_SIZE

    def test_clearing_the_cache_changes_no_decision(self):
        cases = _pushed_cases(random.Random("mac/2"), 60)

        def decisions():
            return [
                decide_push(q, resource_doc, token, {"fusion": KEY}, now)
                for resource_doc, token, queries in cases
                for q in queries
                for now in (0, 10**9)  # fresh, then expired
            ]

        before = decisions()
        credential._verify_mac.cache_clear()
        after = decisions()
        assert after == before
        assert [explain(d) for d in after] == [explain(d) for d in before]
        assert sum(d.permitted for d in after) >= 20


class TestAuthorize:
    @pytest.mark.parametrize("registry", [{"fusion": KEY}, {"fusion": bytes(32)}, {}],
                             ids=["genuine-key", "wrong-key", "unknown-issuer"])
    def test_a_vo_document_as_resource_is_refused_before_the_token(self, registry):
        token = sign_capability(KEY, derive_capability(SCENARIO2_VO, ALICE, expiry=10**9))
        q = _start_query(ALICE, '&(executable="/opt/vo/apps/transp")(count=1)')
        assert authorize(q, OPEN_RESOURCE, {}, token, {"fusion": KEY}, 0).permitted
        with pytest.raises(InvalidQueryError, match="resource slot needs a resource-source"):
            authorize(q, SCENARIO2_VO, {}, token, registry, 0)
        with pytest.raises(InvalidQueryError, match="resource slot needs a resource-source"):
            authorize(q, SCENARIO2_VO, {"fusion": SCENARIO2_VO}, None, registry, 0)


class TestVoDocuments:
    def test_two_documents_of_one_name_are_refused(self):
        # the second would silently replace the first's blocks and terms
        for docs in ([SCENARIO2_VO, ACCOUNTED_VO], [SCENARIO2_VO, SCENARIO2_VO]):
            with pytest.raises(PolicyError, match="two vo documents are named 'fusion'"):
                vo_documents(docs)


class TestCredentialExpiry:
    """`authorize` denies a credential at and after its expiry, in either
    mode, with one entry and before any block or token check."""

    CRED = GridCredential(ALICE.subject, expiry=500, vo="fusion", groups=ALICE.groups)
    EXPIRED = (TraceEntry("credential", None, "deny", "credential-expired", None, 500),)

    def _modes(self):
        token = sign_capability(KEY, derive_capability(SCENARIO2_VO, self.CRED, expiry=500))
        return {"pull": ({"fusion": SCENARIO2_VO}, None), "push": ({}, token)}

    @pytest.mark.parametrize("mode", ["pull", "push"])
    def test_a_start_is_denied_from_the_expiry_on(self, mode):
        vo_policies, token = self._modes()[mode]
        q = _start_query(self.CRED, '&(executable="/opt/vo/apps/transp")(count=1)')
        live = authorize(q, OPEN_RESOURCE, vo_policies, token, {"fusion": KEY}, 499)
        assert live.permitted and live.trace[-1].source == "vo"
        for now in (500, 501, 10**9 + 1):
            d = authorize(q, OPEN_RESOURCE, vo_policies, token, {"fusion": KEY}, now)
            assert (d.effect, d.trace, d.caps, d.terms) == ("deny", self.EXPIRED, None, None)
            assert explain(d) == "credential: deny — credential expired at 500"

    @pytest.mark.parametrize("mode", ["pull", "push"])
    def test_an_expired_owner_may_not_manage_its_job(self, mode):
        vo_policies, token = self._modes()[mode]
        q = _mgmt_query(self.CRED, JobAction.STATUS, owner=self.CRED.subject)
        assert authorize(q, OPEN_RESOURCE, vo_policies, token, {"fusion": KEY}, 499).permitted
        d = authorize(q, OPEN_RESOURCE, vo_policies, token, {"fusion": KEY}, 500)
        assert d.trace == self.EXPIRED

    @pytest.mark.parametrize("mode", ["pull", "push"])
    def test_a_vo_document_as_resource_is_refused_for_an_expired_credential(self, mode):
        vo_policies, token = self._modes()[mode]
        q = _start_query(self.CRED, '&(executable="/opt/vo/apps/transp")(count=1)')
        with pytest.raises(InvalidQueryError, match="resource slot needs a resource-source"):
            authorize(q, SCENARIO2_VO, vo_policies, token, {"fusion": KEY}, 500)


class TestTrust:
    """A credential's VO must be one the resource document trusts; the
    check runs after the owner rule and before any block, in either mode."""

    RSL = '&(executable="/opt/vo/apps/transp")(count=1)'
    UNTRUSTED = (TraceEntry("resource", None, "deny", "untrusted-vo", None, "fusion"),)

    def _resource(self, *trusted):
        clauses = "".join(f'trust vo "{vo}"; ' for vo in trusted)
        return parse_policy(
            f'policy "site" source resource {{ {clauses}subject any {{'
            " allow action start, cancel, status, suspend, resume, set_priority; } }"
        )

    @pytest.mark.parametrize("trusted", [(), ("astro",)], ids=["no-trust-line", "another-vo"])
    @pytest.mark.parametrize("mode", ["pull", "push"])
    def test_an_untrusted_vo_is_denied_before_any_block(self, trusted, mode):
        token = sign_capability(KEY, derive_capability(SCENARIO2_VO, ALICE, expiry=10**9))
        token = token if mode == "push" else None
        q = _start_query(ALICE, self.RSL)
        live = authorize(q, OPEN_RESOURCE, {"fusion": SCENARIO2_VO}, token, {"fusion": KEY}, 0)
        assert live.permitted
        d = authorize(q, self._resource(*trusted), {"fusion": SCENARIO2_VO}, token,
                      {"fusion": KEY}, 0)
        assert (d.effect, d.trace, d.caps, d.terms) == ("deny", self.UNTRUSTED, None, None)
        assert explain(d) == "resource: deny — vo 'fusion' is not trusted by this resource"

    def test_a_management_request_is_denied_too(self):
        q = _mgmt_query(CAROL, JobAction.SUSPEND, jobtag="fusion-prod")
        assert decide(q, PolicySourceSet(OPEN_RESOURCE, ADMINS_VO)).permitted
        d = decide(q, PolicySourceSet(self._resource(), ADMINS_VO))
        assert d.trace == self.UNTRUSTED

    def test_the_owner_rule_comes_first(self):
        q = _mgmt_query(ALICE, JobAction.CANCEL, owner=ALICE.subject)
        d = decide(q, PolicySourceSet(self._resource(), SCENARIO2_VO))
        assert d.permitted
        assert explain(d) == "builtin-owner: permit"

    def test_a_credential_without_a_vo_needs_no_trust(self):
        d = decide(_start_query(LOCAL, self.RSL), PolicySourceSet(self._resource()))
        assert d.permitted

    def test_a_token_is_checked_before_trust(self):
        token = sign_capability(KEY, derive_capability(SCENARIO2_VO, ALICE, expiry=10**9))
        q = _start_query(ALICE, self.RSL)
        d = decide_push(q, self._resource(), token, {"fusion": bytes(32)}, 0)
        assert [e.kind for e in d.trace] == ["BadSignature"]


class TestExplain:
    def test_closed_world_line(self):
        q = _start_query(
            DAVE,
            '&(executable="/opt/vo/dbg/gdb")(maxcputime=300)(jobtag="dev")(queue="gold")',
        )
        d = decide(q, PolicySourceSet(OPEN_RESOURCE, SCENARIO2_VO))
        lines = explain(d).splitlines()
        assert "vo/block[0]: deny — closed-world rejects attribute 'queue'" in lines

    def test_builtin_owner_line(self):
        q = _mgmt_query(ALICE, JobAction.STATUS, owner=ALICE.subject)
        d = decide(q, PolicySourceSet(OPEN_RESOURCE))
        assert explain(d) == "builtin-owner: permit"

    def test_permit_lists_block_index(self):
        q = _start_query(ALICE, '&(executable="/opt/vo/apps/transp")(count=1)')
        d = decide(q, PolicySourceSet(OPEN_RESOURCE, SCENARIO2_VO))
        lines = explain(d).splitlines()
        assert "resource/block[0]: permit" in lines
        assert "vo/block[1]: permit" in lines


class TestDecisionObligations:
    def test_only_a_permitted_start_carries_obligations(self):
        q = _start_query(ALICE, '&(executable="/x")(count=2)(maxcputime=200)')
        d = decide(q, PolicySourceSet(OPEN_RESOURCE, ACCOUNTED_VO))
        assert (d.charged_estimate, d.caps, d.terms) == (400, (400, 64), (1000, 600))
        q = _start_query(ALICE, '&(executable="/opt/vo/apps/transp")(count=1)')
        d = decide(q, PolicySourceSet(OPEN_RESOURCE, SCENARIO2_VO))
        assert d.permitted and (d.caps, d.terms) == ((None, None), None)
        # only an admission needs them
        denied = _start_query(ALICE, '&(executable="/bin/sh")')
        d = decide(denied, PolicySourceSet(OPEN_RESOURCE, SCENARIO2_VO))
        assert not d.permitted and (d.caps, d.terms) == (None, None)
        managed = _mgmt_query(CAROL, JobAction.SUSPEND, jobtag="fusion-prod")
        d = decide(managed, PolicySourceSet(OPEN_RESOURCE, ADMINS_VO))
        assert d.permitted and (d.caps, d.terms) == (None, None)
        owner = _mgmt_query(ALICE, JobAction.STATUS, owner=ALICE.subject)
        d = decide(owner, PolicySourceSet(OPEN_RESOURCE, ACCOUNTED_VO))
        assert d.permitted and (d.caps, d.terms) == (None, None)

    def test_obligations_take_part_in_equality_and_repr(self):
        q = _start_query(ALICE, '&(executable="/x")(count=2)(maxcputime=200)')
        d = decide(q, PolicySourceSet(OPEN_RESOURCE, ACCOUNTED_VO))
        assert d != d._replace(terms=None)
        assert d != d._replace(caps=(None, None))
        assert "caps=(400, 64), terms=(1000, 600)" in repr(d)

    def test_a_decision_is_a_named_tuple(self):
        d = Decision("deny", ())
        assert tuple(d) == ("deny", (), None, None, None) and not hasattr(d, "__dict__")
        assert Decision._fields == ("effect", "trace", "charged_estimate", "caps", "terms")
        assert not dataclasses.is_dataclass(d) and not d.permitted
        assert repr(d) == (
            "Decision(effect='deny', trace=(), charged_estimate=None, caps=None, terms=None)"
        )


def _rand_cap_spec(rng, depth=0):
    n = rng.choice((-3, 0, 1, 7, 50, 120, 400))
    kind = rng.randrange(4 if depth else 5)
    if kind == 0:
        return MaxSpec(n)
    if kind == 1:
        return RangeSpec(*sorted((n, rng.choice((0, 1, 60, 300)))))
    if kind == 2:
        return MinSpec(n)
    if kind == 3:
        return EnumSpec(("x",)) if rng.random() < 0.3 else MaxSpec(n)
    return OrSpec((_rand_cap_spec(rng, 1), _rand_cap_spec(rng, 1)))


def _rand_cap_policy(rng, source):
    """A document whose blocks bound maxcputime, maxmemory and count."""
    blocks = []
    for _ in range(rng.randrange(1, 4)):
        assertions = []
        for _ in range(rng.randrange(0, 5)):
            attr = rng.choice(("maxcputime", "maxcputime", "maxmemory", "count"))
            kind = rng.choice((MayContain, MayContain, MustContain, MustNotContain))
            spec = None if kind is not MayContain and rng.random() < 0.3 else _rand_cap_spec(rng)
            assertions.append(kind(attr, spec))
        blocks.append(SubjectBlock(
            matcher=rng.choice((AnySubject(), Group("analysts"), Group("other"))),
            allowed_actions={JobAction.START},
            assertions=tuple(assertions),
        ))
    if source == "resource":
        return PolicyDocument(name="site", source=source, blocks=tuple(blocks), trust=("fusion",))
    quotas = {ALICE.subject: 600} if rng.random() < 0.3 else {}
    return PolicyDocument(name="fusion", source=source, blocks=tuple(blocks),
                          allocation=rng.choice((None, None, 1000)), member_quotas=quotas)


class TestSandboxLimits:
    def test_agreement_with_brute_force_oracle(self):
        """A permitted start's caps and terms, each against its oracle rule."""
        rng = random.Random("sandbox-limits/1")
        permits = accounted = 0
        for _ in range(3000):
            res, vo = _rand_cap_policy(rng, "resource"), _rand_cap_policy(rng, "vo")
            cred = ALICE if rng.random() < 0.8 else LOCAL
            request = RslRequest({"executable": "/x"} | {
                attr: rng.choice(values)
                for attr, values in (("count", (1, 3)), ("maxcputime", (1, 40, 100, 350)),
                                     ("maxmemory", (2, 64, 500)))
                if rng.random() < 0.5
            })
            q = AuthzQuery(credential=cred, action=JobAction.START, target="site", request=request)
            d = decide(q, PolicySourceSet(res, vo))
            if d.permitted:
                permits += 1
                assert d.caps == oracle.sandbox_caps(q, res, vo)
                assert d.terms == oracle.ledger_terms(q, vo)
                accounted += d.terms is not None
        assert permits >= 500 and accounted >= 100


class TestProperties:
    def test_determinism(self):
        rng = random.Random(5)
        for _ in range(100):
            cred = rand_credential(rng, vo="fusion" if rng.random() < 0.8 else None)
            res = rand_policy(rng, "resource", name="site", trust=rand_trust(rng))
            vo = rand_policy(rng, "vo") if rng.random() < 0.8 else None
            q = rand_query(rng, cred)
            sources = PolicySourceSet(res, vo)
            assert decide(q, sources) == decide(q, sources)

    def test_default_deny_on_empty_resource_document(self):
        rng = random.Random(6)
        empty = PolicyDocument(name="empty", source="resource")
        for _ in range(200):
            cred = rand_credential(rng, vo=None)
            q = rand_query(rng, cred)
            d = decide(q, PolicySourceSet(empty))
            owner_bypass = (
                q.action is not JobAction.START and q.owner == cred.subject
            )
            assert d.effect == ("permit" if owner_bypass else "deny")

    def test_deny_overrides_across_sources(self):
        rng = random.Random(7)
        for _ in range(300):
            cred = rand_credential(rng)
            res = rand_policy(rng, "resource", name="site", trust=rand_trust(rng))
            vo = rand_policy(rng, "vo") if rng.random() < 0.8 else None
            q = rand_query(rng, cred)
            d = decide(q, PolicySourceSet(res, vo))
            if d.effect != "permit" or d.trace[0].source == "builtin-owner":
                continue
            consulted = {e.source for e in d.trace if e.source in ("resource", "vo")}
            for source in consulted:
                assert any(
                    e.source == source and e.outcome == "permit" for e in d.trace
                )

    def test_permit_overrides_within_source(self):
        from generators import rand_block

        rng = random.Random(8)
        checked = 0
        for _ in range(300):
            cred = rand_credential(rng, vo=None)
            res = rand_policy(rng, "resource", name="site", min_blocks=1)
            q = rand_query(rng, cred)
            if decide(q, PolicySourceSet(res)).effect != "permit":
                continue
            checked += 1
            grown = PolicyDocument(
                name=res.name,
                source="resource",
                blocks=res.blocks + (rand_block(rng),),
            )
            assert decide(q, PolicySourceSet(grown)).effect == "permit"
        assert checked > 30

    def test_trace_never_empty(self):
        rng = random.Random(9)
        for _ in range(200):
            cred = rand_credential(rng, vo="fusion" if rng.random() < 0.5 else None)
            res = rand_policy(rng, "resource", name="site", trust=rand_trust(rng))
            vo = rand_policy(rng, "vo") if rng.random() < 0.5 else None
            d = decide(rand_query(rng, cred), PolicySourceSet(res, vo))
            assert len(d.trace) >= 1

    def test_agreement_with_brute_force_oracle(self):
        rng = random.Random(10)
        for _ in range(400):
            has_vo = rng.random() < 0.8
            cred = rand_credential(rng, vo="fusion" if has_vo else None)
            res = rand_policy(rng, "resource", name="site", trust=rand_trust(rng))
            vo = rand_policy(rng, "vo") if rng.random() < 0.8 else None
            q = rand_query(rng, cred)
            expected = oracle.brute_decide(q, res, vo)
            assert decide(q, PolicySourceSet(res, vo)).effect == expected


def _failure(entry):
    """An entry's failure in the oracle's terms: the kind and the
    attribute or action it names; None for a permit."""
    if entry.kind is None:
        return None
    if entry.kind in ("action", "closed-world"):
        return entry.kind, entry.value
    if entry.kind in ("jobtag", "jobtag-only"):
        return entry.kind, entry.check[0]
    return entry.kind, entry.check.attr


class TestTraceFields:
    """What a trace entry records, checked field by field."""

    @given(seed=st.integers(0, 2**64 - 1), push=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_first_failures_agree_with_the_oracle(self, seed, push):
        # the A5 draws for a pull, the A4 draws for a push
        rng = random.Random(seed)
        cred = rand_credential(rng, vo="fusion" if push or rng.random() < 0.8 else None)
        resource_doc = rand_policy(rng, "resource", name="site", trust=rand_trust(rng))
        vo_doc = None
        if push or rng.random() < 0.8:
            vo_doc = rand_policy(rng, "vo", min_blocks=int(push), with_accounting=True)
        q = rand_query(rng, cred, with_budget=True)
        if push:
            try:
                token = sign_capability(KEY, derive_capability(vo_doc, cred, expiry=10**9))
            except NoApplicableBlocksError:
                return
            d = decide_push(q, resource_doc, token, {"fusion": KEY}, now=0)
        else:
            d = decide(q, PolicySourceSet(resource_doc, vo_doc))
        if d.trace[0].source == "builtin-owner":
            assert q.owner == cred.subject
            return
        if not oracle.trusts(resource_doc, q):
            assert d.trace == (TraceEntry("resource", None, "deny", "untrusted-vo", None, "fusion"),)
            return
        for source, doc in (("resource", resource_doc), ("vo", vo_doc)):
            entries = [e for e in d.trace if e.source == source]
            if source == "vo" and cred.vo is None:
                assert entries == []
            elif doc is None:
                assert entries == [TraceEntry("vo", None, "deny", "no-vo-document", None, "fusion")]
            elif not (want := oracle.first_failures(doc, q)):
                assert entries == [TraceEntry(source, None, "deny", "no-blocks")]
            elif push and source == "vo":  # the fragment holds only the applicable blocks
                assert [_failure(e) for e in entries] == [f for _, f in want]
            else:
                assert [(e.block, _failure(e)) for e in entries] == want
            for e in entries:
                if e.kind in ("attr", "require-value", "forbid-present", "forbid-value"):
                    assert e.value == q.request.attributes.get(e.check.attr)

    def test_equal_failures_share_one_entry(self):
        text = (
            'policy "site" source resource { subject any { allow action start;'
            ' attr arguments in {"-v"}; } subject any { allow action status; } }'
        )
        rsl = '&(executable="/x")(arguments="-v" "a b")'
        first, second = (
            decide(_start_query(LOCAL, rsl), PolicySourceSet(parse_policy(text))).trace
            for _ in range(2)
        )
        assert first == second
        assert all(a is b for a, b in zip(first, second))
        attr, action = first
        assert (attr.kind, attr.check, attr.value) == (
            "attr", MayContain("arguments", EnumSpec(("-v",))), ("-v", "a b")
        )
        assert attr.reason == 'attr arguments: value "-v" "a b" fails in {"-v"}'
        assert (action.kind, action.check, action.value) == ("action", None, JobAction.START)
