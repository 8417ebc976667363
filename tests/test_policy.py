"""Policy DSL parsing, printing, matching and lint tests."""

from __future__ import annotations

import dataclasses
import itertools
import random
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from generators import rand_assertion, rand_block, rand_credential, rand_policy, rand_query
from policy_lint import validate_policy
from gridauth import policy
from gridauth.credential import GridCredential
from gridauth.pdp import PolicySourceSet, decide
from gridauth.policy import (
    PERMITTED,
    REFUSED,
    AnySubject,
    BadRangeError,
    BadRegexError,
    EnumSpec,
    Group,
    Identity,
    MaxSpec,
    MayContain,
    MinSpec,
    MisplacedClauseError,
    MustContain,
    MustNotContain,
    OrSpec,
    PolicyDocument,
    PolicyError,
    PolicySyntaxError,
    RangeSpec,
    RegexSpec,
    SubjectBlock,
    applicable_blocks,
    format_policy,
    parse_policy,
)
from gridauth.rsl import INT64_MAX, INT64_MIN, JobAction


def _cred(subject="/O=Grid/CN=alice", vo="fusion", groups=()):
    return GridCredential(subject=subject, expiry=10**9, vo=vo, groups=frozenset(groups))


class TestParse:
    def test_minimal_vo_document(self):
        doc = parse_policy(
            'policy "p" source vo { subject group "analysts" {'
            " allow action start; attr count range 1..512; } }"
        )
        assert doc.name == "p"
        assert doc.source == "vo"
        assert len(doc.blocks) == 1
        block = doc.blocks[0]
        assert block.matcher == Group("analysts")
        assert block.allowed_actions == {JobAction.START}
        assert block.assertions == (MayContain("count", RangeSpec(1, 512)),)

    def test_require_without_spec(self):
        doc = parse_policy(
            'policy "p" source vo { subject any { require attr jobtag; } }'
        )
        assert doc.blocks[0].assertions == (MustContain("jobtag", None),)

    def test_forbid_with_spec(self):
        doc = parse_policy(
            'policy "p" source vo { subject any { forbid attr queue in {"gold"}; } }'
        )
        assert doc.blocks[0].assertions == (
            MustNotContain("queue", EnumSpec(("gold",))),
        )

    def test_bad_range(self):
        with pytest.raises(BadRangeError):
            parse_policy(
                'policy "p" source vo { subject any { attr count range 5..2; } }'
            )

    def test_bad_regex(self):
        with pytest.raises(BadRegexError):
            parse_policy(
                'policy "p" source vo { subject any { attr queue matches "[unclosed"; } }'
            )

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_a_regex_python_warns_about_is_refused(self, action):
        # re caches what it compiles and a failed compile is not cached, so
        # this holds only while nothing compiles "[[a]" without the guard
        text = 'policy "p" source vo { subject any { attr queue matches "[[a]"; } }'
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            with pytest.raises(BadRegexError) as exc:
                parse_policy(text)
        assert str(exc.value) == "line 1: bad regex '[[a]': Possible nested set at position 1"
        assert caught == []

    def test_allocation_in_resource_is_misplaced(self):
        with pytest.raises(MisplacedClauseError):
            parse_policy('policy "p" source resource { allocation 10 cpu-seconds; }')

    def test_trust_in_vo_is_misplaced(self):
        with pytest.raises(MisplacedClauseError):
            parse_policy('policy "p" source vo { trust vo "other"; }')

    def test_jobtag_grant_on_start_is_misplaced(self):
        with pytest.raises(MisplacedClauseError):
            parse_policy(
                'policy "p" source vo { subject any {'
                ' allow action start on jobtag "x"; } }'
            )

    def test_accounting_clauses(self):
        doc = parse_policy(
            'policy "fusion" source vo {\n'
            "  allocation 1000 cpu-seconds;\n"
            '  member-quota "/O=Grid/CN=alice" 600 cpu-seconds;\n'
            "}"
        )
        assert doc.allocation == 1000
        assert doc.member_quotas == {"/O=Grid/CN=alice": 600}

    def test_trust_list(self):
        doc = parse_policy(
            'policy "site" source resource { trust vo "fusion"; trust vo "astro"; }'
        )
        assert doc.trust == ("fusion", "astro")

    def test_or_spec(self):
        doc = parse_policy(
            'policy "p" source vo { subject any { attr count max 4 or min 100; } }'
        )
        assert doc.blocks[0].assertions[0].spec == OrSpec((MaxSpec(4), MinSpec(100)))

    def test_comments_and_syntax_error_position(self):
        with pytest.raises(PolicySyntaxError) as exc:
            parse_policy('# heading\npolicy "p" source vo {\n  bogus;\n}')
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "text, message, line, col",
        [
            # an unterminated string is reported at its opening quote
            ('policy "p', "unterminated string", 1, 8),
            ('policy "p" source resource {\n trust vo "ab\ncd;', "unterminated string", 2, 11),
            # an invalid escape is reported at its backslash
            ('policy "a\\nb"', "invalid escape", 1, 10),
            ('policy "a\nb\\q"', "invalid escape", 2, 2),
            ('policy "ab\\', "invalid escape", 1, 11),
            # a column counts characters, a tab or a CR among them
            ('policy\t"p" @', "unexpected character '@'", 1, 12),
            ("policy\r-", "unexpected character '-'", 1, 8),
            ('policy "p"\r\n  source vo { $ }', "unexpected character '$'", 2, 15),
            ('# say "hi\npolicy "p" ~', "unexpected character '~'", 2, 12),
            ('policy "é" é', "unexpected character 'é'", 1, 12),
            # end of input
            ('policy "p" source vo', "expected '{'", 1, 21),
            ('policy "p" source vo {\n subject any {\n', "unexpected end of subject block", 3, 1),
            # a clause check points at the clause's keyword
            (
                'policy "p" source vo {\n allocation 1 cpu-seconds;\n\tallocation 2 cpu-seconds;',
                "duplicate allocation clause", 3, 2,
            ),
            (
                'policy "p" source resource {\n trust vo "a"; trust vo "b";\n  trust vo "a";',
                "duplicate trust for 'a'", 3, 3,
            ),
        ],
    )
    def test_syntax_error_positions(self, text, message, line, col):
        with pytest.raises(PolicySyntaxError) as exc:
            parse_policy(text)
        assert type(exc.value) is PolicySyntaxError
        assert (exc.value.line, exc.value.col) == (line, col)
        assert str(exc.value) == f"line {line}, col {col}: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                'policy "p" source vo {\n\n  trust vo "x";\n}',
                "line 3: trust clauses belong to resource documents",
            ),
            (
                'policy "p" source resource {\n  # c\n  allocation 5 cpu-seconds;\n}',
                "line 3: allocation clauses belong to vo documents",
            ),
        ],
    )
    def test_misplaced_clause_names_its_line(self, text, message):
        with pytest.raises(MisplacedClauseError) as exc:
            parse_policy(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "literal, value",
        [
            ("9223372036854775807", 2**63 - 1),
            ("-9223372036854775808", -(2**63)),
            ("-0", 0),
            ("0" * 5000 + "7", 7),  # leading zeros do not count
        ],
        ids=["max", "min", "minus-zero", "leading-zeros"],
    )
    def test_int64_literals_in_range(self, literal, value):
        doc = parse_policy(
            f'policy "p" source vo {{ subject any {{ attr count min {literal}; }} }}'
        )
        assert doc.blocks[0].assertions[0].spec == MinSpec(value)

    @pytest.mark.parametrize(
        "literal",
        ["9223372036854775808", "-9223372036854775809", "9" * 5000, "-" + "1" * 4301],
        ids=["max+1", "min-1", "5000-digits", "negative-4301-digits"],
    )
    def test_out_of_range_literal_is_a_syntax_error_at_the_literal(self, literal):
        # more than 4300 digits would make int() raise a plain ValueError
        text = f'policy "p" source vo {{\n  subject any {{\n\tattr count range 1..{literal}; }} }}'
        with pytest.raises(PolicySyntaxError) as exc:
            parse_policy(text)
        assert type(exc.value) is PolicySyntaxError
        assert (exc.value.line, exc.value.col) == (3, 22)
        assert str(exc.value) == "line 3, col 22: integer out of signed 64-bit range"

    def test_bad_character_outranks_an_out_of_range_literal(self):
        text = 'policy "p" source vo {\n  allocation 99999999999999999999 cpu-seconds; @ }'
        with pytest.raises(PolicySyntaxError) as exc:
            parse_policy(text)
        assert str(exc.value) == "line 2, col 48: unexpected character '@'"

    def test_action_list_with_grants(self):
        doc = parse_policy(
            'policy "p" source vo { subject group "admins" {'
            ' allow action suspend, cancel on jobtag "fusion-prod"; } }'
        )
        block = doc.blocks[0]
        assert block.allowed_actions == {JobAction.SUSPEND, JobAction.CANCEL}
        assert block.jobtag_grants == {
            JobAction.SUSPEND: frozenset({"fusion-prod"}),
            JobAction.CANCEL: frozenset({"fusion-prod"}),
        }

    def test_unrestricted_allow_beats_grant(self):
        doc = parse_policy(
            'policy "p" source vo { subject any {'
            " allow action suspend;"
            ' allow action suspend on jobtag "x"; } }'
        )
        assert doc.blocks[0].jobtag_grants == {}


class TestSpecs:
    def test_enum_glob_is_anchored(self):
        spec = EnumSpec(("/opt/vo/dbg/*",))
        assert spec.allows("/opt/vo/dbg/gdb")
        assert not spec.allows("x/opt/vo/dbg/gdb")
        assert spec.allows("/opt/vo/dbg/")
        assert not spec.allows("/opt/vo/dbg")

    def test_enum_literal(self):
        spec = EnumSpec(("batch", "debug"))
        assert spec.allows("batch")
        assert not spec.allows("batch2")
        assert not spec.allows(3)

    def test_regex_is_search(self):
        assert RegexSpec("dbg").allows("/opt/dbg/tool")
        assert not RegexSpec("^dbg").allows("/opt/dbg")

    def test_numeric_specs_reject_text(self):
        assert not RangeSpec(1, 4).allows("2")
        assert not MaxSpec(4).allows("2")
        assert not MinSpec(1).allows(True)

    def test_or(self):
        spec = OrSpec((RangeSpec(1, 2), MinSpec(10)))
        assert spec.allows(1)
        assert spec.allows(11)
        assert not spec.allows(5)


ALICE_DN = "/O=Grid/CN=alice"

#: each constructor given a value the DSL cannot write, by the rule it breaks
REFUSED_BUILDS = [
    *[(f"range lo {n!r}", lambda n=n: RangeSpec(n, INT64_MAX)) for n in (True, 2.5, "7", 2**63)],
    *[(f"range hi {n!r}", lambda n=n: RangeSpec(INT64_MIN, n)) for n in (True, 2.5, "7", 2**63)],
    *[(f"max {n!r}", lambda n=n: MaxSpec(n)) for n in (True, 2.5, "7", 2**63, INT64_MIN - 1)],
    *[(f"min {n!r}", lambda n=n: MinSpec(n)) for n in (True, 2.5, "7", 2**63, INT64_MIN - 1)],
    *[(f"allocation {n!r}", lambda n=n: PolicyDocument("fusion", "vo", allocation=n))
      for n in (True, 2.5, "7", 2**63, -1)],
    *[(f"member-quota {n!r}",
       lambda n=n: PolicyDocument("fusion", "vo", member_quotas={ALICE_DN: n}))
      for n in (True, 2.5, "7", 2**63, -1)],
    ("jobtag grant of no tag", lambda: SubjectBlock(
        AnySubject(), {JobAction.CANCEL}, jobtag_grants={JobAction.CANCEL: ()})),
    ("jobtag grant on a refused action", lambda: SubjectBlock(
        AnySubject(), {JobAction.START}, jobtag_grants={JobAction.CANCEL: {"t"}})),
    *[(f"allowed action {a!r}", lambda a=a: SubjectBlock(AnySubject(), {JobAction.START, a}))
      for a in ("start", "cancel", None, 0)],
    # a value of the wrong type, which format_policy could not write
    ("attr line of no spec", lambda: MayContain("count", None)),
    ("identity of no string", lambda: Identity(5)),
    ("enumeration of a tuple", lambda: EnumSpec((("a",),))),
    ("jobtag grant tag 5", lambda: SubjectBlock(
        AnySubject(), {JobAction.CANCEL}, jobtag_grants={JobAction.CANCEL: {5}})),
    ("require of a number spec", lambda: MustContain("count", 5)),
    ("forbid of a text spec", lambda: MustNotContain("queue", "x")),
    ("or of no spec", lambda: OrSpec((MaxSpec(1), None))),
    # no text parses to an `or` of fewer than two alternatives
    ("or of no alternative", lambda: OrSpec(())),
    ("or of one alternative", lambda: OrSpec((MaxSpec(1),))),
    ("regex of no string", lambda: RegexSpec(5)),
    ("group of no string", lambda: Group(None)),
    # each of these matchers once applied to every subject, and was written `subject any`
    *[(f"matcher {m!r}", lambda m=m: SubjectBlock(m)) for m in (None, "identity", ("x",))],
    ("closed-world of no bool", lambda: SubjectBlock(AnySubject(), closed_world=1)),
    ("policy name of no string", lambda: PolicyDocument(5, "vo")),
    ("trust of no string", lambda: PolicyDocument("site", "resource", trust=(5,))),
    # a bare string would trust each of its characters
    ("trust as one string", lambda: PolicyDocument("site", "resource", trust="fusion")),
    ("trust of one vo twice", lambda: PolicyDocument("site", "resource", trust=("a", "b", "a"))),
    ("member-quota of no subject string", lambda: PolicyDocument("vo", "vo", member_quotas={5: 1})),
    # clauses the parser refuses by where they stand, or never writes
    ("enumeration of no value", lambda: EnumSpec(())),
    ("jobtag grant on start", lambda: SubjectBlock(
        AnySubject(), {JobAction.START}, jobtag_grants={JobAction.START: {"t"}})),
    ("source of no kind", lambda: PolicyDocument("p", "site")),
    ("allocation in a resource document", lambda: PolicyDocument("site", "resource", allocation=10)),
    ("trust in a vo document", lambda: PolicyDocument("fusion", "vo", trust=("astro",))),
]


class TestConstructorsRefuseWhatTheParserRefuses:
    @pytest.mark.parametrize(
        "build", [b for _, b in REFUSED_BUILDS], ids=[i for i, _ in REFUSED_BUILDS]
    )
    def test_refused(self, build):
        with pytest.raises(PolicyError):
            build()

    @pytest.mark.parametrize("trust, message", [
        ("fusion", "trust must list vo names, not the string 'fusion'"),
        (("fusion", "astro", "astro", "fusion"), "trusted vo 'astro' is listed twice"),
    ])
    def test_trust_names_each_vo_once(self, trust, message):
        with pytest.raises(PolicyError) as exc:
            PolicyDocument("site", "resource", trust=trust)
        assert str(exc.value) == message
        assert PolicyDocument("site", "resource", trust=["fusion"]).trust == ("fusion",)

    def test_nested_or_is_built_flat(self):
        """As its text reparses: ``max 1 or min 9 or min 5``."""
        flat = OrSpec((MaxSpec(1), MinSpec(9), MinSpec(5)))
        assert OrSpec((OrSpec((MaxSpec(1), MinSpec(9))), MinSpec(5))) == flat
        assert OrSpec((MaxSpec(1), OrSpec((MinSpec(9), MinSpec(5))))) == flat
        assert OrSpec([MaxSpec(1), MinSpec(9), MinSpec(5)]) == flat
        # one nested alternative of two is two alternatives
        assert OrSpec((OrSpec((MaxSpec(1), MinSpec(9))),)) == OrSpec((MaxSpec(1), MinSpec(9)))


class TestApplicableBlocks:
    def test_group_matching(self):
        doc = parse_policy(
            'policy "p" source vo {'
            ' subject group "developers" { allow action start; }'
            ' subject group "analysts" { allow action start; } }'
        )
        got = applicable_blocks(doc, _cred(groups={"analysts"}))
        assert got == [doc.blocks[1]]

    def test_no_vo_credential_matches_no_groups(self):
        doc = parse_policy(
            'policy "p" source vo { subject group "g" { allow action start; } }'
        )
        assert applicable_blocks(doc, _cred(vo=None, groups=())) == []

    def test_any_always_included(self):
        doc = parse_policy('policy "p" source vo { subject any { } }')
        assert applicable_blocks(doc, _cred(vo=None)) == [doc.blocks[0]]

    def test_identity_exact(self):
        doc = parse_policy(
            'policy "p" source vo { subject identity "/O=Grid/CN=alice" { } }'
        )
        assert applicable_blocks(doc, _cred()) == [doc.blocks[0]]
        assert applicable_blocks(doc, _cred(subject="/O=Grid/CN=bob")) == []

    @given(
        small=st.frozensets(st.sampled_from(["g1", "g2", "g3"]), max_size=2),
        extra=st.sampled_from(["g1", "g2", "g3"]),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matcher_monotonicity(self, small, extra, data):
        rng = random.Random(data.draw(st.integers(0, 2**31)))
        doc = rand_policy(rng, "vo")
        before = applicable_blocks(doc, _cred(groups=small))
        after = applicable_blocks(doc, _cred(groups=small | {extra}))
        assert set(map(id, before)) <= set(map(id, after))


def _block_universe(block):
    """Candidate values per attribute named by the block, plus 'absent'."""
    attrs = sorted({a.attr for a in block.assertions})
    options = {}
    for attr in attrs:
        values = {None, "zzz", 0, 7}
        for a in block.assertions:
            if a.attr != attr or a.spec is None:
                continue
            specs = [a.spec]
            while specs:
                spec = specs.pop()
                if isinstance(spec, EnumSpec):
                    values.update(v for v in spec.values if "*" not in v)
                elif isinstance(spec, RangeSpec):
                    values.update((spec.lo, spec.hi))
                elif isinstance(spec, (MaxSpec, MinSpec)):
                    values.update((spec.bound, spec.bound + 1, spec.bound - 1))
                elif isinstance(spec, OrSpec):
                    specs.extend(spec.alternatives)
        options[attr] = sorted(values, key=repr)
    return attrs, options


def _brute_force_unsatisfiable(block) -> bool:
    attrs, options = _block_universe(block)
    block = SubjectBlock(
        matcher=block.matcher,
        allowed_actions=block.allowed_actions | {JobAction.START},
        jobtag_grants=block.jobtag_grants,
        assertions=block.assertions,
        closed_world=block.closed_world,
    )
    for combo in itertools.product(*(options[a] for a in attrs)):
        request = {a: v for a, v in zip(attrs, combo) if v is not None}
        if oracle.block_permits_start(block, request):
            return False
    return True


#: every matcher of the small scope, and every credential it is judged against
_SMALL_MATCHERS = (
    AnySubject(), Identity("/O=Grid/CN=a"), Identity("/O=Grid/CN=b"), Group("g"), Group("h")
)
_SMALL_CREDENTIALS = [
    _cred(subject=f"/O=Grid/CN={who}", groups=groups)
    for who in "abc"
    for groups in ((), ("g",), ("h",), ("g", "h"))
]


class TestSubjectMatchingInASmallScope:
    """Every document of 0-3 blocks over five matchers, against every
    credential of three subjects and the subsets of two groups."""

    def test_every_case_equals_the_oracle(self):
        cases = 0
        for size in range(4):
            for matchers in itertools.product(_SMALL_MATCHERS, repeat=size):
                blocks = tuple(SubjectBlock(m) for m in matchers)
                shared = PolicyDocument("p", "vo", blocks=blocks)
                for cred in _SMALL_CREDENTIALS:
                    expected = tuple(
                        i for i, m in enumerate(matchers)
                        if oracle.matcher_applies(m, cred.subject, cred.groups)
                    )
                    doc = PolicyDocument("p", "vo", blocks=blocks)
                    cold = doc.applicable_indices(cred.subject, cred.groups)
                    warm = doc.applicable_indices(cred.subject, cred.groups)
                    assert cold == expected and warm is cold
                    assert applicable_blocks(doc, cred) == [blocks[i] for i in expected]
                    assert shared.applicable_indices(cred.subject, cred.groups) == expected
                    cases += 1
                for cred in _SMALL_CREDENTIALS:  # the shared memo now holds every key
                    assert applicable_blocks(shared, cred) == [
                        b for b in blocks if oracle.matcher_applies(b.matcher, cred.subject, cred.groups)
                    ]
        assert cases == (1 + 5 + 25 + 125) * 12

    def test_the_oracle_refuses_an_unknown_matcher(self):
        with pytest.raises(TypeError, match="unknown matcher"):
            oracle.matcher_applies(("x",), "/O=Grid/CN=a", frozenset())


class TestValidate:
    def test_require_and_forbid_same_attr_is_always_deny(self):
        doc = parse_policy(
            'policy "p" source vo { subject any {'
            " allow action start; require attr jobtag; forbid attr jobtag; } }"
        )
        diags = validate_policy(doc)
        assert [d.code for d in diags] == ["always-deny"]
        assert _brute_force_unsatisfiable(doc.blocks[0])

    def test_enum_subset_forbidden_is_always_deny(self):
        doc = parse_policy(
            'policy "p" source vo { subject any {'
            ' require attr queue in {"gold"}; forbid attr queue in {"gold", "free"}; } }'
        )
        diags = validate_policy(doc)
        assert [d.code for d in diags] == ["always-deny"]
        assert _brute_force_unsatisfiable(doc.blocks[0])

    def test_range_inside_forbidden_interval_is_always_deny(self):
        doc = parse_policy(
            'policy "p" source vo { subject any {'
            " require attr count range 2..3; forbid attr count max 5; } }"
        )
        diags = validate_policy(doc)
        assert [d.code for d in diags] == ["always-deny"]
        assert _brute_force_unsatisfiable(doc.blocks[0])

    def test_range_in_the_gap_of_a_forbidden_or_is_not_flagged(self):
        # the or's hull 1..30 covers 12..15, but neither alternative does
        doc = parse_policy(
            'policy "p" source vo { subject any { allow action start;'
            " require attr count range 12..15; forbid attr count range 1..10 or range 20..30; } }"
        )
        assert validate_policy(doc) == []
        assert not _brute_force_unsatisfiable(doc.blocks[0])

    def test_overlap_without_containment_is_not_flagged(self):
        doc = parse_policy(
            'policy "p" source vo { subject any {'
            ' require attr queue in {"gold", "free"}; forbid attr queue in {"gold"}; } }'
        )
        assert validate_policy(doc) == []
        assert not _brute_force_unsatisfiable(doc.blocks[0])

    def test_quota_exceeding_allocation(self):
        doc = parse_policy(
            'policy "p" source vo { allocation 1000 cpu-seconds;'
            ' member-quota "/O=Grid/CN=a" 2000 cpu-seconds; }'
        )
        diags = validate_policy(doc)
        assert [d.code for d in diags] == ["quota-exceeds-allocation"]

    def test_shadowed_matcher(self):
        doc = parse_policy(
            'policy "p" source vo {'
            ' subject group "g" { allow action start; }'
            ' subject group "g" { allow action cancel; } }'
        )
        diags = validate_policy(doc)
        assert [d.code for d in diags] == ["shadowed-block"]
        assert diags[0].block == 1

    def test_clean_document(self):
        doc = parse_policy(
            'policy "p" source vo { allocation 100 cpu-seconds;'
            ' member-quota "/O=Grid/CN=a" 50 cpu-seconds;'
            ' subject any { allow action start; require attr jobtag in {"t"}; } }'
        )
        assert validate_policy(doc) == []

    def test_every_flagged_always_deny_is_confirmed_by_brute_force(self):
        rng = random.Random(20260810)
        flagged = 0
        for _ in range(400):
            doc = rand_policy(rng, "vo")
            for diag in validate_policy(doc):
                if diag.code != "always-deny":
                    continue
                flagged += 1
                assert _brute_force_unsatisfiable(doc.blocks[diag.block])
        assert flagged >= 5  # the generator must actually exercise the lint


class TestGlobDifferential:
    @given(
        pattern=st.text(alphabet="ab*/", max_size=8),
        value=st.text(alphabet="ab/", max_size=8),
    )
    @settings(max_examples=500, deadline=None)
    def test_enum_glob_agrees_with_segment_scanner(self, pattern, value):
        # regex translation on one side, greedy segment scan on the other
        assert EnumSpec((pattern,)).allows(value) == oracle.glob_match(pattern, value)


def _reference_allows(values, value) -> bool:
    """The per-value matcher EnumSpec replaced: one anchored regex a value."""
    return isinstance(value, str) and any(
        re.compile("(?s)" + ".*".join(re.escape(p) for p in v.split("*")) + r"\Z").match(value)
        for v in values
    )


#: regex metacharacters, runs of '*', backslashes and newlines
_ENUM_TEXT = st.text(alphabet="ab*\\.^$|()[]{}?+\n\r\t-#é", max_size=8)


class TestEnumSpecMatching:
    @given(
        values=st.lists(
            st.one_of(_ENUM_TEXT, st.sampled_from(["", "*", "**", "a**b", "\\*"])),
            min_size=1,
            max_size=4,
        ),
        value=st.one_of(
            _ENUM_TEXT,
            st.text(max_size=6),
            st.integers(),
            st.booleans(),
            st.lists(st.text(alphabet="ab*", max_size=3), max_size=2),
            st.none(),
        ),
        data=st.data(),
    )
    @settings(max_examples=1000, deadline=None)
    def test_allows_equals_a_regex_per_value(self, values, value, data):
        if data.draw(st.booleans()):  # often test one of the values itself
            value = data.draw(st.sampled_from(values))
        assert EnumSpec(tuple(values)).allows(value) == _reference_allows(values, value)


_INT64 = st.one_of(
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -(2**31), -1, 0, 1, 2**31, INT64_MAX - 1, INT64_MAX]),
)
_SPEC_TEXT = st.text(alphabet="ab*/.\n", max_size=6)
_PATTERNS = ["a", "^a", "b$", "a.b", "^(a|b)*$", "[ab]{2}", "\\.", "(?s)a.*b", "^$", "/\\*"]


#: every spec kind, and `or`s of them nested (which `OrSpec` flattens)
_SPECS = st.recursive(
    st.one_of(
        st.lists(_SPEC_TEXT, min_size=1, max_size=4).map(lambda vs: EnumSpec(tuple(vs))),
        st.tuples(_INT64, _INT64).map(lambda ends: RangeSpec(*sorted(ends))),
        _INT64.map(MaxSpec),
        _INT64.map(MinSpec),
        st.sampled_from(_PATTERNS).map(RegexSpec),
    ),
    lambda inner: st.lists(inner, min_size=2, max_size=3).map(lambda alts: OrSpec(tuple(alts))),
    max_leaves=6,
)


def _near(spec) -> list:
    """Strategies for values at or next to the edges of what ``spec``
    allows: its ints and their neighbours, its enumeration values with
    each ``*`` filled, and strings its regex finds."""
    if isinstance(spec, OrSpec):
        return [near for alt in spec.alternatives for near in _near(alt)]
    if isinstance(spec, EnumSpec):
        filled = st.tuples(st.sampled_from(spec.values), _SPEC_TEXT)
        return [filled.map(lambda vf: vf[0].replace("*", vf[1]))]
    if isinstance(spec, RegexSpec):
        return [st.from_regex(spec.pattern)]
    ends = (spec.lo, spec.hi) if isinstance(spec, RangeSpec) else (spec.bound,)
    return [st.sampled_from([end + step for end in ends for step in (-1, 0, 1)])]


class TestSpecsAgreeWithTheOracle:
    @given(spec=_SPECS, data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_allows_agrees_with_the_oracle(self, spec, data):
        value = data.draw(st.one_of(
            *_near(spec),
            _INT64,
            _SPEC_TEXT,
            st.booleans(),
            st.lists(_SPEC_TEXT, min_size=1, max_size=3),
        ))
        assert spec.allows(value) is oracle.spec_allows(spec, value)


class TestRejectionTotality:
    @given(st.text(max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_parser_raises_only_policy_errors(self, text):
        from gridauth.policy import PolicyError

        try:
            parse_policy(text)
        except PolicyError:
            pass


def _compiles(pattern: str) -> bool:
    """Whether `RegexSpec` takes the pattern; one Python warns about, such
    as "[[", it refuses under every warning filter."""
    try:
        RegexSpec(pattern)
    except BadRegexError:
        return False
    return True


@st.composite
def documents_with_arbitrary_strings(draw):
    """Documents whose every quoted string is arbitrary text."""
    text = st.text(max_size=12) | st.text('"\\#\n\r\t {};,.*é', max_size=12)
    texts = st.lists(text, min_size=1, max_size=3)
    blocks = (
        SubjectBlock(
            matcher=Identity(draw(text)),
            allowed_actions=frozenset({JobAction.CANCEL}),
            jobtag_grants={JobAction.CANCEL: frozenset(draw(texts))},
            assertions=(
                MayContain("queue", EnumSpec(tuple(draw(texts)))),
                MustNotContain("executable", RegexSpec(draw(text.filter(_compiles)))),
            ),
        ),
        SubjectBlock(matcher=Group(draw(text)), allowed_actions=frozenset({JobAction.START})),
    )
    return PolicyDocument(
        name=draw(text), source="vo", blocks=blocks, member_quotas={draw(text): 5}
    )


@st.composite
def generated_documents(draw):
    """A `generators.rand_policy` document of either source."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    return rand_policy(rng, draw(st.sampled_from(("resource", "vo"))), with_accounting=True)


INT64 = st.integers(INT64_MIN, INT64_MAX) | st.sampled_from((INT64_MIN, -1, 0, 1, INT64_MAX))
AMOUNTS = st.integers(0, INT64_MAX) | st.sampled_from((0, 1, INT64_MAX - 1, INT64_MAX))


@st.composite
def documents_at_the_int64_edges(draw):
    """Documents whose bounds and amounts reach the ends of signed 64-bit,
    with `or` specs built nested, and resource documents whose trust lines
    are in any order."""
    lo, hi = sorted((draw(INT64), draw(INT64)))
    nested = OrSpec((MaxSpec(draw(INT64)), MinSpec(draw(INT64))))
    specs = (RangeSpec(lo, hi), MaxSpec(draw(INT64)), MinSpec(draw(INT64)),
             OrSpec((MinSpec(draw(INT64)), RangeSpec(hi, hi))),
             # built nested, on either side: the text of either reparses flat
             OrSpec((nested, RangeSpec(lo, lo))), OrSpec((RangeSpec(hi, hi), nested)))
    block = SubjectBlock(
        AnySubject(), {JobAction.START},
        assertions=tuple(draw(st.sampled_from((MayContain, MustContain)))("count", spec)
                         for spec in specs),
    )
    if draw(st.booleans()):
        trust = draw(st.lists(st.sampled_from("abc"), max_size=3, unique=True))
        return PolicyDocument("site", "resource", blocks=(block,), trust=trust)
    return PolicyDocument(
        "fusion", "vo", blocks=(block,), allocation=draw(st.none() | AMOUNTS),
        member_quotas=draw(st.dictionaries(st.sampled_from(("/CN=a", "/CN=b")), AMOUNTS)),
    )


class TestRoundTrip:
    @given(documents_with_arbitrary_strings())
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_strings_round_trip(self, doc):
        assert parse_policy(format_policy(doc)) == doc

    def test_format_parse_round_trip_fixed(self):
        text = (
            'policy "fusion" source vo {\n'
            "  allocation 1000 cpu-seconds;\n"
            '  member-quota "/O=Grid/CN=alice" 600 cpu-seconds;\n'
            '  subject group "developers" {\n'
            "    allow action start;\n"
            '    allow action suspend, cancel on jobtag "dev", "prod";\n'
            '    attr executable in {"/opt/vo/dbg/*"};\n'
            "    attr maxcputime max 600;\n"
            "    require attr jobtag;\n"
            '    forbid attr queue in {"gold"};\n'
            "    closed-world;\n"
            "  }\n"
            "}\n"
        )
        doc = parse_policy(text)
        assert parse_policy(format_policy(doc)) == doc

    @given(st.one_of(generated_documents(), documents_with_arbitrary_strings(),
                     documents_at_the_int64_edges()))
    @settings(max_examples=300, deadline=None)
    def test_every_built_document_round_trips(self, doc):
        assert parse_policy(format_policy(doc)) == doc

    def test_trust_lines_keep_their_order(self):
        doc = parse_policy('policy "site" source resource { trust vo "b"; trust vo "a"; }')
        assert doc.trust == ("b", "a")
        assert format_policy(doc).splitlines()[1:3] == ['  trust vo "b";', '  trust vo "a";']
        assert parse_policy(format_policy(doc)) == doc

    def test_formatting_is_a_fixed_point(self):
        doc = parse_policy(
            'policy "p" source resource { trust vo "fusion";'
            " subject any { allow action start; } }"
        )
        once = format_policy(doc)
        assert format_policy(parse_policy(once)) == once

    def test_random_documents_round_trip(self):
        rng = random.Random(7)
        for _ in range(300):
            source = rng.choice(("resource", "vo"))
            doc = rand_policy(rng, source, with_accounting=(source == "vo"))
            assert parse_policy(format_policy(doc)) == doc


# ---------------------------------------------------------------------------
# Compiled form: per-block checks, per-action tables and the subject memo
# ---------------------------------------------------------------------------


def _recompiled(block: SubjectBlock) -> tuple:
    """``(checks, accepted names)`` recomputed from the block's assertions:
    the checks a ``start`` plan runs, and the names a closed-world block
    accepts, or None for an open block."""
    unions: dict = {}
    for a in block.assertions:
        if isinstance(a, MayContain):
            unions.setdefault(a.attr, []).append(a.spec)
    checks, seen = [], set()
    for a in block.assertions:
        if not isinstance(a, MayContain):
            checks.append(a)
        elif a.attr not in seen:
            seen.add(a.attr)
            specs = unions[a.attr]
            checks.append(MayContain(a.attr, specs[0] if len(specs) == 1 else OrSpec(specs)))
    names = {a.attr for a in block.assertions if isinstance(a, (MayContain, MustContain))}
    return tuple(checks), (frozenset(names) if block.closed_world else None)


def _start_entry(block: SubjectBlock) -> tuple:
    """The block's compiled ``start`` entry, as its ``(checks, accepted
    names)``, read from a one-block document's table."""
    plan, accepted = PolicyDocument("p", "vo", blocks=(block,)).tables[JobAction.START][0]
    return tuple(step[3] for step in plan), accepted


def _recompiled_tables(doc: PolicyDocument) -> dict:
    """``tables`` recomputed from each block's allowed actions, jobtag
    grants and recompiled checks."""
    kinds = {MayContain: "attr", MustContain: "require", MustNotContain: "forbid"}
    tables = {}
    for action in JobAction:
        column = []
        for block in doc.blocks:
            if action not in block.allowed_actions:
                column.append(REFUSED)
            elif action is JobAction.START:
                checks, accepted = _recompiled(block)
                plan = tuple(
                    (c.attr, kinds[type(c)], None if c.spec is None else c.spec.allows, c)
                    for c in checks
                )
                column.append((plan, accepted))
            else:
                column.append(block.jobtag_grants.get(action, PERMITTED))
        tables[action] = tuple(column)
    return tables


def _by_value(tables: dict) -> dict:
    """``tables`` with each plan step's test, once it is checked to be the
    very ``allows`` object its assertion's spec compiled (None for a check
    without a spec), replaced by that spec, so that the steps of equal
    specs compare equal (a compiled test equals only itself)."""
    def entry(action, e):
        if action is not JobAction.START or e == REFUSED:
            return e
        plan, accepted = e
        steps = []
        for name, kind, allows, assertion in plan:
            spec = assertion.spec
            assert allows is (None if spec is None else spec.allows)
            steps.append((name, kind, spec, assertion))
        return tuple(steps), accepted

    return {action: tuple(entry(action, e) for e in column) for action, column in tables.items()}


def _sandbox_block(rng: random.Random) -> SubjectBlock:
    """A `rand_block` draw whose ``count`` and ``queue`` assertions are
    renamed to ``maxcputime`` or ``maxmemory``, so that its checks set
    caps with numeric, text and mixed specs."""
    block = rand_block(rng)
    names = {attr: rng.choice(("maxcputime", "maxmemory")) for attr in ("count", "queue")}
    return dataclasses.replace(block, assertions=tuple(
        dataclasses.replace(a, attr=names.get(a.attr, a.attr)) for a in block.assertions
    ))


def _recomputed_caps(block: SubjectBlock) -> tuple:
    """``caps`` recomputed from the block's recompiled checks, with the
    oracle's probe for the largest value each spec allows."""
    checks, _ = _recompiled(block)
    caps = []
    for attr in ("maxcputime", "maxmemory"):
        found = [
            oracle.spec_cap(c.spec)
            for c in checks
            if c.attr == attr and c.spec is not None and not isinstance(c, MustNotContain)
        ]
        caps.append(min((cap for cap in found if cap is not None and cap >= 1), default=None))
    return tuple(caps)


def _caps_of(body: str) -> tuple:
    """The caps of the one ``start`` block whose other clauses are ``body``."""
    text = f'policy "p" source vo {{ subject any {{ allow action start; {body} }} }}'
    return parse_policy(text).blocks[0].caps


def _random_documents():
    """500 seeded ``(document, credential)`` pairs: up to 14 random blocks
    with repeated DNs, groups and several ``any`` blocks."""
    rng = random.Random(0x1DE)
    extra = (
        SubjectBlock(Identity("/O=Test/CN=u1")),
        SubjectBlock(AnySubject()),
        SubjectBlock(Group("g1")),
    )
    for _ in range(500):
        blocks = [rand_block(rng) for _ in range(rng.randrange(0, 12))]
        for block in rng.sample(extra, rng.randrange(0, 4)):
            blocks.insert(rng.randrange(len(blocks) + 1), block)
        doc = PolicyDocument("big", rng.choice(("resource", "vo")), blocks=blocks)
        yield doc, rand_credential(rng, vo=rng.choice(("fusion", None)))


def _scanned(doc: PolicyDocument, cred: GridCredential) -> tuple:
    return tuple(
        i
        for i, b in enumerate(doc.blocks)
        if oracle.matcher_applies(b.matcher, cred.subject, cred.groups)
    )


PINNED = parse_policy(
    'policy "p" source vo { allocation 10 cpu-seconds;'
    ' subject identity "/O=Grid/CN=alice" { allow action start; attr count max 4;'
    " require attr jobtag; attr count range 8..9; closed-world; }"
    ' subject any { allow action cancel on jobtag "t"; } }'
)


class TestCompiledForm:
    def test_applicable_indices_equal_a_scan(self):
        for doc, cred in _random_documents():
            expected = _scanned(doc, cred)
            assert doc.applicable_indices(cred.subject, cred.groups) == expected
            assert applicable_blocks(doc, cred) == [doc.blocks[i] for i in expected]

    def test_applicable_indices_edge_cases(self):
        doc = PolicyDocument(
            "p",
            "vo",
            blocks=(
                SubjectBlock(Identity("/O=Grid/CN=alice")),
                SubjectBlock(AnySubject()),
                SubjectBlock(Group("g")),
                SubjectBlock(Identity("/O=Grid/CN=alice")),
                SubjectBlock(AnySubject()),
            ),
        )
        assert doc.applicable_indices("/O=Grid/CN=alice", frozenset({"g"})) == (0, 1, 2, 3, 4)
        assert doc.applicable_indices("/O=Grid/CN=alice", frozenset()) == (0, 1, 3, 4)
        assert doc.applicable_indices("/O=Grid/CN=bob", frozenset()) == (1, 4)
        assert PolicyDocument("e", "vo").applicable_indices("x", frozenset({"g"})) == ()

    def test_checks_and_names_equal_a_recomputation(self):
        rng = random.Random(0xC0)
        for _ in range(500):
            block = rand_block(rng)
            start = block.allowed_actions | {JobAction.START}
            block = dataclasses.replace(block, allowed_actions=start)
            assert _start_entry(block) == _recompiled(block)
        assert _start_entry(PINNED.blocks[0]) == (
            (MayContain("count", OrSpec((MaxSpec(4), RangeSpec(8, 9)))), MustContain("jobtag")),
            {"count", "jobtag"},
        )

    def test_tables_equal_a_recomputation(self):
        for doc, _ in _random_documents():
            assert _by_value(doc.tables) == _by_value(_recompiled_tables(doc))
        union, jobtag = _start_entry(PINNED.blocks[0])[0]
        assert PINNED.tables == {
            JobAction.START: (
                (
                    (
                        ("count", "attr", union.spec.allows, union),
                        ("jobtag", "require", None, MustContain("jobtag")),
                    ),
                    frozenset({"count", "jobtag"}),
                ),
                REFUSED,
            ),
            JobAction.CANCEL: (REFUSED, frozenset({"t"})),
            JobAction.STATUS: (REFUSED, REFUSED),
            JobAction.SUSPEND: (REFUSED, REFUSED),
            JobAction.RESUME: (REFUSED, REFUSED),
            JobAction.SET_PRIORITY: (REFUSED, REFUSED),
        }
        # the union's test is a loop over its alternatives' own compiled tests
        assert union.spec.alternatives == (MaxSpec(4), RangeSpec(8, 9))
        assert [cell.cell_contents for cell in union.spec.allows.__closure__] == [
            tuple(alt.allows for alt in union.spec.alternatives)
        ]
        open_block = SubjectBlock(AnySubject(), {JobAction.START, JobAction.STATUS})
        assert PolicyDocument("e", "vo", blocks=(open_block,)).tables == {
            JobAction.START: (((), None),),
            JobAction.STATUS: (PERMITTED,),
            **dict.fromkeys(
                (JobAction.CANCEL, JobAction.SUSPEND, JobAction.RESUME, JobAction.SET_PRIORITY),
                (REFUSED,),
            ),
        }
        assert PolicyDocument("e", "vo").tables == dict.fromkeys(JobAction, ())

    def test_caps_equal_a_recomputation(self):
        rng = random.Random(0xCA95)
        capped = 0
        for _ in range(500):
            block = _sandbox_block(rng)
            assert block.caps == _recomputed_caps(block)
            capped += block.caps != (None, None)
        assert capped > 50
        assert PINNED.blocks[0].caps == (None, None)  # count is no sandbox attribute

    def test_caps_of_hand_picked_blocks(self):
        assert _caps_of("") == (None, None)
        assert _caps_of("require attr maxcputime max 300;") == (300, None)
        assert _caps_of("require attr maxcputime;") == (None, None)
        assert _caps_of("forbid attr maxmemory max 100;") == (None, None)
        assert _caps_of("forbid attr maxcputime range 1..9; attr maxcputime max 20;") == (20, None)
        # an `or` with an open upper end caps nothing; a closed one caps at its hull
        assert _caps_of("attr maxcputime max 50 or min 10;") == (None, None)
        assert _caps_of("attr maxcputime range 1..40 or range 60..90;") == (90, None)
        assert _caps_of('attr maxmemory in {"big"} or max 7;') == (None, None)
        # the attributes are positive, so a bound below 1 caps nothing
        assert _caps_of("attr maxmemory max 0;") == (None, None)
        assert _caps_of("attr maxmemory range -5..0; require attr maxcputime max 1;") == (1, None)
        # the least bound within the block, over attr unions and require specs
        assert _caps_of(
            "attr maxcputime max 600; require attr maxcputime range 1..400;"
            " attr maxmemory max 4096; attr maxmemory max 8192;"
        ) == (400, 8192)

    def test_caps_stay_out_of_equality_repr_and_text(self):
        caps = {f.name: f for f in dataclasses.fields(SubjectBlock)}["caps"]
        assert (caps.init, caps.compare, caps.repr) == (False, False, False)
        block = SubjectBlock(AnySubject(), {JobAction.START}, assertions=(
            MayContain("maxcputime", MaxSpec(9)), MustContain("maxmemory", RangeSpec(2, 5)),
        ))
        assert block.caps == (9, 5)
        assert "caps" not in repr(block) and "(9, 5)" not in repr(block)
        twin = dataclasses.replace(block)
        object.__setattr__(twin, "caps", (1, 1))
        assert twin == block
        rng = random.Random(0xCA96)
        for _ in range(100):
            doc = PolicyDocument("p", "vo", blocks=[_sandbox_block(rng) for _ in range(3)])
            again = parse_policy(format_policy(doc))
            assert [b.caps for b in again.blocks] == [b.caps for b in doc.blocks]

    def test_replace_recomputes(self):
        block = PINNED.blocks[0]
        changed = dataclasses.replace(
            block, assertions=(MustNotContain("queue"), MayContain("queue", MaxSpec(1)))
        )
        assert _start_entry(changed) == (
            (MustNotContain("queue"), MayContain("queue", MaxSpec(1))), {"queue"}
        )
        assert _start_entry(changed) == _recompiled(changed)

        doc = dataclasses.replace(PINNED, blocks=(SubjectBlock(Group("g")),) + PINNED.blocks)
        assert _by_value(doc.tables) == _by_value(_recompiled_tables(doc))
        assert doc.applicable_indices("/O=Grid/CN=alice", frozenset({"g"})) == (0, 1, 2)
        assert doc.applicable_indices("/O=Grid/CN=bob", frozenset()) == (2,)

    def test_equality_repr_and_text_are_unchanged(self):
        again = PolicyDocument(
            PINNED.name, PINNED.source, blocks=list(PINNED.blocks), allocation=10
        )
        assert again == PINNED and again is not PINNED
        again.applicable_indices("/O=Memo/CN=only-here", frozenset())  # the memo is no field
        assert again == PINNED and again._subjects != PINNED._subjects
        assert [f.name for f in dataclasses.fields(SubjectBlock) if f.compare] == [
            "matcher",
            "allowed_actions",
            "jobtag_grants",
            "assertions",
            "closed_world",
        ]
        assert repr(PINNED) == (
            "PolicyDocument(name='p', source='vo', blocks=(SubjectBlock("
            "matcher=Identity(dn='/O=Grid/CN=alice'), "
            "allowed_actions=frozenset({<JobAction.START: 'start'>}), jobtag_grants={}, "
            "assertions=(MayContain(attr='count', spec=MaxSpec(bound=4)), "
            "MustContain(attr='jobtag', spec=None), "
            "MayContain(attr='count', spec=RangeSpec(lo=8, hi=9))), closed_world=True), "
            "SubjectBlock(matcher=AnySubject(), "
            "allowed_actions=frozenset({<JobAction.CANCEL: 'cancel'>}), "
            "jobtag_grants={<JobAction.CANCEL: 'cancel'>: frozenset({'t'})}, "
            "assertions=(), closed_world=False)), trust=(), allocation=10, member_quotas={})"
        )
        assert format_policy(PINNED) == (
            'policy "p" source vo {\n'
            "  allocation 10 cpu-seconds;\n"
            '  subject identity "/O=Grid/CN=alice" {\n'
            "    allow action start;\n"
            "    attr count max 4;\n"
            "    require attr jobtag;\n"
            "    attr count range 8..9;\n"
            "    closed-world;\n"
            "  }\n"
            "  subject any {\n"
            '    allow action cancel on jobtag "t";\n'
            "  }\n"
            "}\n"
        )


class TestSubjectMemo:
    """`PolicyDocument.applicable_indices` memoizes per subject and groups."""

    def test_memo_equals_a_scan(self, monkeypatch):
        monkeypatch.setattr(policy, "SUBJECT_CACHE_SIZE", 3)
        for doc, cred in _random_documents():
            expected = _scanned(doc, cred)
            first = doc.applicable_indices(cred.subject, cred.groups)
            assert first == expected
            assert doc.applicable_indices(cred.subject, cred.groups) is first
            assert doc.applicable_indices(cred.subject, set(cred.groups)) is first
            for k in range(3):  # the third other subject finds the memo full
                doc.applicable_indices(f"/O=Other/CN={k}", frozenset())
                assert len(doc._subjects) <= 3
            assert (cred.subject, cred.groups) not in doc._subjects
            assert doc.applicable_indices(cred.subject, cred.groups) == expected
            assert len(doc._subjects) <= 3
            assert dataclasses.replace(doc)._subjects == {}

    def test_a_decision_after_eviction_equals_the_one_before(self, monkeypatch):
        monkeypatch.setattr(policy, "SUBJECT_CACHE_SIZE", 2)
        rng = random.Random(0x3E30)
        for _ in range(200):
            sources = PolicySourceSet(
                rand_policy(rng, "resource"), rand_policy(rng, "vo", with_accounting=True)
            )
            q = rand_query(rng, rand_credential(rng), with_budget=True)
            before = decide(q, sources)
            for doc in sources:
                for k in range(2):
                    doc.applicable_indices(f"/O=Other/CN={k}", frozenset())
                assert (q.credential.subject, q.credential.groups) not in doc._subjects
            assert decide(q, sources) == before


class TestAssertionHash:
    @given(st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_equal_assertions_hash_equal(self, seed):
        a = rand_assertion(random.Random(seed))
        twin = rand_assertion(random.Random(seed))
        assert a == twin and a is not twin and hash(a) == hash(twin)
        replaced = dataclasses.replace(a, attr=a.attr)
        assert replaced == a and hash(replaced) == hash(a)
        must, must_not = MustContain(a.attr, a.spec), MustNotContain(a.attr, a.spec)
        assert must != must_not and len({must, must_not}) == 2

    @pytest.mark.parametrize("cls", [MayContain, MustContain, MustNotContain])
    @pytest.mark.parametrize("name", [["count"], 5, "Count"], ids=["list", "int", "upper"])
    def test_a_bad_name_is_refused_by_the_block(self, cls, name):
        with pytest.raises(PolicyError, match="is not lower-case"):
            SubjectBlock(AnySubject(), assertions=(cls(name, MaxSpec(1)),))
