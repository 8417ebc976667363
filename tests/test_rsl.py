"""RSL grammar, normalization and canonical round-trip tests."""

from __future__ import annotations

import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridauth.rsl import (
    AttributeTypeError,
    DuplicateAttributeError,
    EmptyRequestError,
    INT64_MAX,
    INT64_MIN,
    JobAction,
    RslError,
    RslRequest,
    RslSyntaxError,
    parse_rsl,
)
from rsl_reference import serialize_rsl

# the README's list of well-known attributes, written out here rather than
# read from gridauth.rsl, so a change to the type table shows as a failure
INT_ATTRIBUTES = frozenset({"count", "maxmemory", "maxcputime"})
TEXT_ATTRIBUTES = frozenset({"executable", "queue", "jobtag", "directory", "stdout", "stderr"})
WELL_KNOWN_ATTRIBUTES = INT_ATTRIBUTES | TEXT_ATTRIBUTES | {"arguments"}


class TestParse:
    def test_basic_request(self):
        req = parse_rsl('&(executable="/bin/date")(count=1)')
        assert req.attributes == {"executable": "/bin/date", "count": 1}

    def test_names_lowercased(self):
        req = parse_rsl('&(Executable="/bin/x")(JOBTAG="fusion-prod")')
        assert list(req.attributes) == ["executable", "jobtag"]
        assert req.attributes.get("jobtag") == "fusion-prod"

    def test_duplicate_attribute(self):
        with pytest.raises(DuplicateAttributeError) as exc:
            parse_rsl("&(count=1)(count=2)")
        assert exc.value.name == "count"

    def test_duplicate_after_normalization(self):
        with pytest.raises(DuplicateAttributeError):
            parse_rsl("&(count=1)(COUNT=2)")

    def test_empty_text(self):
        with pytest.raises(EmptyRequestError):
            parse_rsl("")
        with pytest.raises(EmptyRequestError):
            parse_rsl("   \n ")

    def test_ampersand_without_clauses(self):
        with pytest.raises(EmptyRequestError):
            parse_rsl("&")

    def test_source_order_preserved(self):
        req = parse_rsl('&(queue="q")(executable="/x")(count=2)')
        assert list(req.attributes) == ["queue", "executable", "count"]

    def test_whitespace_between_tokens(self):
        req = parse_rsl(' & ( count = 3 )\n( queue = "batch" ) ')
        assert req.attributes == {"count": 3, "queue": "batch"}

    def test_escapes(self):
        req = parse_rsl(r'&(stdout="a\"b\\c")')
        assert req.attributes.get("stdout") == 'a"b\\c'

    def test_bad_escape(self):
        with pytest.raises(RslSyntaxError):
            parse_rsl(r'&(stdout="a\nb")')

    def test_unterminated_string(self):
        with pytest.raises(RslSyntaxError):
            parse_rsl('&(queue="open')

    @pytest.mark.parametrize(
        "text, message, position, expected",
        [
            ('&(queue="open', "unterminated string", 8, None),
            ('&(queue="a\\"', "unterminated string", 8, None),
            ('&(arguments="a" "b', "unterminated string", 16, None),
            ('&(stdout="a\\nb")', "invalid escape", 11, r'\" or \\'),
            ('&(stdout="ab\\', "invalid escape", 12, r'\" or \\'),
        ],
    )
    def test_string_error_positions(self, text, message, position, expected):
        with pytest.raises(RslSyntaxError) as exc:
            parse_rsl(text)
        assert exc.value.position == position
        assert exc.value.expected == expected
        suffix = f" (expected {expected})" if expected else ""
        assert str(exc.value) == f"{message} at offset {position}{suffix}"

    @pytest.mark.parametrize(
        "text, message, position, expected",
        [
            ("&(count=1)\x0b", "unexpected input", 10, "'('"),
            ("&\x0c(count=1)", "unexpected input", 1, "'('"),
            ("&(count\xa0=1)", "unexpected input", 7, "'='"),
            ("&(count=1\x85)", "unexpected input", 9, "')'"),
            ("&(count=1)\u2028", "unexpected input", 10, "'('"),
            ("&\u3000(count=1)", "unexpected input", 1, "'('"),
            ("\ufeff&(count=1)", "unexpected input", 0, "'&'"),
            ("&(count=\u0663)", "bad value", 8, "integer or quoted string"),
            ("&(x=\uff11)", "bad value", 4, "integer or quoted string"),
            ("&(c\xf6unt=1)", "unexpected input", 3, "'='"),
        ],
        ids=[
            "vt", "ff", "nbsp", "nel", "line-separator", "ideographic-space",
            "bom", "arabic-indic-digit", "fullwidth-digit", "non-ascii-letter",
        ],
    )
    def test_grammar_is_ascii_only(self, text, message, position, expected):
        # Unicode whitespace, digits and letters are none of the grammar's
        with pytest.raises(RslSyntaxError) as exc:
            parse_rsl(text)
        assert (exc.value.position, exc.value.expected) == (position, expected)
        assert str(exc.value) == f"{message} at offset {position} (expected {expected})"

    def test_missing_paren(self):
        with pytest.raises(RslSyntaxError) as exc:
            parse_rsl("&(count=1")
        assert exc.value.position == 9

    def test_arguments_always_a_list(self):
        assert parse_rsl('&(arguments="a" "b")').attributes.get("arguments") == ["a", "b"]
        assert parse_rsl('&(arguments="solo")').attributes.get("arguments") == ["solo"]

    def test_multi_string_only_for_arguments(self):
        with pytest.raises(RslSyntaxError):
            parse_rsl('&(queue="a" "b")')

    def test_negative_int(self):
        assert parse_rsl("&(nice=-5)").attributes.get("nice") == -5

    def test_int64_bounds(self):
        assert parse_rsl(f"&(big={INT64_MAX})").attributes.get("big") == INT64_MAX
        assert parse_rsl(f"&(small={INT64_MIN})").attributes.get("small") == INT64_MIN
        with pytest.raises(RslSyntaxError):
            parse_rsl(f"&(big={INT64_MAX + 1})")

    @pytest.mark.parametrize(
        "literal",
        ["9" * 5000, "-" + "1" * 4301, "9223372036854775808"],
        ids=["5000-digits", "negative-4301-digits", "max+1"],
    )
    def test_out_of_range_literal_is_a_syntax_error(self, literal):
        # more than 4300 digits would make int() raise a plain ValueError
        with pytest.raises(RslSyntaxError) as exc:
            parse_rsl(f"&(big={literal})")
        assert type(exc.value) is RslSyntaxError
        offset = len("&(big=") + len(literal)
        assert exc.value.position == offset
        assert str(exc.value) == f"integer out of signed 64-bit range at offset {offset}"

    def test_leading_zeros_do_not_count(self):
        assert parse_rsl("&(big=" + "0" * 5000 + "42)").attributes.get("big") == 42

    @pytest.mark.parametrize("name", sorted(INT_ATTRIBUTES))
    def test_int_attributes_must_be_positive_ints(self, name):
        assert parse_rsl(f"&({name}=7)").attributes.get(name) == 7
        with pytest.raises(AttributeTypeError):
            parse_rsl(f'&({name}="7")')
        with pytest.raises(AttributeTypeError):
            parse_rsl(f"&({name}=0)")
        with pytest.raises(AttributeTypeError):
            parse_rsl(f"&({name}=-1)")

    @pytest.mark.parametrize("name", sorted(TEXT_ATTRIBUTES))
    def test_text_attributes_must_be_strings(self, name):
        assert parse_rsl(f'&({name}="x")').attributes.get(name) == "x"
        with pytest.raises(AttributeTypeError):
            parse_rsl(f"&({name}=3)")

    def test_arguments_rejects_int(self):
        with pytest.raises(AttributeTypeError):
            parse_rsl("&(arguments=3)")

    def test_unknown_attributes_pass_through(self):
        req = parse_rsl('&(frobnicate="yes")(weird_num=-12)')
        assert req.attributes.get("frobnicate") == "yes"
        assert req.attributes.get("weird_num") == -12


class TestSerialize:
    def test_canonical_ordering(self):
        req = RslRequest({"executable": "/bin/date", "count": 1})
        assert serialize_rsl(req) == '&(count=1)(executable="/bin/date")'

    def test_idempotent_on_parse_output(self):
        text = '&(executable="/bin/date")(count=1)'
        once = serialize_rsl(parse_rsl(text))
        assert serialize_rsl(parse_rsl(once)) == once

    def test_arguments_render_as_string_list(self):
        req = RslRequest({"arguments": ["a", "b"]})
        assert serialize_rsl(req) == '&(arguments="a" "b")'

    def test_string_escaping(self):
        req = RslRequest({"stdout": 'a"b\\c'})
        assert serialize_rsl(req) == r'&(stdout="a\"b\\c")'


class TestGetAttr:
    def test_lookup_is_case_insensitive(self):
        # names are stored lower-case, so the lower-case name finds a value
        # however the request spelled it
        assert RslRequest({"JOBTAG": "t"}).attributes == {"jobtag": "t"}
        assert parse_rsl('&(JobTag="t")').attributes == {"jobtag": "t"}

    def test_absent(self):
        assert RslRequest({"queue": "q"}).attributes.get("count") is None

    def test_int_value(self):
        assert RslRequest({"count": 4}).attributes["count"] == 4


class _Text(str):
    pass


class _Size(enum.IntEnum):
    ONE = 1


class _Args(list):
    pass


class TestRequestChecks:
    """`RslRequest` checks a ready-made attribute map as the parser checks text."""

    @pytest.mark.parametrize("attrs", [
        {"count": INT64_MAX},
        {"maxmemory": 1},
        {"executable": ""},
        {"executable": "/bin/d\u00e4te", "note": "\u00e9t\u00e9"},
        {"arguments": ["a", ""]},
        {"weird_num": INT64_MIN, "other": "x"},
    ])
    def test_accepts(self, attrs):
        assert RslRequest(attrs).attributes == attrs

    @pytest.mark.parametrize("attrs, message", [
        ({"count": INT64_MAX + 1}, "attribute 'count': integer out of signed 64-bit range"),
        ({"weird_num": INT64_MIN - 1}, "attribute 'weird_num': integer out of signed 64-bit range"),
        ({"count": 0}, "attribute 'count': must be a positive integer"),
        ({"count": True}, "attribute 'count': boolean values are not part of the value model"),
        ({"maxcputime": "600"}, "attribute 'maxcputime': must be a positive integer"),
        ({"maxmemory": 1.0}, "attribute 'maxmemory': unsupported value type float"),
        ({"executable": 3}, "attribute 'executable': must be a quoted string"),
        ({"queue": ["a"]}, "attribute 'queue': only 'arguments' may hold a string list"),
        ({"arguments": "a"}, "attribute 'arguments': must be a list of quoted strings"),
        ({"arguments": []}, "attribute 'arguments': 'arguments' list may not be empty"),
        ({"9lives": 1}, "attribute '9lives': invalid attribute name"),
        # the Kelvin sign lowers to an ASCII 'k', but no RSL name holds it
        ({"\u212aount": 1}, "attribute '\u212aount': invalid attribute name"),
        ({"Count": 1, "COUNT": 2}, "duplicate attribute 'count'"),
        ({}, "request has no attributes"),
        # a name that is no string
        ({5: 1}, "attribute '5': invalid attribute name"),
        ({("count",): 1}, "attribute '('count',)': invalid attribute name"),
        ({"Count": 1, "count": 2}, "duplicate attribute 'count'"),
        # RSL text gives exactly int, str and a list of str, never a subclass
        ({"executable": _Text("/bin/date")}, "attribute 'executable': unsupported value type _Text"),
        ({"note": _Text("x")}, "attribute 'note': unsupported value type _Text"),
        ({"count": _Size.ONE}, "attribute 'count': unsupported value type _Size"),
        ({"weird_num": _Size.ONE}, "attribute 'weird_num': unsupported value type _Size"),
        ({"arguments": _Args(["a"])}, "attribute 'arguments': unsupported value type _Args"),
        ({"arguments": ["a", _Text("b")]}, "attribute 'arguments': 'arguments' entries must be strings"),
        ({"arguments": ["a", 1]}, "attribute 'arguments': 'arguments' entries must be strings"),
    ])
    def test_rejects(self, attrs, message):
        with pytest.raises(RslError) as exc:
            RslRequest(attrs)
        assert str(exc.value) == message


class TestRequestTuple:
    """`RslRequest` is a checked tuple of its one attribute map."""

    def test_keyword_repr_and_lower_case_names(self):
        request = RslRequest(attributes={"COUNT": 1, "Queue": "q"})
        assert request.attributes == {"count": 1, "queue": "q"}
        assert repr(request) == "RslRequest(attributes={'count': 1, 'queue': 'q'})"
        assert request == parse_rsl('&(COUNT=1)(Queue="q")')
        assert type(parse_rsl('&(count=1)')) is RslRequest

    def test_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(RslRequest({"count": 1}))

    def test_make_and_replace_run_the_checks(self):
        request = RslRequest({"count": 1})
        assert request._replace(attributes={"QUEUE": "q"}).attributes == {"queue": "q"}
        with pytest.raises(AttributeTypeError, match="must be a positive integer"):
            request._replace(attributes={"count": 0})
        with pytest.raises(EmptyRequestError):
            RslRequest._make(({},))


class TestJobAction:
    def test_exactly_six_actions(self):
        assert {a.value for a in JobAction} == {
            "start",
            "cancel",
            "status",
            "suspend",
            "resume",
            "set_priority",
        }


# -- properties -------------------------------------------------------------

_free_name = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda n: n not in WELL_KNOWN_ATTRIBUTES
)
_text_value = st.text(max_size=16)
_free_value = st.one_of(
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX), _text_value
)


@st.composite
def valid_requests(draw):
    attrs = draw(
        st.dictionaries(_free_name, _free_value, min_size=1, max_size=5)
    )
    if draw(st.booleans()):
        attrs["count"] = draw(st.integers(min_value=1, max_value=10**6))
    if draw(st.booleans()):
        attrs["executable"] = draw(_text_value)
    if draw(st.booleans()):
        attrs["arguments"] = draw(st.lists(_text_value, min_size=1, max_size=3))
    return RslRequest(attrs)


class TestProperties:
    @given(valid_requests())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, req):
        text = serialize_rsl(req)
        again = parse_rsl(text)
        assert again.attributes == req.attributes
        assert serialize_rsl(again) == text

    @given(st.text(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_rejection_is_total_for_text(self, text):
        try:
            parse_rsl(text)
        except RslError:
            pass

    @given(st.binary(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_rejection_is_total_for_bytes(self, blob):
        try:
            parse_rsl(blob.decode("latin-1"))
        except RslError:
            pass
