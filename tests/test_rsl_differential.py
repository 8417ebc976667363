"""Differential tests: the accept path, the token scanner and the
character-stepping parser.

``gridauth.rsl.parse_rsl`` first tries its accept path, one regex match
per clause, and hands any text it does not take to the token scanner,
``gridauth.rsl._parse_tokens``, which scans each token with one regex
match.  ``rsl_reference.parse_rsl`` is the parser the scanner replaced,
which stepped one character at a time and ran the full ``RslRequest``
checks.  On every text all three must give the same outcome: the same
attributes, or the same exception type, message, ``position`` and
``expected``.  The scanner runs exactly once for a text that is refused
and never for one that parses, so the accept path takes every valid
request and is never the source of an error.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import rsl_reference
from gridauth import rsl
from gridauth.rsl import RslRequest, parse_rsl, quote_string
from test_rsl_golden import ALPHABET, CLAUSES, VOCABULARY, corpus


def _outcome(parse, text: str) -> list:
    try:
        request = parse(text)
    except Exception as exc:  # every exception type is part of the outcome
        return [
            type(exc).__name__,
            str(exc),
            getattr(exc, "position", None),
            getattr(exc, "expected", None),
        ]
    # repr tells 1 from "1" and a one-string list from a string
    return ["ok", repr(request.attributes)]


def _scanned_outcome(text: str) -> list:
    """``parse_rsl``'s outcome, checking that only a refusal ran the scanner."""
    with mock.patch.object(rsl, "_parse_tokens", wraps=rsl._parse_tokens) as scanner:
        outcome = _outcome(parse_rsl, text)
    assert scanner.call_count == (outcome[0] != "ok"), (text, outcome)
    return outcome


def _check_agrees(text: str) -> None:
    outcome = _scanned_outcome(text)
    assert outcome == _outcome(rsl._parse_tokens, text)
    assert outcome == _outcome(rsl_reference.parse_rsl, text)
    try:
        request = parse_rsl(text)
    except Exception:
        return
    # the full constructor accepts exactly what the one-pass parse built
    assert RslRequest(dict(request.attributes)) == request


#: Unicode spaces, digits and letters, and a byte-order mark: none of them is
#: part of the ASCII grammar
NON_ASCII = "\x0b\x0c\xa0\x85\u2028\u3000\ufeff\u0663\uff11\xf6"

_pieces = st.one_of(
    st.sampled_from(tuple(ALPHABET + NON_ASCII)),
    st.sampled_from(VOCABULARY),
    st.sampled_from(CLAUSES),
)
_rsl_like = st.builds(
    lambda head, parts: head + "".join(parts),
    st.sampled_from(("&", " &\n", "")),
    st.lists(_pieces, max_size=12),
)

#: whitespace the grammar allows between any two tokens, none included
_SPACE = st.sampled_from(("", " ", "\t", "\r\n", " \n\t "))
#: the signed 64-bit boundaries, 19- and 20-digit literals, leading zeros
INT64_EDGES = (
    "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", "1000000000000000000", "10000000000000000000",
    "99999999999999999999", "-0", "0", "007", "-007",
    "0009223372036854775807", "0009223372036854775808", "-0009223372036854775808",
    "000000000000000000000000000001",
)
_INTS = st.one_of(
    st.sampled_from(INT64_EDGES),
    st.builds(
        lambda zeros, n: "-" * (n < 0) + "0" * zeros + str(abs(n)),
        st.integers(0, 3),
        st.integers(-(2**64), 2**64),
    ),
)
#: quoted strings with \" and \\ escapes
_STRINGS = st.builds(quote_string, st.text(alphabet='ab "\\\té\n', max_size=8))
_STRING_RUNS = st.lists(_STRINGS, min_size=1, max_size=3)


def _clauses(names: tuple, values) -> st.SearchStrategy:
    return st.tuples(st.sampled_from(names), values)


#: (name, value tokens): mostly of the name's type, so most requests parse;
#: the last kind pairs any name with any value
_CLAUSE = st.one_of(
    _clauses(("Count", "maxmemory", "MAXCPUTIME"), _INTS.map(lambda s: [s])),
    _clauses(("arguments", "Arguments"), _STRING_RUNS),
    _clauses(("executable", "queue", "jobtag", "stdout"), _STRINGS.map(lambda s: [s])),
    _clauses(("x_1", "_", "Custom"), st.one_of(_INTS, _STRINGS).map(lambda s: [s])),
    _clauses(
        ("count", "arguments", "queue", "x_1"),
        st.one_of(_INTS.map(lambda s: [s]), _STRING_RUNS),
    ),
)


@st.composite
def _spaced_requests(draw) -> str:
    """A request with a whitespace draw before and after every token."""
    tokens = ["&"]
    clauses = st.lists(_CLAUSE, min_size=1, max_size=5, unique_by=lambda c: c[0].lower())
    for name, value in draw(clauses):
        tokens += ["(", name, "=", *value, ")"]
    return draw(_SPACE) + "".join(token + draw(_SPACE) for token in tokens)


class TestAgreesWithReference:
    @given(st.text(max_size=60))
    @settings(max_examples=500, deadline=None)
    def test_any_text(self, text):
        _check_agrees(text)

    @given(_rsl_like)
    @settings(max_examples=1500, deadline=None)
    def test_texts_built_from_the_golden_vocabulary(self, text):
        _check_agrees(text)

    @given(_spaced_requests())
    @settings(max_examples=600, deadline=None)
    def test_spaced_requests_with_escapes_argument_runs_and_int64_edges(self, text):
        _check_agrees(text)

    def test_every_golden_corpus_text(self):
        for text in corpus():
            _check_agrees(text)


def test_the_scanner_runs_once_per_golden_rejection_and_never_for_a_parse():
    outcomes = [_scanned_outcome(text)[0] for text in corpus()]
    assert (len(outcomes), sum(outcome != "ok" for outcome in outcomes)) == (3000, 2255)
