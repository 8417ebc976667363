"""Differential tests: the token scanner against the character-stepping parser.

``gridauth.rsl.parse_rsl`` scans each token with one regex match and
validates each attribute once.  ``rsl_reference.parse_rsl`` is the parser
it replaced, which stepped one character at a time and ran the full
``RslRequest`` checks.  On every text both must give the same outcome:
the same attributes, or the same exception type, message, ``position``
and ``expected``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import rsl_reference
from gridauth.rsl import RslRequest, parse_rsl
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


def _check_agrees(text: str) -> None:
    assert _outcome(parse_rsl, text) == _outcome(rsl_reference.parse_rsl, text)
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


class TestAgreesWithReference:
    @given(st.text(max_size=60))
    @settings(max_examples=500, deadline=None)
    def test_any_text(self, text):
        _check_agrees(text)

    @given(_rsl_like)
    @settings(max_examples=1500, deadline=None)
    def test_texts_built_from_the_golden_vocabulary(self, text):
        _check_agrees(text)

    def test_every_golden_corpus_text(self):
        for text in corpus():
            _check_agrees(text)
