"""Both parsers reject long adversarial texts in linear time.

A tokenizer whose string alternative needs the closing quote re-scans an
unclosed string from each '"' inside it to the end of the text, which is
quadratic in the length of the string.  Each text here is at least 20000
characters long and must be rejected in well under a second, with the
same error as a short text of the same shape.
"""

from __future__ import annotations

import time

import pytest

from gridauth.policy import PolicySyntaxError, parse_policy
from gridauth.rsl import RslSyntaxError, parse_rsl

#: an unterminated string holding 10000 escaped quotes
ESCAPED_QUOTES = '"' + '\\"' * 10000
#: 20000 characters of every whitespace character both grammars skip
WHITESPACE = " \t\r\n" * 5000


def _rejection(parse, text: str, error: type):
    assert len(text) >= 20000
    start = time.perf_counter()
    with pytest.raises(error) as exc:
        parse(text)
    assert time.perf_counter() - start < 1.0
    return exc.value


@pytest.mark.parametrize(
    "text, message, position, expected",
    [
        ("&(a=" + ESCAPED_QUOTES, "unterminated string", 4, None),
        ("&" + WHITESPACE + "!", "unexpected input", 20001, "'('"),
    ],
    ids=["unterminated-string", "whitespace-run"],
)
def test_rsl(text, message, position, expected):
    exc = _rejection(parse_rsl, text, RslSyntaxError)
    assert (exc.position, exc.expected) == (position, expected)
    suffix = f" (expected {expected})" if expected else ""
    assert str(exc) == f"{message} at offset {position}{suffix}"


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("policy " + ESCAPED_QUOTES, "unterminated string", 1, 8),
        ("policy" + WHITESPACE + "!", "unexpected character '!'", 5001, 1),
    ],
    ids=["unterminated-string", "whitespace-run"],
)
def test_policy(text, message, line, col):
    exc = _rejection(parse_policy, text, PolicySyntaxError)
    assert (exc.line, exc.col) == (line, col)
    assert str(exc) == f"line {line}, col {col}: {message}"
