"""Test-only RSL code: the old parser, and the canonical serializer.

``parse_rsl`` here is the character-stepping parser that ``gridauth.rsl``
used to have.  It steps over whitespace one character at a time and
validates the attributes a second time in the ``RslRequest``
constructor.  Only the differential tests use it, as the model that
``gridauth.rsl.parse_rsl``, its accept path and its token scanner
(``gridauth.rsl._parse_tokens``) must agree with on every input.

``serialize_rsl`` renders a request in canonical form, attributes sorted
by name, minimal whitespace, all strings quoted; it is an exact inverse
of ``gridauth.rsl.parse_rsl``.  The program stores requests as attribute
maps, so only the tests and their golden corpus render requests as text.
"""

from __future__ import annotations

import re

from gridauth.rsl import (
    DuplicateAttributeError,
    EmptyRequestError,
    RslRequest,
    RslSyntaxError,
    RslValue,
    int64,
    render_value,
    unquote_string,
)

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?[0-9]+")
_OPEN_STRING_RE = re.compile(r'"[^"\\]*(?:\\["\\][^"\\]*)*')
_STRING_RE = re.compile(_OPEN_STRING_RE.pattern + '"')


def string_error(text: str, start: int) -> tuple[str, int]:
    """Why the string opening at ``text[start]`` does not match, and where."""
    end = _OPEN_STRING_RE.match(text, start).end()
    if end == len(text):
        return "unterminated string", start
    return "invalid escape", end


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, expected: str | None = None) -> RslSyntaxError:
        return RslSyntaxError(message, self.pos, expected)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def expect(self, char: str) -> None:
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            raise self.error("unexpected input", repr(char))
        self.pos += 1

    def parse(self) -> RslRequest:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise EmptyRequestError("request is empty")
        self.expect("&")
        attrs: dict[str, RslValue] = {}
        saw_clause = False
        while True:
            self.skip_ws()
            if self.pos >= len(self.text):
                break
            name, value = self.parse_clause()
            lname = name.lower()
            if lname in attrs:
                raise DuplicateAttributeError(lname)
            attrs[lname] = value
            saw_clause = True
        if not saw_clause:
            raise EmptyRequestError("request has no attribute clauses")
        return RslRequest(attrs)

    def parse_clause(self) -> tuple[str, RslValue]:
        self.expect("(")
        self.skip_ws()
        m = NAME_RE.match(self.text, self.pos)
        if not m:
            raise self.error("bad clause", "attribute name")
        name = m.group()
        self.pos = m.end()
        self.skip_ws()
        self.expect("=")
        self.skip_ws()
        value = self.parse_value(name)
        self.skip_ws()
        self.expect(")")
        return name, value

    def parse_value(self, name: str) -> RslValue:
        if self.text.startswith('"', self.pos):
            strings = [self.parse_string()]
            self.skip_ws()
            while self.text.startswith('"', self.pos):
                if name.lower() != "arguments":
                    raise self.error(
                        "multiple string values are only allowed for 'arguments'"
                    )
                strings.append(self.parse_string())
                self.skip_ws()
            if name.lower() == "arguments":
                return strings
            return strings[0]
        m = _INT_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            value = int64(m.group())
            if value is None:
                raise self.error("integer out of signed 64-bit range")
            return value
        raise self.error("bad value", "integer or quoted string")

    def parse_string(self) -> str:
        m = _STRING_RE.match(self.text, self.pos)
        if m is None:
            message, self.pos = string_error(self.text, self.pos)
            expected = r'\" or \\' if message == "invalid escape" else None
            raise self.error(message, expected)
        self.pos = m.end()
        return unquote_string(m.group())


def parse_rsl(text: str) -> RslRequest:
    """Parse RSL text the old way, one character at a time."""
    return _Parser(text).parse()


def serialize_rsl(req: RslRequest) -> str:
    """Emit the canonical form: sorted attributes, minimal whitespace."""
    clauses = "".join(
        f"({name}={render_value(req.attributes[name])})"
        for name in sorted(req.attributes)
    )
    return "&" + clauses
