"""Parsing and canonical serialization of RSL job descriptions.

The accepted dialect is a single conjunction of attribute clauses,

    &(executable="/bin/date")(count=4)(arguments="-u" "now")

where each value is a bare integer, a quoted string, or (for
``arguments`` only) a space-separated sequence of quoted strings.
Attribute names are case-insensitive and stored lowercase.  Parsing and
serialization are mutually inverse on valid requests, and serialized
output is a canonical fixed point: attributes sorted by name, minimal
whitespace, all strings quoted.

A handful of well-known attribute names carry type constraints so that
policy evaluation can treat values uniformly: ``count``, ``maxmemory``
and ``maxcputime`` must be positive integers, ``arguments`` is always a
string list, and the remaining well-known names hold single strings.
Unknown attributes are legal and left entirely to policy.

Quoted strings are shared with the policy DSL: this module owns their
syntax (``quote_string`` and its inverse ``unquote_string``), and
``policy`` tokenizes strings with the same ``STRING_PATTERN``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

RslValue = int | str | list

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

#: attributes that must hold a positive integer
INT_ATTRIBUTES = frozenset({"count", "maxmemory", "maxcputime"})
#: attributes that must hold a single string
TEXT_ATTRIBUTES = frozenset(
    {"executable", "queue", "jobtag", "directory", "stdout", "stderr"}
)
WELL_KNOWN_ATTRIBUTES = INT_ATTRIBUTES | TEXT_ATTRIBUTES | {"arguments"}

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NORMALIZED_NAME_RE = re.compile(r"[a-z_][a-z0-9_]*\Z")
_INT_RE = re.compile(r"-?[0-9]+")

# A quoted string whose only escapes are \" and \\; _OPEN_STRING lacks the
# closing quote, so it stops where a failing string goes wrong.
_OPEN_STRING = r'"[^"\\]*(?:\\["\\][^"\\]*)*'
#: a complete quoted string, as emitted by ``quote_string``
STRING_PATTERN = _OPEN_STRING + '"'
_STRING_RE = re.compile(STRING_PATTERN)
_OPEN_STRING_RE = re.compile(_OPEN_STRING)
_ESCAPE_RE = re.compile(r'\\(["\\])')


class JobAction(enum.Enum):
    """The closed set of actions a job request or policy can name."""

    START = "start"
    CANCEL = "cancel"
    STATUS = "status"
    SUSPEND = "suspend"
    RESUME = "resume"
    SET_PRIORITY = "set_priority"


class RslError(ValueError):
    """Base class for every structured RSL rejection."""


class RslSyntaxError(RslError):
    def __init__(self, message: str, position: int, expected: str | None = None):
        self.position = position
        self.expected = expected
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at offset {position}{suffix}")


class DuplicateAttributeError(RslError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"duplicate attribute '{name}'")


class EmptyRequestError(RslError):
    pass


class AttributeTypeError(RslError):
    """A well-known attribute carries a value of the wrong shape."""

    def __init__(self, name: str, message: str):
        self.name = name
        super().__init__(f"attribute '{name}': {message}")


def _check_attribute(name: str, value: RslValue) -> None:
    if not _NORMALIZED_NAME_RE.match(name):
        raise AttributeTypeError(name, "invalid attribute name")
    if isinstance(value, bool):
        raise AttributeTypeError(name, "boolean values are not part of the value model")
    if isinstance(value, int):
        if not INT64_MIN <= value <= INT64_MAX:
            raise AttributeTypeError(name, "integer out of signed 64-bit range")
    elif isinstance(value, list):
        if name != "arguments":
            raise AttributeTypeError(name, "only 'arguments' may hold a string list")
        if not value:
            raise AttributeTypeError(name, "'arguments' list may not be empty")
        if not all(isinstance(item, str) for item in value):
            raise AttributeTypeError(name, "'arguments' entries must be strings")
    elif not isinstance(value, str):
        raise AttributeTypeError(name, f"unsupported value type {type(value).__name__}")
    if name in INT_ATTRIBUTES and (not isinstance(value, int) or value <= 0):
        raise AttributeTypeError(name, "must be a positive integer")
    if name in TEXT_ATTRIBUTES and not isinstance(value, str):
        raise AttributeTypeError(name, "must be a quoted string")
    if name == "arguments" and not isinstance(value, list):
        raise AttributeTypeError(name, "must be a list of quoted strings")


@dataclass(frozen=True)
class RslRequest:
    """A parsed job description: an ordered attribute-name -> value map."""

    attributes: dict

    def __post_init__(self):
        normalized: dict[str, RslValue] = {}
        for name, value in self.attributes.items():
            lname = name.lower()
            if lname in normalized:
                raise DuplicateAttributeError(lname)
            _check_attribute(lname, value)
            normalized[lname] = value
        if not normalized:
            raise EmptyRequestError("request has no attributes")
        object.__setattr__(self, "attributes", normalized)

    def get(self, name: str) -> RslValue | None:
        """Return the value for ``name`` (case-insensitive), or None."""
        return self.attributes.get(name.lower())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self.attributes


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
    """Parse RSL text into a request.

    Raises RslSyntaxError, DuplicateAttributeError, EmptyRequestError or
    AttributeTypeError; never anything else, for any input string.
    """
    return _Parser(text).parse()


def int64(literal: str) -> int | None:
    """The value of an ``INT`` literal, or None outside signed 64-bit.

    A literal of more than 19 digits after its sign and leading zeros is
    refused before ``int()`` sees it, whose digit limit would raise.
    """
    if len(literal) <= 18:  # at most 18 digits, always in range
        return int(literal)
    digits = literal.lstrip("-").lstrip("0")
    if len(digits) > 19:
        return None
    value = int(digits or "0")
    if literal[0] == "-":
        value = -value
    return value if INT64_MIN <= value <= INT64_MAX else None


def quote_string(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def unquote_string(token: str) -> str:
    """The text of a quoted string that ``STRING_PATTERN`` matched."""
    body = token[1:-1]
    return _ESCAPE_RE.sub(r"\1", body) if "\\" in body else body


def string_error(text: str, start: int) -> tuple[str, int]:
    """Why the string opening at ``text[start]`` does not match, and where.

    The string is either unterminated (reported at its opening quote) or
    holds an invalid escape (reported at the backslash).
    """
    end = _OPEN_STRING_RE.match(text, start).end()
    if end == len(text):
        return "unterminated string", start
    return "invalid escape", end


def render_value(value: RslValue) -> str:
    """Render a value exactly as it appears in canonical RSL text."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return quote_string(value)
    return " ".join(quote_string(item) for item in value)


def serialize_rsl(req: RslRequest) -> str:
    """Emit the canonical form: sorted attributes, minimal whitespace."""
    clauses = "".join(
        f"({name}={render_value(req.attributes[name])})"
        for name in sorted(req.attributes)
    )
    return "&" + clauses
