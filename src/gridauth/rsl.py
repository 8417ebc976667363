"""Parsing of RSL job descriptions.

The accepted dialect is a single conjunction of attribute clauses,

    &(executable="/bin/date")(count=4)(arguments="-u" "now")

where each value is a bare integer, a quoted string, or (for
``arguments`` only) a space-separated sequence of quoted strings.
Attribute names are case-insensitive and stored lowercase.

A handful of well-known attribute names carry type constraints so that
policy evaluation can treat values uniformly: ``count``, ``maxmemory``
and ``maxcputime`` must be positive integers, ``arguments`` is always a
string list, and ``executable``, ``queue``, ``jobtag``, ``directory``,
``stdout`` and ``stderr`` hold single strings.  One table gives each its
type, and both parsing paths and `RslRequest` read it.  Unknown
attributes are legal and left entirely to policy.

A request is an `RslRequest`, a checked tuple of its one attribute map:
its constructor lower-cases the names and applies every check below to a
ready-made map (a state file stores one), while the accept path, whose
checks are made as it reads the text, builds the tuple directly.  A
value must be of exactly a type that text gives, an ``int``, a ``str``
or a ``list`` of ``str``, not a subclass of one (an ``IntEnum``, say),
so that a policy's exact-type tests decide every request.

Parsing takes one of two paths, decided by the text alone.  The accept
path takes every valid request: one regex match per clause gives the
clause's text, its name, and an integer or a run of closed strings, and
the clause texts must tile the text after the '&', so nothing was
skipped; then one Python step per clause converts and type checks the
value.  It never raises: any text it does not take (a fault of syntax, a
duplicate, a value of the wrong type) goes to the token scanner, the one
source of every RSL error.  The scanner is one pass over a token list:
one regex match per token skips the whitespace before it (space, tab, CR
and LF; the grammar is ASCII) and keeps only the token's text, an
unclosed string included.  Offsets are found only for an error.  Neither
path's regex can backtrack over a run more than a fixed number of times
(a clause match starts only at a '(' and string runs are written
``S(?:WS S)*``), so either way the time is linear in the text.

Quoted strings are shared with the policy DSL: this module owns their
syntax (``quote_string``, ``unquote_string`` and ``closed_string``), and
``policy`` tokenizes strings with the same ``STRING_TOKEN``.
"""

from __future__ import annotations

import enum
import re
import string
import sys
from collections import namedtuple

RslValue = int | str | list

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: an attribute name as a request stores it: ASCII, lower-case
NORMALIZED_NAME_RE = re.compile(r"[a-z_][a-z0-9_]*\Z")

# A quoted string whose only escapes are \" and \\; _OPEN_STRING lacks the
# closing quote, so it stops where a failing string goes wrong.
_OPEN_STRING = r'"[^"\\]*(?:\\["\\][^"\\]*)*'
#: a quoted string, closed or not, as one token; ``closed_string`` tells
#: which, so an unclosed string is scanned once, not once per quote inside it
STRING_TOKEN = _OPEN_STRING + '"?'
_ESCAPE_RE = re.compile(r'\\(["\\])')

# One match per token: the whitespace before a token, then the token's text
# in group 1 ('&()=', a name, a string, an integer, "" at the end of the
# text, or any other single character), so the matches tile the text.
_TOKEN_RE = re.compile(
    rf"[ \t\r\n]*([&()=]|{NAME_RE.pattern}|{STRING_TOKEN}|-?[0-9]+|\Z|(?s:.))"
)
_SPACE = " \t\r\n"
_WS = r"[ \t\r\n]*"
_CLOSED_STRING = _OPEN_STRING + '"'
_STRING_RE = re.compile(_CLOSED_STRING)
# The accept path's one match per clause, from its '(' through the
# whitespace after its ')': the clause's text, its name, and an integer or
# the first closed string and the rest of the run.  A match starts only at
# a '(', so no whitespace run is tried from each of its characters.
_CLAUSE_RE = re.compile(
    rf"(\({_WS}({NAME_RE.pattern}){_WS}={_WS}"
    rf"(?:(-?[0-9]+)|({_CLOSED_STRING})((?:{_WS}{_CLOSED_STRING})*)){_WS}\){_WS})"
)
_NAME_FIRST = frozenset(string.ascii_letters + "_")
_INT_FIRST = frozenset("-0123456789")


class JobAction(enum.Enum):
    """The closed set of actions a job request or policy can name."""

    # members are singletons that compare by identity, so they may hash by it
    # too, in C; no output lists a set of actions unsorted
    __hash__ = object.__hash__

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


#: the type of each well-known attribute's value: an ``int`` must be
#: positive, a ``str`` is one string, and a ``list`` holds strings
_VALUE_KIND = {
    **dict.fromkeys(("count", "maxmemory", "maxcputime"), int),
    **dict.fromkeys(("executable", "queue", "jobtag", "directory", "stdout", "stderr"), str),
    "arguments": list,
}


def _check_attribute(name: str, value: RslValue) -> None:
    if not (isinstance(name, str) and NORMALIZED_NAME_RE.match(name)):
        raise AttributeTypeError(name, "invalid attribute name")
    if isinstance(value, bool):
        raise AttributeTypeError(name, "boolean values are not part of the value model")
    # RSL text gives exactly these types, never a subclass (an IntEnum, say)
    if type(value) is int:
        if not INT64_MIN <= value <= INT64_MAX:
            raise AttributeTypeError(name, "integer out of signed 64-bit range")
    elif type(value) is list:
        if name != "arguments":
            raise AttributeTypeError(name, "only 'arguments' may hold a string list")
        if not value:
            raise AttributeTypeError(name, "'arguments' list may not be empty")
        if not all(type(item) is str for item in value):
            raise AttributeTypeError(name, "'arguments' entries must be strings")
    elif type(value) is not str:
        raise AttributeTypeError(name, f"unsupported value type {type(value).__name__}")
    # the well-known attributes' types, which the grammar leaves open
    kind = _VALUE_KIND.get(name)
    if kind is int and (type(value) is not int or value <= 0):
        raise AttributeTypeError(name, "must be a positive integer")
    if kind is str and type(value) is not str:
        raise AttributeTypeError(name, "must be a quoted string")
    if kind is list and type(value) is not list:
        raise AttributeTypeError(name, "must be a list of quoted strings")


#: `_make` of a tuple class whose `__new__` checks its fields; the namedtuple
#: one, through which `_replace` builds too, would skip `__new__`
_checked_make = classmethod(lambda cls, iterable: cls(*iterable))


class RslRequest(namedtuple("RslRequest", "attributes")):
    """A parsed job description, a checked tuple: an ordered attribute-name
    -> value map, which every construction (``_make`` and ``_replace``
    included) checks.

    Names are stored lower-case, so ``attributes`` is read with the
    lower-case name.
    """

    __slots__ = ()

    def __new__(cls, attributes: dict):
        normalized: dict[str, RslValue] = {}
        for name, value in attributes.items():
            kind = _VALUE_KIND.get(name)  # a well-known name is stored lower-case
            if kind is None:
                # a non-ASCII name stays as it is and fails the name check, even
                # one that lowers to ASCII, as the Kelvin sign lowers to 'k'; so
                # does a name that is no string
                name = name.lower() if isinstance(name, str) and name.isascii() else name
                kind = _VALUE_KIND.get(name)
            if name in normalized:
                raise DuplicateAttributeError(name)
            # a shortcut for what the checks accept most often: a well-known
            # name with a string, or with an integer in 1..INT64_MAX
            if not (kind is type(value)
                    and (kind is str or kind is int and 0 < value <= INT64_MAX)):
                _check_attribute(name, value)
            normalized[name] = value
        if not normalized:
            raise EmptyRequestError("request has no attributes")
        return tuple.__new__(cls, (normalized,))

    _make = _checked_make


def _offset(text: str, at: int) -> int:
    """The offset of token ``at``; offsets are found only for errors."""
    return [m.start(1) for m in _TOKEN_RE.finditer(text)][at]


def parse_rsl(text: str) -> RslRequest:
    """Parse RSL text into a request.

    Raises RslSyntaxError, DuplicateAttributeError, EmptyRequestError or
    AttributeTypeError; never anything else, for any input string.  Only
    the token scanner raises: the accept path takes a valid request or
    hands the text on.
    """
    rest = text.lstrip(_SPACE)
    if rest[:1] == "&":
        rest = rest[1:].lstrip(_SPACE)
        clauses = _CLAUSE_RE.findall(rest)
        attrs: dict[str, RslValue] = {}
        size = 0
        for clause, name, number, first, more in clauses:
            size += len(clause)
            # every request repeats a few names: interned, each is stored once
            name = sys.intern(name.lower())
            kind = _VALUE_KIND.get(name)
            if number:
                value = int64(number)
                if value is None or (kind is not None and (kind is not int or value <= 0)):
                    break
            elif kind is list:
                value = [unquote_string(first), *map(unquote_string, _STRING_RE.findall(more))]
            elif more or kind is int:
                break
            else:
                value = unquote_string(first)
            attrs[name] = value
        else:
            # the clauses tile the rest of the text, and no name repeats
            if size == len(rest) and attrs and len(attrs) == len(clauses):
                return tuple.__new__(RslRequest, (attrs,))  # skips __new__'s checks, made here
    return _parse_tokens(text)


def _parse_tokens(text: str) -> RslRequest:
    """The token scanner: ``parse_rsl`` of a text the accept path refused,
    and so the one place every RSL error, its offset and ``expected`` come
    from; the `RslRequest` it builds applies the type rules."""
    tokens = _TOKEN_RE.findall(text)
    if tokens[0] != "&":
        if not tokens[0]:
            raise EmptyRequestError("request is empty")
        raise RslSyntaxError("unexpected input", _offset(text, 0), "'&'")
    attrs: dict[str, RslValue] = {}
    i = 1
    while tokens[i]:
        if tokens[i] != "(":
            raise RslSyntaxError("unexpected input", _offset(text, i), "'('")
        if tokens[i + 1][:1] not in _NAME_FIRST:
            raise RslSyntaxError("bad clause", _offset(text, i + 1), "attribute name")
        if tokens[i + 2] != "=":
            raise RslSyntaxError("unexpected input", _offset(text, i + 2), "'='")
        # every request repeats a few names: interned, each is stored once
        name = sys.intern(tokens[i + 1].lower())
        i += 3
        token = tokens[i]
        if token[:1] == '"':
            value = []
            while (token := tokens[i])[:1] == '"':
                if value and name != "arguments":
                    message = "multiple string values are only allowed for 'arguments'"
                    raise RslSyntaxError(message, _offset(text, i))
                if not closed_string(token):
                    message, pos = string_error(text, _offset(text, i), token)
                    expected = r'\" or \\' if message == "invalid escape" else None
                    raise RslSyntaxError(message, pos, expected)
                value.append(unquote_string(token))
                i += 1
            if name != "arguments":
                value = value[0]
        elif token[:1] in _INT_FIRST and token != "-":
            value = int64(token)
            if value is None:  # reported at the literal's end
                pos = _offset(text, i) + len(token)
                raise RslSyntaxError("integer out of signed 64-bit range", pos)
            i += 1
        else:
            raise RslSyntaxError("bad value", _offset(text, i), "integer or quoted string")
        if tokens[i] != ")":
            raise RslSyntaxError("unexpected input", _offset(text, i), "')'")
        i += 1
        if name in attrs:
            raise DuplicateAttributeError(name)
        attrs[name] = value
    if not attrs:
        raise EmptyRequestError("request has no attribute clauses")
    return RslRequest(attrs)


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
    """The text of a closed ``STRING_TOKEN``."""
    body = token[1:-1]
    return _ESCAPE_RE.sub(r"\1", body) if "\\" in body else body


def closed_string(token: str) -> bool:
    """Whether a ``STRING_TOKEN`` match ends with its closing quote.

    Its last '"' closes it unless an odd run of backslashes escapes it.
    """
    if len(token) < 2 or token[-1] != '"':
        return False
    return token[-2] != "\\" or (len(token) - len(token[:-1].rstrip("\\"))) % 2 == 1


def string_error(text: str, start: int, token: str) -> tuple[str, int]:
    """Why the unclosed string ``token`` at ``text[start]`` fails, and where.

    It is either unterminated (reported at its opening quote) or stops at
    an invalid escape (reported at the backslash).
    """
    end = start + len(token)
    return ("unterminated string", start) if end == len(text) else ("invalid escape", end)


def render_value(value: RslValue) -> str:
    """Render a value exactly as it appears in canonical RSL text."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return quote_string(value)
    return " ".join(quote_string(item) for item in value)

