"""Policy documents for resource owners and virtual organizations.

A document names its source (``resource`` or ``vo``) and contains
subject blocks.  Each block matches a class of requesters (an exact
identity, a group, or anyone) and states what they may do:

* ``allow action ...`` grants job actions, optionally restricted to
  jobs carrying one of the listed jobtags (management actions only);
* ``attr NAME <spec>`` permits an attribute to appear with values
  satisfying the spec (several such lines for one attribute union);
* ``require attr NAME [<spec>]`` demands the attribute be present
  (and, with a spec, acceptable);
* ``forbid attr NAME [<spec>]`` rejects the attribute outright or
  rejects the listed values;
* ``closed-world;`` rejects any request attribute the block does not
  mention in an ``attr`` or ``require`` line.

VO documents may additionally carry an ``allocation`` and per-member
``member-quota`` clauses; resource documents may declare ``trust vo``
lines.  Value specs are enumerations (with ``*`` globs, anchored; plain
values are tested by set membership and a spec's globs by one compiled
alternation), integer ranges, ``max``/``min`` bounds, regular expressions
(unanchored search, egrep style), or ``or`` combinations.  Each spec
compiles its test when it is built: its ``allows`` field holds a closure
over the spec's own values (an ``or``, a loop over its alternatives'),
which passes only an ``int`` to a numeric spec and only a ``str`` to the
others, exactly the types RSL text gives, so ``True`` passes neither.

Quoted strings follow RSL's syntax (only ``\\"`` and ``\\\\`` escape), and
the tokenizer takes its string pattern from ``rsl``; integers are signed
64-bit, as in RSL.  The tokenizer makes one regex match per token and keeps
only the token's text, which tells its kind.  Token offsets are recomputed
only for an error, which carries a 1-based line and a 1-based column
counted in characters; a bad character anywhere outranks any other error.

A document built in code holds only what the DSL can write: attribute
names lower-case, as RSL stores them (an assertion refuses any other name
when it is built), bounds signed 64-bit ``int``s, amounts non-negative
ones, and jobtag grants tagged, on allowed actions.  The three assertions
share one base, which checks and hashes them; each names its clause's
keyword, which a ``start`` plan and ``format_policy`` read.
Blocks and documents are compiled when they are built: a document holds
one table per job action, with one entry per block (a refusal, a permit,
a jobtag grant set, or for ``start`` the block's check plan), and each
block holds the sandbox caps a permit by it sets.  A document finds the
blocks that apply to a subject by one pass over its blocks, and memoizes
the answer per subject and groups.
Documents are immutable after parsing, their memo aside, which holds
only what a scan gives, and safe to share between concurrent evaluations.
"""

from __future__ import annotations

import re
import string
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ClassVar, Mapping

from . import rsl
from .rsl import JobAction, RslValue, quote_string

if TYPE_CHECKING:  # pragma: no cover
    from .credential import GridCredential


class PolicyError(ValueError):
    """Base class for policy parsing and construction errors."""


class PolicySyntaxError(PolicyError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


class BadRegexError(PolicyError):
    pass


class BadRangeError(PolicyError):
    pass


class MisplacedClauseError(PolicyError):
    pass


# ---------------------------------------------------------------------------
# Value specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Spec:
    """The value specs' base: ``allows``, the test each spec compiles when
    it is built, takes no part in equality, hashing or ``repr``."""

    allows: Callable[[RslValue], bool] = field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class EnumSpec(_Spec):
    """Membership in a set of literal values; ``*`` acts as a glob.

    A ``*`` matches any run of characters, newlines included.
    """

    values: tuple

    def __post_init__(self):
        if not self.values:
            raise PolicyError("enumeration spec may not be empty")
        values = tuple(self.values)
        _check_str("enumeration value", *values)
        object.__setattr__(self, "values", values)
        literals = frozenset(v for v in values if "*" not in v)
        # re.escape writes each '*' as '\*' and nothing else as that pair
        globs = "|".join(re.escape(v).replace("\\*", ".*") for v in values if "*" in v)
        # with no glob, '(?!)' matches nothing
        match = re.compile(f"(?s:{globs})\\Z" if globs else "(?!)").match
        object.__setattr__(self, "allows", lambda value: type(value) is str
                           and (value in literals or match(value) is not None))

    def describe(self) -> str:
        return "in {" + ", ".join(quote_string(v) for v in self.values) + "}"


@dataclass(frozen=True)
class RangeSpec(_Spec):
    lo: int
    hi: int

    def __post_init__(self):
        _check_int64("range bound", self.lo, self.hi)
        if self.lo > self.hi:
            raise BadRangeError(f"empty range {self.lo}..{self.hi}")
        lo, hi = self.lo, self.hi
        object.__setattr__(self, "allows", lambda value: type(value) is int and lo <= value <= hi)

    def describe(self) -> str:
        return f"range {self.lo}..{self.hi}"


@dataclass(frozen=True)
class RegexSpec(_Spec):
    pattern: str

    def __post_init__(self):
        _check_str("regex", self.pattern)
        try:
            # a pattern Python warns about (say, a possible nested set) is
            # refused under every warning filter, not only under -W error
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                search = re.compile(self.pattern).search
        except (re.error, Warning) as exc:
            raise BadRegexError(f"bad regex {self.pattern!r}: {exc}") from None
        object.__setattr__(
            self, "allows", lambda value: type(value) is str and search(value) is not None
        )

    def describe(self) -> str:
        return f"matches {quote_string(self.pattern)}"


@dataclass(frozen=True)
class MaxSpec(_Spec):
    bound: int

    def __post_init__(self):
        _check_int64("max bound", self.bound)
        bound = self.bound
        object.__setattr__(self, "allows", lambda value: type(value) is int and value <= bound)

    def describe(self) -> str:
        return f"max {self.bound}"


@dataclass(frozen=True)
class MinSpec(_Spec):
    bound: int

    def __post_init__(self):
        _check_int64("min bound", self.bound)
        bound = self.bound
        object.__setattr__(self, "allows", lambda value: type(value) is int and value >= bound)

    def describe(self) -> str:
        return f"min {self.bound}"


@dataclass(frozen=True)
class OrSpec(_Spec):
    """Two or more alternatives; an `OrSpec` among them is flattened into
    its own, as the text of the whole reparses."""

    alternatives: tuple

    def __post_init__(self):
        alternatives = []
        for alt in self.alternatives:
            _check_spec(alt)
            alternatives += alt.alternatives if isinstance(alt, OrSpec) else (alt,)
        if len(alternatives) < 2:
            raise PolicyError(f"'or' spec needs two alternatives or more, not {alternatives!r}")
        object.__setattr__(self, "alternatives", tuple(alternatives))
        tests = tuple(alt.allows for alt in alternatives)

        def allows(value: RslValue) -> bool:
            for test in tests:
                if test(value):
                    return True
            return False

        object.__setattr__(self, "allows", allows)

    def describe(self) -> str:
        return " or ".join(alt.describe() for alt in self.alternatives)


ValueSpec = EnumSpec | RangeSpec | RegexSpec | MaxSpec | MinSpec | OrSpec


def _check_int64(what: str, *values, least: int = rsl.INT64_MIN) -> None:
    for value in values:
        if type(value) is not int or not least <= value <= rsl.INT64_MAX:
            raise PolicyError(f"{what} must be an int in {least}..{rsl.INT64_MAX}, not {value!r}")


def _check_str(what: str, *values) -> None:
    for value in values:
        if type(value) is not str:
            raise PolicyError(f"{what} must be a string, not {value!r}")


def _check_spec(spec, optional: bool = False) -> None:
    if not (isinstance(spec, ValueSpec) or optional and spec is None):
        raise PolicyError(f"a value spec is required, not {spec!r}")


def _interval(spec: ValueSpec):
    """The integer interval ``(lo, hi)`` a numeric spec spans, None marking
    an open end; an `OrSpec` spans the hull of its alternatives.  None when
    the spec (or an alternative) is not numeric."""
    if isinstance(spec, RangeSpec):
        return spec.lo, spec.hi
    if isinstance(spec, MaxSpec):
        return None, spec.bound
    if isinstance(spec, MinSpec):
        return spec.bound, None
    if isinstance(spec, OrSpec):
        ends = [_interval(alt) for alt in spec.alternatives]
        if None in ends:
            return None
        los, his = zip(*ends)
        return (None if None in los else min(los)), (None if None in his else max(his))
    return None


# ---------------------------------------------------------------------------
# Assertions, matchers, blocks, documents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Assertion:
    """One ``attr``, ``require`` or ``forbid`` line of a block: ``keyword``
    names the clause.  Its name must be lower-case (``[a-z_][a-z0-9_]*``),
    as RSL stores it and the parser writes it, so a plan reads a request's
    attributes by the name as it is stored.  The assertion is hashed once,
    when it is built, over its class and its fields, so the hash agrees
    with equality, which holds only between assertions of one class."""

    keyword: ClassVar[str]

    attr: str
    spec: ValueSpec | None

    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_spec(self.spec, optional=self.keyword != "attr")
        if not (isinstance(self.attr, str) and rsl.NORMALIZED_NAME_RE.match(self.attr)):
            raise PolicyError(
                f"attribute name {self.attr!r} is not lower-case ([a-z_][a-z0-9_]*)"
            )
        object.__setattr__(self, "_hash", hash((type(self), self.attr, self.spec)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, eq=False)
class MayContain(_Assertion):
    keyword = "attr"


@dataclass(frozen=True, eq=False)
class MustContain(_Assertion):
    spec: ValueSpec | None = None
    keyword = "require"


@dataclass(frozen=True, eq=False)
class MustNotContain(_Assertion):
    spec: ValueSpec | None = None
    keyword = "forbid"


@dataclass(frozen=True)
class Identity:
    dn: str

    def __post_init__(self):
        _check_str("identity", self.dn)


@dataclass(frozen=True)
class Group:
    name: str

    def __post_init__(self):
        _check_str("group", self.name)


@dataclass(frozen=True)
class AnySubject:
    pass


Matcher = Identity | Group | AnySubject


#: each action's position in `SubjectBlock.entries`, in the enum's order
_ACTION_POSITION = {a: i for i, a in enumerate(JobAction)}
#: table entry: the block does not allow the action
REFUSED = "refused"
#: table entry: the block allows a management action on every job
PERMITTED = "permitted"
#: distinct (subject, groups) pairs whose applicable blocks a document keeps
SUBJECT_CACHE_SIZE = 4096


@dataclass(frozen=True)
class SubjectBlock:
    """One subject block, compiled for evaluation when it is built.

    The block's checks are its assertions in document order, with the
    ``attr`` lines of each attribute merged into one `MayContain` at the
    first of them, whose spec is their union (an `OrSpec` when there are
    several).  They are kept only in the two compiled fields below.

    ``entries`` holds one entry per `JobAction`, in the enum's order:
    `REFUSED` when the block does not allow the action; for ``start``,
    ``(plan, accepted)``, the plan holding one ``(name, kind, test,
    assertion)`` step per check, its kind the assertion's ``keyword`` and
    its test the spec's compiled ``allows`` (None without a spec), and
    ``accepted`` the names of the ``attr`` and ``require`` checks of a
    closed-world block, or None for an open one; for a management action,
    its jobtag grant set, or `PERMITTED` without one.

    ``caps`` is the ``(maxcputime, maxmemory)`` pair of caps a permit by
    the block sets on a job (see `pdp.Decision.caps`), None for no cap:
    the least upper end of at least 1 of the block's ``attr`` and
    ``require`` checks on the attribute.  A non-numeric spec or an ``or``
    with an open upper end sets none.  Neither field takes part in
    equality or ``repr``.
    """

    matcher: Matcher
    allowed_actions: frozenset = frozenset()
    jobtag_grants: Mapping = field(default_factory=dict)
    assertions: tuple = ()
    closed_world: bool = False

    entries: tuple = field(init=False, repr=False, compare=False)
    caps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.matcher, Matcher):
            raise PolicyError(f"a subject matcher is required, not {self.matcher!r}")
        if type(self.closed_world) is not bool:
            raise PolicyError(f"closed_world must be a bool, not {self.closed_world!r}")
        allowed = frozenset(self.allowed_actions)
        if not allowed <= _ACTION_POSITION.keys():
            raise PolicyError(f"allowed actions {set(allowed - set(JobAction))} are not JobActions")
        object.__setattr__(self, "allowed_actions", allowed)
        object.__setattr__(self, "assertions", tuple(self.assertions))
        grants = {a: frozenset(tags) for a, tags in dict(self.jobtag_grants).items()}
        if JobAction.START in grants:
            raise MisplacedClauseError("jobtag grants cannot apply to 'start'")
        if not grants.keys() <= allowed or not all(grants.values()):
            raise PolicyError("a jobtag grant needs a tag and an action the block allows")
        _check_str("jobtag", *(tag for tags in grants.values() for tag in tags))
        object.__setattr__(self, "jobtag_grants", grants)

        unions: dict[str, list] = {}
        for a in self.assertions:
            if isinstance(a, MayContain):
                unions.setdefault(a.attr, []).append(a.spec)
        checks = []
        for a in self.assertions:
            if not isinstance(a, MayContain):
                checks.append(a)
            elif a.attr in unions:  # the attribute's first attr line
                specs = unions.pop(a.attr)
                checks.append(a if len(specs) == 1 else MayContain(a.attr, OrSpec(specs)))
        caps = {"maxcputime": None, "maxmemory": None}
        for c in checks:
            if c.attr in caps and not isinstance(c, MustNotContain):
                upper, cap = (_interval(c.spec) or (None, None))[1], caps[c.attr]
                # the attribute is positive, so a bound below 1 caps nothing
                if upper is not None and upper >= 1 and (cap is None or upper < cap):
                    caps[c.attr] = upper
        object.__setattr__(self, "caps", tuple(caps.values()))

        entries = [REFUSED] * len(_ACTION_POSITION)
        for action in allowed:
            if action is JobAction.START:
                plan = tuple(
                    (c.attr, c.keyword, None if c.spec is None else c.spec.allows, c)
                    for c in checks
                )
                names = (a.attr for a in self.assertions if not isinstance(a, MustNotContain))
                entry = plan, (frozenset(names) if self.closed_world else None)
            else:
                entry = grants.get(action, PERMITTED)
            entries[_ACTION_POSITION[action]] = entry
        object.__setattr__(self, "entries", tuple(entries))


@dataclass(frozen=True)
class PolicyDocument:
    """A policy document, compiled for evaluation when it is built.

    ``tables`` maps each `JobAction` to the blocks' `SubjectBlock.entries`
    for it, by block position, so a decision looks its action up once per
    document.

    `applicable_indices` finds a subject's blocks by one pass over
    ``blocks``, in document order, and memoizes the result per
    ``(subject, groups)`` in ``_subjects``, a dict that fills on first
    use, holds at most ``SUBJECT_CACHE_SIZE`` entries and is emptied when
    full; it holds only what the scan gives, so it never changes a
    result.  The scan runs only on a miss, and a process that keeps its
    documents misses rarely: only one that cycles more subjects than the
    bound through one large document scans on most decisions.  Neither
    field takes part in equality or ``repr``, and ``dataclasses.replace``
    starts an empty memo.
    """

    name: str
    source: str
    blocks: tuple = ()
    trust: tuple = ()
    allocation: int | None = None
    member_quotas: Mapping = field(default_factory=dict)

    tables: Mapping = field(init=False, repr=False, compare=False)
    _subjects: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.source not in ("resource", "vo"):
            raise PolicyError(f"unknown policy source {self.source!r}")
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if isinstance(self.trust, str):  # which would trust each of its characters
            raise PolicyError(f"trust must list vo names, not the string {self.trust!r}")
        object.__setattr__(self, "trust", tuple(self.trust))
        object.__setattr__(self, "member_quotas", dict(self.member_quotas))
        _check_str("policy name", self.name)
        _check_str("trusted vo", *self.trust)
        seen: set = set()  # each repeat of a vo: set.add returns None
        twice = [vo for vo in self.trust if vo in seen or seen.add(vo)]
        if twice:
            raise PolicyError(f"trusted vo {twice[0]!r} is listed twice")
        _check_str("member-quota subject", *self.member_quotas)
        if self.allocation is not None:
            _check_int64("allocation", self.allocation, least=0)
        _check_int64("member-quota", *self.member_quotas.values(), least=0)
        if self.source == "resource" and (
            self.allocation is not None or self.member_quotas
        ):
            raise MisplacedClauseError(
                "allocation and member-quota clauses belong to vo documents"
            )
        if self.source == "vo" and self.trust:
            raise MisplacedClauseError("trust clauses belong to resource documents")

        rows = [block.entries for block in self.blocks]
        object.__setattr__(self, "tables", {
            action: tuple(row[k] for row in rows) for action, k in _ACTION_POSITION.items()
        })
        object.__setattr__(self, "_subjects", {})

    def accounts_for(self, subject: str) -> bool:
        """Whether jobs ``subject`` starts under this document are charged."""
        return self.allocation is not None or subject in self.member_quotas

    def applicable_indices(self, subject: str, groups: frozenset) -> tuple:
        """Positions of the blocks matching ``subject`` or one of the set
        ``groups``, in ascending order, memoized per subject and groups."""
        memo = self._subjects
        key = subject, frozenset(groups)  # a frozenset argument is the key's own
        found = memo.get(key)
        if found is None:
            if len(memo) >= SUBJECT_CACHE_SIZE:
                memo.clear()
            found = memo[key] = self._scan_blocks(subject, groups)
        return found

    def _scan_blocks(self, subject: str, groups: frozenset) -> tuple:
        """`applicable_indices` by one pass over the blocks, unmemoized."""
        found = []
        for i, block in enumerate(self.blocks):
            matcher = block.matcher
            if isinstance(matcher, Identity):
                if matcher.dn == subject:
                    found.append(i)
            elif not isinstance(matcher, Group) or matcher.name in groups:
                found.append(i)
        return tuple(found)


def applicable_blocks(doc: PolicyDocument, cred: "GridCredential") -> list:
    """Blocks whose matcher matches the credential, in document order."""
    return [doc.blocks[i] for i in doc.applicable_indices(cred.subject, cred.groups)]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# One match per token: the whitespace and comments before a token, then the
# token's text in group 1 (a word, ``..``/``{};,``, a string, closed or not,
# an integer, "" at the end of the text, or any other single character, a
# bad one), so the matches tile the text.  A token's text tells its kind: a
# string keeps its quotes, so no string or integer equals a keyword.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*"
    r"([A-Za-z_][A-Za-z0-9_-]*|\.\.|[{};,]"
    rf"|{rsl.STRING_TOKEN}|-?[0-9]+|\Z|(?s:.))"
)
#: the one-character texts that are whole tokens; any other one-character
#: text, '-' or '.' included, is a bad character, as is an unclosed string
_ONE_CHAR_TOKENS = frozenset(string.ascii_letters + string.digits + "_{};,")
_INT_FIRST = frozenset("-0123456789")

_ACTIONS = {a.value: a for a in JobAction}


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column, counted in characters, of ``text[pos]``."""
    line_start = text.rfind("\n", 0, pos) + 1
    return text.count("\n", 0, line_start) + 1, pos - line_start + 1


def _bad_character(text: str) -> PolicySyntaxError | None:
    """The error for the first bad character of ``text``, if it has one."""
    for m in _TOKEN_RE.finditer(text):
        token, pos = m[1], m.start(1)
        if token[:1] == '"' and not rsl.closed_string(token):
            message, pos = rsl.string_error(text, pos, token)
        elif len(token) == 1 and token not in _ONE_CHAR_TOKENS:
            message = f"unexpected character {token!r}"
        else:
            continue
        return PolicySyntaxError(message, *_line_col(text, pos))
    return None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _PolicyParser:
    """Recursive descent over the token texts; ``i`` indexes the next one."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.i = 0

    def error(self, message: str, at: int | None = None) -> PolicySyntaxError:
        """A syntax error at token ``at``, by default the one just taken."""
        return PolicySyntaxError(message, *self.where(self.i - 1 if at is None else at))

    def where(self, at: int) -> tuple[int, int]:
        """Line and column of token ``at``; offsets are found only for errors."""
        offsets = [m.start(1) for m in _TOKEN_RE.finditer(self.text)]
        return _line_col(self.text, offsets[at])

    def check_home(self, clause: str, at: int, source: str, home: str) -> None:
        if source != home:
            raise MisplacedClauseError(
                f"line {self.where(at)[0]}: {clause} clauses belong to {home} documents"
            )

    def take(self) -> str:
        token = self.tokens[self.i]
        self.i += 1
        return token

    def accept(self, token: str) -> bool:
        if self.tokens[self.i] == token:
            self.i += 1
            return True
        return False

    def expect(self, token: str) -> None:
        if self.take() != token:
            raise self.error(f"expected '{token}'")

    def expect_string(self) -> str:
        token = self.take()
        if token[:1] != '"' or not rsl.closed_string(token):  # an unclosed one is bad
            raise self.error("expected a quoted string")
        return rsl.unquote_string(token)

    def expect_int(self) -> int:
        token = self.take()
        if token[:1] not in _INT_FIRST or token == "-":
            raise self.error("expected an integer")
        value = rsl.int64(token)
        if value is None:
            raise self.error("integer out of signed 64-bit range")
        return value

    def parse_document(self) -> PolicyDocument:
        self.expect("policy")
        name = self.expect_string()
        self.expect("source")
        source = self.take()
        if source != "resource" and source != "vo":
            raise self.error("expected 'resource' or 'vo'")
        self.expect("{")

        blocks: list[SubjectBlock] = []
        trust: dict[str, None] = {}  # the trusted vos, in order
        allocation: int | None = None
        quotas: dict[str, int] = {}

        while (keyword := self.take()) != "}":
            at = self.i - 1
            if keyword == "subject":
                blocks.append(self.parse_block())
            elif keyword == "trust":
                self.expect("vo")
                vo_name = self.expect_string()
                self.expect(";")
                self.check_home("trust", at, source, "resource")
                if vo_name in trust:
                    raise self.error(f"duplicate trust for {vo_name!r}", at)
                trust[vo_name] = None
            elif keyword == "allocation":
                amount = self.expect_int()
                self.expect("cpu-seconds")
                self.expect(";")
                self.check_home("allocation", at, source, "vo")
                if allocation is not None:
                    raise self.error("duplicate allocation clause", at)
                if amount < 0:
                    raise self.error("allocation must be non-negative", at)
                allocation = amount
            elif keyword == "member-quota":
                dn = self.expect_string()
                amount = self.expect_int()
                self.expect("cpu-seconds")
                self.expect(";")
                self.check_home("member-quota", at, source, "vo")
                if dn in quotas:
                    raise self.error(f"duplicate member-quota for {dn!r}", at)
                if amount < 0:
                    raise self.error("member-quota must be non-negative", at)
                quotas[dn] = amount
            elif keyword == "":
                raise self.error("unexpected end of policy")
            else:
                raise self.error("expected 'subject', 'trust', 'allocation' or 'member-quota'")

        if self.take() != "":
            raise self.error("trailing input after policy")
        return PolicyDocument(
            name=name,
            source=source,
            blocks=tuple(blocks),
            trust=tuple(trust),
            allocation=allocation,
            member_quotas=quotas,
        )

    def parse_block(self) -> SubjectBlock:
        kind = self.take()
        if kind == "any":
            matcher: Matcher = AnySubject()
        elif kind == "identity" or kind == "group":
            name = self.expect_string()
            matcher = Identity(name) if kind == "identity" else Group(name)
        else:
            raise self.error("expected 'identity', 'group' or 'any'")
        self.expect("{")

        unrestricted: set[JobAction] = set()
        restricted: dict[JobAction, set] = {}
        assertions: list[_Assertion] = []
        closed_world = False

        while (keyword := self.take()) != "}":
            if keyword == "attr":
                name = self.parse_attr_name()
                spec = self.parse_spec()
                self.expect(";")
                assertions.append(MayContain(name, spec))
            elif keyword == "allow":
                at = self.i - 1
                self.expect("action")
                actions = [self.parse_action()]
                while self.accept(","):
                    actions.append(self.parse_action())
                tags: list[str] = []
                if self.accept("on"):
                    self.expect("jobtag")
                    tags.append(self.expect_string())
                    while self.accept(","):
                        tags.append(self.expect_string())
                self.expect(";")
                if tags and JobAction.START in actions:
                    raise MisplacedClauseError(
                        f"line {self.where(at)[0]}: jobtag grants cannot apply to 'start'"
                    )
                for action in actions:
                    if tags and action not in unrestricted:
                        restricted.setdefault(action, set()).update(tags)
                    elif not tags:
                        unrestricted.add(action)
                        restricted.pop(action, None)
            elif keyword == "require" or keyword == "forbid":
                self.expect("attr")
                name = self.parse_attr_name()
                spec = None if self.tokens[self.i] == ";" else self.parse_spec()
                self.expect(";")
                assertion = MustContain if keyword == "require" else MustNotContain
                assertions.append(assertion(name, spec))
            elif keyword == "closed-world":
                self.expect(";")
                closed_world = True
            elif keyword == "":
                raise self.error("unexpected end of subject block")
            else:
                raise self.error(
                    "expected 'allow', 'attr', 'require', 'forbid' or 'closed-world'"
                )

        return SubjectBlock(
            matcher=matcher,
            allowed_actions=unrestricted | set(restricted),
            jobtag_grants=restricted,
            assertions=tuple(assertions),
            closed_world=closed_world,
        )

    def parse_action(self) -> JobAction:
        action = _ACTIONS.get(self.take())
        if action is None:
            raise self.error("expected a job action")
        return action

    def parse_attr_name(self) -> str:
        token = self.take()
        if not rsl.NAME_RE.fullmatch(token):
            raise self.error("expected an attribute name")
        return token.lower()

    def parse_spec(self) -> ValueSpec:
        alternatives = [self.parse_primary_spec()]
        while self.accept("or"):
            alternatives.append(self.parse_primary_spec())
        if len(alternatives) == 1:
            return alternatives[0]
        return OrSpec(tuple(alternatives))

    def parse_primary_spec(self) -> ValueSpec:
        at = self.i
        keyword = self.take()
        if keyword == "in":
            self.expect("{")
            values = [self.expect_string()]
            while self.accept(","):
                values.append(self.expect_string())
            self.expect("}")
            return EnumSpec(tuple(values))
        if keyword == "max":
            return MaxSpec(self.expect_int())
        if keyword == "min":
            return MinSpec(self.expect_int())
        try:
            if keyword == "range":
                lo = self.expect_int()
                self.expect("..")
                return RangeSpec(lo, self.expect_int())
            if keyword == "matches":
                return RegexSpec(self.expect_string())
        except (BadRangeError, BadRegexError) as exc:
            raise type(exc)(f"line {self.where(at)[0]}: {exc}") from None
        raise self.error("expected a value spec ('in', 'range', 'matches', 'max', 'min')")


def parse_policy(text: str) -> PolicyDocument:
    """Parse DSL text into a document; all regexes are pre-compiled."""
    try:
        return _PolicyParser(text).parse_document()
    except PolicyError:
        # a bad character anywhere in the text outranks any other error
        if (bad := _bad_character(text)) is not None:
            raise bad from None
        raise


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------


def _render_matcher(matcher: Matcher) -> str:
    if isinstance(matcher, Identity):
        return f"identity {quote_string(matcher.dn)}"
    if isinstance(matcher, Group):
        return f"group {quote_string(matcher.name)}"
    return "any"


def _render_assertion(a: _Assertion) -> str:
    clause = "attr" if a.keyword == "attr" else f"{a.keyword} attr"
    return f"{clause} {a.attr}" + ("" if a.spec is None else f" {a.spec.describe()}") + ";"


def format_policy(doc: PolicyDocument) -> str:
    """Render a document in canonical DSL text; reparsing yields an equal AST,
    for a document built in code too."""
    lines = [f"policy {quote_string(doc.name)} source {doc.source} {{"]
    for vo in doc.trust:
        lines.append(f"  trust vo {quote_string(vo)};")
    if doc.allocation is not None:
        lines.append(f"  allocation {doc.allocation} cpu-seconds;")
    for dn in sorted(doc.member_quotas):
        lines.append(
            f"  member-quota {quote_string(dn)} {doc.member_quotas[dn]} cpu-seconds;"
        )
    for block in doc.blocks:
        lines.append(f"  subject {_render_matcher(block.matcher)} {{")
        plain = sorted(
            (a for a in block.allowed_actions if a not in block.jobtag_grants),
            key=lambda a: a.value,
        )
        for action in plain:
            lines.append(f"    allow action {action.value};")
        for action in sorted(block.jobtag_grants, key=lambda a: a.value):
            tags = ", ".join(
                quote_string(t) for t in sorted(block.jobtag_grants[action])
            )
            lines.append(f"    allow action {action.value} on jobtag {tags};")
        for a in block.assertions:
            lines.append(f"    {_render_assertion(a)}")
        if block.closed_world:
            lines.append("    closed-world;")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"

