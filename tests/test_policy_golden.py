"""Golden corpus: the policy parser's outcome on several thousand texts.

The texts are drawn from a fixed seed: canonical renderings of
`generators.rand_policy` documents, the ``scenarios/policies/*.pol`` files
and a few hand-written documents, plus character- and token-level
mutations of all of them.  ``tests/data/policy-golden.json`` stores, for
each text, only a digest of the text and the outcome of ``parse_policy``:
a digest of ``format_policy`` and of the document's repr for a parse, or
the exception's type, message, ``line`` and ``col`` for an error.  Any
change to a parse result, an error's type, its wording or its position
fails the test.

Texts holding a digit run whose value is beyond signed 64-bit are left
out: such integer literals are rejected as syntax errors, a rule that
``test_policy.py`` tests on its own.

Regenerate the file (only when the parser's behaviour is meant to change)
with ``PYTHONPATH=src:tests python tests/test_policy_golden.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import re
from pathlib import Path

from generators import rand_policy
from gridauth.policy import format_policy, parse_policy

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "policy-golden.json"
SEED = "policy-golden/1"
N_TEXTS = 3000

HAND_WRITTEN = (
    'policy "site" source resource {\r\n'
    '  trust vo "fusion"; trust vo "bio\\"x\\\\";\r\n'
    '\tsubject identity "/O=Grid/CN=Ann Lee" { allow action start, status;\r\n'
    '    attr count range -5..-1 or max 9223372036854775807; closed-world; }\r\n'
    "}\r\n",
    "# leading comment\n"
    'policy "vo" source vo { # trailing comment\n'
    "  allocation 0 cpu-seconds; member-quota \"/CN=é\" 00012 cpu-seconds;\n"
    '  subject group "g" {\n'
    '    allow action cancel, suspend on jobtag "t1", "t 2";\n'
    '    attr queue in {"a*", "**b", "", "c"} or matches "^q(1|2)$";\n'
    "    require attr Queue; forbid attr mode min -9223372036854775808;\n"
    "  }\n"
    "  subject any { }\n"
    "}\n",
)

#: characters a character-level mutation inserts or substitutes
ALPHABET = 'ab z_-09"\\#{};,.*\n\t\r@é\x00'
#: tokens a token-level mutation inserts or substitutes
VOCABULARY = (
    "policy", "source", "vo", "resource", "subject", "identity", "group", "any",
    "trust", "allocation", "member-quota", "cpu-seconds", "allow", "action",
    "on", "jobtag", "attr", "require", "forbid", "closed-world", "in", "range",
    "matches", "max", "min", "or", "start", "cancel", "status", "suspend",
    "resume", "set_priority", "count", "Queue", "bad-name", "{", "}", ";", ",",
    "..", '"x"', '"a*b"', '"("', '""', '"\\q"', '"open', "0", "-3", "17",
    "9223372036854775807", "-9223372036854775808", "# note\n", "\n", "@",
)
#: statements a clause-level mutation inserts after a '{' or a ';'
CLAUSES = (
    'trust vo "x";', "allocation 5 cpu-seconds;", "allocation -1 cpu-seconds;",
    'member-quota "/O=Test/CN=u1" 3 cpu-seconds;', 'member-quota "/O=Test/CN=u1" -2 cpu-seconds;',
    'subject any { allow action start; }', 'subject group "g1" { closed-world; }',
    "attr count range 5..2;", "attr count range 2..5 or max 7;", 'attr queue matches "(";',
    'attr queue in {"a*b", "c"};', 'allow action start on jobtag "t1";',
    'allow action status, cancel on jobtag "t1", "t2";', "closed-world;",
    "require attr queue;", 'forbid attr mode in {"a"};', "require attr count min 0;",
)
_MUTATION_TOKEN_RE = re.compile(
    r'"(?:[^"\\]|\\.)*"|[A-Za-z_][A-Za-z0-9_-]*|-?[0-9]+|\.\.|\s+|#[^\n]*|.', re.S
)
_DIGITS_RE = re.compile(r"[0-9]+")


def _seed_texts(rng: random.Random) -> list:
    texts = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "scenarios" / "policies").glob("*.pol"))]
    texts += HAND_WRITTEN
    for i in range(300):
        source = "vo" if i % 2 else "resource"
        texts.append(format_policy(rand_policy(rng, source, with_accounting=True)))
    return texts


def _mutate_chars(rng: random.Random, text: str) -> str:
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(5)
    if op == 0:
        return text[:i] + text[i + 1 :]
    if op == 1:
        return text[:i] + rng.choice(ALPHABET) + text[i:]
    if op == 2:
        return text[:i] + rng.choice(ALPHABET) + text[i + 1 :]
    if op == 3:
        j = rng.randrange(i, min(len(text), i + 12) + 1)
        return text[:j] + text[i:j] + text[j:]
    return text[:i]


def _mutate_tokens(rng: random.Random, text: str) -> str:
    tokens = _MUTATION_TOKEN_RE.findall(text) or [""]
    i = rng.randrange(len(tokens))
    op = rng.randrange(5)
    if op == 0:
        del tokens[i]
    elif op == 1:
        tokens.insert(i, tokens[i])
    elif op == 2 and i + 1 < len(tokens):
        tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    elif op == 3:
        tokens[i] = rng.choice(VOCABULARY)
    else:
        tokens.insert(i, " " + rng.choice(VOCABULARY) + " ")
    return "".join(tokens)


def _insert_clause(rng: random.Random, text: str) -> str:
    ends = [m.end() for m in re.finditer(r"[{;]", text)] or [len(text)]
    i = rng.choice(ends)
    return text[:i] + " " + rng.choice(CLAUSES) + text[i:]


def _in_int64(text: str) -> bool:
    return all(int(run.lstrip("0") or "0") < 2**63 for run in _DIGITS_RE.findall(text))


def corpus() -> list:
    """The texts, in order; the same on every run and every platform."""
    rng = random.Random(SEED)
    seeds = _seed_texts(rng)
    texts = list(seeds)
    while len(texts) < N_TEXTS:
        text = rng.choice(seeds)
        for _ in range(rng.randrange(1, 4)):
            mutate = rng.choice((_mutate_chars, _mutate_tokens, _insert_clause))
            text = mutate(rng, text)
        if _in_int64(text):
            texts.append(text)
    return texts


def _stable_repr(obj) -> str:
    """``repr`` with set members sorted, so it does not vary with hashing."""
    if isinstance(obj, (set, frozenset)):
        return "{" + ", ".join(sorted(_stable_repr(x) for x in obj)) + "}"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_stable_repr(k)}: {_stable_repr(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (tuple, list)):
        return "(" + ", ".join(_stable_repr(x) for x in obj) + ")"
    if dataclasses.is_dataclass(obj):
        shown = (f for f in dataclasses.fields(obj) if f.repr)
        return f"{type(obj).__name__}(" + ", ".join(
            f"{f.name}={_stable_repr(getattr(obj, f.name))}" for f in shown
        ) + ")"
    return repr(obj)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()[:16]


def outcome(text: str) -> list:
    try:
        doc = parse_policy(text)
    except Exception as exc:  # every exception type is part of the outcome
        return [type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "col", None)]
    return ["ok", _digest(format_policy(doc) + "\0" + _stable_repr(doc))]


def _records() -> list:
    return [[_digest(text)] + outcome(text) for text in corpus()]


def test_every_outcome_matches_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    texts = corpus()
    assert [r[0] for r in golden] == [_digest(t) for t in texts], (
        "the corpus itself changed; regenerate it with the parser it is meant to pin"
    )
    wrong = [
        (text, want[1:], got)
        for text, want in zip(texts, golden)
        if (got := outcome(text)) != want[1:]
    ]
    assert not wrong, f"{len(wrong)} outcomes differ, first: {wrong[:3]}"


def test_corpus_reaches_every_outcome_kind():
    kinds = {r[1] for r in json.loads(GOLDEN.read_text(encoding="utf-8"))}
    assert kinds >= {"ok", "PolicySyntaxError", "MisplacedClauseError", "BadRangeError", "BadRegexError"}


if __name__ == "__main__":
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(r, ensure_ascii=False) for r in _records()) + "\n]\n",
        encoding="utf-8",
    )
