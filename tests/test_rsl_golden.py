"""Golden corpus: the RSL parser's outcome on several thousand texts.

The texts are drawn from a fixed seed: `generators.rand_request` requests
rendered through ``serialize_rsl``, the RSL of the ``scenarios/*.script``
files and a few hand-written requests with odd whitespace and escapes,
plus character-, token- and clause-level mutations of all of them.
``tests/data/rsl-golden.json`` stores, for each text, only a digest of
the text and the outcome of ``parse_rsl``: a digest of ``serialize_rsl``
and of the attribute map for a parse, or the exception's type, message,
``position`` and ``expected`` for an error.  Any change to a parse
result, an error's type, its wording or its position fails the test.

Regenerate the file (only when the parser's behaviour is meant to change)
with ``PYTHONPATH=src:tests python tests/test_rsl_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import shlex
from pathlib import Path

from generators import rand_request
from gridauth.rsl import parse_rsl
from rsl_reference import serialize_rsl

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "rsl-golden.json"
SEED = "rsl-golden/1"
N_TEXTS = 3000

HAND_WRITTEN = (
    ' \t&\r\n( executable = "/bin/date" )\t(COUNT=4) (Arguments= "-u"   "now" )\n',
    '&(arguments="a \\"quoted\\" word" "back\\\\slash" "")(stdout="/tmp/o ut")',
    '&(executable="/x")(count=9223372036854775807)(maxmemory=000000000000000000001)',
    '&(executable="/x")(priority=-9223372036854775808)(Custom_Attr="é\\\\")',
    '&\n\n(queue="gold")\r\n(jobtag="fusion-prod")\r\n(directory="/scratch/run 1")',
    '&(executable="/x")(count=2)(stderr="\\"")(arguments="x")(extra_1=17)',
    '&(jobtag="")(queue="a\\\\\\"b")(maxcputime=600)',
)

#: characters a character-level mutation inserts or substitutes
ALPHABET = '&()=" \\-09az_AZ\t\r\n.é\x00'
#: tokens a token-level mutation inserts or substitutes
VOCABULARY = (
    "&", "(", ")", "=", " ", "\t\n", "executable", "count", "maxmemory",
    "maxcputime", "arguments", "queue", "jobtag", "stdout", "Count", "bad-name",
    "_x", "9x", '"x"', '""', '"a b"', '"\\""', '"\\\\"', '"\\q"', '"a\\n b"',
    '"tail\\', '"open', "0", "-3", "17", "9223372036854775807", "9223372036854775808",
    "-9223372036854775808", "-9223372036854775809", "00000000000000000000042",
)
#: clauses a clause-level mutation inserts after the '&' or a ')'
CLAUSES = (
    "(count=3)", "(count=0)", "(count=-1)", '(count="3")', "(maxmemory=512)",
    '(arguments="a" "b")', "(arguments=1)", '(queue="a" "b")', "(queue=5)",
    '(executable="/bin/sh")', '(jobtag="t1")', "(x=)", "(=1)", "()", "(y=1",
    '(Executable="/y")', "( z = 1 )", '(custom="v")(custom=2)',
)
_MUTATION_TOKEN_RE = re.compile(r'"(?:[^"\\]|\\.)*"|[A-Za-z_][A-Za-z0-9_]*|-?[0-9]+|\s+|.', re.S)


def _seed_texts(rng: random.Random) -> list:
    texts = []
    for script in sorted((ROOT / "scenarios").glob("*.script")):
        for line in script.read_text(encoding="utf-8").splitlines():
            if "rsl=" in line:
                texts += [t[4:] for t in shlex.split(line) if t.startswith("rsl=")]
    texts += HAND_WRITTEN
    for _ in range(300):
        texts.append(serialize_rsl(rand_request(rng, with_budget=True)))
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
        tokens.insert(i, rng.choice((" ", "\t", "\r\n", "  \n ")))
    return "".join(tokens)


def _insert_clause(rng: random.Random, text: str) -> str:
    ends = [m.end() for m in re.finditer(r"[&)]", text)] or [len(text)]
    i = rng.choice(ends)
    return text[:i] + rng.choice(("", " ")) + rng.choice(CLAUSES) + text[i:]


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
        texts.append(text)
    return texts


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()[:16]


def outcome(text: str) -> list:
    try:
        request = parse_rsl(text)
    except Exception as exc:  # every exception type is part of the outcome
        return [
            type(exc).__name__,
            str(exc),
            getattr(exc, "position", None),
            getattr(exc, "expected", None),
        ]
    return ["ok", _digest(serialize_rsl(request) + "\0" + repr(request.attributes))]


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
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert {r[1] for r in golden} >= {
        "ok",
        "RslSyntaxError",
        "DuplicateAttributeError",
        "EmptyRequestError",
        "AttributeTypeError",
    }
    # every syntax error message the parser has
    messages = {r[2].partition(" at offset")[0] for r in golden if r[1] == "RslSyntaxError"}
    assert messages >= {
        "unexpected input",
        "bad clause",
        "bad value",
        "unterminated string",
        "invalid escape",
        "integer out of signed 64-bit range",
        "multiple string values are only allowed for 'arguments'",
    }


if __name__ == "__main__":
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(r, ensure_ascii=False) for r in _records()) + "\n]\n",
        encoding="utf-8",
    )
