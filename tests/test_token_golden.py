"""Golden corpus: the capability token a VO issues for each credential.

The cases are every ``scenarios/policies/*-fusion.pol`` ×
``scenarios/creds/*.cred`` pair from which a capability derives, plus
`generators` VO documents and credentials drawn from a fixed seed.
``tests/data/token-golden.json`` stores, for each case, its name and the
``format_token`` text of ``sign_capability(KEY, derive_capability(...))``,
so any change to a derived fragment, to the canonical claims text or to
a MAC fails the test.

Regenerate the file (only when the issued tokens are meant to change)
with ``PYTHONPATH=src:tests python tests/test_token_golden.py``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from generators import rand_credential, rand_policy
from gridauth.credential import (
    canonical_claims_text,
    format_token,
    load_credential,
    load_token,
    sign_capability,
)
from gridauth.pdp import NoApplicableBlocksError, derive_capability
from gridauth.policy import parse_policy

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "token-golden.json"
SEED = "token-golden/1"
N_DRAWS = 150
#: the key and expiry of every case, in hex as ``issue-cap --vo-key`` takes it
KEY = bytes(range(32))
EXPIRY = 1900000000


def pairs() -> list:
    """``(name, vo document, credential)`` for every case, in order."""
    found = []
    policies = sorted((ROOT / "scenarios" / "policies").glob("*-fusion.pol"))
    creds = sorted((ROOT / "scenarios" / "creds").glob("*.cred"))
    for pol in policies:
        doc = parse_policy(pol.read_text(encoding="utf-8"))
        for cred in creds:
            text = cred.read_text(encoding="utf-8")
            found.append((f"{pol.stem}/{cred.stem}", doc, load_credential(text)))
    rng = random.Random(SEED)
    for i in range(N_DRAWS):
        doc = rand_policy(rng, "vo", min_blocks=1, with_accounting=True)
        found.append((f"random-{i}", doc, rand_credential(rng)))
    return found


def cases() -> list:
    """``(name, vo document, credential)`` for the pairs that derive."""
    derived = []
    for name, doc, cred in pairs():
        try:
            derive_capability(doc, cred, EXPIRY)
        except NoApplicableBlocksError:
            continue
        derived.append((name, doc, cred))
    return derived


def token_text(doc, cred) -> str:
    return format_token(sign_capability(KEY, derive_capability(doc, cred, EXPIRY)))


def test_every_token_matches_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    found = cases()
    assert [r[0] for r in golden] == [name for name, _doc, _cred in found]
    wrong = [
        (name, want, got)
        for (name, doc, cred), (_, want) in zip(found, golden)
        if (got := token_text(doc, cred)) != want
    ]
    assert not wrong, f"{len(wrong)} tokens differ, first: {wrong[:1]}"


def test_each_token_carries_its_canonical_text_as_mac_input():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for (name, doc, cred), (_, text) in zip(cases(), golden):
        for claims in (load_token(text).claims, derive_capability(doc, cred, EXPIRY)):
            assert claims.mac_input == canonical_claims_text(claims).encode("utf-8"), name


def test_corpus_covers_the_scenarios_and_the_draws():
    names = [r[0] for r in json.loads(GOLDEN.read_text(encoding="utf-8"))]
    assert "s1-fusion/s1-alice" in names
    assert len({n.partition("/")[0] for n in names if not n.startswith("random-")}) == 3
    assert sum(n.startswith("random-") for n in names) >= N_DRAWS // 2


if __name__ == "__main__":
    GOLDEN.write_text(
        "[\n"
        + ",\n".join(json.dumps([name, token_text(doc, cred)], ensure_ascii=False)
                     for name, doc, cred in cases())
        + "\n]\n",
        encoding="utf-8",
    )
