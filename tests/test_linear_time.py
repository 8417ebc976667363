"""Both parsers and the token reader reject long adversarial texts in
linear time, and a large dynamic-account pool loads in linear time.

A tokenizer whose string alternative needs the closing quote re-scans an
unclosed string from each '"' inside it to the end of the text, which is
quadratic in the length of the string.  Each text here is at least 20000
characters long and must be rejected in well under a second, with the
same error as a short text of the same shape.  The RSL texts also try
the accept path's clause regex: a whitespace run it backtracks over, a
long run of clauses it takes before the fault, and a long string it
scans inside a clause that does not close.  The token texts make the
token's match look back from the end for the mac line past every end
fence, or past every character of a long header line.

A pool that looks for duplicates, or a restore that looks for an
account both free and leased, by scanning the free list once per
account is quadratic too; every CLI command restores the pool.
"""

from __future__ import annotations

import time

import pytest

from gridauth.credential import CredentialFormatError, GridCredential, load_token
from gridauth.enforce import DynamicAccountPool, EnforcementError
from gridauth.jobmgr import JobManager, SimProfile
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


def _clauses(n: int) -> str:
    return "".join(f"(a{i}={i})" for i in range(n))


@pytest.mark.parametrize(
    "text, short, message, position, expected",
    [
        ("&(a=" + ESCAPED_QUOTES, '&(a="\\"', "unterminated string", 4, None),
        ("&" + WHITESPACE + "!", "& !", "unexpected input", 20001, "'('"),
        ('&(arguments="a"' + WHITESPACE + '"b"!)', '&(arguments="a" "b"!)',
         "unexpected input", 20018, "')'"),
        ("&" + _clauses(4000) + "!", "&" + _clauses(3) + "!",
         "unexpected input", 1 + len(_clauses(4000)), "'('"),
        ("&(a=" + ESCAPED_QUOTES + '" (b=1)', '&(a="\\"" (b=1)',
         "unexpected input", 20007, "')'"),
    ],
    ids=["unterminated-string", "whitespace-run", "argument-whitespace-run",
         "many-clauses", "closed-string-without-paren"],
)
def test_rsl(text, short, message, position, expected):
    exc = _rejection(parse_rsl, text, RslSyntaxError)
    assert (exc.position, exc.expected) == (position, expected)
    suffix = f" (expected {expected})" if expected else ""
    assert str(exc) == f"{message} at offset {position}{suffix}"
    with pytest.raises(RslSyntaxError) as short_exc:
        parse_rsl(short)
    assert str(short_exc.value).partition(" at offset ")[0] == message
    assert short_exc.value.expected == expected


def test_rsl_long_spaced_request_is_accepted():
    clauses = "".join(f' ( a{i} = {i} ) \t( b{i}\n=\r\n"x\\"y" ) ' for i in range(500))
    text = " & " + clauses + "( arguments = " + ' \n "p" "q\\\\"' * 400 + " ) "
    assert len(text) >= 20000
    start = time.perf_counter()
    request = parse_rsl(text)
    assert time.perf_counter() - start < 1.0
    assert len(request.attributes) == 1001
    assert request.attributes["a499"] == 499
    assert request.attributes["b0"] == 'x"y'
    assert request.attributes["arguments"] == ["p", "q\\"] * 400


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


def _token_head(subject: str) -> str:
    return f"subject: {subject}\nvo: fusion\ngroups: \nexpiry: 1000\n---BEGIN POLICY---\n"


@pytest.mark.parametrize(
    "text, short",
    [
        (_token_head("/CN=a") + "\n---END POLICY---\n" * 20000,
         _token_head("/CN=a") + "\n---END POLICY---\n"),
        (_token_head("/CN=a" * 4000) + "x\n---END POLICY---\nmac: 00\n",
         _token_head("/CN=a") + "x\n---END POLICY---\nmac: 00\n"),
    ],
    ids=["end-fences-without-mac", "long-header-line"],
)
def test_token(text, short):
    exc = _rejection(load_token, text, CredentialFormatError)
    assert str(exc) == "token is not in canonical form"
    with pytest.raises(CredentialFormatError, match="^token is not in canonical form$"):
        load_token(short)


#: enough accounts that a scan per account takes seconds
ACCOUNTS = [f"dyn{i:05d}" for i in range(20000)]


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    assert time.perf_counter() - start < 1.0
    return result


def test_pool_of_many_accounts():
    pool = _timed(DynamicAccountPool, ACCOUNTS)
    assert pool.free_accounts == tuple(ACCOUNTS)
    # the first account that repeats an earlier one is named
    with pytest.raises(EnforcementError) as exc:
        _timed(DynamicAccountPool, ACCOUNTS + ["dyn00005", "dyn00003", "dyn00005"])
    assert str(exc.value) == "duplicate account 'dyn00005'"


def test_restore_of_many_leases():
    site = parse_policy('policy "site" source resource { subject any { allow action start; } }')
    engine = JobManager(site, pool=DynamicAccountPool(ACCOUNTS))
    cred = GridCredential("/O=Grid/CN=alice", expiry=10**9)
    for _ in range(4000):
        engine.gatekeeper_submit(cred, "&(count=1)", SimProfile(runtime=5))
    state = engine.snapshot()
    restored = _timed(JobManager.restore, state, site)
    assert restored.snapshot() == state
    state["pool"]["free"].append(engine.job_record("j4000").account)
    with pytest.raises(ValueError, match="'dyn03999' is both free and leased to j4000"):
        _timed(JobManager.restore, state, site)
