"""Credential files, grid-mapfile lookup and capability token tests."""

from __future__ import annotations

import dataclasses
import hmac
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_token_golden
from generators import rand_credential, rand_policy
from gridauth import credential, policy
from gridauth.credential import (
    BadSignatureError,
    CapabilityClaims,
    CapabilityToken,
    CredentialFormatError,
    ExpiredTokenError,
    GridCredential,
    GridMapFile,
    InvalidClaimsError,
    MissingFieldError,
    UnknownIssuerError,
    canonical_claims_text,
    format_credential,
    format_token,
    load_credential,
    load_gridmap,
    load_token,
    sign_capability,
    verify_capability,
)
from gridauth.pdp import NoApplicableBlocksError, derive_capability
from gridauth.rsl import JobAction
from test_jobmgr import _count_policy_parses

KEY = bytes(range(32))
OTHER_KEY = bytes(range(32, 64))

FRAGMENT = (
    'policy "fusion" source vo {\n'
    '  subject group "analysts" {\n'
    "    allow action start;\n"
    "  }\n"
    "}\n"
)


def _claims(**kw):
    defaults = dict(
        subject="/O=Grid/CN=alice",
        vo="fusion",
        groups=frozenset({"analysts"}),
        expiry=1000,
        policy_fragment=FRAGMENT,
    )
    defaults.update(kw)
    return CapabilityClaims(**defaults)


class TestLoadCredential:
    def test_full_file(self):
        cred = load_credential(
            "subject: /O=Grid/CN=alice\nvo: fusion\ngroups: analysts\nexpiry: 1700000000\n"
        )
        assert cred.subject == "/O=Grid/CN=alice"
        assert cred.vo == "fusion"
        assert cred.groups == {"analysts"}
        assert cred.expiry == 1700000000

    def test_missing_subject(self):
        with pytest.raises(MissingFieldError) as exc:
            load_credential("vo: fusion\nexpiry: 10\n")
        assert exc.value.field == "subject"

    def test_groups_without_vo(self):
        with pytest.raises(CredentialFormatError):
            load_credential("subject: /CN=x\ngroups: a\nexpiry: 10\n")

    def test_empty_subject(self):
        with pytest.raises(CredentialFormatError, match="^credential subject may not be empty$"):
            GridCredential("", expiry=10)

    def test_missing_expiry(self):
        with pytest.raises(MissingFieldError):
            load_credential("subject: /CN=x\n")

    def test_expired_credential_still_loads(self):
        cred = load_credential("subject: /CN=x\nexpiry: 1\n")
        assert cred.expiry == 1

    def test_comments_and_blank_lines(self):
        cred = load_credential("# a credential\n\nsubject: /CN=x\nexpiry: 5\n")
        assert cred.subject == "/CN=x"

    def test_unknown_field(self):
        with pytest.raises(CredentialFormatError):
            load_credential("subject: /CN=x\nexpiry: 5\nshoe_size: 44\n")

    def test_format_round_trip(self):
        cred = GridCredential(
            "/CN=y", expiry=99, vo="fusion", groups=frozenset({"b", "a"})
        )
        assert load_credential(format_credential(cred)) == cred


#: expiry spellings that `int` takes but a credential or token file may not;
#: each would load as the integer a token's MAC covers as ``expiry: 1000``
NON_CANONICAL_EXPIRY = {
    "underscore": "1_000",
    "plus sign": "+1000",
    "arabic-indic digits": "\u0661\u0660\u0660\u0660",
    "leading zero": "01000",
}


class TestStrictExpiry:
    @pytest.mark.parametrize("spelling", NON_CANONICAL_EXPIRY.values(), ids=NON_CANONICAL_EXPIRY)
    def test_credential_refuses(self, spelling):
        with pytest.raises(CredentialFormatError, match="^expiry must be an integer$"):
            load_credential(f"subject: /CN=x\nexpiry: {spelling}\n")

    @pytest.mark.parametrize("spelling", NON_CANONICAL_EXPIRY.values(), ids=NON_CANONICAL_EXPIRY)
    def test_token_refuses(self, spelling):
        text = format_token(sign_capability(KEY, _claims()))
        assert "expiry: 1000\n" in text
        with pytest.raises(CredentialFormatError, match="^expiry must be an integer$"):
            load_token(text.replace("expiry: 1000\n", f"expiry: {spelling}\n"))

    def test_negative_expiry_is_not_positive(self):
        with pytest.raises(CredentialFormatError, match="^credential expiry must be positive$"):
            load_credential("subject: /CN=x\nexpiry: -5\n")
        text = format_token(sign_capability(KEY, _claims()))
        with pytest.raises(InvalidClaimsError, match="^claims expiry must be positive$"):
            load_token(text.replace("expiry: 1000\n", "expiry: -5\n"))


#: edits that keep a token's claims and MAC but not its canonical text; each
#: loaded as the issued token before a token file had to be its canonical text
NON_CANONICAL_TOKEN = {
    "two spaces after a colon": ("expiry: 1000\n", "expiry:  1000\n"),
    "no space after a colon": ("subject: /O", "subject:/O"),
    "trailing space": ("vo: fusion\n", "vo: fusion \n"),
    "blank line": ("vo: fusion\n", "vo: fusion\n\n"),
    "fields swapped": ("vo: fusion\ngroups: analysts\n", "groups: analysts\nvo: fusion\n"),
    "line ended by a vertical tab": ("---END POLICY---\n", "---END POLICY---\x0b"),
    "carriage return": ("vo: fusion\n", "vo: fusion\r\n"),
    "no final newline": ("\n", ""),
    "trailing blank line": ("\n", "\n\n"),
}


class TestCanonicalTokenText:
    @pytest.mark.parametrize("edit", NON_CANONICAL_TOKEN.values(), ids=NON_CANONICAL_TOKEN)
    def test_another_spelling_of_the_claims_is_refused(self, edit):
        token = sign_capability(KEY, _claims())
        text = format_token(token)
        old, new = edit
        # an edit of the last occurrence, so "\n" edits the mac line's end
        at = text.rindex(old)
        edited = text[:at] + new + text[at + len(old):]
        assert edited != text
        with pytest.raises(CredentialFormatError, match="^token is not in canonical form$"):
            load_token(edited)

    def test_an_upper_case_mac_is_refused(self):
        text = format_token(sign_capability(KEY, _claims()))
        head, mac = text.rsplit("mac: ", 1)
        assert mac.upper() != mac
        with pytest.raises(CredentialFormatError, match="^token is not in canonical form$"):
            load_token(head + "mac: " + mac.upper())


#: pieces of enum strings that `format_policy` writes as they are: a token's
#: fences and mac line, and characters at which `str.splitlines` breaks a line
AWKWARD_PIECES = ("a", "\n---END POLICY---\n", "\n---BEGIN POLICY---\n",
                  "\n---END POLICY---\nmac: " + "0" * 64 + "\n",
                  "\u2028", "\x85", "\x0c", "\x1e", "\r", "\r\n", "\x0b")


class TestIssuedTokenRoundTrip:
    @given(
        seed=st.integers(0, 2**32),
        values=st.lists(st.lists(st.sampled_from(AWKWARD_PIECES), min_size=1, max_size=3)
                        .map("".join), min_size=2, max_size=4, unique=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_an_issued_token_loads_from_its_text_and_verifies(self, seed, values):
        rng = random.Random(seed)
        doc = rand_policy(rng, "vo", min_blocks=1, with_accounting=True, values=tuple(values))
        try:
            claims = derive_capability(doc, rand_credential(rng), expiry=1000)
        except NoApplicableBlocksError:
            return
        token = sign_capability(KEY, claims)
        loaded = load_token(format_token(token))
        assert loaded == token
        assert verify_capability({"fusion": KEY}, loaded, now=0) == claims


class TestGridMap:
    def test_lookup_hit(self):
        gm = load_gridmap('"/O=Grid/CN=alice" alice_l\n')
        assert gm.lookup("/O=Grid/CN=alice") == "alice_l"

    def test_unknown_dn_is_not_mapped(self):
        gm = load_gridmap('"/O=Grid/CN=alice" alice_l\n')
        assert gm.lookup("/O=Grid/CN=bob") is None

    def test_empty_map(self):
        assert GridMapFile({}).lookup("/CN=anyone") is None

    def test_comments(self):
        gm = load_gridmap('# mappings\n"/CN=a" acct_a\n')
        assert gm.lookup("/CN=a") == "acct_a"

    def test_duplicate_dn(self):
        with pytest.raises(CredentialFormatError):
            load_gridmap('"/CN=a" one\n"/CN=a" two\n')

    def test_bad_account_name(self):
        with pytest.raises(CredentialFormatError):
            load_gridmap('"/CN=a" Nope\n')

    @pytest.mark.parametrize("text, message", [
        ('"/CN=a\n', "line 1: unterminated DN"),
        ('# x\n"/CN=a"\n', "line 2: expected '\"<DN>\" <account>'"),
        ('"/CN=a" one two\n', "line 1: expected '\"<DN>\" <account>'"),
    ], ids=["unterminated-dn", "no-account", "two-accounts"])
    def test_malformed_line(self, text, message):
        with pytest.raises(CredentialFormatError, match=f"^{re.escape(message)}$"):
            load_gridmap(text)

    def test_built_map_checks_account_names(self):
        with pytest.raises(CredentialFormatError, match="^bad local account name 'Nope' for '/CN=a'$"):
            GridMapFile({"/CN=a": "Nope"})


class TestSignVerify:
    def test_round_trip(self):
        token = sign_capability(KEY, _claims())
        assert verify_capability({"fusion": KEY}, token, now=0) == _claims()

    def test_deterministic(self):
        a = sign_capability(KEY, _claims())
        b = sign_capability(KEY, _claims())
        assert a == b
        assert format_token(a) == format_token(b)

    def test_expired(self):
        token = sign_capability(KEY, _claims(expiry=100))
        with pytest.raises(ExpiredTokenError):
            verify_capability({"fusion": KEY}, token, now=100)
        assert verify_capability({"fusion": KEY}, token, now=99) == _claims(expiry=100)

    def test_unknown_issuer(self):
        token = sign_capability(KEY, _claims())
        with pytest.raises(UnknownIssuerError):
            verify_capability({"astro": KEY}, token, now=0)

    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            sign_capability(b"short", _claims())

    @pytest.mark.parametrize("field", ["subject", "vo"])
    def test_claims_need_a_subject_and_a_vo(self, field):
        with pytest.raises(InvalidClaimsError, match=f"^claims {field} may not be empty$"):
            _claims(**{field: ""})

    def test_fragment_must_parse(self):
        with pytest.raises(InvalidClaimsError):
            sign_capability(KEY, _claims(policy_fragment="not a policy"))

    def test_fragment_with_an_over_long_integer_is_invalid(self):
        fragment = FRAGMENT.replace("allow action start;", f"attr count max {'9' * 5000};")
        assert fragment != FRAGMENT
        with pytest.raises(InvalidClaimsError, match="integer out of signed 64-bit range"):
            sign_capability(KEY, _claims(policy_fragment=fragment))

    def test_fragment_must_be_vo_source(self):
        with pytest.raises(InvalidClaimsError):
            sign_capability(
                KEY, _claims(policy_fragment='policy "x" source resource { }')
            )

    def test_fragment_must_name_the_claims_vo(self):
        fragment = FRAGMENT.replace('policy "fusion"', 'policy "other"')
        assert fragment != FRAGMENT
        with pytest.raises(InvalidClaimsError, match="names vo 'other', not the claims vo 'fusion'"):
            sign_capability(KEY, _claims(policy_fragment=fragment))

    def test_fragment_blocks_must_apply_to_subject(self):
        fragment = (
            'policy "fusion" source vo {\n'
            '  subject group "operators" { allow action start; }\n'
            "}\n"
        )
        with pytest.raises(InvalidClaimsError):
            sign_capability(KEY, _claims(policy_fragment=fragment))

    def test_first_block_that_misses_the_subject_is_named(self):
        fragment = (
            'policy "fusion" source vo {\n'
            '  subject group "analysts" { allow action start; }\n'
            '  subject any { allow action status; }\n'
            '  subject identity "/O=Grid/CN=bob" { allow action cancel; }\n'
            '  subject group "operators" { allow action start; }\n'
            "}\n"
        )
        with pytest.raises(InvalidClaimsError) as exc:
            sign_capability(KEY, _claims(policy_fragment=fragment))
        assert str(exc.value) == "fragment block 2 does not apply to the claims subject"

    def test_token_file_round_trip(self):
        token = sign_capability(KEY, _claims())
        text = format_token(token)
        again = load_token(text)
        assert again == token
        assert format_token(again) == text

    def test_tampered_byte_never_verifies(self):
        token = sign_capability(KEY, _claims())
        text = format_token(token)
        registry = {"fusion": KEY}
        flips = 0
        for pos in range(len(text)):
            mutated = text[:pos] + chr(ord(text[pos]) ^ 1) + text[pos + 1 :]
            if mutated == text:
                continue
            flips += 1
            try:
                candidate = load_token(mutated)
            except (CredentialFormatError, InvalidClaimsError):
                continue
            try:
                claims = verify_capability(registry, candidate, now=0)
            except (BadSignatureError, ExpiredTokenError, UnknownIssuerError):
                continue
            # a flip may only survive if it did not change the claims
            assert claims == token.claims
            assert canonical_claims_text(claims) == canonical_claims_text(token.claims)
        assert flips > 200

    def test_tampered_subject_fails_signature(self):
        token = sign_capability(KEY, _claims())
        text = format_token(token).replace("CN=alice", "CN=mallet")
        with pytest.raises(BadSignatureError):
            verify_capability({"fusion": KEY}, load_token(text), now=0)

    def test_a_flipped_mac_byte_fails_after_the_token_verified(self):
        claims = _claims()
        token = sign_capability(KEY, claims)
        registry = {"fusion": KEY}
        assert verify_capability(registry, token, now=0) is claims
        for i in (0, 13, len(token.mac) - 1):
            mac = bytearray(token.mac)
            mac[i] ^= 0x01
            with pytest.raises(BadSignatureError):
                verify_capability(registry, CapabilityToken(claims, bytes(mac)), now=0)
        assert verify_capability(registry, token, now=0) is claims

    def test_verified_claims_under_an_unregistered_vo(self):
        claims = _claims()
        token = sign_capability(KEY, claims)
        assert verify_capability({"fusion": KEY}, token, now=0) is claims
        with pytest.raises(UnknownIssuerError, match="no key registered for vo 'fusion'"):
            verify_capability({"astro": KEY}, token, now=0)
        moved = dataclasses.replace(claims, vo="astro")
        with pytest.raises(UnknownIssuerError, match="no key registered for vo 'astro'"):
            verify_capability({"fusion": KEY}, CapabilityToken(moved, token.mac), now=0)

    def test_replaced_claims_with_an_edited_fragment_are_refused(self):
        claims = _claims()
        token = sign_capability(KEY, claims)
        registry = {"fusion": KEY}
        assert verify_capability(registry, token, now=0) is claims
        edited = dataclasses.replace(claims, policy_fragment=FRAGMENT.replace("start", "cancel"))
        assert edited.policy_fragment != claims.policy_fragment
        # `replace` builds the MAC input afresh, from the edited text
        assert edited.mac_input == canonical_claims_text(edited).encode("utf-8")
        assert edited.mac_input != claims.mac_input
        for _ in range(2):  # the genuine token's cached MAC does not stand for it
            with pytest.raises(BadSignatureError):
                verify_capability(registry, CapabilityToken(edited, token.mac), now=0)

    def test_mac_input_takes_no_part_in_equality_or_repr(self):
        claims = _claims()
        assert "mac_input" not in repr(claims)
        assert hash(claims) == hash(_claims())
        assert [f.name for f in dataclasses.fields(CapabilityClaims) if f.compare] == [
            "subject", "vo", "groups", "expiry", "policy_fragment"
        ]

    def test_duplicate_token_field_rejected(self):
        text = format_token(sign_capability(KEY, _claims()))
        doubled = text.replace("vo: fusion\n", "vo: astro\nvo: fusion\n")
        with pytest.raises(CredentialFormatError, match="^token is not in canonical form$"):
            load_token(doubled)


def _cached_macs() -> int:
    return credential._verify_mac.cache_info().currsize


class TestVerifiedMacCache:
    """`verify_capability` computes a token's HMAC once per (key, claims
    bytes, MAC) per process; the issuer and expiry it checks on every call."""

    def setup_method(self):
        credential._verify_mac.cache_clear()

    def test_a_verified_token_computes_no_second_hmac(self, monkeypatch):
        token = sign_capability(KEY, _claims())
        calls = []
        digest = hmac.digest
        monkeypatch.setattr(credential.hmac, "digest", lambda *a: calls.append(a) or digest(*a))
        for _ in range(3):
            assert verify_capability({"fusion": KEY}, token, now=0) is token.claims
        # equal claims built afresh have the same bytes, so they hit too
        assert verify_capability({"fusion": KEY}, CapabilityToken(_claims(), token.mac), now=0)
        assert len(calls) == 1
        assert _cached_macs() == 1

    def test_a_verified_token_past_its_expiry_is_expired_on_every_call(self):
        token = sign_capability(KEY, _claims(expiry=100))
        registry = {"fusion": KEY}
        assert verify_capability(registry, token, now=99) is token.claims
        for now in (100, 100, 5000):
            with pytest.raises(ExpiredTokenError, match="token expired at 100"):
                verify_capability(registry, token, now=now)
        assert verify_capability(registry, token, now=0) is token.claims

    def test_the_claims_under_another_key_stay_refused(self):
        claims = _claims()
        genuine, forged = sign_capability(KEY, claims), sign_capability(OTHER_KEY, claims)
        registry = {"fusion": KEY}
        assert verify_capability(registry, genuine, now=0) is claims
        for _ in range(3):
            with pytest.raises(BadSignatureError, match="token MAC does not verify"):
                verify_capability(registry, forged, now=0)
        assert _cached_macs() == 1

    def test_a_replaced_registry_key_refuses_the_old_token(self):
        token = sign_capability(KEY, _claims())
        registry = {"fusion": KEY}
        assert verify_capability(registry, token, now=0) is token.claims
        registry["fusion"] = OTHER_KEY
        for _ in range(2):
            with pytest.raises(BadSignatureError):
                verify_capability(registry, token, now=0)
        assert verify_capability(registry, sign_capability(OTHER_KEY, _claims()), now=0)

    def test_a_failed_verification_caches_nothing(self):
        token = sign_capability(KEY, _claims())
        zeroed = CapabilityToken(token.claims, bytes(32))
        failures = [({"fusion": OTHER_KEY}, token), ({"fusion": KEY}, zeroed)]
        for registry, presented in failures:
            with pytest.raises(BadSignatureError):
                verify_capability(registry, presented, now=0)
            assert _cached_macs() == 0
        with pytest.raises(UnknownIssuerError):
            verify_capability({}, token, now=0)
        assert _cached_macs() == 0
        assert verify_capability({"fusion": KEY}, token, now=0) is token.claims
        for registry, presented in failures:
            with pytest.raises(BadSignatureError):
                verify_capability(registry, presented, now=0)
            assert _cached_macs() == 1

    def test_more_tokens_than_the_cache_holds(self):
        tokens = [sign_capability(KEY, _claims(expiry=1000 + i))
                  for i in range(credential.MAC_CACHE_SIZE + 40)]
        registry = {"fusion": KEY}
        for _ in range(2):  # the second round verifies evicted tokens afresh
            for token in tokens:
                assert verify_capability(registry, token, now=0) is token.claims
                with pytest.raises(BadSignatureError):
                    verify_capability(registry, CapabilityToken(token.claims, bytes(32)), now=0)
        assert _cached_macs() == credential.MAC_CACHE_SIZE

    @pytest.mark.parametrize("view", [bytearray, memoryview])
    def test_a_bytes_like_registry_key_verifies_as_bytes_do(self, view):
        token = sign_capability(KEY, _claims())
        buffer = bytearray(KEY)
        registry = {"fusion": buffer if view is bytearray else view(buffer)}
        for _ in range(2):
            assert verify_capability(registry, token, now=0) is token.claims
        buffer[0] ^= 1  # the key edited in place no longer verifies the token
        with pytest.raises(BadSignatureError):
            verify_capability(registry, token, now=0)
        buffer[0] ^= 1
        assert verify_capability(registry, token, now=0) is token.claims
        mac = bytearray(token.mac)
        assert verify_capability(registry, CapabilityToken(token.claims, mac), now=0)
        mac[0] ^= 1
        with pytest.raises(BadSignatureError):
            verify_capability(registry, CapabilityToken(token.claims, mac), now=0)

    @pytest.mark.parametrize("key", [KEY.hex(), 32, None], ids=["text", "int", "none"])
    def test_a_key_that_is_not_bytes_like_is_a_type_error(self, key):
        token = sign_capability(KEY, _claims())
        if key is None:  # the registry holds no key for the VO
            with pytest.raises(UnknownIssuerError):
                verify_capability({"fusion": key}, token, now=0)
            return
        with pytest.raises(TypeError, match="bytes-like object is required"):
            verify_capability({"fusion": key}, token, now=0)
        assert _cached_macs() == 0


class TestRejectionTotality:
    @given(st.text(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_credential_loader(self, text):
        try:
            load_credential(text)
        except CredentialFormatError:
            pass
        except MissingFieldError:
            pass

    @given(st.text(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_gridmap_loader(self, text):
        try:
            load_gridmap(text)
        except CredentialFormatError:
            pass

    @given(st.text(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_token_loader(self, text):
        from gridauth.credential import CredentialError

        try:
            load_token(text)
        except CredentialError:
            pass


class TestProperties:
    def test_signature_soundness_under_wrong_keys(self):
        # 10_000 random key pairs: a token signed with k1 never verifies under k2
        rng = random.Random(0xC0FFEE)
        claims = _claims()
        passes = 0
        for _ in range(10_000):
            k1 = rng.randbytes(32)
            k2 = rng.randbytes(32)
            if k1 == k2:
                continue
            token = sign_capability(k1, claims)
            try:
                verify_capability({"fusion": k2}, token, now=0)
                passes += 1
            except BadSignatureError:
                pass
        assert passes == 0

    def test_canonicalization_ignores_group_order(self):
        fragment = 'policy "fusion" source vo {\n  subject any {\n    allow action start;\n  }\n}\n'
        a = _claims(groups=frozenset({"x", "y"}), policy_fragment=fragment)
        b = _claims(groups=frozenset({"y", "x"}), policy_fragment=fragment)
        assert canonical_claims_text(a) == canonical_claims_text(b)
        assert sign_capability(KEY, a) == sign_capability(KEY, b)


def _by_hand(claims: CapabilityClaims) -> CapabilityClaims:
    """Equal claims built from the same fields, so carrying no document."""
    return CapabilityClaims(claims.subject, claims.vo, claims.groups, claims.expiry,
                            claims.policy_fragment)


def _refusal(claims: CapabilityClaims) -> str:
    with pytest.raises(InvalidClaimsError) as exc:
        sign_capability(KEY, claims)
    return str(exc.value)


ALICE = GridCredential("/O=Grid/CN=alice", expiry=1000, vo="fusion", groups={"analysts"})

#: each refusal of `TestSignVerify`: a fragment and the message it gets
BAD_FRAGMENTS = (
    ("not a policy", "policy fragment does not parse: line 1, col 1: expected 'policy'"),
    (FRAGMENT.replace("allow action start;", f"attr count max {'9' * 5000};"),
     "policy fragment does not parse: line 3, col 20: integer out of signed 64-bit range"),
    ('policy "x" source resource { }', "policy fragment must be a vo document"),
    (FRAGMENT.replace('policy "fusion"', 'policy "other"'),
     "policy fragment names vo 'other', not the claims vo 'fusion'"),
    (FRAGMENT.replace('"analysts"', '"operators"'),
     "fragment block 0 does not apply to the claims subject"),
)


class TestSignDerivedClaims:
    def test_derived_claims_sign_without_a_parse(self, monkeypatch):
        claims = derive_capability(policy.parse_policy(FRAGMENT), ALICE, expiry=1000)
        calls = _count_policy_parses(monkeypatch)
        token = sign_capability(KEY, claims)
        assert calls == []
        # claims without the document parse their text once, to the same token
        assert sign_capability(KEY, _by_hand(claims)) == token
        assert calls == [claims.policy_fragment]

    def test_rebuilt_claims_sign_to_the_same_token(self, monkeypatch):
        found = test_token_golden.cases()
        assert len(found) > 100
        calls = _count_policy_parses(monkeypatch)
        for _name, doc, cred in found:
            derived = derive_capability(doc, cred, test_token_golden.EXPIRY)
            rebuilt = _by_hand(derived)
            assert derived.document is not None and rebuilt.document is None
            token, again = sign_capability(KEY, derived), sign_capability(KEY, rebuilt)
            assert format_token(again) == format_token(token)
            assert again.mac == token.mac
        # only the rebuilt claims were parsed
        assert len(calls) == len(found)

    @given(st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_rebuilt_random_claims_sign_to_the_same_token(self, seed):
        rng = random.Random(seed)
        doc = rand_policy(rng, "vo", with_accounting=True)
        try:
            derived = derive_capability(doc, rand_credential(rng), expiry=1000)
        except NoApplicableBlocksError:
            return
        token = sign_capability(KEY, derived)
        assert format_token(sign_capability(KEY, _by_hand(derived))) == format_token(token)

    @pytest.mark.parametrize("fragment, message", BAD_FRAGMENTS)
    def test_each_refusal_holds_on_derived_claims(self, fragment, message):
        derived = derive_capability(policy.parse_policy(FRAGMENT), ALICE, expiry=1000)
        edited = dataclasses.replace(derived, policy_fragment=fragment)
        assert edited.document is None
        assert _refusal(_claims(policy_fragment=fragment)) == message
        assert _refusal(edited) == message

    def test_a_forced_document_that_formats_otherwise_is_not_trusted(self):
        good = derive_capability(policy.parse_policy(FRAGMENT), ALICE, expiry=1000)
        for fragment, message in BAD_FRAGMENTS:
            bad = _claims(policy_fragment=fragment)
            object.__setattr__(bad, "document", good.document)
            assert _refusal(bad) == message

    def test_a_document_whose_text_does_not_parse_is_not_trusted(self, monkeypatch):
        # such a document cannot be built: its constructors refuse what the
        # parser refuses, so no claims can carry one
        huge, start = 2**63, policy.SubjectBlock(policy.AnySubject(), {JobAction.START})
        builds = [
            lambda: policy.OrSpec((policy.MinSpec(-huge - 1),)),
            lambda: policy.RangeSpec(0, 2.5),
            lambda: policy.SubjectBlock(policy.AnySubject(), {JobAction.CANCEL},
                                        jobtag_grants={JobAction.CANCEL: ()}),
            lambda: policy.PolicyDocument("fusion", "vo", blocks=(start,),
                                          member_quotas={ALICE.subject: 1.5}),
        ]
        builds += [lambda n=n: policy.PolicyDocument("fusion", "vo", blocks=(start,), allocation=n)
                   for n in (huge, -1, True)]
        for build in builds:
            with pytest.raises(policy.PolicyError):
                build()
        # with figures the parser takes, the document is trusted
        doc = policy.PolicyDocument("fusion", "vo", blocks=(start,), allocation=huge - 1)
        derived = derive_capability(doc, ALICE, expiry=1000)
        calls = _count_policy_parses(monkeypatch)
        sign_capability(KEY, derived)
        assert calls == []
