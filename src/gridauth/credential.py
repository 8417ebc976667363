"""Simulated grid identities, grid-mapfile lookup, and capability tokens.

Credentials are plain local files the simulator trusts; only capability
tokens carry a cryptographic tag.  A credential's expiry is checked by
`pdp.authorize`, not here, so an expired credential still loads.  A
token binds a subject, its VO context, and a policy fragment under an
HMAC-SHA256 keyed by the issuing VO's registered secret.  Signing is
deterministic: the MAC is computed over a canonical serialization of the
claims, so identical claims always produce identical tokens.
Verification computes the MAC once per distinct (key, claims bytes, MAC)
per process and checks the issuer and expiry on every call.

Signing checks the claims' policy fragment: on the document that
`pdp.derive_capability` attached to them if it formats to their text,
which then parses to an equal document, else on a parse of the text.

A ``.cap`` file is read the way `format_token` writes it: one match of
its layout, whose fragment runs to the last end fence, so a fragment may
hold any string `policy.format_policy` writes (a fence line, a character
`str.splitlines` would break at), and then one comparison with the
token's own text, which refuses every other spelling.
"""

from __future__ import annotations

import hmac
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

from . import policy as policy_mod

KEY_BYTES = 32
#: distinct verified (key, claims bytes, MAC) triples a process keeps
MAC_CACHE_SIZE = 128

#: a local account name, as a grid-mapfile maps a DN to it or ``--pool`` lists it
ACCOUNT_NAME_RE = re.compile(r"[a-z_][a-z0-9_-]*\Z")
#: the canonical form of an integer, the only one a token's MAC covers
_EXPIRY_RE = re.compile(r"-?(0|[1-9][0-9]*)\Z")

_POLICY_BEGIN = "---BEGIN POLICY---"
_POLICY_END = "---END POLICY---"
#: `format_token`'s layout, matched in linear time: the four header lines in
#: their order with any value (the canonical comparison checks its spelling),
#: the fragment up to the last end fence, and the HMAC-SHA256 as lower-case hex
_TOKEN_RE = re.compile(
    r"subject:(.*)\nvo:(.*)\ngroups:(.*)\nexpiry:(.*)\n"
    rf"{_POLICY_BEGIN}\n(?s:(.*))\n{_POLICY_END}\nmac: ([0-9a-f]{{64}})\n\Z"
)


class CredentialError(ValueError):
    """Base class for credential and token errors."""


class CredentialFormatError(CredentialError):
    pass


class MissingFieldError(CredentialError):
    def __init__(self, name: str):
        self.field = name
        super().__init__(f"missing required field '{name}'")


class InvalidClaimsError(CredentialError):
    pass


class UnknownIssuerError(CredentialError):
    pass


class BadSignatureError(CredentialError):
    pass


class ExpiredTokenError(CredentialError):
    pass


@dataclass(frozen=True)
class GridCredential:
    """A grid identity with optional VO membership."""

    subject: str
    expiry: int
    vo: str | None = None
    groups: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "groups", frozenset(self.groups))
        if not self.subject:
            raise CredentialFormatError("credential subject may not be empty")
        if self.expiry <= 0:
            raise CredentialFormatError("credential expiry must be positive")
        if self.groups and self.vo is None:
            raise CredentialFormatError("groups require a vo")


def _expiry_and_groups(expiry: str, groups: str) -> tuple:
    """The ``expiry`` and ``groups`` fields of a credential or token file.

    ``expiry`` is an optional ``-`` and ASCII digits with no leading zero:
    ``1_000``, ``+7``, ``007`` and non-ASCII digits, which `int` takes
    too, would load as the integer that a token's MAC covers in its
    canonical form.
    """
    if not _EXPIRY_RE.match(expiry):
        raise CredentialFormatError("expiry must be an integer")
    return int(expiry), frozenset(g.strip() for g in groups.split(",") if g.strip())


def load_credential(text: str) -> GridCredential:
    """Parse the line-oriented ``.cred`` format.

    An expired credential still loads; `pdp.authorize` denies it.
    """
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep:
            raise CredentialFormatError(f"line {lineno}: expected 'field: value'")
        if key not in ("subject", "vo", "groups", "expiry"):
            raise CredentialFormatError(f"line {lineno}: unknown field '{key}'")
        if key in fields:
            raise CredentialFormatError(f"line {lineno}: duplicate field '{key}'")
        fields[key] = value.strip()

    if "subject" not in fields or not fields["subject"]:
        raise MissingFieldError("subject")
    if "expiry" not in fields:
        raise MissingFieldError("expiry")
    expiry, groups = _expiry_and_groups(fields["expiry"], fields.get("groups", ""))
    return GridCredential(
        subject=fields["subject"],
        expiry=expiry,
        vo=fields.get("vo") or None,
        groups=groups,
    )


def format_credential(cred: GridCredential) -> str:
    lines = [f"subject: {cred.subject}"]
    if cred.vo is not None:
        lines.append(f"vo: {cred.vo}")
    if cred.groups:
        lines.append(f"groups: {', '.join(sorted(cred.groups))}")
    lines.append(f"expiry: {cred.expiry}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GridMapFile:
    """Exact-match mapping from subject DNs to local account names."""

    entries: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries", dict(self.entries))
        for dn, account in self.entries.items():
            if not ACCOUNT_NAME_RE.match(account):
                raise CredentialFormatError(
                    f"bad local account name {account!r} for {dn!r}"
                )

    def lookup(self, subject: str) -> str | None:
        """The mapped account, or None when the DN is not mapped.

        An unmapped DN is an ordinary outcome (it triggers dynamic
        account leasing downstream), not an error.
        """
        return self.entries.get(subject)


def load_gridmap(text: str) -> GridMapFile:
    """Parse grid-mapfile lines: ``"<DN>" <account>``, ``#`` comments."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith('"'):
            raise CredentialFormatError(f"line {lineno}: expected a quoted DN")
        end = line.find('"', 1)
        if end < 0:
            raise CredentialFormatError(f"line {lineno}: unterminated DN")
        dn = line[1:end]
        account = line[end + 1 :].strip()
        if not dn or not account or " " in account:
            raise CredentialFormatError(f"line {lineno}: expected '\"<DN>\" <account>'")
        if dn in entries:
            raise CredentialFormatError(f"line {lineno}: duplicate entry for {dn!r}")
        if not ACCOUNT_NAME_RE.match(account):
            raise CredentialFormatError(f"line {lineno}: bad account name {account!r}")
        entries[dn] = account
    return GridMapFile(entries)


@dataclass(frozen=True)
class CapabilityClaims:
    """Signed content of a push-mode token.

    ``policy_fragment`` is the VO policy document (DSL text) restricted
    to the blocks that apply to the subject; embedding it makes a
    pushed token self-contained.  Only `pdp.derive_capability` sets
    ``document``, the fragment's document, so ``replace`` and `load_token`
    give claims without it; it takes no part in equality or the MAC.
    ``mac_input``, the canonical text's bytes that the MAC covers, is
    built with the claims, so ``replace`` builds it afresh.
    """

    subject: str
    vo: str
    groups: frozenset
    expiry: int
    policy_fragment: str
    document: policy_mod.PolicyDocument | None = field(
        default=None, init=False, compare=False, repr=False
    )
    mac_input: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "groups", frozenset(self.groups))
        if not self.subject:
            raise InvalidClaimsError("claims subject may not be empty")
        if not self.vo:
            raise InvalidClaimsError("claims vo may not be empty")
        if self.expiry <= 0:
            raise InvalidClaimsError("claims expiry must be positive")
        object.__setattr__(self, "mac_input", canonical_claims_text(self).encode("utf-8"))


@dataclass(frozen=True)
class CapabilityToken:
    claims: CapabilityClaims
    mac: bytes


def canonical_claims_text(claims: CapabilityClaims) -> str:
    """The byte-stable serialization the MAC is computed over.

    Field order is fixed and groups are sorted, so logically equal
    claims serialize identically regardless of construction order.
    """
    return (
        f"subject: {claims.subject}\n"
        f"vo: {claims.vo}\n"
        f"groups: {', '.join(sorted(claims.groups))}\n"
        f"expiry: {claims.expiry}\n"
        f"{_POLICY_BEGIN}\n"
        f"{claims.policy_fragment.rstrip(chr(10))}\n"
        f"{_POLICY_END}\n"
    )


def _validate_claims(claims: CapabilityClaims) -> None:
    """Check the fragment: a vo document of the claims' vo, every block applying
    to their subject; the attached document, if it formats to the text, stands for it."""
    fragment = claims.document
    if fragment is None or policy_mod.format_policy(fragment) != claims.policy_fragment:
        try:
            fragment = policy_mod.parse_policy(claims.policy_fragment)
        except policy_mod.PolicyError as exc:
            raise InvalidClaimsError(f"policy fragment does not parse: {exc}") from None
    if fragment.source != "vo":
        raise InvalidClaimsError("policy fragment must be a vo document")
    if fragment.name != claims.vo:
        raise InvalidClaimsError(
            f"policy fragment names vo {fragment.name!r}, not the claims vo {claims.vo!r}"
        )
    applies = fragment.applicable_indices(claims.subject, claims.groups)
    missed = min(set(range(len(fragment.blocks))).difference(applies), default=None)
    if missed is not None:
        raise InvalidClaimsError(f"fragment block {missed} does not apply to the claims subject")


def sign_capability(vo_key: bytes, claims: CapabilityClaims) -> CapabilityToken:
    """Deterministically MAC the canonical claims under the VO key; claims
    without a matching ``document`` have their fragment parsed first."""
    if len(vo_key) != KEY_BYTES:
        raise ValueError(f"vo key must be exactly {KEY_BYTES} bytes")
    _validate_claims(claims)
    return CapabilityToken(claims=claims, mac=hmac.digest(vo_key, claims.mac_input, "sha256"))


def _as_bytes(buffer) -> bytes:
    """``buffer`` as a cache key: itself if it is ``bytes``, else a copy of
    a bytes-like one (a ``bytearray`` key, say); any other value raises
    `TypeError`, as HMAC itself would."""
    return buffer if type(buffer) is bytes else bytes(memoryview(buffer))


@lru_cache(maxsize=MAC_CACHE_SIZE)
def _verify_mac(key: bytes, mac_input: bytes, mac: bytes) -> None:
    """Raise `BadSignatureError` unless ``mac`` is the HMAC-SHA256 of
    ``mac_input`` under ``key``.  A success is cached under exactly these
    three values; a failure raises, and is not cached."""
    if not hmac.compare_digest(hmac.digest(key, mac_input, "sha256"), mac):
        raise BadSignatureError("token MAC does not verify")


def verify_capability(
    registry: Mapping, token: CapabilityToken, now: int
) -> CapabilityClaims:
    """Return the claims iff the issuer is registered, the MAC checks out
    and the token is fresh.  The issuer and expiry are checked on every
    call; the MAC over the claims' ``mac_input`` once per distinct (key,
    claims bytes, MAC) per process, by `_verify_mac`, which keeps at most
    ``MAC_CACHE_SIZE`` verified triples, so another key, a rotated
    registry key or edited claims miss it and are verified afresh."""
    key = registry.get(token.claims.vo)
    if key is None:
        raise UnknownIssuerError(f"no key registered for vo '{token.claims.vo}'")
    _verify_mac(_as_bytes(key), token.claims.mac_input, _as_bytes(token.mac))
    if now >= token.claims.expiry:
        raise ExpiredTokenError(f"token expired at {token.claims.expiry}")
    return token.claims


def format_token(token: CapabilityToken) -> str:
    """The ``.cap`` file format: canonical claims plus a final mac line."""
    return canonical_claims_text(token.claims) + f"mac: {token.mac.hex()}\n"


def load_token(text: str) -> CapabilityToken:
    """Read a ``.cap`` file, which must be exactly ``format_token`` of what it holds."""
    match = _TOKEN_RE.match(text)
    if match is None:
        raise CredentialFormatError("token is not in canonical form")
    subject, vo, groups, expiry, fragment, mac_hex = match.groups()
    expiry, groups = _expiry_and_groups(expiry.strip(), groups)
    claims = CapabilityClaims(
        subject=subject.strip(),
        vo=vo.strip(),
        groups=groups,
        expiry=expiry,
        policy_fragment=fragment + "\n",
    )
    token = CapabilityToken(claims=claims, mac=bytes.fromhex(mac_hex))
    # one text per token: spacing, order, case and line ends are not free
    if format_token(token) != text:
        raise CredentialFormatError("token is not in canonical form")
    return token
