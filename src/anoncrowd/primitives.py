"""Commitments, encryption, signatures, hashing and message codecs.

This is the cryptographic toolbox the protocol layers build on:

* Pedersen commitments over a prime-order group, additively homomorphic,
  with the blinding generator derived by hashing so its discrete log
  relative to the main generator is unknown.
* Lifted ElGamal encryption: messages from a declared finite domain are
  embedded as scalar multiples of the generator and recovered after
  decryption with a bounded baby-step/giant-step search. keygen makes its
  public key a fixed base of the group, so encryption under it and
  signature checks against it take the fixed-base path.
* Schnorr-style signatures with deterministic nonces: S = r + H(m) * sk,
  verified as S * G - H(m) * pk == R.
* SHA-256 as the collision-resistant hash, with domain-separation tags on
  every distinct use.

Quality values travel as ordered pairs (one commitment per Beta-posterior
parameter), so pair-level containers and arithmetic live here too. Every
sum of scalar multiples below is one Group.lincomb call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .encoding import record, record_fields
from .errors import DomainError, EncodingError
from .group import Group, GroupElement, Scalar

_DST_HASH = b"anoncrowd/v1/hash"
_DST_SCALAR = b"anoncrowd/v1/hash-to-scalar"
_DST_NONCE = b"anoncrowd/v1/sig-nonce"
_DST_TAG = b"anoncrowd/v1/quality-tag"


def hash_bytes(data: bytes) -> bytes:
    """Domain-separated SHA-256. All protocol digests go through here."""
    return hashlib.sha256(_DST_HASH + data).digest()


def hash_to_scalar(group: Group, data: bytes) -> Scalar:
    d = hashlib.sha256(_DST_SCALAR + data).digest()
    return group.scalar(int.from_bytes(d, "big"))


# ── commitments ──────────────────────────────────────────────────────────────


def commit(group: Group, value: "int | Scalar", blind: Scalar) -> GroupElement:
    """Pedersen commitment value * G + blind * H."""
    return group.dual_mul(group.scalar(value), blind)


def open_check(group: Group, com: GroupElement, value: "int | Scalar", blind: Scalar) -> bool:
    return commit(group, value, blind) == com


def rerandomize(group: Group, com: GroupElement, extra: Scalar) -> GroupElement:
    """Homomorphic re-randomization: adds a commitment to zero, so the
    committed value is unchanged while the opening shifts by ``extra``."""
    return group.lincomb(((extra, group.blind_generator),), com)


@dataclass(frozen=True)
class BlindingPair:
    """Blinding scalars for the two components of a quality commitment."""

    alpha: Scalar
    beta: Scalar

    def __add__(self, other: "BlindingPair") -> "BlindingPair":
        return BlindingPair(self.alpha + other.alpha, self.beta + other.beta)

    def __sub__(self, other: "BlindingPair") -> "BlindingPair":
        return BlindingPair(self.alpha - other.alpha, self.beta - other.beta)


def random_blinding_pair(group: Group, rng) -> BlindingPair:
    return BlindingPair(group.random_scalar(rng), group.random_scalar(rng))


@dataclass(frozen=True)
class CommitmentPair:
    """Commitments to the two Beta-posterior parameters, in (alpha, beta)
    order. The pair as a whole is what gets accumulated, tagged and
    re-randomized; it is never split."""

    alpha_com: GroupElement
    beta_com: GroupElement

    def encode(self, group: Group) -> bytes:
        return record(
            "compair",
            group.encode_element(self.alpha_com),
            group.encode_element(self.beta_com),
        )


def commit_pair(group: Group, alpha: int, beta: int, blind: BlindingPair) -> CommitmentPair:
    return CommitmentPair(
        commit(group, alpha, blind.alpha),
        commit(group, beta, blind.beta),
    )


def pair_add(group: Group, a: CommitmentPair, b: CommitmentPair) -> CommitmentPair:
    return CommitmentPair(
        group.add(a.alpha_com, b.alpha_com),
        group.add(a.beta_com, b.beta_com),
    )


def pair_step(group: Group, pair: CommitmentPair, increment: tuple, blind: BlindingPair) -> CommitmentPair:
    """The one quality update step: pair plus a commitment to increment under blind."""
    G, H = group.generator, group.blind_generator
    return CommitmentPair(
        group.lincomb(((increment[0], G), (blind.alpha, H)), pair.alpha_com),
        group.lincomb(((increment[1], G), (blind.beta, H)), pair.beta_com),
    )


def pair_rerandomize(group: Group, pair: CommitmentPair, extra: BlindingPair) -> CommitmentPair:
    return CommitmentPair(
        rerandomize(group, pair.alpha_com, extra.alpha),
        rerandomize(group, pair.beta_com, extra.beta),
    )


def open_pair_check(group: Group, pair: CommitmentPair, alpha: int, beta: int, blind: BlindingPair) -> bool:
    return commit_pair(group, alpha, beta, blind) == pair


def quality_tag(group: Group, pair: CommitmentPair, ident: Scalar) -> bytes:
    """Linkability tag H(commitment pair || identifier). Reusing a stored
    quality state reproduces the same tag, which is how replays surface."""
    return hash_bytes(_DST_TAG + pair.encode(group) + group.encode_scalar(ident))


# ── encryption ───────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class KeyPair:
    sk: Scalar
    pk: GroupElement


def keygen(group: Group, rng) -> KeyPair:
    sk = group.scalar(rng.randrange(1, group.order))
    return KeyPair(sk, group.fixed_base(group.mul_gen(sk)))


@dataclass(frozen=True)
class Ciphertext:
    c1: GroupElement
    c2: GroupElement

    def encode(self, group: Group) -> bytes:
        return record("cipher", group.encode_element(self.c1), group.encode_element(self.c2))


def encode_ciphertexts(group: Group, cts) -> bytes:
    """A ciphertext list as the concatenation of its records."""
    return b"".join(ct.encode(group) for ct in cts)


def decode_ciphertexts(group: Group, data: bytes, count: int) -> tuple[Ciphertext, ...]:
    """The `count` ciphertexts that encode_ciphertexts joined into data;
    their records are all the same length."""
    if count == 0 or len(data) % count:
        raise EncodingError("final ciphertext list length mismatch")
    step = len(data) // count
    return tuple(decode_ciphertext(group, data[i * step : (i + 1) * step]) for i in range(count))


class MessageCodec:
    """Scalar embedding of a finite message domain into the group.

    forward maps x to x * G; inverse recovers x from a decrypted element by
    baby-step/giant-step over the declared domain. The baby table maps the
    encoding of j * G to j for j below baby_size. It is built on the first
    inverse, streamed from Group.multiples (batch-normalized on the curve),
    and is bounded (at most 2^20 entries) so recovery cost is explicit and
    capped.
    """

    MAX_TABLE = 1 << 20

    def __init__(self, group: Group, domain_size: int, baby_size: int | None = None):
        if domain_size < 1:
            raise ValueError("domain must be non-empty")
        # the embedding is injective only below the group order, so the
        # declared domain is clamped there (matters for the tiny backend)
        domain_size = min(domain_size, group.order)
        if baby_size is None:
            baby_size = min(domain_size, 4096)
        if not 1 <= baby_size <= self.MAX_TABLE:
            raise ValueError("baby table size out of range")
        self.group = group
        self.domain_size = domain_size
        self.baby_size = baby_size
        self._table: dict[bytes, int] | None = None
        self._stride_neg: GroupElement | None = None

    def forward(self, message: int) -> GroupElement:
        if not isinstance(message, int) or not 0 <= message < self.domain_size:
            raise DomainError(f"message {message!r} outside codec domain [0, {self.domain_size})")
        return self.group.mul_gen(message)

    def _ensure_table(self) -> None:
        if self._table is not None:
            return
        g = self.group
        babies = g.multiples(g.generator, self.baby_size)
        self._table = {g.encode_element(p): j for j, p in enumerate(babies)}
        self._stride_neg = g.neg(g.mul_gen(self.baby_size))

    def inverse(self, element: GroupElement) -> int:
        self._ensure_table()
        assert self._table is not None and self._stride_neg is not None
        g = self.group
        giants = -(-self.domain_size // self.baby_size)
        probe = element
        for step in range(giants):
            hit = self._table.get(g.encode_element(probe))
            if hit is not None:
                x = step * self.baby_size + hit
                if x < self.domain_size:
                    return x
                break
            probe = g.add(probe, self._stride_neg)
        raise DomainError("element does not embed a message from this codec's domain")


def encrypt(group: Group, pk: GroupElement, msg_element: GroupElement, r: Scalar) -> Ciphertext:
    """ElGamal over group elements with caller-supplied randomness, so the
    relation checkers can recompute ciphertexts from witnesses."""
    return Ciphertext(group.mul_gen(r), group.lincomb(((r, pk),), msg_element))


def decrypt_element(group: Group, sk: Scalar, ct: Ciphertext) -> GroupElement:
    return group.lincomb(((-sk, ct.c1),), ct.c2)


def encrypt_message(
    group: Group, pk: GroupElement, codec: MessageCodec, message: int, r: Scalar
) -> Ciphertext:
    return encrypt(group, pk, codec.forward(message), r)


def decrypt_message(group: Group, sk: Scalar, codec: MessageCodec, ct: Ciphertext) -> int:
    return codec.inverse(decrypt_element(group, sk, ct))


# ── signatures ───────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Signature:
    R: GroupElement
    s: Scalar

    def encode(self, group: Group) -> bytes:
        return record("sig", group.encode_element(self.R), group.encode_scalar(self.s))


def sign(group: Group, sk: Scalar, message: bytes) -> Signature:
    """Schnorr-style signature with a nonce derived from (sk, message), so
    signing is deterministic and never reuses a nonce across messages."""
    r = hash_to_scalar(group, _DST_NONCE + group.encode_scalar(sk) + message)
    R = group.mul_gen(r)
    e = hash_to_scalar(group, message)
    return Signature(R, r + e * sk)


def verify_sig(group: Group, pk: GroupElement, message: bytes, sig: Signature) -> bool:
    e = hash_to_scalar(group, message)
    return group.lincomb(((sig.s, group.generator), (-e, pk))) == sig.R


# ── decoding helpers for logged records ──────────────────────────────────────


def decode_ciphertext(group: Group, data: bytes) -> Ciphertext:
    c1, c2 = record_fields(data, "cipher", 2)
    return Ciphertext(group.decode_element(c1), group.decode_element(c2))


def decode_commitment_pair(group: Group, data: bytes) -> CommitmentPair:
    a, b = record_fields(data, "compair", 2)
    return CommitmentPair(group.decode_element(a), group.decode_element(b))


def decode_signature(group: Group, data: bytes) -> Signature:
    R, s = record_fields(data, "sig", 2)
    return Signature(group.decode_element(R), group.decode_scalar(s))
