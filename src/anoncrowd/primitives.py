"""Commitments, encryption, signatures, hashing and message codecs.

This is the cryptographic toolbox the protocol layers build on:

* Pedersen commitments over a prime-order group, additively homomorphic,
  with the blinding generator derived by hashing so its discrete log
  relative to the main generator is unknown.
* Lifted ElGamal encryption: messages from a declared finite domain are
  embedded as scalar multiples of the generator and recovered after
  decryption with a bounded baby-step/giant-step search. Each group has one
  discrete-log table (dlog_table, BABY_STEPS entries), built on the first
  decryption and shared by every codec over it. keygen makes its
  public key a fixed base of the group, so encryption under it and
  signature checks against it take the fixed-base path.
* Schnorr-style signatures with deterministic nonces: S = r + H(m) * sk,
  verified as S * G - H(m) * pk == R.
* SHA-256 as the collision-resistant hash, with domain-separation tags on
  every distinct use.

Quality values travel as ordered pairs (one commitment per Beta-posterior
parameter), so pair-level containers and arithmetic live here too. Every
sum of scalar multiples below is one Group.lincomb call.

The record codec lives here as well: a Record dataclass declares its tag
and fields once, and its encode and decode follow from that declaration.
Commitment pairs, ciphertexts and signatures are Records, and so are the
proofs and on-chain posts of the layers above.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import cache
from operator import attrgetter
from types import NoneType, UnionType
from typing import ClassVar, NamedTuple, get_args, get_origin, get_type_hints

from .encoding import enc_u16, enc_u32, record, record_fields
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


# ── record codec ─────────────────────────────────────────────────────────────


class Record:
    """A dataclass that travels as one tagged record.

    A subclass declares TAG and its fields. encode writes the fields in
    declaration order, each as its declared type says, and decode reads them
    back the same way:

    * a group element or a scalar: as the group encodes it;
    * a nested Record: as its own record;
    * a BlindingPair: as its two scalars;
    * bytes: a 32-byte digest;
    * int: 4 bytes; str: ASCII;
    * X | None: empty bytes when None.

    A kw_only field stays off the wire; decode takes it as a keyword.
    Reordering a class's fields changes its bytes.
    """

    TAG: ClassVar[str]

    def encode(self, group: Group) -> bytes:
        return record(self.TAG, *record_parts(group, self))

    @classmethod
    def decode(cls, group: Group, data: bytes, **off_wire) -> Record:
        layout = record_layout(cls)
        parts = record_fields(data, cls.TAG, len(layout.writers))
        return cls(*[read(group, parts, i) for read, i in layout.readers], **off_wire)


class Layout(NamedTuple):
    fields: tuple  # (name, declared type) per wire field
    writers: tuple  # (get, write) per record part: write(group, get(obj)) is the part
    readers: tuple  # (read, first part) per wire field: read(group, parts, i) is the value


def record_parts(group: Group, obj) -> list[bytes]:
    """The record parts of a dataclass's wire fields, in declaration order."""
    return [write(group, get(obj)) for get, write in record_layout(type(obj)).writers]


@cache
def record_layout(cls: type) -> Layout:
    """The wire layout of a dataclass, each field's kind resolved once per class.
    A BlindingPair field is the one that takes two parts."""
    hints = get_type_hints(cls)
    wire = [(f.name, hints[f.name]) for f in fields(cls) if not f.kw_only]
    writers, readers = [], []
    for name, tp in wire:
        if tp is BlindingPair:  # as its two scalars
            write = _kind(Scalar)[0]
            readers.append((lambda g, p, i: BlindingPair(g.decode_scalar(p[i]), g.decode_scalar(p[i + 1])), len(writers)))
            writers += [(attrgetter(name + ".alpha"), write), (attrgetter(name + ".beta"), write)]
            continue
        write, read = _kind(tp)
        if read is None and issubclass(cls, Record):
            raise TypeError(f"{cls.__name__}.{name}: a {tp} field cannot be decoded")
        readers.append((read, len(writers)))
        writers.append((attrgetter(name), write))
    return Layout(tuple(wire), tuple(writers), tuple(readers))


def _sized(part: bytes, size: int) -> bytes:
    if len(part) != size:
        raise EncodingError(f"record part of {len(part)} bytes where {size} are due")
    return part


def _kind(tp) -> tuple[Callable, Callable | None]:
    """(write, read) for a one-part field declared as tp: write(group, value)
    gives its part, read(group, parts, i) takes the value from parts[i].
    Two write-only kinds serve statements: a tuple of ciphertexts goes in counted,
    and any other type (a policy) as its digest()."""
    if tp is GroupElement:
        return lambda g, v: g.encode_element(v), lambda g, p, i: g.decode_element(p[i])
    if tp is Scalar:
        return lambda g, v: g.encode_scalar(v), lambda g, p, i: g.decode_scalar(p[i])
    if tp is bytes:
        return lambda g, v: v, lambda g, p, i: _sized(p[i], 32)
    if tp is int:
        return lambda g, v: enc_u32(v), lambda g, p, i: int.from_bytes(_sized(p[i], 4), "little")
    if tp is str:
        return lambda g, v: v.encode("ascii"), lambda g, p, i: p[i].decode("ascii")
    if isinstance(tp, UnionType):
        (inner,) = set(get_args(tp)) - {NoneType}
        write, read = _kind(inner)
        return (
            lambda g, v: b"" if v is None else write(g, v),
            read and (lambda g, p, i: None if p[i] == b"" else read(g, p, i)),
        )
    if get_origin(tp) is tuple:
        return lambda g, v: enc_u16(len(v)) + encode_ciphertexts(g, v), None
    if issubclass(tp, Record):
        return lambda g, v: v.encode(g), lambda g, p, i: tp.decode(g, p[i])
    return lambda g, v: v.digest(), None


# ── commitments ──────────────────────────────────────────────────────────────


def commit(group: Group, value: "int | Scalar", blind: Scalar) -> GroupElement:
    """Pedersen commitment value * G + blind * H."""
    return group.dual_mul(group.scalar(value), blind)


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
class CommitmentPair(Record):
    """Commitments to the two Beta-posterior parameters, in (alpha, beta)
    order. The pair as a whole is what gets accumulated, tagged and
    re-randomized; it is never split."""

    TAG = "compair"

    alpha_com: GroupElement
    beta_com: GroupElement


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
    """The one quality update step: pair plus a commitment to increment under blind.
    The requester posts it, auth-qual proves it and actors.serving_post checks it."""
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
class Ciphertext(Record):
    TAG = "cipher"

    c1: GroupElement
    c2: GroupElement


def encode_ciphertexts(group: Group, cts) -> bytes:
    """A ciphertext list as the concatenation of its records."""
    return b"".join(ct.encode(group) for ct in cts)


def decode_ciphertexts(group: Group, data: bytes, count: int) -> tuple[Ciphertext, ...]:
    """The `count` ciphertexts that encode_ciphertexts joined into data;
    their records are all the same length."""
    if count == 0 or len(data) % count:
        raise EncodingError("final ciphertext list length mismatch")
    step = len(data) // count
    return tuple(Ciphertext.decode(group, data[i * step : (i + 1) * step]) for i in range(count))


BABY_STEPS = 1 << 16  # entries of each group's discrete-log table


@cache
def dlog_table(group: Group) -> tuple[dict[bytes, int], GroupElement]:
    """The group's one discrete-log table, which every codec over it reads:
    the encoding of j * G mapped to j for j below BABY_STEPS, streamed from
    Group.multiples (batch-normalized on the curve) on first use, and the
    giant stride -BABY_STEPS * G."""
    babies = group.multiples(group.generator, BABY_STEPS)
    return {group.encode_element(p): j for j, p in enumerate(babies)}, group.neg(group.mul_gen(BABY_STEPS))


class MessageCodec:
    """Scalar embedding of a finite message domain into the group.

    forward maps x to x * G; inverse recovers x from a decrypted element by
    baby-step/giant-step over the declared domain against the group's
    dlog_table, so it takes at most ceil(domain_size / BABY_STEPS) probes.
    """

    def __init__(self, group: Group, domain_size: int):
        if domain_size < 1:
            raise ValueError("domain must be non-empty")
        self.group = group
        # the embedding is injective only below the group order, so the
        # declared domain is clamped there (matters for the tiny backend)
        self.domain_size = min(domain_size, group.order)

    def forward(self, message: int) -> GroupElement:
        if not isinstance(message, int) or not 0 <= message < self.domain_size:
            raise DomainError(f"message {message!r} outside codec domain [0, {self.domain_size})")
        return self.group.mul_gen(message)

    def inverse(self, element: GroupElement) -> int:
        g = self.group
        babies, stride_neg = dlog_table(g)
        probe = element
        for step in range(-(-self.domain_size // BABY_STEPS)):
            hit = babies.get(g.encode_element(probe))
            if hit is not None:
                x = step * BABY_STEPS + hit
                if x < self.domain_size:
                    return x
                break
            probe = g.add(probe, stride_neg)
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
class Signature(Record):
    TAG = "sig"

    R: GroupElement
    s: Scalar


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

