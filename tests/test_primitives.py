"""Commitment, encryption, signature and codec behavior.

The oracle functions here recompute expected values through independent
paths (builtin pow on pinned field constants, linear discrete-log scans)
rather than through the code under test, so agreement is evidence and not
tautology.
"""

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anoncrowd.context import CLAIM_DOMAIN, production_context, tiny_context
from anoncrowd.errors import DomainError, EncodingError
from anoncrowd.group import production_group, tiny_group
from anoncrowd.primitives import (
    BlindingPair,
    Ciphertext,
    CommitmentPair,
    MessageCodec,
    Record,
    Signature,
    commit,
    commit_pair,
    decrypt_element,
    decrypt_message,
    encrypt,
    encrypt_message,
    hash_bytes,
    hash_to_scalar,
    keygen,
    pair_add,
    pair_rerandomize,
    pair_step,
    quality_tag,
    random_blinding_pair,
    record_layout,
    rerandomize,
    sign,
    verify_sig,
)

# ── independent oracles ──────────────────────────────────────────────────────


def tiny_commit_oracle(tiny, x: int, r: int) -> int:
    """Pedersen commitment recomputed with builtin pow on the raw residues."""
    from anoncrowd.group import _T_P  # pinned field modulus

    gv = tiny.generator.v
    hv = tiny.blind_generator.v
    return (pow(gv, x, _T_P) * pow(hv, r, _T_P)) % _T_P


def brute_dlog(group, element, bound: int):
    """Linear discrete-log scan over [0, bound); None if not found."""
    cur = group.identity()
    for x in range(bound):
        if cur == element:
            return x
        cur = group.add(cur, group.generator)
    return None


# ── commitments ──────────────────────────────────────────────────────────────


class TestCommitments:
    def test_matches_raw_pow_oracle(self, tiny):
        rng = random.Random(21)
        for _ in range(200):
            x = rng.randrange(tiny.order)
            r = rng.randrange(tiny.order)
            com = commit(tiny, x, tiny.scalar(r))
            assert com.v == tiny_commit_oracle(tiny, x, r)

    def test_exhaustive_open_semantics_small_values(self, tiny):
        # For every committed x in [0, 100]: the commitment opens at exactly
        # that x, and stripping the blinding term leaves x recoverable by an
        # independent discrete-log scan.
        r = tiny.scalar(991)
        for x in range(101):
            com = commit(tiny, x, r)
            stripped = tiny.sub(com, tiny.mul_blind(r))
            assert brute_dlog(tiny, stripped, 101) == x
            for claimed in range(101):
                assert (commit(tiny, claimed, r) == com) == (claimed == x)

    def test_open_rejects_wrong_blind(self, prod, rng):
        r = prod.random_scalar(rng)
        com = commit(prod, 42, r)
        assert commit(prod, 42, r) == com
        assert commit(prod, 42, r + 1) != com

    def test_homomorphic_addition(self, prod, rng):
        for _ in range(25):
            x1, x2 = rng.randrange(prod.order), rng.randrange(prod.order)
            r1, r2 = prod.random_scalar(rng), prod.random_scalar(rng)
            combined = prod.add(commit(prod, x1, r1), commit(prod, x2, r2))
            assert combined == commit(prod, (x1 + x2) % prod.order, r1 + r2)

    def test_rerandomize_preserves_value_changes_opening(self, prod, rng):
        r = prod.random_scalar(rng)
        extra = prod.random_scalar(rng)
        com = commit(prod, 7, r)
        fresh = rerandomize(prod, com, extra)
        assert fresh != com
        assert commit(prod, 7, r + extra) == fresh
        assert commit(prod, 7, r) != fresh

    def test_commitment_bytes_hide_value(self, prod, rng):
        # Same value committed twice with fresh blinds must not repeat bytes.
        a = commit(prod, 5, prod.random_scalar(rng))
        b = commit(prod, 5, prod.random_scalar(rng))
        assert prod.encode_element(a) != prod.encode_element(b)


class TestCommitmentPairs:
    def test_pair_add_is_componentwise(self, tiny, rng):
        b1 = random_blinding_pair(tiny, rng)
        b2 = random_blinding_pair(tiny, rng)
        p1 = commit_pair(tiny, 3, 1, b1)
        p2 = commit_pair(tiny, 1, 0, b2)
        assert pair_add(tiny, p1, p2) == commit_pair(tiny, 4, 1, b1 + b2)

    def test_pair_step_adds_a_committed_increment(self, tiny, rng):
        blind = random_blinding_pair(tiny, rng)
        step = random_blinding_pair(tiny, rng)
        pair = commit_pair(tiny, 3, 1, blind)
        assert pair_step(tiny, pair, (0, 1), step) == commit_pair(tiny, 3, 2, blind + step)

    def test_pair_rerandomize_round_trip(self, tiny, rng):
        blind = random_blinding_pair(tiny, rng)
        extra = random_blinding_pair(tiny, rng)
        pair = commit_pair(tiny, 6, 2, blind)
        fresh = pair_rerandomize(tiny, pair, extra)
        assert commit_pair(tiny, 6, 2, blind + extra) == fresh
        assert commit_pair(tiny, 6, 2, blind) != fresh

    def test_quality_tag_binds_pair_and_identifier(self, tiny, rng):
        blind = random_blinding_pair(tiny, rng)
        pair = commit_pair(tiny, 4, 1, blind)
        ident = tiny.random_scalar(rng)
        tag = quality_tag(tiny, pair, ident)
        assert tag == quality_tag(tiny, pair, ident)
        assert tag != quality_tag(tiny, pair, ident + 1)
        other = pair_rerandomize(tiny, pair, random_blinding_pair(tiny, rng))
        assert tag != quality_tag(tiny, other, ident)


# hypothesis sweep on the production curve

_small = st.integers(min_value=0, max_value=2**64)


@given(x1=_small, x2=_small, r1=_small, r2=_small)
@settings(max_examples=60, deadline=None)
def test_homomorphism_property(x1, x2, r1, r2):
    g = production_group()
    lhs = g.add(commit(g, x1, g.scalar(r1)), commit(g, x2, g.scalar(r2)))
    assert lhs == commit(g, x1 + x2, g.scalar(r1 + r2))


# ── message codec ────────────────────────────────────────────────────────────


class TestMessageCodec:
    def test_round_trip_exhaustive_small_domain(self, tiny):
        codec = MessageCodec(tiny, domain_size=200, baby_size=16)
        seen = set()
        for x in range(200):
            e = codec.forward(x)
            seen.add(tiny.encode_element(e))
            assert codec.inverse(e) == x
        assert len(seen) == 200  # injective on the whole domain

    def test_round_trip_spans_giant_steps(self, prod):
        codec = MessageCodec(prod, domain_size=1 << 16, baby_size=256)
        for x in [0, 1, 255, 256, 257, 5000, 65535]:
            assert codec.inverse(codec.forward(x)) == x

    def test_batched_baby_table_matches_sequential_adds(self, prod, tiny):
        # 600 babies: two full 256-point chunks of Group.multiples and a part
        for g in (prod, tiny):
            codec = MessageCodec(g, domain_size=600 * 5 + 17, baby_size=600)
            for j in (0, 255, 256, 257, codec.baby_size - 1, codec.domain_size - 1):
                assert codec.inverse(codec.forward(j)) == j
            want, cur = {}, g.identity()
            for j in range(600):
                want[g.encode_element(cur)] = j
                cur = g.add(cur, g.generator)
            assert list(codec._table.items()) == list(want.items())

    def test_rejects_out_of_domain_messages(self, tiny):
        codec = MessageCodec(tiny, domain_size=50)
        for bad in (-1, 50, 10**9):
            with pytest.raises(DomainError):
                codec.forward(bad)

    def test_rejects_non_embedded_elements(self, tiny):
        codec = MessageCodec(tiny, domain_size=64, baby_size=8)
        with pytest.raises(DomainError):
            codec.inverse(tiny.mul_gen(64))
        with pytest.raises(DomainError):
            codec.inverse(tiny.blind_generator)

    def test_claim_codec_is_the_answer_codec(self):
        # one 2^16 domain, so one baby table per context, not two
        for ctx in (tiny_context(), production_context()):
            assert ctx.claim_codec.domain_size == CLAIM_DOMAIN
            assert ctx.claim_codec is ctx.answer_codec

    def test_table_bound_enforced(self, tiny):
        with pytest.raises(ValueError):
            MessageCodec(tiny, domain_size=1 << 22, baby_size=(1 << 20) + 1)


# ── encryption ───────────────────────────────────────────────────────────────


class TestEncryption:
    def test_round_trip(self, prod, rng):
        keys = keygen(prod, rng)
        codec = MessageCodec(prod, domain_size=1 << 16)
        for msg in [0, 1, 77, 40000, 65535]:
            ct = encrypt_message(prod, keys.pk, codec, msg, prod.random_scalar(rng))
            assert decrypt_message(prod, keys.sk, codec, ct) == msg

    def test_decrypt_strips_exactly_the_mask(self, tiny, rng):
        # Independent check of the ElGamal algebra on raw residues.
        keys = keygen(tiny, rng)
        msg_elem = tiny.mul_gen(421)
        r = tiny.random_scalar(rng)
        ct = encrypt(tiny, keys.pk, msg_elem, r)
        assert ct.c1 == tiny.mul_gen(r)
        mask = tiny.mul(keys.sk, ct.c1)
        assert tiny.sub(ct.c2, mask) == msg_elem
        assert decrypt_element(tiny, keys.sk, ct) == msg_elem

    def test_wrong_key_does_not_recover(self, prod, rng):
        keys = keygen(prod, rng)
        intruder = keygen(prod, rng)
        codec = MessageCodec(prod, domain_size=1 << 10)
        ct = encrypt_message(prod, keys.pk, codec, 123, prod.random_scalar(rng))
        try:
            leaked = decrypt_message(prod, intruder.sk, codec, ct)
        except DomainError:
            return
        assert leaked != 123

    def test_same_message_fresh_randomness_distinct_bytes(self, prod, rng):
        keys = keygen(prod, rng)
        codec = MessageCodec(prod, domain_size=256)
        a = encrypt_message(prod, keys.pk, codec, 9, prod.random_scalar(rng))
        b = encrypt_message(prod, keys.pk, codec, 9, prod.random_scalar(rng))
        assert a.encode(prod) != b.encode(prod)

    def test_encryption_is_randomness_deterministic(self, tiny, rng):
        # Relation checkers recompute ciphertexts from witness randomness.
        keys = keygen(tiny, rng)
        r = tiny.random_scalar(rng)
        codec = MessageCodec(tiny, domain_size=64)
        assert encrypt_message(tiny, keys.pk, codec, 5, r) == encrypt_message(
            tiny, keys.pk, codec, 5, r
        )

    def test_keygen_collision_scan(self, prod):
        rng = random.Random(31337)
        pks = {prod.encode_element(keygen(prod, rng).pk) for _ in range(2000)}
        assert len(pks) == 2000


# ── signatures ───────────────────────────────────────────────────────────────


class TestSignatures:
    def test_sign_verify_round_trip(self, prod):
        rng = random.Random(41)
        keys = keygen(prod, rng)
        for i in range(10):
            msg = f"credential-{i}".encode()
            assert verify_sig(prod, keys.pk, msg, sign(prod, keys.sk, msg))

    def test_deterministic_signatures(self, prod, rng):
        keys = keygen(prod, rng)
        assert sign(prod, keys.sk, b"m").encode(prod) == sign(prod, keys.sk, b"m").encode(prod)

    def test_perturbation_sweep(self, prod, rng):
        keys = keygen(prod, rng)
        msg = b"the exact credential bytes"
        sig = sign(prod, keys.sk, msg)
        # flip one bit in every byte of the message
        for i in range(len(msg)):
            tampered = bytearray(msg)
            tampered[i] ^= 0x01
            assert not verify_sig(prod, keys.pk, bytes(tampered), sig)
        # tamper with each signature component
        assert not verify_sig(prod, keys.pk, msg, _tampered(prod, sig, bump_R=True))
        assert not verify_sig(prod, keys.pk, msg, _tampered(prod, sig, bump_s=True))
        # wrong public key
        assert not verify_sig(prod, keygen(prod, rng).pk, msg, sig)

    def test_verify_on_tiny_backend(self, tiny, rng):
        keys = keygen(tiny, rng)
        sig = sign(tiny, keys.sk, b"msg")
        assert verify_sig(tiny, keys.pk, b"msg", sig)
        assert not verify_sig(tiny, keys.pk, b"msG", sig)


def _tampered(group, sig, bump_R=False, bump_s=False):
    from anoncrowd.primitives import Signature

    R = group.add(sig.R, group.generator) if bump_R else sig.R
    s = sig.s + 1 if bump_s else sig.s
    return Signature(R, s)


# ── hashing ──────────────────────────────────────────────────────────────────


class TestHashing:
    def test_digest_shape_and_determinism(self):
        d = hash_bytes(b"abc")
        assert len(d) == 32
        assert d == hash_bytes(b"abc")
        assert d != hash_bytes(b"abd")

    def test_birthday_scan(self):
        # 100k structured inputs, no collisions expected from a 256-bit hash
        digests = {hash_bytes(i.to_bytes(8, "little")) for i in range(100_000)}
        assert len(digests) == 100_000

    def test_hash_to_scalar_in_range(self, prod, tiny):
        for g in (prod, tiny):
            for i in range(50):
                s = hash_to_scalar(g, f"in-{i}".encode())
                assert 0 <= s.value < g.order


# ── record encodings ─────────────────────────────────────────────────────────


class TestRecordEncodings:
    def test_ciphertext_round_trip(self, prod, rng):
        keys = keygen(prod, rng)
        ct = encrypt(prod, keys.pk, prod.mul_gen(5), prod.random_scalar(rng))
        assert Ciphertext.decode(prod, ct.encode(prod)) == ct

    def test_commitment_pair_round_trip(self, tiny, rng):
        pair = commit_pair(tiny, 2, 3, random_blinding_pair(tiny, rng))
        assert CommitmentPair.decode(tiny, pair.encode(tiny)) == pair

    def test_signature_round_trip(self, prod, rng):
        keys = keygen(prod, rng)
        sig = sign(prod, keys.sk, b"x")
        assert Signature.decode(prod, sig.encode(prod)) == sig

    def test_wrong_tag_rejected(self, prod, rng):
        keys = keygen(prod, rng)
        sig = sign(prod, keys.sk, b"x")
        with pytest.raises(EncodingError):
            Ciphertext.decode(prod, sig.encode(prod))

    def test_truncation_rejected(self, tiny, rng):
        pair = commit_pair(tiny, 2, 3, random_blinding_pair(tiny, rng))
        data = pair.encode(tiny)
        with pytest.raises(EncodingError):
            CommitmentPair.decode(tiny, data[:-3])

    def test_record_field_with_no_reader_refused_when_laid_out(self):
        # a ciphertext list is written counted for statements but has no reader,
        # so a Record declaring one must fail at once, not on its first decode
        @dataclass(frozen=True)
        class Bundle(Record):
            TAG = "bundle"

            cts: tuple[Ciphertext, ...]

        with pytest.raises(TypeError, match="cannot be decoded"):
            record_layout(Bundle)
