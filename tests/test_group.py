"""Group backend sanity: group laws, encodings, hash-to-element."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anoncrowd.errors import EncodingError
from anoncrowd.group import CurveGroup, Scalar, TinyGroup, production_group, tiny_group


@pytest.fixture(params=["prod", "tiny"])
def any_group(request, prod, tiny):
    return prod if request.param == "prod" else tiny


def random_elements(g, rng, n):
    """n pseudo-random elements of known discrete log."""
    return [g.mul_gen(g.random_scalar(rng)) for _ in range(n)]


class TestGroupLaws:
    def test_identity_neutral(self, any_group):
        g = any_group
        p = g.mul_gen(12345)
        assert g.add(p, g.identity()) == p
        assert g.add(g.identity(), p) == p

    def test_inverse_cancels(self, any_group):
        g = any_group
        p = g.mul_gen(98765)
        assert g.add(p, g.neg(p)) == g.identity()

    def test_associativity_spot(self, any_group):
        g = any_group
        rng = random.Random(7)
        for _ in range(20):
            a, b, c = (g.mul_gen(g.random_scalar(rng)) for _ in range(3))
            assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))

    def test_commutativity_spot(self, any_group):
        g = any_group
        rng = random.Random(8)
        for _ in range(20):
            a, b = (g.mul_gen(g.random_scalar(rng)) for _ in range(2))
            assert g.add(a, b) == g.add(b, a)

    def test_scalar_mul_matches_repeated_add(self, any_group):
        g = any_group
        acc = g.identity()
        for k in range(0, 40):
            assert g.mul(k, g.generator) == acc
            assert g.mul_gen(k) == acc
            acc = g.add(acc, g.generator)

    def test_mul_distributes_over_scalar_add(self, any_group):
        g = any_group
        rng = random.Random(9)
        for _ in range(10):
            a = g.random_scalar(rng)
            b = g.random_scalar(rng)
            lhs = g.mul_gen(a + b)
            rhs = g.add(g.mul_gen(a), g.mul_gen(b))
            assert lhs == rhs

    def test_order_annihilates(self, any_group):
        g = any_group
        assert g.mul(g.order, g.generator) == g.identity()
        assert g.mul_gen(0) == g.identity()

    def test_fixed_base_paths_agree_with_variable_base(self, any_group):
        g = any_group
        rng = random.Random(10)
        for _ in range(10):
            k = g.random_scalar(rng)
            assert g.mul_gen(k) == g.mul(k, g.generator)
            assert g.mul_blind(k) == g.mul(k, g.blind_generator)
            r = g.random_scalar(rng)
            assert g.dual_mul(k, r) == g.add(g.mul(k, g.generator), g.mul(r, g.blind_generator))

    def test_blind_generator_differs_from_generator(self, any_group):
        g = any_group
        assert g.blind_generator != g.generator
        assert g.blind_generator != g.identity()


class TestElementEncoding:
    def test_round_trip(self, any_group):
        g = any_group
        rng = random.Random(11)
        for p in random_elements(g, rng, 25):
            data = g.encode_element(p)
            assert len(data) == g.element_size
            assert g.decode_element(data) == p

    def test_identity_round_trip(self, any_group):
        g = any_group
        assert g.decode_element(g.encode_element(g.identity())) == g.identity()

    def test_bad_length_rejected(self, any_group):
        with pytest.raises(EncodingError):
            any_group.decode_element(b"\x01")

    def test_curve_rejects_non_curve_x(self, prod):
        # x = 4 gives y^2 = 67, a quadratic non-residue for this field
        data = bytes([0x02]) + (4).to_bytes(32, "big")
        with pytest.raises(EncodingError):
            prod.decode_element(data)

    def test_curve_rejects_bad_prefix(self, prod):
        data = bytes([0x07]) + (1).to_bytes(32, "big")
        with pytest.raises(EncodingError):
            prod.decode_element(data)

    def test_tiny_rejects_subgroup_outsiders(self, tiny):
        # 2 generates the full multiplicative group, not the prime subgroup
        with pytest.raises(EncodingError):
            tiny.decode_element((2).to_bytes(8, "little"))


class TestScalars:
    def test_modular_reduction_on_build(self, any_group):
        g = any_group
        s = g.scalar(g.order + 5)
        assert s.value == 5

    def test_algebra(self, any_group):
        g = any_group
        a, b = g.scalar(17), g.scalar(23)
        assert (a + b).value == 40
        assert (a - b).value == (17 - 23) % g.order
        assert (a * b).value == 17 * 23 % g.order
        assert (-a).value == g.order - 17

    def test_cross_group_mixing_rejected(self, prod, tiny):
        with pytest.raises(ValueError):
            prod.scalar(1) + tiny.scalar(1)
        with pytest.raises(ValueError):
            prod.mul_gen(tiny.scalar(4))

    def test_encode_round_trip(self, any_group):
        g = any_group
        rng = random.Random(12)
        for _ in range(20):
            s = g.random_scalar(rng)
            assert g.decode_scalar(g.encode_scalar(s)) == s

    def test_decode_rejects_overflow(self, any_group):
        g = any_group
        data = (g.order).to_bytes(g.scalar_size, "little")
        with pytest.raises(EncodingError):
            g.decode_scalar(data)


@given(a=st.integers(min_value=0, max_value=2**256), b=st.integers(min_value=0, max_value=2**256))
@settings(max_examples=50)
def test_scalar_ring_laws(a, b):
    order = production_group().order
    x, y = Scalar(a, order), Scalar(b, order)
    assert x + y == y + x
    assert (x + y) - y == x
    assert x * y == y * x


class TestHashToElement:
    def test_deterministic(self, any_group):
        g = any_group
        assert g.hash_to_element(b"seed") == g.hash_to_element(b"seed")
        assert g.hash_to_element(b"seed") != g.hash_to_element(b"seeds")

    def test_lands_in_group(self, any_group):
        g = any_group
        for i in range(10):
            e = g.hash_to_element(f"input-{i}".encode())
            # membership: decoding an encoding runs the subgroup/curve checks
            assert g.decode_element(g.encode_element(e)) == e
            assert g.mul(g.order, e) == g.identity()


def test_shared_instances_are_cached():
    assert production_group() is production_group()
    assert tiny_group() is tiny_group()
    assert isinstance(production_group(), CurveGroup)
    assert isinstance(tiny_group(), TinyGroup)
