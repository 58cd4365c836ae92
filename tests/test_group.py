"""Group backend sanity: group laws, encodings, hash-to-element."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anoncrowd import group as group_module
from anoncrowd.errors import EncodingError
from anoncrowd.group import (
    _A1,
    _A2,
    _B1,
    _B2,
    _BETA,
    _J_INF,
    _LAMBDA,
    _ORDER,
    _Q,
    _T_P,
    CurveGroup,
    CurvePoint,
    FieldUnit,
    Group,
    Scalar,
    TinyGroup,
    _j_add_affine,
    _j_double,
    _glv_split,
    _j_to_affine,
    _curve_y,
    _jacobi,
    _wnaf5,
    production_group,
    tiny_group,
)
from anoncrowd.primitives import encrypt, keygen, sign, verify_sig


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

    def test_fixed_base_paths_agree_with_variable_base(self, any_group, prod):
        g = any_group
        if g is prod:
            assert g.generator.table is not None and g.blind_generator.table is not None
        else:
            assert type(g.generator) is type(g.blind_generator) is FieldUnit
        # decoded copies carry no table, so mul with them takes the variable-base path
        G, H = (g.decode_element(g.encode_element(p)) for p in (g.generator, g.blind_generator))
        rng = random.Random(10)
        for _ in range(10):
            k = g.random_scalar(rng)
            assert g.mul_gen(k) == g.mul(k, G)
            assert g.mul_blind(k) == g.mul(k, H)
            r = g.random_scalar(rng)
            assert g.dual_mul(k, r) == g.add(g.mul(k, G), g.mul(r, H))

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


# ── lazy point decompression against the eager square-root decode ────────────


def eager_decode(data):
    """CurveGroup.decode_element as it was before the lazy y: the square root
    decides whether x is on the curve, and the point carries y at once."""
    if data == b"\x00" * 33:
        return CurvePoint(0, 0, inf=True)
    x = int.from_bytes(data[1:], "big")
    if data[0] not in (0x02, 0x03) or x >= _Q or (y := _curve_y(x)) is None:
        raise EncodingError("rejected")
    return CurvePoint(x, y if y & 1 == data[0] & 1 else _Q - y)


def y_forced(p):
    """Whether p's y slot is set, read without the __getattr__ fallback."""
    try:
        CurvePoint.y.__get__(p)
    except AttributeError:
        return False
    return True


def test_jacobi_matches_eulers_criterion():
    rng = random.Random(5)
    cases = [(a, n) for n in (3, 5, 7, 11, 13, 17, 19, 23, 97) for a in range(-n, 2 * n)]
    cases += [(rng.randrange(_Q), _Q) for _ in range(300)] + [(0, _Q), (_Q, _Q), (-1, _Q), (_Q + 4, _Q)]
    for a, n in cases:
        euler = pow(a, (n - 1) // 2, n)
        assert _jacobi(a, n) == (-1 if euler == n - 1 else euler), (a, n)


def test_lazy_decode_matches_the_eager_one(prod):
    assert not hasattr(CurvePoint, "__getattr__")  # eager points keep the fast slot read
    rng = random.Random(8)
    xs = [rng.randrange(_Q) for _ in range(200)] + [0, 1, 2, 4, _Q - 1]
    cases = [bytes([prefix]) + x.to_bytes(32, "big") for x in xs for prefix in (0x02, 0x03)]
    cases += [bytes([0x02 + (i & 1)]) + x.to_bytes(32, "big") for i, x in enumerate((_Q, _Q + 1, 2**256 - 1))]
    cases += [bytes([prefix]) + (1).to_bytes(32, "big") for prefix in (0x00, 0x01, 0x04, 0x07, 0xFF)]
    cases += [b"\x00" * 33]
    accepted = 0
    for data in cases:
        try:
            want = eager_decode(data)
        except EncodingError:
            with pytest.raises(EncodingError):
                prod.decode_element(data)
            continue
        got = prod.decode_element(data)
        accepted += 1
        assert got == want and want == got and hash(got) == hash(want), data.hex()
        assert got.inf or got != prod.neg(want)
        assert prod.encode_element(got) == data
        assert y_forced(got) == got.inf  # equality, hashing and encoding read x and the parity
        assert (got.inf, got.x, got.y) == (want.inf, want.x, want.y)
        assert y_forced(got)
        assert got == want and hash(got) == hash(want)
    assert 150 < accepted < 260  # about half of the random x are on the curve, each with both parities


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


# ── curve scalar multiplication against the double-and-add oracle ────────────


def oracle_mul(k, p):
    """CurveGroup.mul as it was before fixed-base key tables and batch
    inversion: 4-bit windowed double-and-add over a per-call table whose 15
    entries are each normalized with their own inversion."""
    kv = k.value if isinstance(k, Scalar) else k % production_group().order
    if kv == 0 or p.inf:
        return CurvePoint(0, 0, inf=True)
    row = [(0, 0)] * 16
    acc = _J_INF
    for d in range(1, 16):
        acc = _j_add_affine(acc, p.x, p.y)
        aff = _j_to_affine(acc)
        row[d] = (aff.x, aff.y)
    res = _J_INF
    for shift in range((kv.bit_length() + 3) // 4 * 4 - 4, -1, -4):
        if res is not _J_INF:
            res = _j_double(_j_double(_j_double(_j_double(res))))
        d = (kv >> shift) & 0xF
        if d:
            res = _j_add_affine(res, *row[d])
    return _j_to_affine(res)


def coordinates(p):
    return (p.inf, p.x, p.y)


class TestCurveMulPaths:
    def test_tabled_batch_inverted_and_oracle_agree(self, prod):
        rng = random.Random(2718)
        n = prod.order
        for _ in range(12):
            base = prod.mul_gen(prod.random_scalar(rng))
            tabled = prod.fixed_base(base)
            assert tabled == base and hash(tabled) == hash(base)
            assert base.table is None and tabled.table is not None
            scalars = [0, 1, 2, 15, 16, n - 1, n, n + 1, 3 * n + 7, 1 << 300, prod.scalar(n - 2)]
            scalars += [_LAMBDA, n - _LAMBDA, n // 2, prod.scalar(_LAMBDA + 1)]
            scalars += [rng.randrange(n) for _ in range(4)] + [prod.random_scalar(rng)]
            for k in scalars:
                want = coordinates(oracle_mul(k, base))
                assert coordinates(prod.mul(k, base)) == want, k
                assert coordinates(prod.mul(k, tabled)) == want, k

    def test_signed_digit_edges_agree_with_oracle(self, prod):
        # digits of exactly 128 and -127, borrow chains of -1 digits, a
        # carry that travels from the lowest byte into the top row, and
        # scalars at or above the order that reduce first
        n = prod.order
        scalars = [int.from_bytes(bytes([b]) * 32, "little") for b in (0x80, 0x81, 0xFF)]
        scalars += [int.from_bytes(bytes([b]) * 31, "little") for b in (0x80, 0x81, 0xFF)]
        scalars += [2**256 - 1, n - 1, (0x2F << 248) | (2**248 - 1), 128, 129, 255, 256, 128 * 257]
        keys = keygen(prod, random.Random(77))
        bare = prod.decode_element(prod.encode_element(keys.pk))
        G, H = prod.generator, prod.blind_generator
        for k in scalars:
            other = (k * 3 + 1) % n
            assert coordinates(prod.mul_gen(k)) == coordinates(oracle_mul(k, G)), k
            assert coordinates(prod.mul_blind(k)) == coordinates(oracle_mul(k, H)), k
            want = prod.add(oracle_mul(k, G), oracle_mul(other, H))
            assert coordinates(prod.dual_mul(k, other)) == coordinates(want), k
            assert coordinates(prod.mul(k, keys.pk)) == coordinates(oracle_mul(k, bare)), k

    def test_lockstep_table_rows_are_the_multiples(self, prod):
        # row i holds j * 256^i * B for j in 0..128, entry 0 included
        base = prod.mul_gen(31337)
        rows = prod.fixed_base(base).table._build()
        assert len(rows) == 32
        for i in (0, 1, 31):
            want = list(Group.multiples(prod, prod.mul(256**i, base), 129))
            assert rows[i] == ([q.x for q in want], [q.y for q in want]), i

    def test_batched_multiples_match_sequential_adds(self, prod):
        # counts on both sides of the 256-sum chunks that share an inversion
        p = prod.mul_gen(424242)
        for count in (0, 1, 2, 256, 257, 600):
            want = [coordinates(q) for q in Group.multiples(prod, p, count)]
            assert [coordinates(q) for q in prod.multiples(p, count)] == want, count

    def test_tiny_fixed_base_is_the_point_itself(self, tiny):
        p = tiny.mul_gen(12345)
        assert tiny.fixed_base(p) is p

    def test_encrypt_and_verify_sig_ignore_the_table(self, prod):
        rng = random.Random(31)
        keys = keygen(prod, rng)
        bare = prod.decode_element(prod.encode_element(keys.pk))
        assert keys.pk.table is not None and bare.table is None
        for i in range(8):
            msg, r = prod.mul_gen(i), prod.random_scalar(rng)
            tabled_ct, bare_ct = encrypt(prod, keys.pk, msg, r), encrypt(prod, bare, msg, r)
            assert coordinates(tabled_ct.c2) == coordinates(bare_ct.c2) and tabled_ct == bare_ct
            payload = f"message-{i}".encode()
            sig = sign(prod, keys.sk, payload)
            assert verify_sig(prod, keys.pk, payload, sig) is verify_sig(prod, bare, payload, sig) is True
            forged = payload + b"!"
            assert verify_sig(prod, keys.pk, forged, sig) is verify_sig(prod, bare, forged, sig) is False


# ── lincomb: start + sum of k * P, the one multiplication entry point ────────


def oracle_lincomb(g, terms, start=None):
    """start + sum of k * P, one term at a time: the double-and-add oracle
    on the curve, plain exponentiation in the tiny group."""
    acc = g.identity() if start is None else start
    for k, p in terms:
        term = oracle_mul(k, p) if isinstance(g, CurveGroup) else FieldUnit(pow(p.v, g.scalar(k).value, _T_P))
        acc = g.add(acc, term)
    return acc


def lincomb_cases(g):
    """(terms, start) pairs over the exceptional inputs of lincomb."""
    rng = random.Random(61)
    G, H = g.generator, g.blind_generator
    bare_G = g.decode_element(g.encode_element(G))  # no table on the curve
    P, Q = random_elements(g, rng, 2)
    keyed = keygen(g, rng).pk  # tabled on the curve
    k = [g.random_scalar(rng) for _ in range(4)]
    mixed = ((k[0], P), (k[1], G), (k[2], Q), (k[3], keyed))
    total = oracle_lincomb(g, mixed)
    return [
        (mixed, None),
        (mixed, g.identity()),
        (mixed, g.neg(total)),  # the sum cancels: infinity
        (mixed, total),  # start meets an equal accumulator: a doubling
        (((1, G),), G),  # start equal to the table entry the sum ends on
        (((1, bare_G), (1, G)), None),  # the table entry meets an equal chain sum
        (((k[0], bare_G), (-k[0], G)), H),  # the sum is infinity before start
        (((0, P), (g.order, Q), (k[1], g.identity())), P),  # every term vanishes
        (((0, P),), None),
        (((k[2], P),), None),  # one term
        (((k[2], keyed),), None),
        (((k[0], P), (k[1], Q)), H),  # two table-less bases share one chain
        ((), Q),
    ]


class TestLincomb:
    def test_agrees_with_the_oracle(self, any_group):
        g = any_group
        for i, (terms, start) in enumerate(lincomb_cases(g)):
            got, want = g.lincomb(terms, start), oracle_lincomb(g, terms, start)
            assert got == want, i
            if isinstance(got, CurvePoint):
                assert coordinates(got) == coordinates(want), i


# ── the GLV endomorphism behind variable-base mul ────────────────────────────


def cube_roots_of_unity(m):
    """The two cube roots of unity other than 1 modulo a prime m = 1 mod 3."""
    a = 2
    while pow(a, (m - 1) // 3, m) == 1:
        a += 1
    r = pow(a, (m - 1) // 3, m)
    return {r, r * r % m}


def short_basis(n, lam):
    """Half extended Euclid on (n, lam) (Gallant, Lambert and Vanstone):
    each remainder r = s * n + t * lam gives the lattice vector (r, -t).
    With r_m the last remainder at least sqrt(n), the basis is (r_m+1,
    -t_m+1) and the shorter of (r_m, -t_m) and (r_m+2, -t_m+2)."""
    seq = [(n, 0), (lam, 1)]
    while seq[-1][0]:
        (r0, t0), (r1, t1) = seq[-2:]
        seq.append((r0 - r0 // r1 * r1, t0 - r0 // r1 * t1))
    m = max(i for i, (r, _) in enumerate(seq) if r >= math.isqrt(n))
    v1 = (seq[m + 1][0], -seq[m + 1][1])
    v2 = min((seq[m][0], -seq[m][1]), (seq[m + 2][0], -seq[m + 2][1]), key=lambda v: v[0] ** 2 + v[1] ** 2)
    return v1, v2


def check_split(k):
    k1, k2 = _glv_split(k % _ORDER)
    assert (k1 + k2 * _LAMBDA - k) % _ORDER == 0, k
    assert abs(k1) < 2**127 and abs(k2) < 2**127, k
    for half in (k1, k2):
        digits = _wnaf5(half)
        assert sum(d << i for i, d in enumerate(digits)) == half
        nonzero = [i for i, d in enumerate(digits) if d]
        assert all(digits[i] % 2 and -15 <= digits[i] <= 15 for i in nonzero)
        assert all(j - i >= 5 for i, j in zip(nonzero, nonzero[1:]))
    return k1, k2


class TestGlv:
    def test_constants_are_derived(self, prod):
        assert _BETA in cube_roots_of_unity(_Q)
        assert _LAMBDA in cube_roots_of_unity(_ORDER)
        rng = random.Random(1729)
        for _ in range(6):
            p = prod.mul_gen(prod.random_scalar(rng))
            assert coordinates(oracle_mul(_LAMBDA, p)) == (False, _BETA * p.x % _Q, p.y)
        assert short_basis(_ORDER, _LAMBDA) == ((_A1, _B1), (_A2, _B2))
        for a, b in ((_A1, _B1), (_A2, _B2)):
            assert (a + b * _LAMBDA) % _ORDER == 0
        # determinant n: the two vectors generate the whole lattice
        assert _A1 * _B2 - _A2 * _B1 == _ORDER

    def test_split_edges_agree_with_oracle(self, prod):
        n = _ORDER
        rng = random.Random(4242)
        scalars = [1, 2, 17, n - 1, n - 17, _LAMBDA, 5 * _LAMBDA % n, n - _LAMBDA, n // 2]
        # b2 * k / n and -b1 * k / n as close to half-way as an integer k gets
        for b in (_B2, -_B1):
            inv = pow(b, -1, n)
            scalars += [(n - 1) // 2 * inv % n, (n + 1) // 2 * inv % n]
        scalars += [rng.randrange(n) for _ in range(16)]
        splits = [check_split(k) for k in scalars]
        assert any(k1 == 0 for k1, _ in splits) and any(k2 == 0 for _, k2 in splits)
        assert any(k1 < 0 for k1, _ in splits) and any(k2 < 0 for _, k2 in splits)
        for k in scalars:
            base = prod.mul_gen(prod.random_scalar(rng))
            assert coordinates(prod.mul(k, base)) == coordinates(oracle_mul(k, base)), k
            assert coordinates(prod.mul(prod.scalar(k), base)) == coordinates(oracle_mul(k, base)), k

    def test_variable_base_mul_takes_one_short_chain_of_doublings(self, prod, monkeypatch):
        # a 254-bit scalar took 252 doublings through the radix-16 window;
        # two table-less bases in one lincomb share that one chain
        rng = random.Random(99)
        cases = [(rng.randrange(2**253, _ORDER), prod.mul_gen(prod.random_scalar(rng))) for _ in range(8)]
        pairs = [cases[i : i + 2] for i in range(0, 8, 2)]
        wants = [coordinates(oracle_lincomb(prod, terms)) for terms in pairs]
        calls = 0
        real = group_module._j_double

        def counted(p):
            nonlocal calls
            calls += 1
            return real(p)

        monkeypatch.setattr(group_module, "_j_double", counted)
        for k, base in cases:
            calls = 0
            prod.mul(k, base)
            assert 100 < calls <= 130, (k, calls)
        for terms, want in zip(pairs, wants):
            calls = 0
            assert coordinates(prod.lincomb(terms)) == want
            assert 100 < calls <= 130, (terms, calls)


@given(k=st.integers(min_value=0, max_value=2**300), seed=st.integers(min_value=1, max_value=2**64))
@settings(max_examples=40, deadline=None)
def test_glv_mul_matches_oracle(k, seed):
    g = production_group()
    base = g.mul_gen(seed)
    check_split(k)
    assert coordinates(g.mul(k, base)) == coordinates(oracle_mul(k, base))
