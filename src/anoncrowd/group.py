"""Prime-order group backends for the commitment/encryption layer.

Two interchangeable instantiations of one interface:

* ``CurveGroup``: the production backend. Short-Weierstrass curve
  y^2 = x^3 + 3 over a 254-bit prime field (the G1 group common to
  mainstream proof toolchains; no pairings are used here). The curve group
  has prime order and cofactor 1, so every on-curve point is a valid
  element and subgroup checks reduce to the curve equation.
* ``TinyGroup``: a multiplicative subgroup of prime order 2^31 - 1 inside
  a 37-bit prime field. Discrete logs in it are brute-forceable by design;
  oracle tests use it to cross-check relation semantics against exhaustive
  recomputation. It offers no security; runs use it only for speed.

Scalars are immutable and carry their modulus, so values from the two
backends cannot be mixed silently. Group elements are opaque value objects;
all arithmetic goes through the owning group instance. Each backend's
``lincomb(terms, start)``, start + sum of k * P, is its one scalar
multiplication: a product of powers in the tiny group, one Jacobian sum with
one normalization on the curve. ``Group``'s mul, mul_gen, mul_blind, dual_mul
and neg call it (the curve's neg negates y). A point that
``Group.fixed_base`` returns carries its own signed radix-256 table, built on
its first multiplication, and lincomb takes that table: the generator, the
blinding generator and keygen's public keys are such points, which is what
makes pure-Python commitments fast enough for the acceptance workloads.
Decoded points carry none, and a decoded point's y waits for its first use:
decoding checks x against the curve with a Jacobi symbol, so a point that is
only encoded again (the audit's statements) never pays for a square root.
Every other base goes through the GLV endomorphism: the scalar splits into
two halves of at most 127 bits, each recoded in width-5 NAF over a per-call
row of the base's first 15 multiples and that row's image under the
endomorphism, and the halves of all such bases share one chain of doublings.
Those rows and the codec's baby table come from ``Group.multiples``, which
the curve normalizes to affine in chunks, with one batch inversion per chunk.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from functools import cache

from .errors import EncodingError

_DST_BLIND = b"anoncrowd/v1/blind-generator"
_DST_H2G = b"anoncrowd/v1/hash-to-group"


# ── scalars ──────────────────────────────────────────────────────────────────


class Scalar:
    """An integer modulo the group order.

    Supports the ring operations the protocol needs (addition for blinding
    sums, subtraction for deblinding, multiplication for signature and
    decryption algebra). Mixing scalars from different groups raises.
    """

    __slots__ = ("value", "order")

    def __init__(self, value: int, order: int):
        self.value = value % order
        self.order = order

    def _coerce(self, other: "Scalar | int") -> int:
        if isinstance(other, Scalar):
            if other.order != self.order:
                raise ValueError("scalar moduli differ")
            return other.value
        if isinstance(other, int):
            return other
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "Scalar | int") -> "Scalar":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.value + v, self.order)

    __radd__ = __add__

    def __sub__(self, other: "Scalar | int") -> "Scalar":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.value - v, self.order)

    def __rsub__(self, other: int) -> "Scalar":
        return Scalar(other - self.value, self.order)

    def __mul__(self, other: "Scalar | int") -> "Scalar":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.value * v, self.order)

    __rmul__ = __mul__

    def __neg__(self) -> "Scalar":
        return Scalar(-self.value, self.order)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Scalar)
            and self.value == other.value
            and self.order == other.order
        )

    def __hash__(self) -> int:
        return hash((self.value, self.order))

    def __repr__(self) -> str:
        return f"Scalar({self.value})"


# ── element value objects ────────────────────────────────────────────────────


class GroupElement:
    """Marker base class; concrete layouts are backend-private."""

    __slots__ = ()


class CurvePoint(GroupElement):
    """Affine point, or the point at infinity when ``inf`` is set.

    ``odd`` is the parity of y. On the curve, x and that parity name the
    point (its two y are y and _Q - y, of opposite parity), so equality,
    hashing and encoding read only x, ``odd`` and ``inf``, and a decoded
    point (a _CompressedPoint) leaves y unset until its first read.

    ``table`` is the point's own fixed-base table when CurveGroup.fixed_base
    made it, else None; equality and hashing ignore it."""

    __slots__ = ("x", "y", "odd", "inf", "table")

    def __init__(self, x: int, y: int, inf: bool = False):
        self.x = x
        self.y = y
        self.odd = y & 1
        self.inf = inf
        self.table: _FixedBaseTable | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.inf or other.inf:
            return self.inf and other.inf
        return self.x == other.x and self.odd == other.odd

    def __hash__(self) -> int:
        return hash((self.inf, self.x, self.odd))

    def __repr__(self) -> str:
        if self.inf:
            return "CurvePoint(infinity)"
        return f"CurvePoint({hex(self.x)}, {hex(self.y)})"


class _CompressedPoint(CurvePoint):
    """A decoded point: x on the curve and the parity of y, with y found by
    one square root on its first read. __getattr__ lives on this subclass
    alone: defining it takes every attribute load off the interpreter's
    specialized slot read, and eager points fill the hottest loops."""

    __slots__ = ()

    def __init__(self, x: int, odd: int):
        self.x, self.odd, self.inf, self.table = x, odd, False, None

    def __getattr__(self, name: str) -> int:
        # reached only for an unset slot, which is y
        if name != "y":
            raise AttributeError(name)
        y = _curve_y(self.x)
        self.y = y if y & 1 == self.odd else _Q - y
        return self.y


class FieldUnit(GroupElement):
    """Element of the tiny multiplicative group (a unit mod its field)."""

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldUnit):
            return NotImplemented
        return self.v == other.v

    def __hash__(self) -> int:
        return hash(("unit", self.v))

    def __repr__(self) -> str:
        return f"FieldUnit({self.v})"


# ── production curve arithmetic ──────────────────────────────────────────────

# Field and group parameters of the 254-bit curve y^2 = x^3 + 3.
_Q = 21888242871839275222246405745257275088696311157297823662689037894645226208583
_ORDER = 21888242871839275222246405745257275088548364400416034343698204186575808495617
_GX, _GY = 1, 2

# The curve's endomorphism (x, y) -> (_BETA * x, y) is multiplication by
# _LAMBDA; both are cube roots of unity, _BETA mod _Q and _LAMBDA mod _ORDER.
# (a1, b1) and (a2, b2) are a short basis of the lattice of pairs with
# a + b * _LAMBDA = 0 mod _ORDER, from a half extended Euclid on
# (_ORDER, _LAMBDA). tests/test_group.py derives all three.
_BETA = 2203960485148121921418603742825762020974279258880205651966
_LAMBDA = 4407920970296243842393367215006156084916469457145843978461
_A1, _B1 = 9931322734385697763, -147946756881789319000765030803803410728
_A2, _B2 = 147946756881789319010696353538189108491, 9931322734385697763

# Jacobian triples (X, Y, Z); Z = 0 encodes infinity.
_J_INF = (0, 1, 0)


def _j_double(p: tuple[int, int, int]) -> tuple[int, int, int]:
    X1, Y1, Z1 = p
    if Z1 == 0:  # no point has y = 0 in a group of odd order
        return _J_INF
    A = (X1 * X1) % _Q
    B = (Y1 * Y1) % _Q
    C = (B * B) % _Q
    t = (X1 + B) % _Q
    D = (2 * (t * t - A - C)) % _Q
    E = (3 * A) % _Q
    F = (E * E) % _Q
    X3 = (F - 2 * D) % _Q
    Y3 = (E * (D - X3) - 8 * C) % _Q
    Z3 = (2 * Y1 * Z1) % _Q
    return (X3, Y3, Z3)


def _j_add_affine(p: tuple[int, int, int], ax: int, ay: int) -> tuple[int, int, int]:
    """Mixed addition: Jacobian ``p`` plus affine ``(ax, ay)``."""
    X1, Y1, Z1 = p
    if Z1 == 0:
        return (ax, ay, 1)
    Z1Z1 = (Z1 * Z1) % _Q
    U2 = (ax * Z1Z1) % _Q
    S2 = (ay * Z1 * Z1Z1) % _Q
    if U2 == X1:
        if S2 == Y1:
            return _j_double(p)
        return _J_INF
    H = (U2 - X1) % _Q
    HH = (H * H) % _Q
    I = (4 * HH) % _Q
    J = (H * I) % _Q
    r = (2 * (S2 - Y1)) % _Q
    V = (X1 * I) % _Q
    X3 = (r * r - J - 2 * V) % _Q
    Y3 = (r * (V - X3) - 2 * Y1 * J) % _Q
    t = (Z1 + H) % _Q
    Z3 = (t * t - Z1Z1 - HH) % _Q
    return (X3, Y3, Z3)


def _j_to_affine(p: tuple[int, int, int]) -> CurvePoint:
    X, Y, Z = p
    if Z == 0:
        return CurvePoint(0, 0, inf=True)
    zi = pow(Z, -1, _Q)
    zi2 = (zi * zi) % _Q
    return CurvePoint((X * zi2) % _Q, (Y * zi2 * zi) % _Q)


def _inverses(values: list[int]) -> list[int]:
    """The inverses mod _Q of nonzero values, with one pow (Montgomery's
    trick: invert the product of them all, then peel each inverse off it)."""
    prefix, product = [], 1
    for v in values:
        prefix.append(product)
        product = (product * v) % _Q
    inv = pow(product, -1, _Q)
    out = []
    for v, pre in zip(reversed(values), reversed(prefix)):
        out.append((inv * pre) % _Q)
        inv = (inv * v) % _Q
    out.reverse()
    return out


def _affine(points: list[tuple[int, int, int]]) -> list[CurvePoint]:
    """Jacobian points, none of them infinity, normalized with one inversion."""
    out = []
    for (X, Y, _), zi in zip(points, _inverses([p[2] for p in points])):
        zi2 = (zi * zi) % _Q
        out.append(CurvePoint((X * zi2) % _Q, (Y * zi2 * zi) % _Q))
    return out


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by the binary algorithm (H.
    Cohen, A Course in Computational Algebraic Number Theory, Alg. 1.4.10).
    For a prime n it is 1 exactly on the nonzero squares, at about a quarter
    of the cost of a pow mod n."""
    a %= n
    t = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):  # (2/n) = -1
            t = -t
        if a & n & 3 == 3:  # reciprocity
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


def _curve_y(x: int) -> int | None:
    """A square root of x^3 + 3 mod _Q, or None when x is not the
    x-coordinate of a curve point (_Q = 3 mod 4, so one pow finds it)."""
    y2 = (x * x * x + 3) % _Q
    y = pow(y2, (_Q + 1) // 4, _Q)
    return y if (y * y) % _Q == y2 else None


def _glv_split(k: int) -> tuple[int, int]:
    """Signed (k1, k2) with k1 + k2 * _LAMBDA = k mod _ORDER, each under
    2^127 in magnitude: (k, 0) minus the lattice point that rounding
    c1 = b2 * k / n and c2 = -b1 * k / n gives. n is odd, so neither
    quotient is ever exactly half-way."""
    c1 = (2 * _B2 * k + _ORDER) // (2 * _ORDER)
    c2 = (-2 * _B1 * k + _ORDER) // (2 * _ORDER)
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _wnaf5(k: int) -> list[int]:
    """Width-5 NAF of a signed k, least significant digit first: each
    nonzero digit is odd, in [-15, 15], and followed by at least four
    zeros, and the sum of d * 2^i is k."""
    digits = []
    while k:
        if k & 1:
            d = (k & 31) - 32 if k & 16 else k & 31
            digits += (d, 0, 0, 0, 0)
            k = (k - d) >> 5
        else:
            digits.append(0)
            k >>= 1
    return digits


class _FixedBaseTable:
    """Signed radix-256 decomposition table for one fixed base point B.

    A scalar is recoded into digits d in [-128, 128]: a byte b above 128
    becomes the digit b - 256 and carries one into the next byte. Row i
    holds d * 256^i * B for d in 0..128 (entry 0 unused), affine, as two
    flat lists of x and y coordinates; a negative digit takes its entry with
    y negated. Row i+1's base is twice row i's last entry. A scalar below
    the order is under 2^254, so its top byte plus a carry stays at most
    128 and 32 rows suffice: at most 32 mixed additions and no doublings.
    The rows are built on the first accumulate, so a base that is never
    multiplied costs nothing.
    """

    __slots__ = ("base", "rows")

    def __init__(self, base: CurvePoint):
        self.base = base
        self.rows: list[tuple[list[int], list[int]]] | None = None

    def _build(self) -> list[tuple[list[int], list[int]]]:
        """The row bases 256^i * B take 8 doublings each and one batch
        normalization. Then all rows grow in lockstep, entry j as entry
        j - 1 plus the row's base (a doubling for j = 2) in affine form,
        and each step's slope denominators share one inversion. None is
        zero: j * B is neither B nor -B for 1 < j < order - 1."""
        acc = (self.base.x, self.base.y, 1)
        jacobian = [acc]
        for _ in range((_ORDER.bit_length() + 8) // 8 - 1):
            for _ in range(8):
                acc = _j_double(acc)
            jacobian.append(acc)
        bases = _affine(jacobian)
        rows = [([0, b.x], [0, b.y]) for b in bases]
        nums, dens = [3 * b.x * b.x for b in bases], [2 * b.y for b in bases]
        for _ in range(127):
            for (xs, ys), b, num, inv in zip(rows, bases, nums, _inverses(dens)):
                lam = (num * inv) % _Q
                x, y = xs[-1], ys[-1]
                x3 = (lam * lam - x - b.x) % _Q
                xs.append(x3)
                ys.append((lam * (x - x3) - y) % _Q)
            nums = [ys[-1] - b.y for (_, ys), b in zip(rows, bases)]
            dens = [xs[-1] - b.x for (xs, _), b in zip(rows, bases)]
        return rows

    def accumulate(self, k: int, acc: tuple[int, int, int]) -> tuple[int, int, int]:
        rows = self.rows
        if rows is None:
            rows = self.rows = self._build()
        for xs, ys in rows:
            if not k:
                break
            d = k & 0xFF
            k >>= 8
            if d > 128:
                k += 1
                acc = _j_add_affine(acc, xs[256 - d], _Q - ys[256 - d])
            elif d:
                acc = _j_add_affine(acc, xs[d], ys[d])
        return acc


# ── group interface ──────────────────────────────────────────────────────────


class Group:
    """Common interface of the two backends. Not instantiated directly."""

    name: str
    order: int
    scalar_size: int
    element_size: int

    # scalar helpers

    def scalar(self, value: "int | Scalar") -> Scalar:
        if isinstance(value, Scalar):
            if value.order != self.order:
                raise ValueError("scalar belongs to a different group")
            return value
        return Scalar(value, self.order)

    def random_scalar(self, rng) -> Scalar:
        """Uniform scalar from a caller-supplied random.Random-like source."""
        return Scalar(rng.randrange(self.order), self.order)

    def encode_scalar(self, s: "Scalar | int") -> bytes:
        return self.scalar(s).value.to_bytes(self.scalar_size, "little")

    def decode_scalar(self, data: bytes) -> Scalar:
        if len(data) != self.scalar_size:
            raise EncodingError(f"scalar encoding must be {self.scalar_size} bytes")
        v = int.from_bytes(data, "little")
        if v >= self.order:
            raise EncodingError("scalar encoding exceeds group order")
        return Scalar(v, self.order)

    # fixed bases: each backend sets _gen, and _blind is hashed from it

    _blind: GroupElement | None = None

    @property
    def generator(self) -> GroupElement:
        return self._gen

    @property
    def blind_generator(self) -> GroupElement:
        """Hashed from the generator, so its discrete log is unknown."""
        if self._blind is None:
            h = self.hash_to_element(_DST_BLIND + self.encode_element(self._gen))
            self._blind = self.fixed_base(h)
        return self._blind

    # element operations: a backend provides identity, add and lincomb, its
    # one multiplication, which the neg, mul and dual_mul defaults call

    def identity(self) -> GroupElement:
        raise NotImplementedError

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        raise NotImplementedError

    def neg(self, a: GroupElement) -> GroupElement:
        return self.lincomb(((-1, a),))

    def mul(self, k: "Scalar | int", p: GroupElement) -> GroupElement:
        return self.lincomb(((k, p),))

    def mul_gen(self, k: "Scalar | int") -> GroupElement:
        return self.mul(k, self.generator)

    def mul_blind(self, k: "Scalar | int") -> GroupElement:
        return self.mul(k, self.blind_generator)

    def lincomb(self, terms, start: GroupElement | None = None) -> GroupElement:
        """start (default the identity) + sum of k * P over (k, P) in terms."""
        raise NotImplementedError

    def dual_mul(self, k_gen: "Scalar | int", k_blind: "Scalar | int") -> GroupElement:
        """k_gen * G + k_blind * H; the commitment hot path."""
        return self.lincomb(((k_gen, self.generator), (k_blind, self.blind_generator)))

    def multiples(self, p: GroupElement, count: int) -> Iterator[GroupElement]:
        """0p, 1p, ..., (count - 1)p in order. The default adds p each step."""
        cur = self.identity()
        for _ in range(count):
            yield cur
            cur = self.add(cur, p)

    def fixed_base(self, p: GroupElement) -> GroupElement:
        """p, equal to the argument, prepared to be the base of many mul
        calls (a long-lived public key). The default returns p as it is."""
        return p

    def encode_element(self, p: GroupElement) -> bytes:
        raise NotImplementedError

    def decode_element(self, data: bytes) -> GroupElement:
        raise NotImplementedError

    def hash_to_element(self, data: bytes) -> GroupElement:
        """Try-and-increment: the first counter whose digest maps to an element.
        Nothing-up-my-sleeve, so the result's discrete log to the generator is unknown."""
        ctr = 0
        while (p := self._from_digest(hashlib.sha256(_DST_H2G + data + ctr.to_bytes(4, "little")).digest())) is None:
            ctr += 1
        return p

    def _from_digest(self, digest: bytes) -> GroupElement | None:
        """The element a 32-byte digest maps to, or None when it maps to none."""
        raise NotImplementedError


class CurveGroup(Group):
    """Production backend over the 254-bit curve; lincomb, its one
    multiplication, says how it multiplies. Prefer module-level
    production_group() so the generators' tables are built once."""

    name = "curve254"
    order = _ORDER
    scalar_size = 32
    element_size = 33

    def __init__(self):
        self._gen = self.fixed_base(CurvePoint(_GX, _GY))

    # interface

    def identity(self) -> CurvePoint:
        return CurvePoint(0, 0, inf=True)

    def add(self, a: GroupElement, b: GroupElement) -> CurvePoint:
        assert isinstance(a, CurvePoint) and isinstance(b, CurvePoint)
        if a.inf:
            return b
        if b.inf:
            return a
        return _j_to_affine(_j_add_affine((a.x, a.y, 1), b.x, b.y))

    def neg(self, a: GroupElement) -> CurvePoint:
        assert isinstance(a, CurvePoint)
        if a.inf:
            return a
        return CurvePoint(a.x, (-a.y) % _Q)

    def lincomb(self, terms, start: GroupElement | None = None) -> CurvePoint:
        """start + sum of k * P over (k, P) in terms, in one Jacobian
        accumulator. Table-less bases share one chain of doublings (Straus's
        interleaving), each k * P as k1 * P + k2 * phi(P) in width-5 NAF over
        rows of d * P and phi(d * P) for odd d in -15..15. Tabled bases then
        accumulate through their tables, and start goes in last."""
        halves, tabled = [], []
        for k, p in terms:
            assert isinstance(p, CurvePoint)
            kv = self.scalar(k).value
            if kv and p.table is not None:  # never infinity, see fixed_base
                tabled.append((kv, p.table))
            elif kv and not p.inf:
                xs, ys = [0] * 32, [0] * 32
                for d, pt in enumerate(self.multiples(p, 16)):
                    if d & 1:
                        xs[d] = xs[-d] = pt.x
                        ys[d], ys[-d] = pt.y, _Q - pt.y
                k1, k2 = _glv_split(kv)
                halves += [(_wnaf5(k1), xs, ys), (_wnaf5(k2), [(_BETA * x) % _Q for x in xs], ys)]
        top = max((len(digits) for digits, _, _ in halves), default=0)
        acc = _J_INF
        for column in zip(*(reversed(digits + [0] * (top - len(digits))) for digits, _, _ in halves)):
            if acc is not _J_INF:
                acc = _j_double(acc)
            for d, (_, xs, ys) in zip(column, halves):
                if d:
                    acc = _j_add_affine(acc, xs[d], ys[d])
        for kv, table in tabled:
            acc = table.accumulate(kv, acc)
        if start is not None and not start.inf:
            acc = _j_add_affine(acc, start.x, start.y)
        return _j_to_affine(acc)

    def multiples(self, p: GroupElement, count: int) -> Iterator[CurvePoint]:
        """0p, 1p, ..., (count - 1)p for p not infinity, as the default
        gives them. The Jacobian sums are normalized in chunks of 256 with
        one inversion each (see _inverses), so only one chunk is held at a
        time.
        In a group of prime order no jp with 0 < j < order is infinity, so
        no Z is zero."""
        assert isinstance(p, CurvePoint) and not p.inf
        if count:
            yield self.identity()
        acc = _J_INF
        for start in range(1, count, 256):
            sums = []
            for _ in range(min(256, count - start)):
                acc = _j_add_affine(acc, p.x, p.y)
                sums.append(acc)
            yield from _affine(sums)

    def fixed_base(self, p: GroupElement) -> CurvePoint:
        """A copy of p that carries its own fixed-base table, so that mul
        with it as the base takes the table path: at most 32 mixed additions
        and no doublings, once the first mul has built the table."""
        assert isinstance(p, CurvePoint)
        out = CurvePoint(p.x, p.y, p.inf)
        if not p.inf:
            out.table = _FixedBaseTable(p)
        return out

    def encode_element(self, p: GroupElement) -> bytes:
        assert isinstance(p, CurvePoint)
        if p.inf:
            return b"\x00" * 33
        return bytes([0x03 if p.odd else 0x02]) + p.x.to_bytes(32, "big")

    def decode_element(self, data: bytes) -> CurvePoint:
        if len(data) != 33:
            raise EncodingError("curve element encoding must be 33 bytes")
        if data == b"\x00" * 33:
            return self.identity()
        prefix = data[0]
        if prefix not in (0x02, 0x03):
            raise EncodingError("bad curve element prefix")
        x = int.from_bytes(data[1:], "big")
        if x >= _Q:
            raise EncodingError("curve x-coordinate out of field range")
        if _jacobi(x * x * x + 3, _Q) != 1:  # never 0: no point has y = 0 in a group of odd order
            raise EncodingError("x-coordinate is not on the curve")
        return _CompressedPoint(x, prefix & 1)

    def _from_digest(self, digest: bytes) -> CurvePoint | None:
        x = int.from_bytes(digest, "big") % _Q
        y = _curve_y(x)
        return None if y is None else CurvePoint(x, _Q - y if digest[0] & 1 else y)


# ── tiny oracle backend ──────────────────────────────────────────────────────

# Subgroup of prime order 2^31 - 1 inside F_P with P = 46 * (2^31 - 1) + 1.
_T_ORDER = 2**31 - 1
_T_P = 46 * _T_ORDER + 1
_T_COFACTOR = 46
_T_GEN = pow(2, _T_COFACTOR, _T_P)


class TinyGroup(Group):
    """Brute-forceable backend for oracle tests. The group operation is
    field multiplication, so "addition" here multiplies residues and
    "scalar multiplication" is modular exponentiation."""

    name = "tiny31"
    order = _T_ORDER
    scalar_size = 8
    element_size = 8

    def __init__(self):
        self._gen = FieldUnit(_T_GEN)

    def identity(self) -> FieldUnit:
        return FieldUnit(1)

    def add(self, a: GroupElement, b: GroupElement) -> FieldUnit:
        assert isinstance(a, FieldUnit) and isinstance(b, FieldUnit)
        return FieldUnit((a.v * b.v) % _T_P)

    def lincomb(self, terms, start: GroupElement | None = None) -> FieldUnit:
        """start (default 1) times the product of P^k over (k, P) in terms."""
        acc = 1 if start is None else start.v
        for k, p in terms:
            assert isinstance(p, FieldUnit)
            acc = (acc * pow(p.v, self.scalar(k).value, _T_P)) % _T_P
        return FieldUnit(acc)

    def encode_element(self, p: GroupElement) -> bytes:
        assert isinstance(p, FieldUnit)
        return p.v.to_bytes(8, "little")

    def decode_element(self, data: bytes) -> FieldUnit:
        if len(data) != 8:
            raise EncodingError("tiny element encoding must be 8 bytes")
        v = int.from_bytes(data, "little")
        if not 0 < v < _T_P:
            raise EncodingError("tiny element out of field range")
        if pow(v, _T_ORDER, _T_P) != 1:
            raise EncodingError("tiny element outside the prime-order subgroup")
        return FieldUnit(v)

    def _from_digest(self, digest: bytes) -> FieldUnit | None:
        e = pow(int.from_bytes(digest, "big") % _T_P, _T_COFACTOR, _T_P)
        return None if e == 1 else FieldUnit(e)


# ── shared instances ─────────────────────────────────────────────────────────

@cache
def production_group() -> CurveGroup:
    """Process-wide curve backend (shares the fixed-base tables)."""
    return CurveGroup()


@cache
def tiny_group() -> TinyGroup:
    """Process-wide oracle backend. Test use only."""
    return TinyGroup()
