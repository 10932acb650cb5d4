"""Elliptic-curve cryptography over prime fields (Layer 2/3).

The platform's API list includes ECC alongside RSA (paper Section 2.2),
and the related-work section points at elliptic curves as the
reduced-complexity alternative public-key family [28].  This module
implements short-Weierstrass curves y^2 = x^3 + ax + b over GF(p) on
the :class:`repro.mp.Mpz` layer, with:

- affine point arithmetic (add, double, negate) and windowed scalar
  multiplication,
- ECDH key agreement and ECDSA signatures (SHA-1 digests, matching the
  paper's era),
- the period-appropriate SECG curves secp160r1 and secp192r1
  (= NIST P-192).

All field operations run through Mpz, so the mpn leaf routines see the
real ECC workload during characterization and the macro-model estimator
prices ECC operations exactly like RSA ones.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.mp import DeterministicPrng, Mpz
from repro.crypto.modmul import BarrettModMul
from repro.crypto.sha1 import sha1


class EcError(ValueError):
    """Invalid point, parameters, or signature input."""


class _Field:
    """GF(p) arithmetic without per-operation division.

    Multiplication uses Barrett reduction (a precomputed reciprocal);
    addition/subtraction use conditional correction.  This is what a
    tuned ECC library does -- with generic divide-per-reduction, field
    operations are dominated by the division-free core's quotient
    estimation and ECC loses its complexity advantage over RSA.
    """

    def __init__(self, p: Mpz):
        self.p = p
        self._barrett = BarrettModMul(p)

    def mul(self, a: Mpz, b: Mpz) -> Mpz:
        return self._barrett.mul(a, b)

    def sqr(self, a: Mpz) -> Mpz:
        return self._barrett.mul(a, a)

    def add(self, a: Mpz, b: Mpz) -> Mpz:
        c = a + b
        return c - self.p if c >= self.p else c

    def sub(self, a: Mpz, b: Mpz) -> Mpz:
        c = a - b
        return c + self.p if c.sign < 0 else c

    def dbl(self, a: Mpz) -> Mpz:
        return self.add(a, a)


def batch_invert(values, p: Mpz):
    """Montgomery's simultaneous inversion: n inverses for one invert.

    Standard prefix-product trick; all values must be nonzero mod p.
    """
    if not values:
        return []
    prefix = [values[0] % p]
    for v in values[1:]:
        prefix.append((prefix[-1] * v) % p)
    inv_all = prefix[-1].invert(p)
    inverses = [None] * len(values)
    for i in range(len(values) - 1, 0, -1):
        inverses[i] = (inv_all * prefix[i - 1]) % p
        inv_all = (inv_all * values[i]) % p
    inverses[0] = inv_all % p
    return inverses


@dataclass(frozen=True)
class Curve:
    """A short-Weierstrass curve over GF(p) with a base point of order n."""

    name: str
    p: int
    a: int
    b: int
    gx: int
    gy: int
    n: int
    h: int = 1

    @property
    def bits(self) -> int:
        return self.p.bit_length()

    def generator(self) -> "Point":
        return Point(self, Mpz(self.gx), Mpz(self.gy))

    def infinity(self) -> "Point":
        return Point(self, None, None)

    def contains(self, x: int, y: int) -> bool:
        lhs = (y * y) % self.p
        rhs = (x * x * x + self.a * x + self.b) % self.p
        return lhs == rhs


class Point:
    """A point on a curve (affine coordinates; None/None = infinity)."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: Curve, x: Optional[Mpz], y: Optional[Mpz]):
        self.curve = curve
        self.x = x
        self.y = y
        if not self.is_infinity() and not curve.contains(int(x), int(y)):
            raise EcError(f"point not on curve {curve.name}")

    def is_infinity(self) -> bool:
        return self.x is None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Point) or self.curve is not other.curve:
            return NotImplemented
        if self.is_infinity() or other.is_infinity():
            return self.is_infinity() and other.is_infinity()
        return int(self.x) == int(other.x) and int(self.y) == int(other.y)

    def __hash__(self):
        if self.is_infinity():
            return hash((self.curve.name, None))
        return hash((self.curve.name, int(self.x), int(self.y)))

    def __neg__(self) -> "Point":
        if self.is_infinity():
            return self
        p = Mpz(self.curve.p)
        return Point(self.curve, self.x, (p - self.y) % p)

    def __add__(self, other: "Point") -> "Point":
        if self.curve is not other.curve:
            raise EcError("points on different curves")
        if self.is_infinity():
            return other
        if other.is_infinity():
            return self
        p = Mpz(self.curve.p)
        if int(self.x) == int(other.x):
            if (int(self.y) + int(other.y)) % int(p) == 0:
                return self.curve.infinity()
            # doubling: lambda = (3x^2 + a) / 2y
            num = (Mpz(3) * self.x * self.x + Mpz(self.curve.a)) % p
            den = (Mpz(2) * self.y) % p
        else:
            num = (other.y - self.y) % p
            den = (other.x - self.x) % p
        slope = (num * den.invert(p)) % p
        x3 = (slope * slope - self.x - other.x) % p
        y3 = (slope * (self.x - x3) - self.y) % p
        return Point(self.curve, x3, y3)

    def __sub__(self, other: "Point") -> "Point":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "Point":
        return self.scalar_mul(scalar)

    def scalar_mul(self, scalar: int, window: int = 4) -> "Point":
        """Windowed scalar multiplication in Jacobian coordinates.

        Projective arithmetic defers the modular inversion to a single
        final conversion, which is what makes ECC competitive with the
        paper's RSA workloads (cf. the reduced-complexity public-key
        citation [28]).
        """
        scalar = int(scalar) % self.curve.n
        if scalar == 0 or self.is_infinity():
            return self.curve.infinity()
        if window < 1 or window > 8:
            raise EcError("window must be in 1..8")
        # All field arithmetic runs on Mpz (so the mpn leaf routines are
        # traced) through a division-free GF(p) helper.
        p = Mpz(self.curve.p)
        field = _Field(p)
        a = Mpz(self.curve.a) % p
        zero, one = Mpz(0), Mpz(1)

        a_is_minus3 = int(a) == int(p) - 3

        def jac_double(X1, Y1, Z1):
            if Z1 == zero or Y1 == zero:
                return (zero, one, zero)
            y_sq = field.sqr(Y1)
            s = field.dbl(field.dbl(field.mul(X1, y_sq)))     # 4*X*Y^2
            z_sq = field.sqr(Z1)
            if a_is_minus3:
                # 3*X^2 + a*Z^4 = 3*(X - Z^2)*(X + Z^2): one mul instead
                # of two squarings + one mul (both SECG curves qualify).
                t = field.mul(field.sub(X1, z_sq), field.add(X1, z_sq))
                m = field.add(t, field.dbl(t))
            else:
                x_sq = field.sqr(X1)
                m = field.add(field.add(x_sq, field.dbl(x_sq)),
                              field.mul(a, field.sqr(z_sq)))
            X3 = field.sub(field.sqr(m), field.dbl(s))
            y_quad8 = field.dbl(field.dbl(field.dbl(field.sqr(y_sq))))
            Y3 = field.sub(field.mul(m, field.sub(s, X3)), y_quad8)
            Z3 = field.dbl(field.mul(Y1, Z1))
            return (X3, Y3, Z3)

        def jac_add_mixed(X1, Y1, Z1, x2, y2):
            if Z1 == zero:
                return (x2, y2, one)
            z_sq = field.sqr(Z1)
            u2 = field.mul(x2, z_sq)
            s2 = field.mul(y2, field.mul(z_sq, Z1))
            h = field.sub(u2, X1)
            r = field.sub(s2, Y1)
            if h == zero:
                if r == zero:
                    return jac_double(X1, Y1, Z1)
                return (zero, one, zero)
            h_sq = field.sqr(h)
            h_cu = field.mul(h_sq, h)
            v = field.mul(X1, h_sq)
            X3 = field.sub(field.sub(field.sqr(r), h_cu), field.dbl(v))
            Y3 = field.sub(field.mul(r, field.sub(v, X3)),
                           field.mul(Y1, h_cu))
            Z3 = field.mul(Z1, h)
            return (X3, Y3, Z3)

        # Precompute 1P .. (2^w - 1)P in Jacobian form, then convert the
        # whole table to affine with one batched inversion (Montgomery's
        # trick) so mixed addition stays cheap in the main loop.
        jac_table = [None, (self.x, self.y, one)]
        for _ in range(2, 1 << window):
            jac_table.append(jac_add_mixed(*jac_table[-1], self.x, self.y))
        # Entries with Z == 0 are the point at infinity (possible when
        # the base point's order is smaller than the table span).
        finite = [entry for entry in jac_table[1:] if entry[2] != zero]
        z_invs = iter(batch_invert([entry[2] for entry in finite], p))
        affine_table = [None]
        for (Xj, Yj, Zj) in jac_table[1:]:
            if Zj == zero:
                affine_table.append(self.curve.infinity())
                continue
            z_inv = next(z_invs)
            z_inv_sq = (z_inv * z_inv) % p
            affine_table.append(Point(
                self.curve, (Xj * z_inv_sq) % p,
                (Yj * z_inv_sq * z_inv) % p))

        X, Y, Z = zero, one, zero  # Jacobian infinity
        nbits = scalar.bit_length()
        nwindows = (nbits + window - 1) // window
        for widx in range(nwindows - 1, -1, -1):
            for _ in range(window):
                X, Y, Z = jac_double(X, Y, Z)
            digit = (scalar >> (widx * window)) & ((1 << window) - 1)
            if digit:
                q = affine_table[digit]
                if not q.is_infinity():
                    X, Y, Z = jac_add_mixed(X, Y, Z, q.x, q.y)
        if Z == zero:
            return self.curve.infinity()
        # One final inversion back to affine.
        z_inv = Z.invert(p)
        z_inv_sq = (z_inv * z_inv) % p
        x = (X * z_inv_sq) % p
        y = (Y * z_inv_sq * z_inv) % p
        return Point(self.curve, x, y)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_infinity():
            return f"Point({self.curve.name}, O)"
        return f"Point({self.curve.name}, {int(self.x):#x}, {int(self.y):#x})"


# ---------------------------------------------------------------------------
# Standard curves of the paper's era
# ---------------------------------------------------------------------------

SECP160R1 = Curve(
    name="secp160r1",
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFF,
    a=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFC,
    b=0x1C97BEFC54BD7A8B65ACF89F81D4D4ADC565FA45,
    gx=0x4A96B5688EF573284664698968C38BB913CBFC82,
    gy=0x23A628553168947D59DCC912042351377AC5FB32,
    n=0x0100000000000000000001F4C8F927AED3CA752257,
)

SECP192R1 = Curve(
    name="secp192r1",
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFF,
    a=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFC,
    b=0x64210519E59C80E70FA7E9AB72243049FEB8DEECC146B9B1,
    gx=0x188DA80EB03090F67CBF20EB43A18800F4FF0AFD82FF1012,
    gy=0x07192B95FFC8DA78631011ED6B24CDD573F977A11E794811,
    n=0xFFFFFFFFFFFFFFFFFFFFFFFF99DEF836146BC9B1B4D22831,
)

#: A tiny curve for fast unit tests (order 19 subgroup over GF(97)... no:
#: this one is y^2 = x^3 + 2x + 3 over GF(97), |E| = 100, G order 5).
TINY_CURVE = Curve(name="tiny97", p=97, a=2, b=3, gx=3, gy=6, n=5, h=20)

CURVES = {c.name: c for c in (SECP160R1, SECP192R1, TINY_CURVE)}


# ---------------------------------------------------------------------------
# ECDH
# ---------------------------------------------------------------------------

@dataclass
class EcKeyPair:
    curve: Curve
    private: int
    public: Point


def generate_ec_keypair(curve: Curve,
                        prng: Optional[DeterministicPrng] = None
                        ) -> EcKeyPair:
    prng = prng or DeterministicPrng(0xECC)
    d = prng.next_range(1, curve.n - 1)
    return EcKeyPair(curve=curve, private=d,
                     public=curve.generator().scalar_mul(d))


def ecdh_shared_secret(private: int, peer_public: Point) -> int:
    """ECDH: the x-coordinate of d * Q_peer."""
    if peer_public.is_infinity():
        raise EcError("peer public key is the point at infinity")
    shared = peer_public.scalar_mul(private)
    if shared.is_infinity():
        raise EcError("degenerate shared secret")
    return int(shared.x)


# ---------------------------------------------------------------------------
# ECDSA (SHA-1, ANSI X9.62 style)
# ---------------------------------------------------------------------------

def _digest_to_int(message: bytes, n: int) -> int:
    digest = int.from_bytes(sha1(message), "big")
    excess = digest.bit_length() - n.bit_length()
    if excess > 0:
        digest >>= excess
    return digest


def ecdsa_sign(message: bytes, key: EcKeyPair,
               prng: Optional[DeterministicPrng] = None
               ) -> Tuple[int, int]:
    prng = prng or DeterministicPrng(0x51)
    curve = key.curve
    e = _digest_to_int(message, curve.n)
    g = curve.generator()
    while True:
        k = prng.next_range(1, curve.n - 1)
        point = g.scalar_mul(k)
        r = int(point.x) % curve.n
        if r == 0:
            continue
        k_inv = int(Mpz(k).invert(curve.n))
        s = (k_inv * (e + r * key.private)) % curve.n
        if s == 0:
            continue
        return r, s


def ecdsa_verify(message: bytes, signature: Tuple[int, int],
                 curve: Curve, public: Point) -> bool:
    r, s = signature
    if not (0 < r < curve.n and 0 < s < curve.n):
        return False
    if public.is_infinity():
        return False
    e = _digest_to_int(message, curve.n)
    w = int(Mpz(s).invert(curve.n))
    u1 = (e * w) % curve.n
    u2 = (r * w) % curve.n
    point = curve.generator().scalar_mul(u1) + public.scalar_mul(u2)
    if point.is_infinity():
        return False
    return int(point.x) % curve.n == r
