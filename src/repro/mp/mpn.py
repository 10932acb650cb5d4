"""Low-level limb-vector primitives (the ``mpn`` layer).

These functions mirror the GNU GMP ``mpn`` interface that the paper's
software library is built on.  A limb vector is a plain Python list of
ints, least-significant limb first, each in ``[0, radix.base)``.

Every *leaf* routine (the ones the methodology characterizes and
accelerates with custom instructions) reports its invocation through
:func:`repro.mp.hooks.trace` with the size parameters that its
performance macro-model is a function of -- e.g. ``add_n`` reports the
limb count ``n``, exactly like the paper's ``mpn_add_n`` example whose
cycle count is modeled as a function of input bit-widths.

Unlike GMP, results are returned (functional style) rather than written
through pointers; carries/borrows are returned alongside.

The six routines with flat twins in :mod:`repro.mp.mpn_fast`
(``addmul_1``, ``_addmul_1_into``, ``mul_basecase``, ``sqr``,
``divrem_1``, ``divrem``) read one per-thread flag on entry and hand
the call to their twin when it is set.  ``$REPRO_MPN_BACKEND`` sets the
process default; :func:`repro.mp.mpn_backend` overrides it for the
calling thread only.
"""

import os
import threading
from typing import List, Tuple

from repro.mp.hooks import trace
from repro.mp.limb import DEFAULT_RADIX, Radix

Limbs = List[int]

#: Operand size (in limbs) above which multiplication switches from the
#: schoolbook base case to Karatsuba.  Exposed for the ablation bench.
KARATSUBA_THRESHOLD = 16

#: Environment variable naming the process-default mpn backend.
MPN_BACKEND_ENV = "REPRO_MPN_BACKEND"


def _is_fast(name: str, what: str = "mpn backend") -> bool:
    """``True`` for ``"fast"``, ``False`` for ``"reference"``."""
    if name not in ("reference", "fast"):
        raise ValueError(f"unknown {what} {name!r} "
                         f"(expected 'reference' or 'fast')")
    return name == "fast"


class _Backend(threading.local):
    """Whether this thread runs the flat twins: the class attribute is
    the process default, an instance attribute a thread's override."""

    fast = _is_fast(os.environ.get(MPN_BACKEND_ENV, "") or "reference",
                    f"${MPN_BACKEND_ENV} value")


_backend = _Backend()


def normalize(up: Limbs) -> Limbs:
    """Strip high zero limbs (keep at least one limb)."""
    n = len(up)
    while n > 1 and up[n - 1] == 0:
        n -= 1
    return up[:n]


def from_int(value: int, radix: Radix = DEFAULT_RADIX) -> Limbs:
    """Convert a non-negative Python int to a normalized limb vector."""
    if value < 0:
        raise ValueError("mpn vectors are non-negative")
    if value == 0:
        return [0]
    limbs = []
    mask, bits = radix.mask, radix.bits
    while value:
        limbs.append(value & mask)
        value >>= bits
    return limbs


def to_int(up: Limbs, radix: Radix = DEFAULT_RADIX) -> int:
    """Convert a limb vector back to a Python int."""
    value = 0
    for limb in reversed(up):
        value = (value << radix.bits) | limb
    return value


def numbits(up: Limbs, radix: Radix = DEFAULT_RADIX) -> int:
    """Bit length of the value held in ``up`` (0 has bit length 0)."""
    up = normalize(up)
    top = up[-1]
    if top == 0:
        return 0
    return (len(up) - 1) * radix.bits + top.bit_length()


def cmp(up: Limbs, vp: Limbs, radix: Radix = DEFAULT_RADIX) -> int:
    """Three-way compare of two limb vectors (any lengths)."""
    un, vn = normalize(up), normalize(vp)
    if len(un) != len(vn):
        return -1 if len(un) < len(vn) else 1
    for u, v in zip(reversed(un), reversed(vn)):
        if u != v:
            return -1 if u < v else 1
    return 0


# ---------------------------------------------------------------------------
# Leaf routines (characterized / macro-modeled / accelerated)
# ---------------------------------------------------------------------------

def add_n(up: Limbs, vp: Limbs, radix: Radix = DEFAULT_RADIX) -> Tuple[Limbs, int]:
    """Add two equal-length limb vectors; return (sum limbs, carry out).

    This is the paper's running example: its cycle count on the base
    processor is linear in ``n`` and it is accelerated by ``add_2`` /
    ``add_4`` / ``add_8`` / ``add_16`` custom instructions.
    """
    if len(up) != len(vp):
        raise ValueError("add_n requires equal-length operands")
    trace("mpn_add_n", n=len(up))
    base = radix.base
    rp = []
    carry = 0
    for u, v in zip(up, vp):
        s = u + v + carry
        carry = 1 if s >= base else 0
        rp.append(s - base if carry else s)
    return rp, carry


def sub_n(up: Limbs, vp: Limbs, radix: Radix = DEFAULT_RADIX) -> Tuple[Limbs, int]:
    """Subtract ``vp`` from ``up`` (equal lengths); return (diff, borrow)."""
    if len(up) != len(vp):
        raise ValueError("sub_n requires equal-length operands")
    trace("mpn_sub_n", n=len(up))
    base = radix.base
    rp = []
    borrow = 0
    for u, v in zip(up, vp):
        d = u - v - borrow
        borrow = 1 if d < 0 else 0
        rp.append(d + base if borrow else d)
    return rp, borrow


def mul_1(up: Limbs, v: int, radix: Radix = DEFAULT_RADIX) -> Tuple[Limbs, int]:
    """Multiply a limb vector by a single limb; return (product, carry limb)."""
    trace("mpn_mul_1", n=len(up))
    bits, mask = radix.bits, radix.mask
    rp = []
    carry = 0
    for u in up:
        t = u * v + carry
        rp.append(t & mask)
        carry = t >> bits
    return rp, carry


def addmul_1(rp: Limbs, up: Limbs, v: int,
             radix: Radix = DEFAULT_RADIX) -> Tuple[Limbs, int]:
    """rp += up * v (equal lengths); return (new rp, carry limb).

    The multiply-accumulate inner loop of schoolbook multiplication --
    the hottest leaf routine in public-key processing and the
    ``mpn_addmul_1`` of paper Figure 5(b).
    """
    if _backend.fast:
        return _fast.addmul_1(rp, up, v, radix)
    if len(rp) != len(up):
        raise ValueError("addmul_1 requires equal-length operands")
    trace("mpn_addmul_1", n=len(up))
    bits, mask = radix.bits, radix.mask
    out = []
    carry = 0
    for r, u in zip(rp, up):
        t = r + u * v + carry
        out.append(t & mask)
        carry = t >> bits
    return out, carry


def submul_1(rp: Limbs, up: Limbs, v: int,
             radix: Radix = DEFAULT_RADIX) -> Tuple[Limbs, int]:
    """rp -= up * v (equal lengths); return (new rp, borrow limb)."""
    if len(rp) != len(up):
        raise ValueError("submul_1 requires equal-length operands")
    trace("mpn_submul_1", n=len(up))
    bits, mask = radix.bits, radix.mask
    out = []
    borrow = 0
    for r, u in zip(rp, up):
        # Fold the incoming borrow into the product so it stays < base**2,
        # keeping each output limb strictly within [0, base).
        prod = u * v + borrow
        t = r - (prod & mask)
        borrow = prod >> bits
        if t < 0:
            t += radix.base
            borrow += 1
        out.append(t)
    return out, borrow


def lshift(up: Limbs, count: int, radix: Radix = DEFAULT_RADIX) -> Tuple[Limbs, int]:
    """Shift left by ``count`` bits (0 < count < limb bits); return (limbs, out)."""
    if not 0 < count < radix.bits:
        raise ValueError("lshift count must be in (0, limb bits)")
    trace("mpn_lshift", n=len(up))
    bits, mask = radix.bits, radix.mask
    rp = []
    carry = 0
    for u in up:
        t = (u << count) | carry
        rp.append(t & mask)
        carry = t >> bits
    return rp, carry


def rshift(up: Limbs, count: int, radix: Radix = DEFAULT_RADIX) -> Tuple[Limbs, int]:
    """Shift right by ``count`` bits; return (limbs, bits shifted out)."""
    if not 0 < count < radix.bits:
        raise ValueError("rshift count must be in (0, limb bits)")
    trace("mpn_rshift", n=len(up))
    bits = radix.bits
    rp = [0] * len(up)
    carry = 0
    for i in range(len(up) - 1, -1, -1):
        u = up[i]
        rp[i] = (u >> count) | (carry << (bits - count))
        carry = u & ((1 << count) - 1)
    return rp, carry


# ---------------------------------------------------------------------------
# In-place leaf variants (hot-path helpers)
# ---------------------------------------------------------------------------
# The composite routines below (schoolbook multiply, Knuth division) call
# the multiply-accumulate leaves once per outer-loop digit on a sliding
# window of the result vector.  Slicing that window in and out of a list
# every iteration dominates Python-side cost, so these variants update
# ``rp[offset:offset+len(up)]`` in place.  They trace exactly like their
# functional counterparts -- same routine name, same ``n`` -- so charged
# cycle counts are unchanged.

def _addmul_1_into(rp: Limbs, offset: int, up: Limbs, v: int,
                   radix: Radix = DEFAULT_RADIX) -> int:
    """rp[offset:offset+len(up)] += up * v in place; return carry limb."""
    if _backend.fast:
        return _fast._addmul_1_into(rp, offset, up, v, radix)
    trace("mpn_addmul_1", n=len(up))
    bits, mask = radix.bits, radix.mask
    carry = 0
    i = offset
    for u in up:
        t = rp[i] + u * v + carry
        rp[i] = t & mask
        carry = t >> bits
        i += 1
    return carry


def _submul_1_into(rp: Limbs, offset: int, up: Limbs, v: int,
                   radix: Radix = DEFAULT_RADIX) -> int:
    """rp[offset:offset+len(up)] -= up * v in place; return borrow limb."""
    trace("mpn_submul_1", n=len(up))
    bits, mask, base = radix.bits, radix.mask, radix.base
    borrow = 0
    i = offset
    for u in up:
        prod = u * v + borrow
        t = rp[i] - (prod & mask)
        borrow = prod >> bits
        if t < 0:
            t += base
            borrow += 1
        rp[i] = t
        i += 1
    return borrow


def _add_n_into(rp: Limbs, offset: int, up: Limbs,
                radix: Radix = DEFAULT_RADIX) -> int:
    """rp[offset:offset+len(up)] += up in place; return carry out."""
    trace("mpn_add_n", n=len(up))
    base = radix.base
    carry = 0
    i = offset
    for u in up:
        s = rp[i] + u + carry
        carry = 1 if s >= base else 0
        rp[i] = s - base if carry else s
        i += 1
    return carry


# ---------------------------------------------------------------------------
# Composite routines (built from the leaves)
# ---------------------------------------------------------------------------

def add(up: Limbs, vp: Limbs, radix: Radix = DEFAULT_RADIX) -> Limbs:
    """Add two vectors of any lengths; result includes any final carry."""
    if len(up) < len(vp):
        up, vp = vp, up
    lo, carry = add_n(up[: len(vp)], vp, radix)
    hi = list(up[len(vp):])
    i = 0
    while carry and i < len(hi):
        t = hi[i] + carry
        carry = 1 if t >= radix.base else 0
        hi[i] = t - radix.base if carry else t
        i += 1
    rp = lo + hi
    if carry:
        rp.append(1)
    return rp


def sub(up: Limbs, vp: Limbs, radix: Radix = DEFAULT_RADIX) -> Limbs:
    """Subtract ``vp`` from ``up``; requires up >= vp."""
    if cmp(up, vp, radix) < 0:
        raise ValueError("mpn.sub requires up >= vp")
    vp_ext = list(vp) + [0] * (len(up) - len(vp))
    rp, borrow = sub_n(up, vp_ext, radix)
    assert borrow == 0
    return normalize(rp)


def mul_basecase(up: Limbs, vp: Limbs, radix: Radix = DEFAULT_RADIX) -> Limbs:
    """Schoolbook product of two vectors (length = len(up)+len(vp))."""
    if _backend.fast:
        return _fast.mul_basecase(up, vp, radix)
    un = len(up)
    rp = [0] * (un + len(vp))
    lo, carry = mul_1(up, vp[0], radix)
    rp[:un] = lo
    rp[un] = carry
    for i in range(1, len(vp)):
        rp[i + un] += _addmul_1_into(rp, i, up, vp[i], radix)
    return rp


def _split(up: Limbs, k: int) -> Tuple[Limbs, Limbs]:
    lo = up[:k] or [0]
    hi = up[k:] or [0]
    return lo, hi


def mul_karatsuba(up: Limbs, vp: Limbs, radix: Radix = DEFAULT_RADIX,
                  threshold: int = None) -> Limbs:
    """Karatsuba product, recursing to the schoolbook base case."""
    if threshold is None:
        threshold = KARATSUBA_THRESHOLD
    un, vn = len(up), len(vp)
    if min(un, vn) < threshold:
        return mul_basecase(up, vp, radix)
    k = max(un, vn) // 2
    u0, u1 = _split(up, k)
    v0, v1 = _split(vp, k)
    z0 = mul_karatsuba(u0, v0, radix, threshold)
    z2 = mul_karatsuba(u1, v1, radix, threshold)
    usum = add(u0, u1, radix)
    vsum = add(v0, v1, radix)
    z1 = mul_karatsuba(usum, vsum, radix, threshold)
    z1 = sub(z1, add(normalize(z0), normalize(z2), radix), radix)
    # result = z0 + z1 << (k limbs) + z2 << (2k limbs)
    rp = list(z0)
    mid = [0] * k + z1
    hi = [0] * (2 * k) + z2
    rp = add(rp, mid, radix)
    rp = add(rp, hi, radix)
    return rp


def mul(up: Limbs, vp: Limbs, radix: Radix = DEFAULT_RADIX) -> Limbs:
    """General product; picks base case or Karatsuba by operand size."""
    up, vp = normalize(up), normalize(vp)
    if up == [0] or vp == [0]:
        return [0]
    if min(len(up), len(vp)) < KARATSUBA_THRESHOLD:
        return normalize(mul_basecase(up, vp, radix))
    return normalize(mul_karatsuba(up, vp, radix))


def sqr(up: Limbs, radix: Radix = DEFAULT_RADIX) -> Limbs:
    """Square of a vector (currently via mul; a true sqr saves ~half)."""
    if _backend.fast:
        return _fast.sqr(up, radix)
    return mul(up, up, radix)


def divrem_1(up: Limbs, v: int, radix: Radix = DEFAULT_RADIX) -> Tuple[Limbs, int]:
    """Divide a vector by a single limb; return (quotient, remainder limb)."""
    if _backend.fast:
        return _fast.divrem_1(up, v, radix)
    if v == 0:
        raise ZeroDivisionError("division by zero limb")
    trace("mpn_divrem_1", n=len(up))
    bits = radix.bits
    qp = [0] * len(up)
    rem = 0
    for i in range(len(up) - 1, -1, -1):
        cur = (rem << bits) | up[i]
        qp[i] = cur // v
        rem = cur - qp[i] * v
    return normalize(qp), rem


def divrem(up: Limbs, vp: Limbs, radix: Radix = DEFAULT_RADIX) -> Tuple[Limbs, Limbs]:
    """Knuth Algorithm D division; return (quotient, remainder) vectors."""
    if _backend.fast:
        return _fast.divrem(up, vp, radix)
    up, vp = normalize(up), normalize(vp)
    if vp == [0]:
        raise ZeroDivisionError("mpn division by zero")
    if len(vp) == 1:
        q, r = divrem_1(up, vp[0], radix)
        return q, [r]
    if cmp(up, vp, radix) < 0:
        return [0], up
    bits, base, mask = radix.bits, radix.base, radix.mask

    # D1: normalize so the divisor's top limb has its high bit set.
    shift = bits - vp[-1].bit_length()
    if shift:
        vn, _ = lshift(vp, shift, radix)
        un, carry = lshift(up, shift, radix)
        un = un + [carry]
    else:
        vn = list(vp)
        un = list(up) + [0]
    n = len(vn)
    m = len(un) - n - 1
    qp = [0] * (m + 1)
    vtop, vnext = vn[-1], vn[-2]

    for j in range(m, -1, -1):
        # D3: estimate quotient digit from the top two/three limbs.
        # (On the target this is a division-free shift-subtract estimate;
        # see the divrem_qest kernel.)
        trace("mpn_divrem_qest", n=1)
        num = (un[j + n] << bits) | un[j + n - 1]
        qhat = num // vtop
        rhat = num - qhat * vtop
        while qhat >= base or qhat * vnext > ((rhat << bits) | un[j + n - 2]):
            qhat -= 1
            rhat += vtop
            if rhat >= base:
                break
        # D4: multiply and subtract (in place on the un window).
        borrow = _submul_1_into(un, j, vn, qhat, radix)
        top = un[j + n] - borrow
        if top < 0:
            # D6: qhat was one too large; add back.
            qhat -= 1
            top += _add_n_into(un, j, vn, radix)
            top += base if top < 0 else 0
        un[j + n] = top & mask
        qp[j] = qhat

    rem = normalize(un[:n])
    if shift:
        rem, _ = rshift(rem, shift, radix)
    return normalize(qp), normalize(rem)


def mod(up: Limbs, vp: Limbs, radix: Radix = DEFAULT_RADIX) -> Limbs:
    """Remainder of up / vp."""
    _, r = divrem(up, vp, radix)
    return r


# The flat twins build on the routines above, so they load last.
from repro.mp import mpn_fast as _fast  # noqa: E402
