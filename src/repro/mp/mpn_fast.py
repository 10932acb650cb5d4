"""Specialized fast implementations of the hot mpn routines.

The reference :mod:`repro.mp.mpn` loops limb by limb -- the faithful
form of the target's assembly, but the dominant Python-side cost of
every modexp-heavy experiment.  This module provides *flat*
replacements for the hottest routines: operands are packed into one
Python int, the whole operation runs on native bignum arithmetic, and
the result is unpacked back into limbs.

The replacements are drop-in equivalent on two axes, both enforced by
the test suite and the ``mpn_fast`` bench scenario:

- **Values**: identical result limbs and carries/borrows for every
  input, at every radix.
- **Traces**: identical :func:`repro.mp.hooks.trace` call sequences
  (names, order, and size parameters), so macro-model cycle estimates
  -- and therefore every recorded baseline -- are byte-identical.
  This includes the data-dependent Knuth D6 add-back path in
  :func:`divrem`: the fast version runs the same quotient-digit
  estimate and correction, so the ``mpn_add_n`` add-back trace fires
  on exactly the same iterations as the reference.

This module holds only the flat implementations.  Each reference
routine in :mod:`repro.mp.mpn` that has a twin here dispatches to it
when the calling thread's backend is ``fast``: the process default
comes from ``$REPRO_MPN_BACKEND``, and :func:`repro.mp.mpn_backend`
overrides it for one thread.  Calling a twin directly runs the flat
code for that call.

:func:`sqr` flattens only below ``mpn.KARATSUBA_THRESHOLD`` (looked up
dynamically, so threshold ablations still work) and delegates larger
operands to :func:`repro.mp.mpn.mul` -- the Karatsuba trace sequence
is size-dependent, and on a thread running the fast backend the
recursion's base cases land back on the fast :func:`mul_basecase`.
"""

from typing import List, Tuple

from repro.mp import mpn
from repro.mp.hooks import trace
from repro.mp.limb import DEFAULT_RADIX, Radix

Limbs = List[int]


def _pack(limbs: Limbs, bits: int) -> int:
    """Limb vector (LS limb first) -> one Python int."""
    value = 0
    for limb in reversed(limbs):
        value = (value << bits) | limb
    return value


def _unpack(value: int, count: int, bits: int, mask: int) -> Limbs:
    """Low ``count`` limbs of ``value`` as a vector (LS limb first)."""
    out = []
    for _ in range(count):
        out.append(value & mask)
        value >>= bits
    return out


# ---------------------------------------------------------------------------
# Leaf replacements
# ---------------------------------------------------------------------------

def addmul_1(rp: Limbs, up: Limbs, v: int,
             radix: Radix = DEFAULT_RADIX) -> Tuple[Limbs, int]:
    """rp += up * v (equal lengths); return (new rp, carry limb)."""
    if len(rp) != len(up):
        raise ValueError("addmul_1 requires equal-length operands")
    trace("mpn_addmul_1", n=len(up))
    bits, mask = radix.bits, radix.mask
    t = _pack(rp, bits) + _pack(up, bits) * v
    out = []
    for _ in range(len(up)):
        out.append(t & mask)
        t >>= bits
    return out, t


def _addmul_1_into(rp: Limbs, offset: int, up: Limbs, v: int,
                   radix: Radix = DEFAULT_RADIX) -> int:
    """rp[offset:offset+len(up)] += up * v in place; return carry limb."""
    trace("mpn_addmul_1", n=len(up))
    bits, mask = radix.bits, radix.mask
    n = len(up)
    t = _pack(rp[offset:offset + n], bits) + _pack(up, bits) * v
    for i in range(offset, offset + n):
        rp[i] = t & mask
        t >>= bits
    return t


def mul_basecase(up: Limbs, vp: Limbs,
                 radix: Radix = DEFAULT_RADIX) -> Limbs:
    """Schoolbook product of two vectors (length = len(up)+len(vp)).

    One flat bignum multiply; emits the reference's trace sequence
    (one ``mpn_mul_1`` then ``len(vp)-1`` ``mpn_addmul_1`` calls, all
    at ``n=len(up)``).
    """
    un, vn = len(up), len(vp)
    trace("mpn_mul_1", n=un)
    for _ in range(1, vn):
        trace("mpn_addmul_1", n=un)
    bits = radix.bits
    return _unpack(_pack(up, bits) * _pack(vp, bits), un + vn,
                   bits, radix.mask)


def sqr(up: Limbs, radix: Radix = DEFAULT_RADIX) -> Limbs:
    """Square of a vector; flat below the Karatsuba threshold."""
    up = mpn.normalize(up)
    if up == [0]:
        return [0]
    n = len(up)
    if n >= mpn.KARATSUBA_THRESHOLD:
        # Karatsuba traces are size-dependent; take the reference
        # driver (its base cases follow this thread's backend).
        return mpn.mul(up, up, radix)
    trace("mpn_mul_1", n=n)
    for _ in range(1, n):
        trace("mpn_addmul_1", n=n)
    bits = radix.bits
    t = _pack(up, bits)
    return mpn.normalize(_unpack(t * t, 2 * n, bits, radix.mask))


def divrem_1(up: Limbs, v: int,
             radix: Radix = DEFAULT_RADIX) -> Tuple[Limbs, int]:
    """Divide a vector by a single limb; return (quotient, remainder limb)."""
    if v == 0:
        raise ZeroDivisionError("division by zero limb")
    trace("mpn_divrem_1", n=len(up))
    bits = radix.bits
    u = _pack(up, bits)
    q = u // v
    return mpn.normalize(_unpack(q, len(up), bits, radix.mask)), u - q * v


def divrem(up: Limbs, vp: Limbs,
           radix: Radix = DEFAULT_RADIX) -> Tuple[Limbs, Limbs]:
    """Knuth Algorithm D division; return (quotient, remainder) vectors.

    The numerator lives in one Python int, but the quotient digit is
    still estimated from the top limbs with the reference's exact
    correction loop -- so ``mpn_divrem_qest``/``mpn_submul_1`` traces,
    and the data-dependent D6 add-back's ``mpn_add_n`` trace, fire
    identically.
    """
    up, vp = mpn.normalize(up), mpn.normalize(vp)
    if vp == [0]:
        raise ZeroDivisionError("mpn division by zero")
    if len(vp) == 1:
        q, r = divrem_1(up, vp[0], radix)
        return q, [r]
    bits, base, mask = radix.bits, radix.base, radix.mask
    numerator = _pack(up, bits)
    divisor = _pack(vp, bits)
    if numerator < divisor:
        return [0], up

    # D1: normalize so the divisor's top limb has its high bit set.
    shift = bits - vp[-1].bit_length()
    if shift:
        trace("mpn_lshift", n=len(vp))
        trace("mpn_lshift", n=len(up))
        divisor <<= shift
        numerator <<= shift
    n = len(vp)
    m = len(up) - n          # reference: len(un) - n - 1 with the pad limb
    vtop = (divisor >> ((n - 1) * bits)) & mask
    vnext = (divisor >> ((n - 2) * bits)) & mask
    window_mod = 1 << ((n + 1) * bits)
    qp = [0] * (m + 1)

    for j in range(m, -1, -1):
        # D3: estimate the digit from the top two/three window limbs.
        trace("mpn_divrem_qest", n=1)
        s = j * bits
        window = (numerator >> s) & (window_mod - 1)
        num = window >> ((n - 1) * bits)       # (un[j+n] << bits) | un[j+n-1]
        unext = (window >> ((n - 2) * bits)) & mask
        qhat = num // vtop
        rhat = num - qhat * vtop
        while qhat >= base or qhat * vnext > ((rhat << bits) | unext):
            qhat -= 1
            rhat += vtop
            if rhat >= base:
                break
        # D4: multiply and subtract on the window.
        trace("mpn_submul_1", n=n)
        w = window - qhat * divisor
        if w < 0:
            # D6: qhat was one too large; add back.
            qhat -= 1
            trace("mpn_add_n", n=n)
            w += divisor
        numerator += ((w % window_mod) - window) << s
        qp[j] = qhat

    rem_int = numerator & ((1 << (n * bits)) - 1)
    rem = mpn.normalize(_unpack(rem_int, n, bits, mask))
    if shift:
        trace("mpn_rshift", n=len(rem))
        rem = _unpack(rem_int >> shift, len(rem), bits, mask)
    return mpn.normalize(qp), mpn.normalize(rem)
