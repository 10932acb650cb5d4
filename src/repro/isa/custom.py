"""The candidate custom instruction library (formulation phase output).

Paper Section 3.3: for each performance-critical library routine the
designer formulates one or more candidate custom instructions, varying
the hardware resources (adders, multipliers, lookup tables) to create a
local area-delay tradeoff.  This module is that catalogue:

- ``vaddc_m`` / ``vsubb_m`` -- m-limb memory-to-memory add/sub with a
  carry/borrow user register (the paper's ``add_2``/``add_4``/``add_8``
  /``add_16`` family for ``mpn_add_n``).
- ``vmac_m`` / ``vmsub_m`` / ``vmul1_m`` -- m-limb multiply-accumulate
  (the ``mul_1`` family for ``mpn_addmul_1`` etc.).
- ``desld`` / ``desround_s`` / ``desst`` -- DES initial permutation +
  load, full Feistel round with ``s`` S-box units, final permutation +
  store.
- ``aesld`` / ``aesrnd_v`` / ``aesrndl`` / ``aesst`` -- AES state load,
  full round (``v`` selects S-box/MixColumns parallelism), last round,
  store.

Semantics execute on the simulator's memory and wide user registers
and are bit-exact with the reference software implementations (the
test suite cross-checks them), mirroring how TIE semantics must match
the C reference.

The multi-limb instructions state their carry chain once, in
:func:`_limbs`: each is one linear expression over n-limb operands,
stored mod 2^(32n), whose signed carry-out ``x >> 32n`` feeds the
``carry`` user register.  Borrow instructions pass ``-borrow`` in and
store the negated carry-out.  The expression is normally evaluated
packed (one bounds check and one bignum operation per instruction);
the per-word chain runs only where that could differ -- a region out
of range, which must fault after the same partial writes, fewer than
one limb, or a source overlapping the destination from below.

Latency models assume a dual-word memory port (2 words transferred per
cycle) and fully pipelined functional units; fewer units time-multiplex
and cost proportionally more cycles.  This produces the diminishing-
returns knee the paper's A-D curves show.
"""

import math
from operator import add, sub
from typing import List

from repro.isa.extensions import CustomInstruction, ExtensionSet

WORD_MASK = 0xFFFFFFFF

#: Resource sweep points for the multi-limb adder family (paper Fig. 5a).
ADD_WIDTHS = (2, 4, 8, 16)
#: Resource sweep points for the multiply-accumulate family (Fig. 5b).
MAC_WIDTHS = (1, 2, 4, 8)
#: S-box parallelism sweep for the DES round instruction.
DES_SBOX_UNITS = (1, 2, 4, 8)
#: (sbox units, mixcol units) sweep for the AES round instruction.
AES_VARIANTS = ((4, 1), (8, 2), (16, 4))


def _mem_beats(words: int) -> int:
    """Cycles to move ``words`` over the dual-word memory port."""
    return max(1, math.ceil(words / 2))


# ---------------------------------------------------------------------------
# Multi-precision vector instructions
# ---------------------------------------------------------------------------

def _limbs(machine, dst, n, srcs, expr, carry=0):
    """Store ``x = expr(*operands) + carry`` mod 2^(32n) at ``dst`` and
    return the signed carry-out ``x >> 32n``.

    ``srcs`` are the addresses of the n-limb operands, read in that
    order.  ``expr`` is linear, so the per-word chain (see the module
    docstring for when it runs) applies it limb by limb to the same
    effect; an overlap from below would let a later limb read an
    earlier write.
    """
    nbytes = 4 * n
    mem = machine.mem
    top = len(mem) - nbytes
    if n >= 1 and 0 <= dst <= top and all(
            0 <= src <= top and not src < dst < src + nbytes
            for src in srcs):
        x = expr(*[int.from_bytes(mem[src:src + nbytes], "little")
                   for src in srcs]) + carry
        bits = 8 * nbytes
        mem[dst:dst + nbytes] = (x & ((1 << bits) - 1)).to_bytes(
            nbytes, "little")
        return x >> bits
    for i in range(0, nbytes, 4):
        x = expr(*[machine.read_word(src + i) for src in srcs]) + carry
        machine.write_word(dst + i, x)
        carry = x >> 32
    return carry


def make_vaddc(m: int) -> CustomInstruction:
    """mem[rd..+m] = mem[ra..+m] + mem[rb..+m] + carry; updates carry UR."""

    def semantics(machine, args):
        dst, a, b = [machine.regs[r] for r in args]
        machine.user_regs["carry"] = _limbs(
            machine, dst, m, (a, b), add, machine.user_regs.get("carry", 0))

    # 2 loads + 1 store of m words each, plus 1 cycle in the adder array
    # and 1 cycle of issue overhead.
    latency = 2 + 3 * _mem_beats(m)
    return CustomInstruction(
        name=f"vaddc_{m}", signature="rrr", semantics=semantics,
        latency=latency,
        resources={"adder32": m, "reg_bit": 1 + 32 * m, "control": 1},
        description=f"{m}-limb add with carry chaining (paper add_{m})")


def make_vsubb(m: int) -> CustomInstruction:
    """mem[rd..+m] = mem[ra..+m] - mem[rb..+m] - borrow; updates borrow UR."""

    def semantics(machine, args):
        dst, a, b = [machine.regs[r] for r in args]
        borrow = machine.user_regs.get("borrow", 0)
        n = m
        if borrow not in (0, 1):
            # A wide borrow-in (``vmsub`` leaves one) saturates to 0/1
            # after limb 0, where a floor carry would not: run limb 0
            # alone.
            borrow = int(_limbs(machine, dst, 1, (a, b), sub, -borrow) < 0)
            dst, a, b, n = dst + 4, a + 4, b + 4, m - 1
        machine.user_regs["borrow"] = -_limbs(
            machine, dst, n, (a, b), sub, -borrow)

    latency = 2 + 3 * _mem_beats(m)
    return CustomInstruction(
        name=f"vsubb_{m}", signature="rrr", semantics=semantics,
        latency=latency,
        resources={"adder32": m, "reg_bit": 1 + 32 * m, "control": 1},
        description=f"{m}-limb subtract with borrow chaining")


def make_vmac(m: int) -> CustomInstruction:
    """mem[rd..+m] += mem[ra..+m] * rb + carry; updates carry UR.

    The inner step of ``mpn_addmul_1``: the hottest operation in
    public-key processing.
    """

    def semantics(machine, args):
        dst, src, v = [machine.regs[r] for r in args]
        machine.user_regs["carry"] = _limbs(
            machine, dst, m, (dst, src), lambda d, a: d + a * v,
            machine.user_regs.get("carry", 0))

    # read-modify-write of m words (3 transfers) + pipelined multiply array.
    latency = 3 + 3 * _mem_beats(m)
    return CustomInstruction(
        name=f"vmac_{m}", signature="rrr", semantics=semantics,
        latency=latency,
        resources={"mul32": m, "adder32": m, "reg_bit": 32 + 32 * m,
                   "control": 1},
        description=f"{m}-limb multiply-accumulate (mpn_addmul_1 step)")


def make_vmsub(m: int) -> CustomInstruction:
    """mem[rd..+m] -= mem[ra..+m] * rb + borrow; updates borrow UR."""

    def semantics(machine, args):
        dst, src, v = [machine.regs[r] for r in args]
        machine.user_regs["borrow"] = -_limbs(
            machine, dst, m, (src, dst), lambda a, d: d - a * v,
            -machine.user_regs.get("borrow", 0))

    latency = 3 + 3 * _mem_beats(m)
    return CustomInstruction(
        name=f"vmsub_{m}", signature="rrr", semantics=semantics,
        latency=latency,
        resources={"mul32": m, "adder32": m, "reg_bit": 32 + 32 * m,
                   "control": 1},
        description=f"{m}-limb multiply-subtract (mpn_submul_1 step)")


def make_vmul1(m: int) -> CustomInstruction:
    """mem[rd..+m] = mem[ra..+m] * rb + carry; updates carry UR."""

    def semantics(machine, args):
        dst, src, v = [machine.regs[r] for r in args]
        machine.user_regs["carry"] = _limbs(
            machine, dst, m, (src,), lambda a: a * v,
            machine.user_regs.get("carry", 0))

    latency = 3 + 2 * _mem_beats(m)
    return CustomInstruction(
        name=f"vmul1_{m}", signature="rrr", semantics=semantics,
        latency=latency,
        resources={"mul32": m, "adder32": m, "reg_bit": 32 + 32 * m,
                   "control": 1},
        description=f"{m}-limb multiply by a limb (mpn_mul_1 step)")


def make_montcfg() -> CustomInstruction:
    """Configure the Montgomery datapath: m' from ra, limb count from rb."""

    def semantics(machine, args):
        ra, rb = args
        machine.user_regs["mprime"] = machine.regs[ra]
        machine.user_regs["klen"] = machine.regs[rb]

    return CustomInstruction(
        name="montcfg", signature="rr", semantics=semantics, latency=1,
        resources={"reg_bit": 64, "control": 1},
        description="set Montgomery constants (m', k) user registers")


def _row_latency(width: int):
    """Latency of a full k-limb row on a width-limb MAC array."""

    def latency(machine, args):
        k = machine.user_regs.get("klen", 1)
        return 4 + math.ceil(k / width) * 3 * _mem_beats(width) + 2

    return latency


def _row(machine, dst, src, v):
    """mem[dst..+k] += mem[src..+k] * v (k from the ``klen`` user
    register); the carry-out ripples word by word from word k up."""
    k = machine.user_regs.get("klen", 1)
    carry = _limbs(machine, dst, k, (dst, src), lambda d, a: d + a * v)
    addr = dst + 4 * k
    while carry:
        x = machine.read_word(addr) + carry
        machine.write_word(addr, x)
        carry = x >> 32
        addr += 4


def make_macrow(width: int) -> CustomInstruction:
    """One schoolbook row: mem[rd..+k] += mem[ra..+k] * rb, carry into
    mem[rd+k..] (k from the montcfg user register).

    The fused row instruction removes the per-chunk subroutine overhead
    of ``vmac``; it is the aggressive TIE candidate that makes the
    large RSA speedups possible.
    """

    def semantics(machine, args):
        dst, src, v = [machine.regs[r] for r in args]
        _row(machine, dst, src, v)

    return CustomInstruction(
        name=f"macrow_{width}", signature="rrr", semantics=semantics,
        latency=_row_latency(width),
        resources={"mul32": width, "adder32": width,
                   "reg_bit": 96 + 32 * width, "control": 2},
        description=f"fused k-limb MAC row on a {width}-wide array")


def make_montrow(width: int) -> CustomInstruction:
    """One Montgomery REDC row: u = mem[rd]*m' mod 2^32;
    mem[rd..+k] += mem[ra..+k] * u with carry propagation above."""

    def semantics(machine, args):
        dst, src = [machine.regs[r] for r in args]
        mprime = machine.user_regs.get("mprime", 0)
        _row(machine, dst, src, (machine.read_word(dst) * mprime) & WORD_MASK)

    return CustomInstruction(
        name=f"montrow_{width}", signature="rr", semantics=semantics,
        latency=_row_latency(width),
        resources={"mul32": width, "adder32": width,
                   "reg_bit": 96 + 32 * width, "control": 2},
        description=f"fused Montgomery REDC row on a {width}-wide array")


def make_vzero() -> CustomInstruction:
    """Zero 2k+2 words at [rd] (the REDC scratch buffer)."""

    def semantics(machine, args):
        k = machine.user_regs.get("klen", 1)
        _limbs(machine, machine.regs[args[0]], 2 * k + 2, (), lambda: 0)

    def latency(machine, args):
        k = machine.user_regs.get("klen", 1)
        return 1 + _mem_beats(2 * k + 2)

    return CustomInstruction(
        name="vzero", signature="r", semantics=semantics, latency=latency,
        resources={"control": 1},
        description="zero the 2k+2-word Montgomery scratch buffer")


def _mp_instructions(add_width: int, mac_width: int
                     ) -> List[CustomInstruction]:
    return [make_vaddc(add_width), make_vsubb(add_width),
            make_vmac(mac_width), make_vmsub(mac_width),
            make_vmul1(mac_width)]


def mp_datapath_gates(add_width: int, mac_width: int) -> float:
    """Gate-equivalent area of the five multi-precision datapath
    instructions at the given widths; 0 for the base core (both widths
    0).  The co-design explorer's hardware area and the farm's extended
    core gates both read it."""
    if add_width == 0 and mac_width == 0:
        return 0.0
    return sum(i.area for i in _mp_instructions(add_width, mac_width))


# ---------------------------------------------------------------------------
# DES instructions
# ---------------------------------------------------------------------------

def _des_refs():
    """Late import to avoid a package cycle at module load."""
    from repro.crypto import des as _des
    from repro.crypto import bitops as _bitops
    return _des, _bitops


def make_desld() -> CustomInstruction:
    """Load an 8-byte block from [ra] and apply IP into the L/R user regs."""

    def semantics(machine, args):
        (ra,) = args
        _des, _bitops = _des_refs()
        block = int.from_bytes(machine.read_bytes(machine.regs[ra], 8), "big")
        state = _bitops.bit_permute(block, _des._IP, 64)
        machine.user_regs["des_l"] = (state >> 32) & WORD_MASK
        machine.user_regs["des_r"] = state & WORD_MASK

    return CustomInstruction(
        name="desld", signature="r", semantics=semantics, latency=3,
        resources={"perm64": 1, "reg_bit": 64, "control": 1},
        description="DES block load + initial permutation")


def make_desst() -> CustomInstruction:
    """Apply the final permutation (with L/R swap) and store at [ra]."""

    def semantics(machine, args):
        (ra,) = args
        _des, _bitops = _des_refs()
        left = machine.user_regs.get("des_l", 0)
        right = machine.user_regs.get("des_r", 0)
        preoutput = (right << 32) | left
        out = _bitops.bit_permute(preoutput, _des._FP, 64)
        machine.write_bytes(machine.regs[ra], out.to_bytes(8, "big"))

    return CustomInstruction(
        name="desst", signature="r", semantics=semantics, latency=3,
        resources={"perm64": 1, "control": 1},
        description="DES final permutation + block store")


def make_desround(sbox_units: int) -> CustomInstruction:
    """One full Feistel round; subkey (48 bits, two words) read from [ra].

    With ``s`` S-box units the eight S-boxes take ``ceil(8/s)`` cycles;
    the E and P permutations are wiring.
    """

    def semantics(machine, args):
        ra, offset = args
        _des, _ = _des_refs()
        addr = machine.regs[ra] + offset
        subkey = (machine.read_word(addr) << 32) | machine.read_word(addr + 4)
        left = machine.user_regs.get("des_l", 0)
        right = machine.user_regs.get("des_r", 0)
        f_out = _des._feistel(right, subkey & ((1 << 48) - 1))
        machine.user_regs["des_l"] = right
        machine.user_regs["des_r"] = left ^ f_out

    latency = 2 + math.ceil(8 / sbox_units)
    return CustomInstruction(
        name=f"desround_{sbox_units}", signature="ri", semantics=semantics,
        latency=latency,
        resources={"perm64": 1, "perm32": 1, "xor32": 3,
                   "lut_bit": sbox_units * 64 * 4, "reg_bit": 64,
                   "control": 1},
        description=f"DES Feistel round with {sbox_units} S-box unit(s)")


def des_extension_set(sbox_units: int = 8) -> ExtensionSet:
    return ExtensionSet([make_desld(), make_desround(sbox_units), make_desst()])


# ---------------------------------------------------------------------------
# AES instructions
# ---------------------------------------------------------------------------

def _aes_refs():
    from repro.crypto import aes as _aes
    return _aes


def make_aesld() -> CustomInstruction:
    """Load a 16-byte state from [ra] into the AES state user register."""

    def semantics(machine, args):
        (ra,) = args
        machine.user_regs["aes_state"] = machine.read_bytes(machine.regs[ra], 16)

    return CustomInstruction(
        name="aesld", signature="r", semantics=semantics, latency=3,
        resources={"reg_bit": 128, "control": 1},
        description="AES state load")


def make_aesst() -> CustomInstruction:
    """Store the AES state user register to [ra]."""

    def semantics(machine, args):
        (ra,) = args
        machine.write_bytes(machine.regs[ra], machine.user_regs["aes_state"])

    return CustomInstruction(
        name="aesst", signature="r", semantics=semantics, latency=3,
        resources={"control": 1},
        description="AES state store")


def make_aesark() -> CustomInstruction:
    """state ^= round key at [ra] (the cipher's initial AddRoundKey)."""

    def semantics(machine, args):
        (ra,) = args
        key = machine.read_bytes(machine.regs[ra], 16)
        state = machine.user_regs["aes_state"]
        machine.user_regs["aes_state"] = bytes(s ^ k for s, k in zip(state, key))

    return CustomInstruction(
        name="aesark", signature="r", semantics=semantics, latency=3,
        resources={"xor32": 4, "control": 1},
        description="AES AddRoundKey on the state user register")


def _aes_round_semantics(machine, args, last: bool):
    (ra,) = args
    _aes = _aes_refs()
    round_key = list(machine.read_bytes(machine.regs[ra], 16))
    state = _aes.Aes._to_state(machine.user_regs["aes_state"])
    _aes.Aes._sub_bytes(state, _aes.SBOX)
    _aes.Aes._shift_rows(state)
    if not last:
        _aes.Aes._mix_columns(state)
    _aes.Aes._add_round_key(state, round_key)
    machine.user_regs["aes_state"] = _aes.Aes._from_state(state)


def make_aesrnd(sbox_units: int, mixcol_units: int) -> CustomInstruction:
    """One full AES round; round key (16 bytes) read from [ra]."""

    def semantics(machine, args):
        _aes_round_semantics(machine, args, last=False)

    latency = (1 + math.ceil(16 / sbox_units) + math.ceil(4 / mixcol_units)
               + 1)  # issue + SubBytes + MixColumns + key xor (2 words/cycle
                     # key fetch overlaps the S-box phase)
    return CustomInstruction(
        name=f"aesrnd_{sbox_units}_{mixcol_units}", signature="r",
        semantics=semantics, latency=latency,
        resources={"lut_bit": sbox_units * 256 * 8,
                   "gf_mult8": mixcol_units * 8,
                   "xor32": 4, "reg_bit": 128, "control": 1},
        description=(f"AES round with {sbox_units} S-box and "
                     f"{mixcol_units} MixColumns unit(s)"))


def make_aesrndl(sbox_units: int) -> CustomInstruction:
    """The final AES round (no MixColumns); round key at [ra]."""

    def semantics(machine, args):
        _aes_round_semantics(machine, args, last=True)

    latency = 1 + math.ceil(16 / sbox_units) + 1
    return CustomInstruction(
        name="aesrndl", signature="r", semantics=semantics, latency=latency,
        resources={"lut_bit": sbox_units * 256 * 8, "xor32": 4,
                   "control": 1},
        description=f"AES last round with {sbox_units} S-box unit(s)")


def aes_extension_set(sbox_units: int = 8, mixcol_units: int = 2) -> ExtensionSet:
    return ExtensionSet([
        make_aesld(), make_aesark(), make_aesrnd(sbox_units, mixcol_units),
        make_aesrndl(sbox_units), make_aesst(),
    ])


# ---------------------------------------------------------------------------
# Candidate catalogue
# ---------------------------------------------------------------------------

def candidate_catalogue() -> List[CustomInstruction]:
    """Every candidate instruction the formulation phase produced."""
    catalogue: List[CustomInstruction] = []
    catalogue += [make_vaddc(m) for m in ADD_WIDTHS]
    catalogue += [make_vsubb(m) for m in ADD_WIDTHS]
    catalogue += [make_vmac(m) for m in MAC_WIDTHS]
    catalogue += [make_vmsub(m) for m in MAC_WIDTHS]
    catalogue += [make_vmul1(m) for m in MAC_WIDTHS]
    catalogue += [make_desround(s) for s in DES_SBOX_UNITS]
    catalogue += [make_desld(), make_desst()]
    catalogue += [make_aesrnd(s, m) for s, m in AES_VARIANTS]
    catalogue += [make_aesrndl(16), make_aesld(), make_aesst()]
    return catalogue
