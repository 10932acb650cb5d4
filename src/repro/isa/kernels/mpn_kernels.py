"""XT32 assembly kernels for the mpn leaf routines.

Base-ISA variants implement the classic carry-chain loops; extended
variants use the ``vaddc_m`` / ``vmac_m`` ... custom instructions from
:mod:`repro.isa.custom`, processing ``m`` limbs per instruction with a
scalar (1-limb) tail loop.

Calling convention (see :class:`repro.isa.machine.Machine`):
``mpn_add_n(rp, up, vp, n)`` takes the destination pointer in r1,
source pointers in r2/r3 and the limb count in r4; the carry/borrow
comes back in r1.
"""

from typing import List, Tuple

from repro.isa.custom import (make_vaddc, make_vmac, make_vmsub, make_vmul1,
                              make_vsubb)
from repro.isa.extensions import CustomInstruction, ExtensionSet
from repro.isa.kernels import KernelRunner
from repro.isa.machine import Machine

BASE_SOURCE = """
# ---- mpn_add_n: r1=rp r2=up r3=vp r4=n -> r1=carry -----------------
mpn_add_n:
    li   r7, 0
    beq  r4, r0, addn_done
addn_loop:
    lw   r8, 0(r2)
    lw   r9, 0(r3)
    add  r10, r8, r9
    sltu r11, r10, r8
    add  r10, r10, r7
    sltu r12, r10, r7
    or   r7, r11, r12
    sw   r10, 0(r1)
    addi r1, r1, 4
    addi r2, r2, 4
    addi r3, r3, 4
    subi r4, r4, 1
    bne  r4, r0, addn_loop
addn_done:
    mov  r1, r7
    jr   r14

# ---- mpn_sub_n: r1=rp r2=up r3=vp r4=n -> r1=borrow ----------------
mpn_sub_n:
    li   r7, 0
    beq  r4, r0, subn_done
subn_loop:
    lw   r8, 0(r2)
    lw   r9, 0(r3)
    sltu r11, r8, r9
    sub  r10, r8, r9
    sltu r12, r10, r7
    sub  r10, r10, r7
    or   r7, r11, r12
    sw   r10, 0(r1)
    addi r1, r1, 4
    addi r2, r2, 4
    addi r3, r3, 4
    subi r4, r4, 1
    bne  r4, r0, subn_loop
subn_done:
    mov  r1, r7
    jr   r14

# ---- mpn_mul_1: r1=rp r2=up r3=v r4=n -> r1=carry limb -------------
mpn_mul_1:
    li   r7, 0
    beq  r4, r0, mul1_done
mul1_loop:
    lw   r8, 0(r2)
    mul  r9, r8, r3
    mulhu r10, r8, r3
    add  r9, r9, r7
    sltu r11, r9, r7
    add  r7, r10, r11
    sw   r9, 0(r1)
    addi r1, r1, 4
    addi r2, r2, 4
    subi r4, r4, 1
    bne  r4, r0, mul1_loop
mul1_done:
    mov  r1, r7
    jr   r14

# ---- mpn_addmul_1: r1=rp r2=up r3=v r4=n -> r1=carry limb ----------
mpn_addmul_1:
    li   r7, 0
    beq  r4, r0, am1_done
am1_loop:
    lw   r8, 0(r2)
    lw   r9, 0(r1)
    mul  r10, r8, r3
    mulhu r11, r8, r3
    add  r9, r9, r10
    sltu r12, r9, r10
    add  r11, r11, r12
    add  r9, r9, r7
    sltu r12, r9, r7
    add  r7, r11, r12
    sw   r9, 0(r1)
    addi r1, r1, 4
    addi r2, r2, 4
    subi r4, r4, 1
    bne  r4, r0, am1_loop
am1_done:
    mov  r1, r7
    jr   r14

# ---- mpn_submul_1: r1=rp r2=up r3=v r4=n -> r1=borrow limb ---------
mpn_submul_1:
    li   r7, 0
    beq  r4, r0, sm1_done
sm1_loop:
    lw   r8, 0(r2)
    lw   r9, 0(r1)
    mul  r10, r8, r3
    mulhu r11, r8, r3
    add  r10, r10, r7
    sltu r12, r10, r7
    add  r11, r11, r12
    sltu r12, r9, r10
    sub  r9, r9, r10
    add  r7, r11, r12
    sw   r9, 0(r1)
    addi r1, r1, 4
    addi r2, r2, 4
    subi r4, r4, 1
    bne  r4, r0, sm1_loop
sm1_done:
    mov  r1, r7
    jr   r14

# ---- mpn_lshift: r1=rp r2=up r3=count r4=n -> r1=shifted-out bits --
mpn_lshift:
    li   r7, 0
    li   r6, 32
    sub  r6, r6, r3
    beq  r4, r0, lsh_done
lsh_loop:
    lw   r8, 0(r2)
    sll  r9, r8, r3
    or   r9, r9, r7
    srl  r7, r8, r6
    sw   r9, 0(r1)
    addi r1, r1, 4
    addi r2, r2, 4
    subi r4, r4, 1
    bne  r4, r0, lsh_loop
lsh_done:
    mov  r1, r7
    jr   r14

# ---- divrem_qest: r1=u2 r2=u1 r3=vtop -> r1=qhat -------------------
# Quotient-digit estimate for Knuth D3 via shift-subtract (the XT32,
# like the Xtensa T1040, has no hardware divider).  32 iterations of
# restoring division on the 64-bit value u2:u1.  Precondition (as in
# Knuth's normalized division): u2 < vtop, so the quotient fits a limb.
divrem_qest:
    li   r7, 0          # quotient
    li   r8, 32         # iterations
qest_loop:
    srli r11, r1, 31    # carry-out of the remainder shift
    # shift u2:u1 left by one
    slli r9, r1, 1
    srli r10, r2, 31
    or   r1, r9, r10
    slli r2, r2, 1
    slli r7, r7, 1
    # subtract when the shifted remainder (incl. carry-out) >= vtop
    bne  r11, r0, qest_force
    bltu r1, r3, qest_skip
qest_force:
    sub  r1, r1, r3
    ori  r7, r7, 1
qest_skip:
    subi r8, r8, 1
    bne  r8, r0, qest_loop
    mov  r1, r7
    jr   r14
"""


def ext_source(add_width: int, mac_width: int) -> str:
    """Extended-ISA kernel source at the given instruction widths."""
    return f"""
# ---- extended mpn_add_n (vaddc_{add_width} + scalar tail) ----------
mpn_add_n:
    clrcb
    li   r7, {add_width}
addn_chunk:
    bltu r4, r7, addn_tail
    vaddc_{add_width} r1, r2, r3
    addi r1, r1, {4 * add_width}
    addi r2, r2, {4 * add_width}
    addi r3, r3, {4 * add_width}
    subi r4, r4, {add_width}
    j    addn_chunk
addn_tail:
    beq  r4, r0, addn_done
addn_tail_loop:
    vaddc_1 r1, r2, r3
    addi r1, r1, 4
    addi r2, r2, 4
    addi r3, r3, 4
    subi r4, r4, 1
    bne  r4, r0, addn_tail_loop
addn_done:
    rdc  r1
    jr   r14

# ---- extended mpn_sub_n --------------------------------------------
mpn_sub_n:
    clrcb
    li   r7, {add_width}
subn_chunk:
    bltu r4, r7, subn_tail
    vsubb_{add_width} r1, r2, r3
    addi r1, r1, {4 * add_width}
    addi r2, r2, {4 * add_width}
    addi r3, r3, {4 * add_width}
    subi r4, r4, {add_width}
    j    subn_chunk
subn_tail:
    beq  r4, r0, subn_done
subn_tail_loop:
    vsubb_1 r1, r2, r3
    addi r1, r1, 4
    addi r2, r2, 4
    addi r3, r3, 4
    subi r4, r4, 1
    bne  r4, r0, subn_tail_loop
subn_done:
    rdb  r1
    jr   r14

# ---- extended mpn_mul_1 --------------------------------------------
mpn_mul_1:
    clrcb
    li   r7, {mac_width}
mul1_chunk:
    bltu r4, r7, mul1_tail
    vmul1_{mac_width} r1, r2, r3
    addi r1, r1, {4 * mac_width}
    addi r2, r2, {4 * mac_width}
    subi r4, r4, {mac_width}
    j    mul1_chunk
mul1_tail:
    beq  r4, r0, mul1_done
mul1_tail_loop:
    vmul1_1 r1, r2, r3
    addi r1, r1, 4
    addi r2, r2, 4
    subi r4, r4, 1
    bne  r4, r0, mul1_tail_loop
mul1_done:
    rdc  r1
    jr   r14

# ---- extended mpn_addmul_1 ----------------------------------------
mpn_addmul_1:
    clrcb
    li   r7, {mac_width}
am1_chunk:
    bltu r4, r7, am1_tail
    vmac_{mac_width} r1, r2, r3
    addi r1, r1, {4 * mac_width}
    addi r2, r2, {4 * mac_width}
    subi r4, r4, {mac_width}
    j    am1_chunk
am1_tail:
    beq  r4, r0, am1_done
am1_tail_loop:
    vmac_1 r1, r2, r3
    addi r1, r1, 4
    addi r2, r2, 4
    subi r4, r4, 1
    bne  r4, r0, am1_tail_loop
am1_done:
    rdc  r1
    jr   r14

# ---- extended mpn_submul_1 ----------------------------------------
mpn_submul_1:
    clrcb
    li   r7, {mac_width}
sm1_chunk:
    bltu r4, r7, sm1_tail
    vmsub_{mac_width} r1, r2, r3
    addi r1, r1, {4 * mac_width}
    addi r2, r2, {4 * mac_width}
    subi r4, r4, {mac_width}
    j    sm1_chunk
sm1_tail:
    beq  r4, r0, sm1_done
sm1_tail_loop:
    vmsub_1 r1, r2, r3
    addi r1, r1, 4
    addi r2, r2, 4
    subi r4, r4, 1
    bne  r4, r0, sm1_tail_loop
sm1_done:
    rdb  r1
    jr   r14
"""


def make_clrcb() -> CustomInstruction:
    """Clear the carry and borrow user registers."""

    def semantics(machine, args):
        machine.user_regs["carry"] = 0
        machine.user_regs["borrow"] = 0

    return CustomInstruction(name="clrcb", signature="", semantics=semantics,
                             latency=1, resources={"control": 1},
                             description="clear carry/borrow user registers")


def make_rdc() -> CustomInstruction:
    """rd = carry user register."""

    def semantics(machine, args):
        machine.regs[args[0]] = machine.user_regs.get("carry", 0)

    return CustomInstruction(name="rdc", signature="r", semantics=semantics,
                             latency=1, resources={"control": 1},
                             description="read carry user register")


def make_rdb() -> CustomInstruction:
    """rd = borrow user register."""

    def semantics(machine, args):
        machine.regs[args[0]] = machine.user_regs.get("borrow", 0)

    return CustomInstruction(name="rdb", signature="r", semantics=semantics,
                             latency=1, resources={"control": 1},
                             description="read borrow user register")


def mp_kernel_extensions(add_width: int, mac_width: int) -> ExtensionSet:
    """Extension set required by :func:`ext_source` at the given widths.

    Includes the 1-limb tail variants (hardware-wise these reuse the
    wide units, so their marginal area is control only; the selection
    phase accounts area at the family level).
    """
    ext = ExtensionSet([
        make_clrcb(), make_rdc(), make_rdb(),
        make_vaddc(add_width), make_vsubb(add_width),
        make_vmac(mac_width), make_vmsub(mac_width), make_vmul1(mac_width),
    ])
    if add_width != 1:
        ext.add(make_vaddc(1))
        ext.add(make_vsubb(1))
    if mac_width != 1:
        ext.add(make_vmac(1))
        ext.add(make_vmsub(1))
        ext.add(make_vmul1(1))
    return ext


class MpnKernels:
    """Host-side runners for the mpn kernels (base or extended ISA)."""

    def __init__(self, add_width: int = 0, mac_width: int = 0):
        """Widths of 0 select the base-ISA kernels."""
        self.extended = bool(add_width and mac_width)
        if self.extended:
            extensions = mp_kernel_extensions(add_width, mac_width)
            self.runner = KernelRunner(ext_source(add_width, mac_width),
                                       extensions)
        elif add_width or mac_width:
            raise ValueError("set both widths (extended) or neither (base)")
        else:
            self.runner = KernelRunner(BASE_SOURCE)

    # -- generic vector-op runner -------------------------------------------

    def _run_binary(self, entry: str, up: List[int], vp: List[int],
                    machine=None) -> Tuple[List[int], int, int]:
        if len(up) != len(vp):
            raise ValueError("equal-length operands required")
        if machine is None:
            machine = self.runner.machine()
        n = len(up)
        rp = machine.alloc(4 * n)
        ua = machine.alloc(4 * n)
        va = machine.alloc(4 * n)
        machine.write_words(ua, up)
        machine.write_words(va, vp)
        flag = machine.run(entry, [rp, ua, va, n])
        return machine.read_words(rp, n), flag, machine.cycles

    def _run_scalar(self, entry: str, rp_init: List[int], up: List[int],
                    v: int, machine=None) -> Tuple[List[int], int, int]:
        if machine is None:
            machine = self.runner.machine()
        n = len(up)
        rp = machine.alloc(4 * n)
        ua = machine.alloc(4 * n)
        machine.write_words(rp, rp_init)
        machine.write_words(ua, up)
        flag = machine.run(entry, [rp, ua, v, n])
        return machine.read_words(rp, n), flag, machine.cycles

    # -- public runners (mirror the repro.mp.mpn API) -------------------------
    #
    # ``machine=None`` spawns a fresh machine; a caller that wants to
    # inspect the machine afterwards passes its own.

    def add_n(self, up, vp, machine=None):
        return self._run_binary("mpn_add_n", up, vp, machine=machine)

    def sub_n(self, up, vp, machine=None):
        return self._run_binary("mpn_sub_n", up, vp, machine=machine)

    def mul_1(self, up, v, machine=None):
        return self._run_scalar("mpn_mul_1", [0] * len(up), up, v,
                                machine=machine)

    def addmul_1(self, rp, up, v, machine=None):
        return self._run_scalar("mpn_addmul_1", rp, up, v, machine=machine)

    def submul_1(self, rp, up, v, machine=None):
        return self._run_scalar("mpn_submul_1", rp, up, v, machine=machine)

    def lshift(self, up, count, machine=None):
        if self.extended:
            raise NotImplementedError("lshift has no extended variant")
        if machine is None:
            machine = self.runner.machine()
        n = len(up)
        rp = machine.alloc(4 * n)
        ua = machine.alloc(4 * n)
        machine.write_words(ua, up)
        out = machine.run("mpn_lshift", [rp, ua, count, n])
        return machine.read_words(rp, n), out, machine.cycles

    def divrem_qest(self, u2, u1, vtop, machine=None):
        if self.extended:
            raise NotImplementedError("divrem_qest has no extended variant")
        if machine is None:
            machine = self.runner.machine()
        qhat = machine.run("divrem_qest", [u2, u1, vtop])
        return qhat, machine.cycles

    # -- seeded stimuli ---------------------------------------------------------

    def run_stimulus(self, routine: str, n: int, prng) -> int:
        """Draw one pseudo-random ``n``-limb stimulus for ``routine``
        (``"mpn_add_n"`` ... ``"mpn_lshift"``) from ``prng``, run it on
        a fresh machine, and return its cycles.

        Operands are drawn in argument order, so a sequence of calls
        consumes ``prng`` exactly as drawing every stimulus up front
        would.  An unknown routine raises ``ValueError``.
        """
        if routine == "mpn_add_n":
            result = self.add_n(prng.next_limbs(n), prng.next_limbs(n))
        elif routine == "mpn_sub_n":
            result = self.sub_n(prng.next_limbs(n), prng.next_limbs(n))
        elif routine == "mpn_mul_1":
            result = self.mul_1(prng.next_limbs(n), prng.next_bits(32))
        elif routine == "mpn_addmul_1":
            result = self.addmul_1(prng.next_limbs(n), prng.next_limbs(n),
                                   prng.next_bits(32))
        elif routine == "mpn_submul_1":
            result = self.submul_1(prng.next_limbs(n), prng.next_limbs(n),
                                   prng.next_bits(32))
        elif routine == "mpn_lshift":
            result = self.lshift(prng.next_limbs(n), 1 + prng.next_int(31))
        else:
            raise ValueError(f"unknown mpn routine {routine!r}")
        return result[2]
