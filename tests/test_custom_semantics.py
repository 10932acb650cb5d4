"""Golden test of the limb-vector TIE instructions.

Every multi-limb instruction of :mod:`repro.isa.custom` states its
carry chain once and evaluates it packed where it can.  This file keeps
the per-word carry loops the instructions were first written as, as
test-local oracles, and runs each instruction at every catalogue width
on both ISS backends against its oracle: edge limb counts, aliased and
unaligned operands, a region running off the end of memory, wide
carry/borrow-in and a carry rippling past word ``k``.  Memory, user
registers, cycles, opcode counts, ``instret`` and any fault message
must all agree.
"""

import random
from dataclasses import replace

import pytest

from repro.isa.assembler import assemble
from repro.isa.custom import (ADD_WIDTHS, MAC_WIDTHS, make_macrow,
                              make_montcfg, make_montrow, make_vaddc,
                              make_vmac, make_vmsub, make_vmul1,
                              make_vsubb, make_vzero)
from repro.isa.extensions import ExtensionSet
from repro.isa.machine import Machine, MachineError

MASK = 0xFFFFFFFF
MEM = 1 << 12
BACKENDS = ("interp", "compiled")


# ---------------------------------------------------------------------------
# Per-word oracles
# ---------------------------------------------------------------------------

def oracle_vaddc(m):
    def semantics(machine, args):
        dst, a, b = (machine.regs[r] for r in args)
        carry = machine.user_regs.get("carry", 0)
        for i in range(m):
            s = (machine.read_word(a + 4 * i)
                 + machine.read_word(b + 4 * i) + carry)
            machine.write_word(dst + 4 * i, s & MASK)
            carry = s >> 32
        machine.user_regs["carry"] = carry
    return semantics


def oracle_vsubb(m):
    def semantics(machine, args):
        dst, a, b = (machine.regs[r] for r in args)
        borrow = machine.user_regs.get("borrow", 0)
        for i in range(m):
            d = (machine.read_word(a + 4 * i)
                 - machine.read_word(b + 4 * i) - borrow)
            borrow = 1 if d < 0 else 0
            machine.write_word(dst + 4 * i, d & MASK)
        machine.user_regs["borrow"] = borrow
    return semantics


def oracle_vmac(m):
    def semantics(machine, args):
        dst, src, v = (machine.regs[r] for r in args)
        carry = machine.user_regs.get("carry", 0)
        for i in range(m):
            t = (machine.read_word(dst + 4 * i)
                 + machine.read_word(src + 4 * i) * v + carry)
            machine.write_word(dst + 4 * i, t & MASK)
            carry = t >> 32
        machine.user_regs["carry"] = carry
    return semantics


def oracle_vmsub(m):
    def semantics(machine, args):
        dst, src, v = (machine.regs[r] for r in args)
        borrow = machine.user_regs.get("borrow", 0)
        for i in range(m):
            prod = machine.read_word(src + 4 * i) * v + borrow
            t = machine.read_word(dst + 4 * i) - (prod & MASK)
            borrow = prod >> 32
            if t < 0:
                t += 1 << 32
                borrow += 1
            machine.write_word(dst + 4 * i, t)
        machine.user_regs["borrow"] = borrow
    return semantics


def oracle_vmul1(m):
    def semantics(machine, args):
        dst, src, v = (machine.regs[r] for r in args)
        carry = machine.user_regs.get("carry", 0)
        for i in range(m):
            t = machine.read_word(src + 4 * i) * v + carry
            machine.write_word(dst + 4 * i, t & MASK)
            carry = t >> 32
        machine.user_regs["carry"] = carry
    return semantics


def _oracle_row(machine, dst, src, v):
    k = machine.user_regs.get("klen", 1)
    carry = 0
    for i in range(k):
        t = (machine.read_word(dst + 4 * i)
             + machine.read_word(src + 4 * i) * v + carry)
        machine.write_word(dst + 4 * i, t & MASK)
        carry = t >> 32
    j = k
    while carry:
        t = machine.read_word(dst + 4 * j) + carry
        machine.write_word(dst + 4 * j, t & MASK)
        carry = t >> 32
        j += 1


def oracle_macrow(width):
    def semantics(machine, args):
        dst, src, v = (machine.regs[r] for r in args)
        _oracle_row(machine, dst, src, v)
    return semantics


def oracle_montrow(width):
    def semantics(machine, args):
        dst, src = (machine.regs[r] for r in args)
        u = (machine.read_word(dst) * machine.user_regs.get("mprime", 0)
             ) & MASK
        _oracle_row(machine, dst, src, u)
    return semantics


def oracle_vzero():
    def semantics(machine, args):
        k = machine.user_regs.get("klen", 1)
        dst = machine.regs[args[0]]
        for i in range(2 * k + 2):
            machine.write_word(dst + 4 * i, 0)
    return semantics


VECTOR = [(make, oracle, m)
          for make, oracle in ((make_vaddc, oracle_vaddc),
                               (make_vsubb, oracle_vsubb))
          for m in ADD_WIDTHS]
VECTOR += [(make, oracle, m)
           for make, oracle in ((make_vmac, oracle_vmac),
                                (make_vmsub, oracle_vmsub),
                                (make_vmul1, oracle_vmul1))
           for m in MAC_WIDTHS]
ROWS = [(make, oracle, w)
        for make, oracle in ((make_macrow, oracle_macrow),
                             (make_montrow, oracle_montrow))
        for w in MAC_WIDTHS]


def _ids(cases):
    return [make(width).name for make, _, width in cases]


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def run_all(instrs, source, args, mem, user_regs=None):
    """Run ``source`` on the oracle (interp) and on both backends with
    the real instructions; return the three snapshots."""
    real = ExtensionSet(instr for instr, _ in instrs)
    oracle = ExtensionSet(replace(instr, semantics=sem)
                          for instr, sem in instrs)
    snaps = []
    for ext, backend in [(oracle, "interp")] + [(real, b) for b in BACKENDS]:
        machine = Machine(assemble(source, ext), ext, MEM, backend=backend)
        machine.mem[:] = mem
        machine.user_regs.update(user_regs or {})
        try:
            result = machine.run("main", args)
        except MachineError as exc:
            result = ("error", str(exc))
        snaps.append({"result": result, "mem": bytes(machine.mem),
                      "user_regs": dict(machine.user_regs),
                      "cycles": machine.cycles, "instret": machine.instret,
                      "opcode_counts": dict(machine.opcode_counts)})
    return snaps


def assert_matches_oracle(instrs, source, args, mem, user_regs=None):
    golden, *snaps = run_all(instrs, source, args, mem, user_regs)
    for snap in snaps:
        assert snap == golden
    return golden


def random_mem(seed, fill=None):
    rng = random.Random(seed)
    mem = bytearray(rng.randrange(256) for _ in range(MEM))
    if fill is not None:
        start, count, word = fill
        mem[start:start + 4 * count] = word.to_bytes(4, "little") * count
    return mem


def layouts(n):
    """(dst, a, b) triples: disjoint, aliased, overlapping from below
    and above, unaligned, and running off the end of memory."""
    span = 4 * n
    return {
        "disjoint": (0x100, 0x400, 0x800),
        "dst_is_src": (0x100, 0x100, 0x800),
        "dst_is_both": (0x100, 0x100, 0x100),
        "overlap_below": (0x104, 0x100, 0x800),
        "overlap_below_unaligned": (0x101, 0x100, 0x102),
        "overlap_above": (0x100, 0x104, 0x108),
        "unaligned": (0x203, 0x401, 0x802),
        "dst_off_end": (MEM - span + 4, 0x400, 0x800),
        "src_off_end": (0x100, MEM - span + 2, 0x800),
        "dst_past_end": (MEM + 8, 0x400, 0x800),
    }


# ---------------------------------------------------------------------------
# Vector instructions: vaddc / vsubb / vmac / vmsub / vmul1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make, oracle, width", VECTOR, ids=_ids(VECTOR))
def test_vector_instruction_layouts(make, oracle, width):
    instr = make(width)
    source = f"main:\n    {instr.name} r1, r2, r3\n    halt\n"
    faults = 0
    for seed, (name, (dst, a, b)) in enumerate(layouts(width).items()):
        # vmac/vmsub/vmul1 read rb as the multiplier, not an address.
        third = b if instr.name.startswith(("vaddc", "vsubb")) else \
            0xFFFFFFFF - seed
        for carry in (0, 1, 2 ** 32 - 1, 2 ** 33 + 5):
            golden = assert_matches_oracle(
                [(instr, oracle(width))], source, [dst, a, third],
                random_mem(seed), {"carry": carry, "borrow": carry})
            faults += isinstance(golden["result"], tuple)
    assert faults  # the off-end layouts do fault


@pytest.mark.parametrize("make, oracle, width", VECTOR, ids=_ids(VECTOR))
def test_vector_instruction_partial_write_then_fault(make, oracle, width):
    instr = make(width)
    source = f"main:\n    {instr.name} r1, r2, r3\n    halt\n"
    dst = MEM - 4 * (width - 1)  # the last limb runs off the end
    golden = assert_matches_oracle(
        [(instr, oracle(width))], source, [dst, 0x400, 0x800],
        bytearray(b"\x5a" * MEM))
    assert golden["result"] == (
        "error", f"memory access out of range: {MEM:#x}+4")
    # The limbs below the end were written before the fault.
    assert width == 1 or golden["mem"][dst:] != b"\x5a" * (MEM - dst)


@pytest.mark.parametrize("m", MAC_WIDTHS)
def test_vmsub_then_vsubb_without_clearing_borrow(m):
    # vmsub leaves a full-limb borrow in the shared user register;
    # vsubb must consume it exactly as the per-word chain does.
    add = ADD_WIDTHS[-1]
    vmsub, vsubb = make_vmsub(m), make_vsubb(add)
    source = (f"main:\n    {vmsub.name} r1, r2, r3\n"
              f"    {vsubb.name} r4, r5, r6\n    halt\n")
    for seed, v in enumerate((0xFFFFFFFF, 0x80000001, 3)):
        golden = assert_matches_oracle(
            [(vmsub, oracle_vmsub(m)), (vsubb, oracle_vsubb(add))], source,
            [0x100, 0x400, v, 0x800, 0x900, 0xA00], random_mem(seed),
            {"borrow": 2 ** 32 - 1})
        assert not isinstance(golden["result"], tuple)


# ---------------------------------------------------------------------------
# Row instructions: macrow / montrow / vzero
# ---------------------------------------------------------------------------

def row_program(name, operands):
    return (f"main:\n    montcfg r4, r5\n    {name} {operands}\n"
            f"    halt\n")


@pytest.mark.parametrize("make, oracle, width", ROWS, ids=_ids(ROWS))
def test_row_instruction_layouts(make, oracle, width):
    instr = make(width)
    operands = "r1, r2, r3" if instr.signature == "rrr" else "r1, r2"
    source = row_program(instr.name, operands)
    instrs = [(make_montcfg(), make_montcfg().semantics),
              (instr, oracle(width))]
    for k in (0, 1, width, width + 1):
        for seed, (name, (dst, src, _)) in enumerate(
                layouts(max(k, 1)).items()):
            assert_matches_oracle(
                instrs, source, [dst, src, 0xFFFFFFFF - seed,
                                 0x9E3779B9, k],
                random_mem(seed))


@pytest.mark.parametrize("make, oracle, width", ROWS, ids=_ids(ROWS))
def test_row_carry_ripples_past_word_k(make, oracle, width):
    instr = make(width)
    operands = "r1, r2, r3" if instr.signature == "rrr" else "r1, r2"
    source = row_program(instr.name, operands)
    instrs = [(make_montcfg(), make_montcfg().semantics),
              (instr, oracle(width))]
    k = width + 1
    dst = 0x100
    # All-ones from word k up: the row's carry-out ripples through
    # words k+1 and k+2 (leaving them zero) into word k+3.
    mem = random_mem(7, fill=(dst, k + 3, MASK))
    golden = assert_matches_oracle(
        instrs, source, [dst, 0x400, MASK, MASK, k], mem)
    assert golden["mem"][dst + 4 * k + 4:dst + 4 * k + 12] == bytes(8)
    # ... and off the end of memory: partial writes, then the fault.
    dst = MEM - 4 * k - 8
    mem = bytearray(b"\xff" * MEM)
    golden = assert_matches_oracle(
        instrs, source, [dst, 0x400, MASK, MASK, k], mem)
    assert golden["result"] == (
        "error", f"memory access out of range: {MEM:#x}+4")


def test_vzero_edge_lengths():
    instrs = [(make_montcfg(), make_montcfg().semantics),
              (make_vzero(), oracle_vzero())]
    source = row_program("vzero", "r1")
    for k in (0, 1, 8, 9, 17, 300, 2 ** 32 - 1):
        for dst in (0x100, 0x103, MEM - 4 * (2 * k + 2) + 4, MEM + 4):
            assert_matches_oracle(instrs, source, [dst, 0, 0, 0, k],
                                  random_mem(k))
