"""Fault paths of the predecoded interpreter, against golden values.

The interpreter decodes each program once into a per-pc table and does
memory accesses inline: an aligned, in-range word through the run's
32-bit view, any other address through the byte-slice fallback.  Every
case here runs on both backends, asserts the two snapshots are
identical, and pins the interpreter's snapshot to hand-computed values:
the error text, cycles (a faulting instruction is not charged), instret
(nor retired), per-opcode counts (it is counted), the final pc and the
memory contents.
"""

import hashlib
from collections import Counter

import pytest

from repro.isa.assembler import Instruction, Program, assemble
from repro.isa import machine as machine_module
from repro.isa.cache import CacheConfig
from repro.isa.custom import make_macrow, make_montcfg, make_vaddc
from repro.isa.extensions import CustomInstruction, ExtensionSet
from repro.isa.instructions import BASE_ISA
from repro.isa.kernels.hash_kernels import Sha1Kernel
from repro.isa.kernels.md5_kernel import Md5Kernel
from repro.isa.kernels.modexp_kernel import ModExpKernel
from repro.isa.kernels.mpn_kernels import MpnKernels
from repro.isa.machine import (NO_WORD_VIEW, Machine, MachineError,
                               decoded_for, runs_for, word_view)

BACKENDS = ("interp", "compiled")
MEM = 1 << 16
ZERO_MEM = hashlib.sha256(bytes(MEM)).hexdigest()


def snapshot(machine, result):
    return {
        "result": result,
        "cycles": machine.cycles,
        "instret": machine.instret,
        "pc": machine.pc,
        "opcode_counts": dict(machine.opcode_counts),
        "regs": list(machine.regs),
        "mem": hashlib.sha256(machine.mem).hexdigest(),
        "local_cycles": dict(machine.profile.local_cycles),
        "inclusive_cycles": dict(machine.profile.inclusive_cycles),
        "call_counts": dict(machine.profile.call_counts),
        "dcache": (None if machine.dcache is None else
                   (machine.dcache.stats.accesses,
                    machine.dcache.stats.misses)),
    }


def run_on(machine, entry="main", args=(), max_instructions=10_000):
    try:
        result = machine.run(entry, list(args),
                             max_instructions=max_instructions)
    except MachineError as exc:
        result = ("error", str(exc))
    return snapshot(machine, result)


def run_both(source, args=(), extensions=None, program_extensions=None,
             dcache=None, max_instructions=10_000, mem_size=MEM):
    """The interpreter's snapshot, after checking the compiled backend
    leaves the identical one.  ``program_extensions`` assembles the
    source with a different extension set than the machines run;
    ``source`` may also be an already built :class:`Program`."""
    program = (source if isinstance(source, Program)
               else assemble(source, program_extensions or extensions))
    interp, compiled = (
        run_on(Machine(program, extensions, mem_size, dcache=dcache,
                       backend=backend), args=args,
               max_instructions=max_instructions)
        for backend in BACKENDS)
    assert interp == compiled
    return interp


def error(snap):
    assert snap["result"][0] == "error", snap["result"]
    return snap["result"][1]


def _bump(name, step, latency):
    def semantics(machine, args):
        machine.regs[args[0]] = (machine.regs[args[0]] + step) & 0xFFFFFFFF

    return CustomInstruction(name=name, signature="r", semantics=semantics,
                             latency=latency)


def _setreg(name, value):
    def semantics(machine, args):
        machine.regs[args[0]] = value

    return CustomInstruction(name=name, signature="r", semantics=semantics,
                             latency=1)


class TestMemoryBounds:
    @pytest.mark.parametrize("op", ["lw", "sw"])
    def test_word_three_bytes_from_the_end(self, op):
        # r2 + 4 = len(mem) - 3: the word would run one byte past it.
        snap = run_both(f"main:\n    li r2, {MEM - 7}\n"
                        "    li r3, 0x11223344\n"
                        f"    {op} r3, 4(r2)\n    halt\n")
        assert error(snap) == f"memory access out of range: {MEM - 3:#x}+4"
        assert snap["cycles"] == 2 and snap["instret"] == 2
        assert snap["opcode_counts"] == {"li": 2, op: 1}
        assert snap["pc"] == 2 and snap["mem"] == ZERO_MEM
        assert snap["regs"][3] == 0x11223344

    @pytest.mark.parametrize("op", ["lb", "sb"])
    def test_byte_at_the_end(self, op):
        snap = run_both(f"main:\n    li r2, {MEM}\n"
                        f"    {op} r3, 0(r2)\n    halt\n")
        assert error(snap) == f"memory access out of range: {MEM:#x}+1"
        assert snap["cycles"] == 1 and snap["instret"] == 1
        assert snap["opcode_counts"] == {"li": 1, op: 1}
        assert snap["pc"] == 1 and snap["mem"] == ZERO_MEM

    def test_last_word_and_byte_are_in_range(self):
        snap = run_both(f"main:\n    li r2, {MEM - 4}\n"
                        "    li r3, 0xA1B2C3D4\n"
                        "    sw r3, 0(r2)\n"
                        "    lw r1, 0(r2)\n"
                        "    sb r3, 3(r2)\n"
                        "    lb r4, 3(r2)\n    halt\n")
        assert snap["result"] == 0xA1B2C3D4
        assert snap["regs"][4] == 0xD4
        # li, li, sw, lw, sb, lb, halt
        assert snap["cycles"] == 1 + 1 + 1 + 2 + 1 + 2 + 1
        assert snap["instret"] == 6
        assert snap["mem"] == hashlib.sha256(
            bytes(MEM - 4) + bytes.fromhex("d4c3b2d4")).hexdigest()

    @pytest.mark.parametrize("op,size", [("lw", 4), ("sw", 4),
                                         ("lb", 1), ("sb", 1)])
    def test_negative_address(self, op, size):
        snap = run_both("main:\n    li r3, 0x55\n"
                        f"    {op} r3, -4(r0)\n    halt\n")
        assert error(snap) == f"memory access out of range: -0x4+{size}"
        assert snap["cycles"] == 1 and snap["instret"] == 1
        assert snap["opcode_counts"] == {"li": 1, op: 1}
        assert snap["pc"] == 1 and snap["mem"] == ZERO_MEM


class TestDecodeAndDispatch:
    def test_unknown_opcode(self):
        ext = ExtensionSet([_bump("bump", 1, 1)])
        snap = run_both("main:\n    addi r1, r1, 3\n    bump r1\n"
                        "    halt\n", program_extensions=ext)
        assert error(snap) == "unknown opcode 'bump' at pc=1"
        assert snap["cycles"] == 1 and snap["instret"] == 1
        assert snap["opcode_counts"] == {"addi": 1, "bump": 1}
        assert snap["pc"] == 1

    @pytest.mark.parametrize("budget", [1, 36, 37, 38])
    def test_budget_expires_on_exactly_the_next_instruction(self, budget):
        # addi, j, addi, j, ...: the instruction numbered budget + 1
        # traps, counted but neither retired nor charged.
        snap = run_both("main:\n    addi r1, r1, 1\n    j main\n",
                        max_instructions=budget)
        assert error(snap) == "instruction budget exceeded (runaway program?)"
        executed = budget + 1
        addis, jumps = (executed + 1) // 2, executed // 2
        assert snap["opcode_counts"] == {"addi": addis, "j": jumps}
        assert snap["instret"] == budget
        trapped = ("addi", 1) if executed % 2 else ("j", 3)
        assert snap["cycles"] == addis + 3 * jumps - trapped[1]
        assert snap["pc"] == (executed + 1) % 2
        assert snap["regs"][1] == addis - (trapped[0] == "addi")

    @pytest.mark.parametrize("budget", [4, 5])
    def test_run_that_ends_within_the_budget(self, budget):
        snap = run_both("main:\n    addi r1, r1, 1\n    addi r1, r1, 2\n"
                        "    addi r1, r1, 4\n    halt\n",
                        max_instructions=budget)
        assert snap["result"] == 7
        assert snap["cycles"] == 4 and snap["instret"] == 3

    def test_budget_expires_on_the_halt(self):
        snap = run_both("main:\n    addi r1, r1, 1\n    addi r1, r1, 2\n"
                        "    addi r1, r1, 4\n    halt\n",
                        max_instructions=3)
        assert error(snap).startswith("instruction budget exceeded")
        assert snap["cycles"] == 3 and snap["instret"] == 3
        assert snap["opcode_counts"] == {"addi": 3, "halt": 1}
        assert snap["pc"] == 3

    @pytest.mark.parametrize("target", [-1, -7])
    def test_jr_to_a_negative_pc(self, target):
        ext = ExtensionSet([_setreg("setreg", target)])
        snap = run_both("main:\n    setreg r5\n    jr r5\n"
                        "    addi r1, r1, 7\n    halt\n", extensions=ext)
        assert error(snap) == f"pc out of range: {target}"
        # setreg (1) and jr (3) both retire: the fault is at the target.
        assert snap["cycles"] == 4 and snap["instret"] == 2
        assert snap["opcode_counts"] == {"setreg": 1, "jr": 1}
        assert snap["pc"] == target

    @pytest.mark.parametrize("target,ok", [(4, True), (5, False),
                                           (99, False)])
    def test_jr_at_and_past_the_sentinel(self, target, ok):
        # pc 4 is the sentinel (one past the last instruction): a
        # return.  Anything beyond it faults.
        snap = run_both(f"main:\n    li r5, {target}\n    jr r5\n"
                        "    addi r1, r1, 7\n    halt\n", args=[3])
        assert snap["cycles"] == 4 and snap["instret"] == 2
        assert snap["opcode_counts"] == {"li": 1, "jr": 1}
        assert snap["pc"] == target
        if ok:
            assert snap["result"] == 3
        else:
            assert error(snap) == f"pc out of range: {target}"

    def test_dcache_charges_and_faults(self):
        # 256-byte cache of 16-byte lines: 0x2000 and 0x2100 share set 0.
        source = ("main:\n    li r2, 0x2000\n"
                  "    sw r1, 0(r2)\n"      # miss
                  "    lw r3, 4(r2)\n"      # hit
                  "    lb r4, 16(r2)\n"     # miss
                  "    sb r1, 17(r2)\n"     # hit
                  "    lw r5, 0x100(r2)\n"  # miss, evicts 0x2000
                  "    lw r6, 0(r2)\n"      # miss
                  "    {tail}\n"
                  "    halt\n")
        cache = CacheConfig(size_bytes=256, line_bytes=16, miss_penalty=9)
        snap = run_both(source.format(tail="addi r1, r1, 1"), args=[0xAB],
                        dcache=cache)
        assert snap["result"] == 0xAC and snap["regs"][6] == 0xAB
        base = 1 + 1 + 2 + 2 + 1 + 2 + 2 + 1 + 1
        assert snap["cycles"] == base + 4 * 9
        assert snap["dcache"] == (6, 4)
        # A faulting access is neither charged nor seen by the cache.
        snap = run_both(source.format(tail="lw r7, -1(r0)"), args=[0xAB],
                        dcache=cache)
        assert error(snap) == "memory access out of range: -0x1+4"
        assert snap["cycles"] == base - 2 + 4 * 9
        assert snap["dcache"] == (6, 4)
        assert snap["instret"] == 7 and snap["pc"] == 7

    @pytest.mark.parametrize("op", sorted(
        op for op, spec in BASE_ISA.items() if spec.kind == "alu"))
    def test_every_alu_op_writing_r0(self, op):
        sig = BASE_ISA[op].sig
        operands = ", ".join(["r0"] + ["r1" if kind == "r" else "7"
                                      for kind in sig[1:]])
        snap = run_both(f"main:\n    li r1, 0xFFFFFFFF\n"
                        f"    {op} {operands}\n"
                        "    add r2, r0, r1\n    mov r1, r0\n    halt\n")
        assert snap["result"] == 0 and snap["regs"][0] == 0
        assert snap["regs"][2] == 0xFFFFFFFF
        assert snap["cycles"] == 1 + BASE_ISA[op].cost + 1 + 1 + 1


class TestSharedProgram:
    SOURCE = ("main:\n    bump r1\n    bump r1\n    addi r1, r1, 1\n"
              "    halt\n")

    def test_one_table_two_extension_sets(self):
        # The decoded table depends on the program alone; a custom op
        # resolves against the running machine's extensions.
        small = ExtensionSet([_bump("bump", 1, 1)])
        large = ExtensionSet([_bump("bump", 100, 5)])
        program = assemble(self.SOURCE, small)
        table = decoded_for(program)
        for backend in BACKENDS:
            machines = [Machine(program, ext, MEM, backend=backend)
                        for ext in (small, large, None, small)]
            snaps = [run_on(machine, args=[10]) for machine in machines]
            assert snaps[0]["result"] == 13 and snaps[0]["cycles"] == 4
            assert snaps[1]["result"] == 211 and snaps[1]["cycles"] == 12
            assert error(snaps[2]) == "unknown opcode 'bump' at pc=0"
            assert snaps[2]["cycles"] == 0 and snaps[2]["instret"] == 0
            assert snaps[3] == snaps[0]
            if backend == "interp":
                golden = snaps
            else:
                assert snaps == golden
        assert decoded_for(program) is table

    def test_reset_and_run_after_a_fault(self):
        program = assemble("main:\n    lw r1, 0(r1)\n    addi r1, r1, 1\n"
                           "    halt\n")
        for backend in BACKENDS:
            machine = Machine(program, None, MEM, backend=backend)
            machine.write_word(0x100, 41)
            assert run_on(machine, args=[MEM])["result"] == (
                "error", f"memory access out of range: {MEM:#x}+4")
            results = []
            for args in ([0x100], [0x200]):
                machine.reset()
                results.append((machine.run("main", args), machine.cycles))
            assert results == [(1, 4), (1, 4)]
            assert machine.instret == 2 and machine.pc == 2
            assert machine.opcode_counts == {"lw": 1, "addi": 1,
                                             "halt": 1}


CACHES = (None, CacheConfig(size_bytes=256, line_bytes=16, miss_penalty=9))
CACHE_IDS = ("no-dcache", "dcache")
MASK = 0xFFFFFFFF


def mem_hash(writes, mem_size=MEM):
    """sha256 of a zeroed memory of ``mem_size`` bytes after ``writes``
    (address -> bytes)."""
    mem = bytearray(mem_size)
    for addr, data in writes.items():
        mem[addr:addr + len(data)] = data
    return hashlib.sha256(mem).hexdigest()


class TestWordView:
    """An aligned, in-range lw/sw goes through the run's 32-bit view of
    memory, any other address through the bounds test and byte slice.
    The two paths must agree on every byte, charge and fault."""

    @pytest.mark.parametrize("dcache", CACHES, ids=CACHE_IDS)
    @pytest.mark.parametrize("skew", [0, 1, 2, 3])
    def test_store_then_load_at_any_alignment(self, skew, dcache):
        base = 0x2000 + skew
        snap = run_both(f"main:\n    li r2, {base}\n"
                        "    li r3, 0x11223344\n"
                        "    sw r3, 0(r2)\n"
                        "    lw r1, 0(r2)\n"
                        f"    lw r4, {-skew}(r2)\n"      # word at 0x2000
                        f"    lw r5, {4 - skew}(r2)\n"   # word at 0x2004
                        "    halt\n", dcache=dcache)
        spread = 0x11223344 << (8 * skew)
        assert snap["result"] == 0x11223344
        assert (snap["regs"][4], snap["regs"][5]) == (spread & MASK,
                                                      spread >> 32)
        assert snap["mem"] == mem_hash({base: bytes.fromhex("44332211")})
        assert snap["instret"] == 6
        if dcache is None:
            assert snap["cycles"] == 1 + 1 + 1 + 2 + 2 + 2 + 1

    @pytest.mark.parametrize("dcache", CACHES, ids=CACHE_IDS)
    @pytest.mark.parametrize("skew", [1, 2, 3])
    def test_aligned_stores_read_back_unaligned(self, skew, dcache):
        snap = run_both("main:\n    li r2, 0x2000\n"
                        "    li r3, 0x89ABCDEF\n    li r4, 0x01234567\n"
                        "    sw r3, 0(r2)\n    sw r4, 4(r2)\n"
                        f"    lw r1, {skew}(r2)\n    halt\n", dcache=dcache)
        both = 0x0123456789ABCDEF
        assert snap["result"] == (both >> (8 * skew)) & MASK
        assert snap["mem"] == mem_hash(
            {0x2000: both.to_bytes(8, "little")})

    @pytest.mark.parametrize("dcache", CACHES, ids=CACHE_IDS)
    def test_last_aligned_word(self, dcache):
        snap = run_both(f"main:\n    li r2, {MEM - 4}\n"
                        "    li r3, 0xA1B2C3D4\n"
                        "    sw r3, 0(r2)\n    lw r1, 0(r2)\n    halt\n",
                        dcache=dcache)
        assert snap["result"] == 0xA1B2C3D4
        assert snap["mem"] == mem_hash({MEM - 4: bytes.fromhex("d4c3b2a1")})
        if dcache is None:
            assert snap["cycles"] == 1 + 1 + 1 + 2 + 1

    @pytest.mark.parametrize("dcache", CACHES, ids=CACHE_IDS)
    @pytest.mark.parametrize("addr", [MEM - 3, MEM, -4])
    @pytest.mark.parametrize("op", ["lw", "sw"])
    def test_fault(self, op, addr, dcache):
        snap = run_both("main:\n    li r3, 0x55\n"
                        f"    {op} r3, {addr}(r0)\n    halt\n",
                        dcache=dcache)
        assert error(snap) == f"memory access out of range: {addr:#x}+4"
        assert snap["cycles"] == 1 and snap["instret"] == 1
        assert snap["opcode_counts"] == {"li": 1, op: 1}
        assert snap["pc"] == 1 and snap["mem"] == ZERO_MEM
        if dcache is not None:
            assert snap["dcache"] == (0, 0)

    def test_view_covers_whole_words_only(self):
        assert word_view(bytearray(MEM + 2)) is NO_WORD_VIEW
        words, limit = word_view(bytearray(MEM))
        try:
            assert limit == MEM and len(words) == MEM // 4
        finally:
            words.release()

    @pytest.mark.parametrize("dcache", CACHES, ids=CACHE_IDS)
    def test_odd_sized_memory_takes_the_fallback(self, dcache):
        odd = MEM + 2
        source = ("main:\n    li r3, 0xA1B2C3D4\n"
                  f"    sw r3, {MEM - 4}(r0)\n"   # the last aligned word
                  f"    sw r3, {odd - 4}(r0)\n"   # the last whole word
                  f"    lw r1, {MEM - 4}(r0)\n"
                  f"    lw r4, {odd - 4}(r0)\n"
                  "    {tail}\n    halt\n")
        snap = run_both(source.format(tail="addi r1, r1, 1"),
                        dcache=dcache, mem_size=odd)
        assert snap["result"] == 0xC3D4C3D5
        assert snap["regs"][4] == 0xA1B2C3D4
        assert snap["mem"] == mem_hash(
            {MEM - 4: bytes.fromhex("d4c3d4c3b2a1")}, odd)
        snap = run_both(source.format(tail=f"lw r5, {odd - 3}(r0)"),
                        dcache=dcache, mem_size=odd)
        assert error(snap) == f"memory access out of range: {odd - 3:#x}+4"
        assert snap["instret"] == 5 and snap["pc"] == 5

    def test_big_endian_host_takes_the_fallback(self, monkeypatch):
        source = ("main:\n    li r2, 0x2001\n    li r3, 0x11223344\n"
                  "    sw r3, 3(r2)\n    sw r3, 0(r2)\n"
                  "    lw r4, 3(r2)\n    lw r1, -1(r2)\n    halt\n")
        with_view = run_both(source)
        monkeypatch.setattr(machine_module, "_NATIVE_WORDS", False)
        assert word_view(bytearray(MEM)) is NO_WORD_VIEW
        assert run_both(source) == with_view
        # The unaligned store overwrote the low byte of the aligned one.
        assert with_view["regs"][4] == 0x11223311
        assert with_view["result"] == 0x22334400

    def test_vector_write_read_back_by_lw(self):
        ext = ExtensionSet([make_vaddc(2), make_montcfg(), make_macrow(1)])
        a, b, v = (0xFFFFFFFF, 5), (1, 7), 3
        snap = run_both(
            "main:\n    li r2, 0x1000\n    li r3, 0x1010\n"
            "    li r4, 0x1020\n    li r5, 2\n"
            f"    li r6, {a[0]}\n    sw r6, 0(r2)\n"
            f"    li r6, {a[1]}\n    sw r6, 4(r2)\n"
            f"    li r6, {b[0]}\n    sw r6, 0(r3)\n"
            f"    li r6, {b[1]}\n    sw r6, 4(r3)\n"
            "    vaddc_2 r4, r2, r3\n"
            "    lw r7, 0(r4)\n    lw r8, 4(r4)\n"
            f"    li r6, {v}\n    montcfg r0, r5\n"
            "    macrow_1 r4, r2, r6\n"
            "    lw r9, 0(r4)\n    lw r10, 4(r4)\n    lw r11, 8(r4)\n"
            "    lw r1, 2(r4)\n    halt\n", extensions=ext)
        total = (a[1] << 32 | a[0]) + (b[1] << 32 | b[0])
        assert (snap["regs"][7], snap["regs"][8]) == (total & MASK,
                                                      total >> 32)
        total += (a[1] << 32 | a[0]) * v
        assert [snap["regs"][i] for i in (9, 10, 11)] == [
            (total >> (32 * i)) & MASK for i in range(3)]
        assert snap["result"] == (total >> 16) & MASK


def _raw_program(*instructions):
    """A program built without the assembler, so a branch or jump may
    name a static target outside it."""
    return Program([Instruction(op, args) for op, args in instructions],
                   labels={"main": 0})


class TestControlLeavesTheLine:
    """Only a control transfer can take pc out of the program; it is
    charged and retired before the fault."""

    @pytest.mark.parametrize("target", [-2, 5, 99])
    @pytest.mark.parametrize("op,cost", [("beq", 1 + 2), ("j", 3),
                                         ("jal", 3), ("jr", 3)])
    def test_transfer_to_an_out_of_range_pc(self, op, cost, target):
        # Four instructions: pc 4 is the sentinel, a return.
        args = {"beq": (1, 1, target), "j": (target,), "jal": (target,),
                "jr": (5,)}[op]
        snap = run_both(_raw_program(
            ("li", (5, target)), (op, args), ("addi", (1, 1, 1)),
            ("halt", ())))
        if op == "jr":
            # li masks the immediate: a register is never negative.
            target &= MASK
        assert error(snap) == f"pc out of range: {target}"
        assert snap["cycles"] == 1 + cost and snap["instret"] == 2
        assert snap["opcode_counts"] == {"li": 1, op: 1}
        assert snap["pc"] == target

    @pytest.mark.parametrize("target", [-2, 99])
    def test_untaken_branch_never_tests_its_target(self, target):
        snap = run_both(_raw_program(
            ("li", (1, 6)), ("bne", (1, 1, target)), ("addi", (1, 1, 1)),
            ("halt", ())))
        assert snap["result"] == 7 and snap["cycles"] == 4
        assert snap["instret"] == 3


class TestZeroRegister:
    def test_run_entered_with_r0_dirty(self):
        ext = ExtensionSet([_setreg("setreg", 0x5A5A)])
        program = assemble("main:\n    add r1, r0, r0\n"
                           "    lw r2, 0x100(r0)\n"
                           "    lw r0, 0x100(r0)\n    add r3, r0, r0\n"
                           "    setreg r0\n    add r4, r0, r0\n"
                           "    halt\n", ext)
        for backend in BACKENDS:
            machine = Machine(program, ext, MEM, backend=backend)
            machine.write_word(0x100, 7)
            machine.regs[0] = 0xDEAD
            assert machine.run("main") == 0
            assert machine.regs[:5] == [0, 0, 7, 0, 0]


BUDGET_TRAP = "instruction budget exceeded (runaway program?)"


class TestRunAccounting:
    """The interpreter charges the budget, counts and static cycles once
    per straight-line run (up to the next branch, j, jal, jr, halt or
    custom op).  A trap anywhere in a run must leave exactly the state
    of per-instruction accounting."""

    # Runs: pc 0-3 (closed by the taken beq), 4 (the custom op), 5-6
    # (jal), 8-9 (jr), 7 (halt).
    SOURCE = ("main:\n"
              "    addi r1, r1, 1\n"       # pc 0
              "    addi r1, r1, 2\n"       # pc 1
              "    addi r2, r2, 3\n"       # pc 2
              "    beq r0, r0, next\n"     # pc 3, taken: 1 + 2
              "next:\n"
              "    bump r1\n"              # pc 4, +16, latency 5
              "    addi r1, r1, 4\n"       # pc 5
              "    jal f\n"                # pc 6
              "    halt\n"                 # pc 7
              "f:\n"
              "    addi r1, r1, 8\n"       # pc 8
              "    jr r14\n")              # pc 9
    # Executed in this order, with these charges and r1 increments.
    PCS = (0, 1, 2, 3, 4, 5, 6, 8, 9, 7)
    OPS = ("addi", "addi", "addi", "beq", "bump", "addi", "jal", "addi",
           "jr", "halt")
    CYCLES = (1, 1, 1, 3, 5, 1, 3, 1, 3, 1)
    R1 = (1, 2, 0, 0, 16, 4, 0, 8, 0, 0)

    def run(self, budget):
        ext = ExtensionSet([_bump("bump", 16, 5)])
        return run_both(self.SOURCE, extensions=ext,
                        max_instructions=budget)

    @pytest.mark.parametrize("budget", [-3, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
    def test_budget_expires_anywhere_in_a_run(self, budget):
        # -3 to 0: the first instruction (cycles 0, instret 0, the addi
        # counted); 2: mid-run; 3: on the closing branch; 4: on the
        # custom op; 5: right after it; 6: on the jal; 7: the first
        # instruction of the callee; 9: on the halt.
        snap = self.run(budget)
        done = max(budget, 0)
        assert error(snap) == BUDGET_TRAP
        assert snap["cycles"] == sum(self.CYCLES[:done])
        assert snap["instret"] == done
        assert snap["opcode_counts"] == Counter(self.OPS[:done + 1])
        assert snap["pc"] == self.PCS[done]
        assert snap["regs"][1] == sum(self.R1[:done])

    def test_whole_program_within_the_budget(self):
        for budget in (10, 11):
            snap = self.run(budget)
            assert snap["result"] == sum(self.R1)
            assert snap["cycles"] == sum(self.CYCLES)
            assert snap["instret"] == 9
            assert snap["opcode_counts"] == Counter(self.OPS)
            # main pays the jal, f its jr.
            assert snap["local_cycles"] == {"main": 16, "f": 4}
            assert snap["inclusive_cycles"] == {"main": 20, "f": 4}

    @pytest.mark.parametrize("dcache", CACHES, ids=CACHE_IDS)
    def test_memory_fault_after_a_miss_in_the_same_run(self, dcache):
        snap = run_both("main:\n    li r2, 0x2000\n"
                        "    lw r3, 0(r2)\n"       # 2, a miss: + 9
                        "    addi r3, r3, 1\n"
                        "    lw r4, -1(r0)\n"      # faults
                        "    addi r1, r1, 1\n    halt\n", dcache=dcache)
        assert error(snap) == "memory access out of range: -0x1+4"
        miss = 0 if dcache is None else 9
        assert snap["cycles"] == 1 + 2 + miss + 1
        assert snap["instret"] == 3 and snap["pc"] == 3
        assert snap["opcode_counts"] == {"li": 1, "lw": 2, "addi": 1}
        assert snap["regs"][3] == 1
        assert snap["dcache"] == (None if dcache is None else (1, 1))
        assert snap["local_cycles"] == {"main": 1 + 2 + miss + 1}

    @pytest.mark.parametrize("budget,done", [(1, 1), (2, 2), (3, 2)])
    def test_falling_off_the_end(self, budget, done):
        # No control transfer: the run ends at the sentinel, a return.
        snap = run_both("main:\n    addi r1, r1, 5\n"
                        "    addi r1, r1, 6\n", args=[100],
                        max_instructions=budget)
        assert snap["cycles"] == done and snap["instret"] == done
        assert snap["opcode_counts"] == {"addi": 2}
        if done == 2:
            assert snap["result"] == 111 and snap["pc"] == 2
        else:
            assert error(snap) == BUDGET_TRAP
            assert snap["pc"] == 1 and snap["regs"][1] == 105

    LOOP = ("main:\n    li r2, 3\n"
            "loop:\n    addi r1, r1, 1\n"
            "    addi r2, r2, -1\n"
            "    bne r2, r0, loop\n"       # back into the run from pc 0
            "    halt\n")

    def test_branch_into_the_middle_of_a_run(self):
        snap = run_both(self.LOOP, args=[10])
        assert snap["result"] == 13
        # li, three iterations of three, two taken branches, halt
        assert snap["cycles"] == 1 + 3 * 3 + 2 * 2 + 1
        assert snap["instret"] == 10
        assert snap["opcode_counts"] == {"li": 1, "addi": 6, "bne": 3,
                                         "halt": 1}

    def test_budget_expires_in_a_run_entered_mid_way(self):
        # li, addi, addi, bne (taken), addi, addi, then the second bne.
        snap = run_both(self.LOOP, args=[10], max_instructions=6)
        assert error(snap) == BUDGET_TRAP
        assert snap["cycles"] == 1 + 1 + 1 + 3 + 1 + 1
        assert snap["instret"] == 6 and snap["pc"] == 3
        assert snap["opcode_counts"] == {"li": 1, "addi": 4, "bne": 2}
        assert snap["regs"][1:3] == [12, 1]

    CALLS = ("main:\n    addi r1, r1, 1\n"    # pc 0
             "    jal f\n"                      # pc 1
             "    addi r1, r1, 2\n"             # pc 2
             "    jal f\n"                      # pc 3
             "    halt\n"                       # pc 4
             "f:\n    addi r1, r1, 4\n"        # pc 5
             "    addi r1, r1, 8\n"             # pc 6
             "    jr r14\n")                    # pc 7

    def test_jal_and_jr_attribute_across_runs(self):
        snap = run_both(self.CALLS)
        assert snap["result"] == 1 + 2 + 2 * 12
        # The caller pays its jal, the callee its jr.
        assert snap["local_cycles"] == {"main": 1 + 3 + 1 + 3 + 1,
                                        "f": 2 * (1 + 1 + 3)}
        assert snap["inclusive_cycles"] == {"main": 19, "f": 2 * 5}
        assert snap["call_counts"] == {"main": 1, "f": 2}
        assert snap["cycles"] == 19 and snap["instret"] == 10

    @pytest.mark.parametrize("budget,local", [
        (1, {"main": 1}),                   # on the first jal
        (3, {"main": 4, "f": 1}),           # mid-callee
        (4, {"main": 4, "f": 2}),           # on the jr
        (5, {"main": 4, "f": 5}),           # right after the return
    ])
    def test_budget_trap_attributes_the_charged_cycles(self, budget, local):
        snap = run_both(self.CALLS, max_instructions=budget)
        assert error(snap) == BUDGET_TRAP
        assert snap["local_cycles"] == local
        assert snap["cycles"] == sum(local.values())
        assert snap["instret"] == budget


KERNEL_PROGRAMS = {
    "mpn": lambda: MpnKernels().runner.program,
    "mpn_8_8": lambda: MpnKernels(8, 8).runner.program,
    "modexp": lambda: ModExpKernel().runner.program,
    "modexp_8_8": lambda: ModExpKernel(8, 8).runner.program,
    "sha1": lambda: Sha1Kernel().runner.program,
    "md5": lambda: Md5Kernel().runner.program,
}


def _naive_run(program, pc):
    """(length, static cycles, closing pc or the sentinel) of the run at
    ``pc``, walking the instructions one by one."""
    code = program.instructions
    length = cost = 0
    for at in range(pc, len(code)):
        spec = BASE_ISA.get(code[at].op)
        length += 1
        cost += spec.cost if spec is not None else 0
        if spec is None or spec.kind in ("branch", "control"):
            return length, cost, at
    return length, cost, len(code)


@pytest.mark.parametrize("name", sorted(KERNEL_PROGRAMS))
def test_run_table_matches_a_naive_walk(name):
    program = KERNEL_PROGRAMS[name]()
    runs = runs_for(program)
    code = program.instructions
    assert [_naive_run(program, pc) for pc in range(len(code))] == list(
        zip(runs.lengths, runs.costs, runs.stops))
    total = 0
    for pc, instr in enumerate(code):
        assert runs.prefix[pc] == total
        spec = BASE_ISA.get(instr.op)
        total += spec.cost if spec is not None else 0
    assert runs.prefix[len(code)] == total
    assert runs_for(program) is runs
