"""Tests for the XT32 instruction-set simulator."""

import pytest

from repro.isa.assembler import assemble
from repro.isa.extensions import CustomInstruction, ExtensionSet
from repro.isa.instructions import BASE_ISA
from repro.isa.machine import Machine, MachineError


def run(source, entry="main", args=(), extensions=None):
    machine = Machine(assemble(source, extensions), extensions)
    result = machine.run(entry, list(args))
    return result, machine


class TestAlu:
    def test_add_sub(self):
        result, _ = run("main: add r1, r1, r2\n sub r1, r1, r3\n halt",
                        args=[10, 7, 3])
        assert result == 14

    def test_wraparound(self):
        result, _ = run("main: addi r1, r1, 1\n halt", args=[0xFFFFFFFF])
        assert result == 0

    def test_logic_ops(self):
        result, _ = run("main: and r4, r1, r2\n or r4, r4, r3\n"
                        " xori r1, r4, 0xFF\n halt",
                        args=[0b1100, 0b1010, 0b0001])
        assert result == (((0b1100 & 0b1010) | 1) ^ 0xFF)

    def test_shifts(self):
        result, _ = run("main: slli r1, r1, 4\n srli r1, r1, 2\n halt",
                        args=[3])
        assert result == 12

    def test_sra_sign_extension(self):
        result, _ = run("main: srai r1, r1, 4\n halt", args=[0x80000000])
        assert result == 0xF8000000

    def test_sltu_vs_slt(self):
        result, _ = run("main: sltu r3, r1, r2\n slt r4, r1, r2\n"
                        " slli r4, r4, 1\n or r1, r3, r4\n halt",
                        args=[0xFFFFFFFF, 1])
        # unsigned: 0xFFFFFFFF > 1 -> 0 ; signed: -1 < 1 -> 1
        assert result == 0b10

    def test_mul_mulhu(self):
        result, machine = run(
            "main: mulhu r3, r1, r2\n mul r1, r1, r2\n halt",
            args=[0xFFFFFFFF, 0xFFFFFFFF])
        full = 0xFFFFFFFF * 0xFFFFFFFF
        assert result == full & 0xFFFFFFFF
        assert machine.regs[3] == full >> 32

    def test_r0_hardwired_zero(self):
        result, _ = run("main: li r0, 99\n mov r1, r0\n halt")
        assert result == 0


class TestMemory:
    def test_word_roundtrip(self):
        result, _ = run("main: sw r2, 0(r1)\n lw r1, 0(r1)\n halt",
                        args=[0x2000, 0xDEADBEEF])
        assert result == 0xDEADBEEF

    def test_byte_ops(self):
        result, _ = run("main: sb r2, 3(r1)\n lb r1, 3(r1)\n halt",
                        args=[0x2000, 0x1AB])
        assert result == 0xAB

    def test_little_endian_layout(self):
        _, machine = run("main: sw r2, 0(r1)\n halt", args=[0x2000, 0x01020304])
        assert machine.read_byte(0x2000) == 4
        assert machine.read_byte(0x2003) == 1

    def test_out_of_range_access(self):
        with pytest.raises(MachineError, match="memory access"):
            run("main: lw r1, 0(r2)\n halt", args=[0, 0xFFFFFFF0])

    def test_alloc_bounds(self):
        machine = Machine(assemble("main: halt"))
        with pytest.raises(MachineError, match="exhausted"):
            machine.alloc(1 << 22)


class TestControlFlow:
    def test_loop(self):
        source = """
        main:
            li r1, 0
        loop:
            add r1, r1, r2
            subi r2, r2, 1
            bne r2, r0, loop
            halt
        """
        result, _ = run(source, args=[0, 5])
        assert result == 15

    def test_branch_cost(self):
        # Not-taken branch costs 1; taken costs 3.
        _, m_nt = run("main: beq r1, r2, end\nend: halt", args=[1, 2])
        _, m_t = run("main: beq r1, r2, end\nend: halt", args=[1, 1])
        assert m_t.cycles == m_nt.cycles + 2

    def test_call_return(self):
        source = """
        main:
            jal double
            addi r1, r1, 1
            halt
        double:
            add r1, r1, r1
            jr r14
        """
        result, _ = run(source, args=[21])
        assert result == 43

    def test_signed_branches(self):
        source = """
        main:
            blt r1, r2, yes
            li r1, 0
            halt
        yes:
            li r1, 1
            halt
        """
        result, _ = run(source, args=[0xFFFFFFFF, 1])  # -1 < 1 signed
        assert result == 1

    def test_runaway_detection(self):
        machine = Machine(assemble("main: j main"))
        with pytest.raises(MachineError, match="budget"):
            machine.run("main", max_instructions=1000)


class TestProfiler:
    SOURCE = """
    main:
        mov r12, r14        # preserve the sentinel return address
        jal helper
        jal helper
        jr r12
    helper:
        addi r1, r1, 1
        jr r14
    """

    def test_call_counts(self):
        _, machine = run(self.SOURCE)
        assert machine.profile.call_counts["helper"] == 2
        assert machine.profile.call_edges[("main", "helper")] == 2

    def test_local_cycles_attributed(self):
        _, machine = run(self.SOURCE)
        prof = machine.profile
        # helper: 2 x (addi 1 + jr 3) = 8 local cycles
        assert prof.local_cycles["helper"] == 8
        assert prof.total_cycles == machine.cycles

    def test_inclusive_contains_local(self):
        _, machine = run(self.SOURCE)
        prof = machine.profile
        assert prof.inclusive_cycles["main"] >= prof.local_cycles["main"]
        assert prof.inclusive_cycles["main"] >= prof.inclusive_cycles["helper"]

    def test_callees_helper(self):
        _, machine = run(self.SOURCE)
        assert machine.profile.callees("main") == {"helper": 2}


class TestCustomInstructions:
    def test_semantics_and_latency(self):
        def swap_add(machine, args):
            rd, ra, rb = args
            machine.regs[rd] = (machine.regs[ra] + 2 * machine.regs[rb]) \
                & 0xFFFFFFFF

        ext = ExtensionSet([CustomInstruction(
            name="sad", signature="rrr", semantics=swap_add, latency=5)])
        result, machine = run("main: sad r1, r1, r2\n halt", args=[1, 4],
                              extensions=ext)
        assert result == 9
        assert machine.cycles == 5 + 1  # sad + halt

    def test_dynamic_latency(self):
        ext = ExtensionSet([CustomInstruction(
            name="varop", signature="r",
            semantics=lambda m, a: None,
            latency=lambda m, a: m.regs[a[0]])])
        _, machine = run("main: varop r1\n halt", args=[7], extensions=ext)
        assert machine.cycles == 7 + 1

    def test_unknown_opcode_at_runtime(self):
        # Assemble with the extension, run without it.
        ext = ExtensionSet([CustomInstruction(
            name="ghost", signature="", semantics=lambda m, a: None)])
        program = assemble("main: ghost\n halt", ext)
        machine = Machine(program)  # extensions not configured
        with pytest.raises(MachineError, match="unknown opcode"):
            machine.run("main")

    def test_user_registers(self):
        ext = ExtensionSet([
            CustomInstruction(name="setur", signature="r",
                              semantics=lambda m, a:
                              m.user_regs.__setitem__("acc", m.regs[a[0]])),
            CustomInstruction(name="getur", signature="r",
                              semantics=lambda m, a:
                              m.regs.__setitem__(a[0],
                                                 m.user_regs.get("acc", 0))),
        ])
        result, _ = run("main: setur r2\n getur r1\n halt", args=[0, 77],
                        extensions=ext)
        assert result == 77


# -- golden per-opcode oracle ---------------------------------------------
#
# Every base opcode on edge operands, on both backends.  Expected values
# are plain Python over unsigned 32-bit words and literal cycle counts,
# written independently of the ISA table, so a change to any one
# opcode's expression or cost fails here.

BACKENDS = ("interp", "compiled")
WORD = 1 << 32
EDGE = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
SHIFTS = (0, 31, 32, 33)
IMMEDIATES = (0, 1, 31, 32, 33, -1, -5, -0x800, 0x7FFFFFFF, 0x80000000,
              0xFFFFFFFF)


def signed(value):
    return value - WORD if value >= WORD // 2 else value


#: register-register ALU ops: (x, y) -> result
ALU_ORACLE = {
    "add": lambda x, y: (x + y) % WORD,
    "sub": lambda x, y: (x - y) % WORD,
    "and": lambda x, y: x & y,
    "or": lambda x, y: x | y,
    "xor": lambda x, y: x ^ y,
    "sll": lambda x, y: (x * 2 ** (y % 32)) % WORD,
    "srl": lambda x, y: x // 2 ** (y % 32),
    "sra": lambda x, y: (signed(x) // 2 ** (y % 32)) % WORD,
    "sltu": lambda x, y: int(x < y),
    "slt": lambda x, y: int(signed(x) < signed(y)),
    "mul": lambda x, y: (x * y) % WORD,
    "mulhu": lambda x, y: (x * y) // WORD,
}

#: register-immediate ops: the register form, applied to imm mod 2**32
IMMEDIATE_FORMS = {"addi": "add", "subi": "sub", "andi": "and",
                   "ori": "or", "xori": "xor", "slli": "sll",
                   "srli": "srl", "srai": "sra", "sltui": "sltu"}

BRANCH_ORACLE = {
    "beq": lambda x, y: x == y,
    "bne": lambda x, y: x != y,
    "blt": lambda x, y: signed(x) < signed(y),
    "bge": lambda x, y: signed(x) >= signed(y),
    "bltu": lambda x, y: x < y,
    "bgeu": lambda x, y: x >= y,
}

CYCLES = {
    "li": 1, "mov": 1, "add": 1, "sub": 1, "and": 1, "or": 1, "xor": 1,
    "sll": 1, "srl": 1, "sra": 1, "sltu": 1, "slt": 1, "addi": 1,
    "subi": 1, "andi": 1, "ori": 1, "xori": 1, "slli": 1, "srli": 1,
    "srai": 1, "sltui": 1, "mul": 2, "mulhu": 2, "lw": 2, "lb": 2,
    "sw": 1, "sb": 1, "j": 3, "jal": 3, "jr": 3, "halt": 1,
}
BRANCH_NOT_TAKEN, BRANCH_TAKEN = 1, 3
HALT = 1


def golden_run(source, backend, args=(), setup=None):
    machine = Machine(assemble(source), backend=backend)
    if setup is not None:
        setup(machine)
    machine.run("main", list(args))
    assert machine.regs[0] == 0
    return machine


def test_golden_oracle_covers_every_base_opcode():
    assert set(CYCLES) | set(BRANCH_ORACLE) == set(BASE_ISA)


@pytest.mark.parametrize("backend", BACKENDS)
class TestGoldenOpcodes:
    @pytest.mark.parametrize("op", sorted(ALU_ORACLE))
    def test_register_alu(self, backend, op):
        # The second write targets r0 and must be discarded.
        program = assemble(f"main: {op} r3, r1, r2\n {op} r0, r1, r2\n"
                           " halt")
        machine = Machine(program, backend=backend)
        for x in EDGE:
            for y in EDGE + SHIFTS:
                machine.reset()
                machine.run("main", [x, y])
                assert machine.regs[3] == ALU_ORACLE[op](x, y), (x, y)
                assert machine.regs[0] == 0
                assert machine.cycles == 2 * CYCLES[op] + HALT

    @pytest.mark.parametrize("op", sorted(IMMEDIATE_FORMS))
    @pytest.mark.parametrize("imm", IMMEDIATES)
    def test_immediate_alu(self, backend, op, imm):
        program = assemble(f"main: {op} r3, r1, {imm}\n {op} r0, r1, {imm}\n"
                           " halt")
        machine = Machine(program, backend=backend)
        oracle = ALU_ORACLE[IMMEDIATE_FORMS[op]]
        for x in EDGE:
            machine.reset()
            machine.run("main", [x])
            assert machine.regs[3] == oracle(x, imm % WORD), x
            assert machine.regs[0] == 0
            assert machine.cycles == 2 * CYCLES[op] + HALT

    @pytest.mark.parametrize("imm", IMMEDIATES)
    def test_li(self, backend, imm):
        machine = golden_run(f"main: li r3, {imm}\n li r0, {imm}\n halt",
                             backend)
        assert machine.regs[3] == imm % WORD
        assert machine.cycles == 2 * CYCLES["li"] + HALT

    @pytest.mark.parametrize("x", EDGE)
    def test_mov(self, backend, x):
        machine = golden_run("main: mov r3, r1\n mov r0, r1\n halt",
                             backend, [x])
        assert machine.regs[3] == x
        assert machine.cycles == 2 * CYCLES["mov"] + HALT

    @pytest.mark.parametrize("op", sorted(BRANCH_ORACLE))
    def test_branch(self, backend, op):
        program = assemble(f"main: {op} r1, r2, taken\n halt\n"
                           "taken: halt")
        machine = Machine(program, backend=backend)
        for x in EDGE:
            for y in EDGE:
                machine.reset()
                machine.run("main", [x, y])
                taken = BRANCH_ORACLE[op](x, y)
                assert machine.pc == (2 if taken else 1), (x, y)
                cost = BRANCH_TAKEN if taken else BRANCH_NOT_TAKEN
                assert machine.cycles == cost + HALT, (x, y)

    def test_lw(self, backend):
        machine = golden_run(
            "main: lw r3, -4(r1)\n lw r0, -4(r1)\n halt", backend, [0x2004],
            setup=lambda m: m.write_bytes(0x2000, b"\xef\xcd\xab\x89"))
        assert machine.regs[3] == 0x89ABCDEF
        assert machine.cycles == 2 * CYCLES["lw"] + HALT

    def test_lb_zero_extends(self, backend):
        machine = golden_run(
            "main: lb r3, 2(r1)\n lb r0, 2(r1)\n halt", backend, [0x2000],
            setup=lambda m: m.write_bytes(0x2000, b"\x80\x01\xff\x7f"))
        assert machine.regs[3] == 0xFF
        assert machine.cycles == 2 * CYCLES["lb"] + HALT

    def test_sw(self, backend):
        machine = golden_run(
            "main: sw r2, -4(r1)\n sw r0, 0(r1)\n halt", backend,
            [0x2004, 0x80000001],
            setup=lambda m: m.write_bytes(0x2000, b"\xaa" * 12))
        assert machine.read_bytes(0x2000, 12) == (
            b"\x01\x00\x00\x80" + b"\x00" * 4 + b"\xaa" * 4)
        assert machine.cycles == 2 * CYCLES["sw"] + HALT

    def test_sb(self, backend):
        machine = golden_run(
            "main: sb r2, 1(r1)\n sb r0, 3(r1)\n halt", backend,
            [0x2000, 0x12345678],
            setup=lambda m: m.write_bytes(0x2000, b"\xaa" * 4))
        assert machine.read_bytes(0x2000, 4) == b"\xaa\x78\xaa\x00"
        assert machine.cycles == 2 * CYCLES["sb"] + HALT

    def test_j(self, backend):
        machine = golden_run("main: j t\n halt\nt: halt", backend)
        assert machine.pc == 2
        assert machine.cycles == CYCLES["j"] + HALT

    def test_jal_links(self, backend):
        machine = golden_run("main: jal f\n halt\nf: halt", backend)
        assert machine.pc == 2
        assert machine.regs[14] == 1
        assert machine.cycles == CYCLES["jal"] + HALT

    def test_jr(self, backend):
        machine = golden_run("main: jr r1\n halt\n halt", backend, [2])
        assert machine.pc == 2
        assert machine.cycles == CYCLES["jr"] + HALT

    def test_halt(self, backend):
        machine = golden_run("main: halt", backend)
        assert machine.pc == 0
        assert machine.cycles == CYCLES["halt"]
