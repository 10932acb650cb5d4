"""The XT32 base instruction set: one spec per opcode.

A small RISC ISA in the spirit of the Xtensa's 32-bit core: sixteen
registers (``r0`` hardwired to zero, ``r13`` stack pointer by
convention, ``r14`` link register), three-operand ALU instructions,
32x32 multiply with separate low/high results, byte and word memory
access, and compare-and-branch.

:data:`BASE_ISA` states each opcode once: its operand signature, its
cycle cost, its kind and, for ALU ops and branches, its semantics as
one Python expression template over ``{x}``/``{y}``.  Both simulator
backends are built from it (:mod:`repro.isa.machine` renders one
handler per op at import, :mod:`repro.isa.compile` renders the same
templates with literal operands), as is the assembler's opcode table.

Cycle costs model a simple in-order pipeline: single-cycle ALU,
two-cycle multiply and loads, taken branches flush (3 cycles).  The
numbers are representative of late-1990s embedded cores; what matters
for the reproduction is that they are *consistent*, so base-vs-extended
ratios are meaningful.
"""

from typing import NamedTuple, Optional, Sequence

NUM_REGS = 16
ZERO_REG = 0
SP_REG = 13
LINK_REG = 14
WORD_MASK = 0xFFFFFFFF


class OpSpec(NamedTuple):
    """One base opcode.

    ``sig``: operand signature -- r = register, i = immediate,
    m = offset(reg) memory operand, l = label (branch/jump target).
    ``kind``: ``alu`` (writes operand 0), ``branch``, ``load``,
    ``store`` or ``control`` (j/jal/jr/halt).
    ``expr``: the ALU result or branch condition over ``{x}``/``{y}``,
    the first and second source: a register value or the immediate
    masked to a word, both unsigned 32-bit (see :func:`render`);
    signed ops order words by xor with the sign bit.
    ``size``: memory access width in bytes.
    """

    sig: str
    cost: int
    kind: str
    expr: Optional[str] = None
    size: int = 0


BASE_ISA = {
    # moves / immediates
    "li":    OpSpec("ri", 1, "alu", "{x}"),
    "mov":   OpSpec("rr", 1, "alu", "{x}"),
    # ALU register-register
    "add":   OpSpec("rrr", 1, "alu", "({x} + {y}) & 0xFFFFFFFF"),
    "sub":   OpSpec("rrr", 1, "alu", "({x} - {y}) & 0xFFFFFFFF"),
    "and":   OpSpec("rrr", 1, "alu", "{x} & {y}"),
    "or":    OpSpec("rrr", 1, "alu", "{x} | {y}"),
    "xor":   OpSpec("rrr", 1, "alu", "{x} ^ {y}"),
    "sll":   OpSpec("rrr", 1, "alu", "({x} << ({y} & 31)) & 0xFFFFFFFF"),
    "srl":   OpSpec("rrr", 1, "alu", "{x} >> ({y} & 31)"),
    "sra":   OpSpec("rrr", 1, "alu",
                    "((({x} ^ 0x80000000) - 0x80000000) >> ({y} & 31))"
                    " & 0xFFFFFFFF"),
    "sltu":  OpSpec("rrr", 1, "alu", "1 if {x} < {y} else 0"),
    "slt":   OpSpec("rrr", 1, "alu",
                    "1 if ({x} ^ 0x80000000) < ({y} ^ 0x80000000) else 0"),
    # ALU register-immediate
    "addi":  OpSpec("rri", 1, "alu", "({x} + {y}) & 0xFFFFFFFF"),
    "subi":  OpSpec("rri", 1, "alu", "({x} - {y}) & 0xFFFFFFFF"),
    "andi":  OpSpec("rri", 1, "alu", "{x} & {y}"),
    "ori":   OpSpec("rri", 1, "alu", "{x} | {y}"),
    "xori":  OpSpec("rri", 1, "alu", "{x} ^ {y}"),
    "slli":  OpSpec("rri", 1, "alu", "({x} << ({y} & 31)) & 0xFFFFFFFF"),
    "srli":  OpSpec("rri", 1, "alu", "{x} >> ({y} & 31)"),
    "srai":  OpSpec("rri", 1, "alu",
                    "((({x} ^ 0x80000000) - 0x80000000) >> ({y} & 31))"
                    " & 0xFFFFFFFF"),
    "sltui": OpSpec("rri", 1, "alu", "1 if {x} < {y} else 0"),
    # multiply (2-cycle, as on cores with a hardware multiplier option)
    "mul":   OpSpec("rrr", 2, "alu", "({x} * {y}) & 0xFFFFFFFF"),
    "mulhu": OpSpec("rrr", 2, "alu", "({x} * {y}) >> 32"),
    # memory
    "lw":    OpSpec("rm", 2, "load", size=4),
    "lb":    OpSpec("rm", 2, "load", size=1),
    "sw":    OpSpec("rm", 1, "store", size=4),
    "sb":    OpSpec("rm", 1, "store", size=1),
    # control flow; a taken branch adds BRANCH_TAKEN_PENALTY
    "beq":   OpSpec("rrl", 1, "branch", "{x} == {y}"),
    "bne":   OpSpec("rrl", 1, "branch", "{x} != {y}"),
    "blt":   OpSpec("rrl", 1, "branch",
                    "({x} ^ 0x80000000) < ({y} ^ 0x80000000)"),
    "bge":   OpSpec("rrl", 1, "branch",
                    "({x} ^ 0x80000000) >= ({y} ^ 0x80000000)"),
    "bltu":  OpSpec("rrl", 1, "branch", "{x} < {y}"),
    "bgeu":  OpSpec("rrl", 1, "branch", "{x} >= {y}"),
    "j":     OpSpec("l", 3, "control"),
    "jal":   OpSpec("l", 3, "control"),
    "jr":    OpSpec("r", 3, "control"),
    "halt":  OpSpec("", 1, "control"),
}

#: Extra cycles charged when a conditional branch is taken.
BRANCH_TAKEN_PENALTY = 2


def render(op: str, args: Sequence) -> str:
    """``op``'s expression as Python source over a register list ``r``.

    ``args[i]`` is argument ``i`` -- a register number or an immediate
    -- as a literal or as source text.  Register sources read
    ``r[...]``; immediates are masked to a word (literal ones fold at
    compile time).  ALU sources start after the destination, branch
    sources at argument 0."""
    spec = BASE_ISA[op]
    first = 0 if spec.kind == "branch" else 1
    sources = {}
    for name, i in zip("xy", range(first, len(spec.sig))):
        sources[name] = (f"r[{args[i]}]" if spec.sig[i] == "r"
                         else f"({args[i]} & {WORD_MASK})")
    return spec.expr.format(**sources)
