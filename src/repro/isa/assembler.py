"""Two-pass assembler for XT32 assembly text.

Syntax::

    # comment
    label:
        li   r1, 0x10          ; immediates: decimal, hex, negative
        lw   r2, 4(r1)         ; memory operands: offset(reg)
        beq  r2, r0, done
        jal  helper
    done:
        halt

Custom (TIE) instructions assemble exactly like base instructions; the
assembler takes an optional :class:`repro.isa.extensions.ExtensionSet`
that contributes extra opcodes and operand signatures.

The assembled :class:`Program` stores decoded instructions (no binary
encoding -- the simulator executes the decoded form directly, like an
ISS operating on a decoded trace).
"""

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import BASE_ISA, NUM_REGS


class AssemblyError(ValueError):
    """Raised for malformed assembly input."""


@dataclass
class Instruction:
    """One decoded instruction."""

    op: str
    args: Tuple          # decoded operands per signature
    source_line: int = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.op} {self.args}>"


# eq=False: identity semantics, so programs are hashable and can key the
# weak per-program cache of compiled code in repro.isa.compile.
@dataclass(eq=False)
class Program:
    """An assembled program: decoded instructions plus the symbol table."""

    instructions: List[Instruction]
    labels: Dict[str, int] = field(default_factory=dict)

    def entry(self, label: str) -> int:
        try:
            return self.labels[label]
        except KeyError:
            raise AssemblyError(f"unknown label {label!r}")

    def __len__(self) -> int:
        return len(self.instructions)


_REGISTER_RE = re.compile(r"^r(\d+)$")
_MEMORY_RE = re.compile(r"^(-?(?:0x[0-9a-fA-F]+|\d+))\((r\d+)\)$")
_LABEL_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")


def _parse_register(token: str, line_no: int) -> int:
    match = _REGISTER_RE.match(token)
    if not match:
        raise AssemblyError(f"line {line_no}: expected register, got {token!r}")
    reg = int(match.group(1))
    if reg >= NUM_REGS:
        raise AssemblyError(f"line {line_no}: register {token} out of range")
    return reg


def _parse_immediate(token: str, line_no: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblyError(f"line {line_no}: expected immediate, got {token!r}")


def _split_operands(rest: str) -> List[str]:
    rest = rest.strip()
    if not rest:
        return []
    return [tok.strip() for tok in rest.split(",")]


def assemble(source: str, extensions: Optional[object] = None) -> Program:
    """Assemble XT32 source text into a :class:`Program`.

    ``extensions`` is an :class:`~repro.isa.extensions.ExtensionSet`
    (or anything with a ``signatures()`` -> {opcode: signature} method)
    contributing custom opcodes.
    """
    opcode_table: Dict[str, str] = {op: spec.sig
                                    for op, spec in BASE_ISA.items()}
    if extensions is not None:
        for op, sig in extensions.signatures().items():
            if op in opcode_table:
                raise AssemblyError(f"custom instruction {op!r} shadows a base opcode")
            opcode_table[op] = sig

    # Pass 1: collect labels and raw statements.
    statements: List[Tuple[int, str, str]] = []  # (line_no, opcode, operands)
    labels: Dict[str, int] = {}
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        while ":" in line:
            label, _, line = line.partition(":")
            label = label.strip()
            if not _LABEL_RE.match(label):
                raise AssemblyError(f"line {line_no}: bad label {label!r}")
            if label in labels:
                raise AssemblyError(f"line {line_no}: duplicate label {label!r}")
            labels[label] = len(statements)
            line = line.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        opcode = parts[0].lower()
        operands = parts[1] if len(parts) > 1 else ""
        statements.append((line_no, opcode, operands))

    # Pass 2: decode operands, resolving labels.
    instructions: List[Instruction] = []
    for line_no, opcode, operands in statements:
        if opcode not in opcode_table:
            raise AssemblyError(f"line {line_no}: unknown opcode {opcode!r}")
        signature = opcode_table[opcode]
        tokens = _split_operands(operands)
        if len(tokens) != len(signature):
            raise AssemblyError(
                f"line {line_no}: {opcode} expects {len(signature)} operands, "
                f"got {len(tokens)}")
        args = []
        for kind, token in zip(signature, tokens):
            if kind == "r":
                args.append(_parse_register(token, line_no))
            elif kind == "i":
                args.append(_parse_immediate(token, line_no))
            elif kind == "m":
                match = _MEMORY_RE.match(token)
                if not match:
                    raise AssemblyError(
                        f"line {line_no}: expected offset(reg), got {token!r}")
                offset = int(match.group(1), 0)
                args.append((offset, _parse_register(match.group(2), line_no)))
            elif kind == "l":
                if not _LABEL_RE.match(token):
                    raise AssemblyError(
                        f"line {line_no}: expected label, got {token!r}")
                if token not in labels:
                    raise AssemblyError(
                        f"line {line_no}: undefined label {token!r}")
                args.append(labels[token])
            else:  # pragma: no cover - signature typo guard
                raise AssemblyError(
                    f"line {line_no}: bad signature element {kind!r}")
        instructions.append(Instruction(opcode, tuple(args), line_no))

    return Program(instructions=instructions, labels=labels)


def disassemble(program: Program, extensions: Optional[object] = None) -> str:
    """Render an assembled program back to canonical source text.

    Labels are re-attached at their instruction indices and jump/branch
    targets resolved back to label names, so
    ``assemble(disassemble(p))`` reproduces ``p`` exactly (the tests
    assert the round trip).  Pass the same ``extensions`` used to
    assemble so custom operand signatures render correctly.
    """
    labels_at: Dict[int, List[str]] = {}
    for label, index in sorted(program.labels.items()):
        labels_at.setdefault(index, []).append(label)
    # Synthesize names for branch targets that carry no label.
    signatures: Dict[str, str] = {op: spec.sig
                                  for op, spec in BASE_ISA.items()}
    if extensions is not None:
        signatures.update(extensions.signatures())
    lines: List[str] = []
    for index, instr in enumerate(program.instructions):
        for label in labels_at.get(index, ()):
            lines.append(f"{label}:")
        signature = signatures.get(instr.op)
        rendered = []
        for pos, arg in enumerate(instr.args):
            kind = signature[pos] if signature else (
                "m" if isinstance(arg, tuple) else "r")
            if kind == "r":
                rendered.append(f"r{arg}")
            elif kind == "i":
                rendered.append(str(arg))
            elif kind == "m":
                offset, reg = arg
                rendered.append(f"{offset}(r{reg})")
            elif kind == "l":
                target_labels = labels_at.get(arg)
                if not target_labels:
                    # Target has no label: synthesize one (kept stable
                    # by index) and attach it lazily.
                    name = f"loc_{arg}"
                    labels_at.setdefault(arg, []).append(name)
                    if arg < index:  # already emitted: patch in place
                        patched: List[str] = []
                        count = 0
                        for line in lines:
                            if not line.endswith(":"):
                                if count == arg:
                                    patched.append(f"{name}:")
                                count += 1
                            patched.append(line)
                        lines = patched
                    target_labels = [name]
                rendered.append(target_labels[0])
        operands = ", ".join(rendered)
        lines.append(f"    {instr.op} {operands}".rstrip())
    # Trailing labels (pointing one past the end) are not representable;
    # Program.labels never contains them by construction.
    return "\n".join(lines) + "\n"
