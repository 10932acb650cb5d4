"""Code-generating compiler for the XT32 instruction-set simulator.

The interpreter in :mod:`repro.isa.machine` decodes each program
once into a per-pc table, but still pays per executed instruction: a
table entry unpacked, a chain of kind tests, a handler call with the
immediate re-masked, a dcache presence test, and per-step counting.
This module removes all of that by *generating code*:
:func:`compile_program` translates an assembled
:class:`~repro.isa.assembler.Program` once into generated Python
source, with operand indices, masked immediates, cycle costs, branch
targets, extension semantics, and zero-register handling baked in as
literals and globals.

One emitter, :class:`_BlockGen`, renders each base op from its
:data:`~repro.isa.instructions.BASE_ISA` entry: the same expression
template and cycle cost the interpreter's handlers are built from,
here with literal operands.  Word loads and stores share the
interpreter's memory path too: an aligned, in-range address goes
through the 32-bit view :meth:`~repro.isa.machine.Machine.run` opens
for the run (``m._words``), anything else through the bounds test and
the byte slice.  It renders two kinds of function, each taking the
machine and returning the next pc:

1. **Fused basic blocks (superinstructions)** -- the straight-line run
   from each block leader to the next control transfer or leader,
   rendered eagerly as one function.  This amortizes the dispatch loop,
   the instruction-budget check, and per-instruction counting over the
   whole block.  Executed-instruction histograms are recovered from one
   counter per block via a precomputed per-block opcode histogram.
2. **Single-instruction steps** -- a block of length 1, rendered
   lazily the first time the driver single-steps a pc and memoized in
   :attr:`CompiledProgram.steps`.  Normal runs never single-step; steps
   serve only the tail of an instruction budget and a computed ``jr``
   into the middle of a block, which runs one instruction at a time
   until the next leader.

The compiled backend is **bit-identical** to the interpreter --
``cycles``, ``instret``, ``opcode_counts``, the :class:`Profile`
(local/inclusive cycles, call edges/counts) and final memory/registers
all match exactly, on success *and* on fault paths; the differential
tests and the ``iss_compiled`` bench scenario gate that equivalence at
a hard zero.  Three mechanisms preserve exactness while batching work:

- Profile attribution is deferred: code only bumps ``machine.cycles``
  and the frame-local totals are flushed at call/return/exit
  boundaries (integer addition is associative, so the flushed totals
  equal the interpreter's per-step accumulation).
- Static cycle costs inside a block are summed at compile time and
  charged in batches, but always flushed *before* any instruction
  that can fault (memory ops, custom and unknown instructions), so a
  trapped run has charged exactly the cycles of the instructions that
  completed.
- A block that faults reports ``(start, length, sub-index)`` through
  ``machine._block_fault`` so the driver can repair the pre-charged
  instruction count and attribute per-pc counts for the partial run,
  matching the interpreter's state at the raise point.  A single step
  needs no such repair: the driver counts it before calling it, so it
  is rendered without the ``try`` wrapper and progress marker.

Compilation is cached per ``(Program, ExtensionSet)`` identity in a
weak registry, so kernel runners that spawn a fresh
:class:`~repro.isa.machine.Machine` per run pay for predecoding once.
"""

import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.isa.assembler import Instruction, Program
from repro.isa.extensions import ExtensionSet
from repro.isa.instructions import (BASE_ISA, BRANCH_TAKEN_PENALTY,
                                    LINK_REG, WORD_MASK, ZERO_REG, render)
from repro.isa.machine import MachineError

#: One compiled block or step: machine -> next pc.
Step = Callable[[object], int]

#: ops that end a block: branches, jumps and halt
_TERMINATORS = frozenset(op for op, spec in BASE_ISA.items()
                         if spec.kind in ("branch", "control"))

#: op -> index of its static label operand (branch or jump target)
_TARGET_ARG = {op: spec.sig.index("l") for op, spec in BASE_ISA.items()
               if "l" in spec.sig}


class CompiledProgram:
    """The compiled form of one program + extension configuration."""

    __slots__ = ("code", "op_names", "sentinel", "extensions", "func_at",
                 "glob", "steps", "blocks", "block_hists")

    def __init__(self, program: Program,
                 extensions: Optional[ExtensionSet]):
        # The instructions, not the Program: the weak cache's value must
        # not keep its key alive.
        self.code: Sequence[Instruction] = program.instructions
        self.op_names = [instr.op for instr in self.code]
        self.sentinel = len(self.code)
        # Held strongly so the id()-keyed cache slot cannot be reused
        # by a different ExtensionSet while this entry is alive.
        self.extensions = extensions
        # Same first-label-wins mapping the Machine builds for profiling.
        self.func_at: Dict[int, str] = {}
        for label, index in program.labels.items():
            self.func_at.setdefault(index, label)
        #: namespace every generated block and step executes in
        self.glob: Dict[str, object] = {"_fb": int.from_bytes,
                                        "MachineError": MachineError}
        #: ``steps[pc]`` is the single-instruction step, or None until
        #: :meth:`step` first renders it.
        self.steps: List[Optional[Step]] = [None] * self.sentinel
        #: ``blocks[pc]`` is ``(fn, length, block_id)`` at block leaders.
        self.blocks: List[Optional[Tuple[Step, int, int]]] = \
            [None] * self.sentinel
        #: per block id: ((opcode, multiplicity), ...) for count merging
        self.block_hists: List[Tuple[Tuple[str, int], ...]] = []

    def step(self, pc: int) -> Step:
        """Render, memoize and return the single-instruction step at
        ``pc``: a block of length 1."""
        gen = _BlockGen(pc, self)
        if not _emit(gen, self.code[pc], pc, None):
            gen.emit_fallthrough(pc + 1)
        name = f"_s{pc}"
        exec(compile(gen.render(name, 1), "<repro.isa.compile>", "exec"),
             self.glob)
        step = self.steps[pc] = self.glob[name]
        return step


# -- the emitter -------------------------------------------------------------
#
# Registers hoisted to a local, immediates and addresses inlined as
# literals, static cycle costs pre-summed.  The interpreter re-forces r0
# to zero after every instruction; here that is resolved at compile
# time: a pure ALU op targeting r0 emits no statement (the write is
# unobservable), and memory reads targeting r0 keep their side effects
# (bounds check, dcache access) but discard the loaded value.  Only
# memory, custom and unknown instructions can fault; a block containing
# one gets a try/except wrapper and a sub-instruction progress marker
# so the driver can repair counts exactly (see the module docstring).

class _BlockGen:
    """Accumulates the generated source of one block or step."""

    def __init__(self, start: int, compiled: CompiledProgram):
        self.start = start
        self.compiled = compiled
        self.glob = compiled.glob
        self.lines: List[str] = []
        self.pending = 0        # static cycles not yet charged
        self.faulting = False   # needs the try/except + progress marker
        self.uses_mem = False
        self.uses_words = False
        self.uses_load = False

    def flush(self) -> None:
        if self.pending:
            self.lines.append(f"m.cycles += {self.pending}")
            self.pending = 0

    def fault_point(self, sub: Optional[int]) -> None:
        """Charge everything up to here before an op that can fault, so
        a trapped run's cycle count matches the interpreter's exactly.
        Inside a block (``sub`` is the op's index in it) also record
        the progress marker; a single step (``sub`` None) needs none."""
        self.flush()
        if sub is not None:
            self.faulting = True
            self.lines.append(f"f_ = {sub}")

    def emit_alu(self, op: str, a) -> None:
        if a[0] != ZERO_REG:
            self.lines.append(f"r[{a[0]}] = {render(op, a)}")
        self.pending += BASE_ISA[op].cost

    def emit_mem(self, op: str, a, sub: Optional[int]) -> None:
        self.uses_mem = True
        spec = BASE_ISA[op]
        size = spec.size
        off, base = a[1]
        self.fault_point(sub)
        self.lines.append(f"a_ = r[{base}] + {off!r}")
        d = a[0]
        store = spec.kind == "store"
        lines = self.lines
        out_of_range = f"a_ < 0 or a_ + {size} > len(mem)"
        fault = ('    raise MachineError('
                 f'"memory access out of range: %#x+{size}" % a_)')
        if size == 4 and (store or d != ZERO_REG):
            # An aligned word through the run's view (machine.word_view),
            # anything else through the bounds test and byte slice.
            self.uses_words = True
            if store:
                fast = f"w[a_ >> 2] = r[{d}] & {WORD_MASK}"
                slow = (f'mem[a_:a_ + 4] = (r[{d}] & {WORD_MASK})'
                        f'.to_bytes(4, "little")')
            else:
                self.uses_load = True
                fast = f"r[{d}] = w[a_ >> 2]"
                slow = f'r[{d}] = fb(mem[a_:a_ + 4], "little")'
            lines += ["if not a_ & 3 and 0 <= a_ < wl:", f"    {fast}",
                      f"elif {out_of_range}:", fault, "else:", f"    {slow}"]
        else:
            lines += [f"if {out_of_range}:", fault]
            if store:
                lines.append(f"mem[a_] = r[{d}] & 0xFF")
            elif d != ZERO_REG:
                lines.append(f"r[{d}] = mem[a_]")
        self.pending += spec.cost
        # Dynamic dcache penalties go straight to m.cycles in program
        # order (the access sequence drives the cache model's state).
        self.lines.append("if dc is not None:")
        self.lines.append("    m.cycles += dc.access(a_)")

    def emit_custom(self, custom, a, pc: int, sub: Optional[int]) -> None:
        self.fault_point(sub)
        self.glob[f"S{pc}"] = custom.semantics
        self.glob[f"A{pc}"] = a
        self.lines.append(f"S{pc}(m, A{pc})")
        latency = custom.latency
        if callable(latency):
            # Priced before r0 is re-zeroed, as the interpreter does.
            self.glob[f"L{pc}"] = latency
            self.lines.append(f"m.cycles += L{pc}(m, A{pc})")
        else:
            self.pending += latency
        self.lines.append("r[0] = 0")

    def emit_unknown(self, op: str, pc: int, sub: Optional[int]) -> None:
        self.fault_point(sub)
        message = f"unknown opcode {op!r} at pc={pc}"
        self.lines.append(f"raise MachineError({message!r})")

    def emit_terminator(self, op: str, a, pc: int) -> None:
        spec = BASE_ISA[op]
        cost = self.pending + spec.cost
        if spec.kind == "branch":
            self.lines.append(f"if {render(op, a)}:")
            self.lines.append(
                f"    m.cycles += {cost + BRANCH_TAKEN_PENALTY}")
            self.lines.append(f"    return {a[2]}")
            self.lines.append(f"m.cycles += {cost}")
            self.lines.append(f"return {pc + 1}")
        elif op == "j":
            self.lines.append(f"m.cycles += {cost}")
            self.lines.append(f"return {a[0]}")
        elif op == "jal":
            target = a[0]
            self.lines.append(f"r[{LINK_REG}] = {pc + 1}")
            self.lines.append(f"m.cycles += {cost}")
            self.glob[f"cn{pc}"] = self.compiled.func_at.get(
                target, f"func@{target}")
            self.lines.append(f"m._compiled_call(cn{pc})")
            self.lines.append(f"return {target}")
        elif op == "jr":
            self.lines.append(f"m.cycles += {cost}")
            self.lines.append("m._compiled_ret()")
            self.lines.append(f"return r[{a[0]}]")
        else:  # halt
            self.lines.append(f"m.cycles += {cost}")
            self.lines.append("m._halted = True")
            self.lines.append(f"m._halt_pc = {pc}")
            self.lines.append(f"return {self.compiled.sentinel}")
        self.pending = 0

    def emit_fallthrough(self, next_pc: int) -> None:
        self.flush()
        self.lines.append(f"return {next_pc}")

    def render(self, name: str, length: int) -> str:
        head = [f"def {name}(m):", "    r = m.regs"]
        if self.uses_mem:
            head.append("    mem = m.mem")
            head.append("    dc = m.dcache")
        if self.uses_words:
            head.append("    w, wl = m._words")
        if self.uses_load:
            head.append("    fb = _fb")
        if self.faulting:
            head.append("    f_ = 0")
            head.append("    try:")
            body = [f"        {line}" for line in self.lines]
            tail = ["    except BaseException:",
                    f"        m._block_fault = ({self.start}, {length}, f_)",
                    "        raise"]
            return "\n".join(head + body + tail)
        body = [f"    {line}" for line in self.lines]
        return "\n".join(head + body)


def _emit(gen: _BlockGen, instr: Instruction, pc: int,
          sub: Optional[int]) -> bool:
    """Append ``instr`` (at ``pc``, index ``sub`` of its block, or None
    for a single step) to ``gen``; True when it ends the block."""
    op = instr.op
    a = instr.args
    spec = BASE_ISA.get(op)
    if spec is None:
        extensions = gen.compiled.extensions
        custom = extensions.get(op) if extensions is not None else None
        if custom is None:
            gen.emit_unknown(op, pc, sub)
            return True
        gen.emit_custom(custom, a, pc, sub)
    elif spec.kind == "alu":
        gen.emit_alu(op, a)
    elif spec.size:
        gen.emit_mem(op, a, sub)
    else:
        gen.emit_terminator(op, a, pc)
        return True
    return False


def _find_leaders(code: Sequence[Instruction], labels: Dict[str, int],
                  sentinel: int) -> List[int]:
    """Every pc a block may legally start at: labels (function entries,
    ``jal``/``j``/branch targets and return addresses), plus the
    instruction after each control transfer."""
    leaders = {index for index in labels.values() if index < sentinel}
    if code:
        leaders.add(0)
    for pc, instr in enumerate(code):
        op = instr.op
        target = _TARGET_ARG.get(op)
        if target is not None and 0 <= instr.args[target] < sentinel:
            leaders.add(instr.args[target])
        if op in _TERMINATORS and pc + 1 < sentinel:
            leaders.add(pc + 1)
    return sorted(leaders)


def _build_blocks(compiled: CompiledProgram, labels: Dict[str, int]) -> None:
    """Render every fused block into ``compiled.blocks``."""
    code = compiled.code
    sentinel = compiled.sentinel
    leaders = _find_leaders(code, labels, sentinel)
    leader_set = set(leaders)
    sources: List[str] = []
    placed: List[Tuple[int, int]] = []  # (start, length) awaiting exec
    for start in leaders:
        gen = _BlockGen(start, compiled)
        hist: Dict[str, int] = {}
        pc = start
        while True:
            instr = code[pc]
            hist[instr.op] = hist.get(instr.op, 0) + 1
            ended = _emit(gen, instr, pc, pc - start)
            pc += 1
            if ended or pc == sentinel or pc in leader_set:
                break
        if not ended:
            gen.emit_fallthrough(pc)
        sources.append(gen.render(f"_b{start}", pc - start))
        placed.append((start, pc - start))
        compiled.block_hists.append(tuple(sorted(hist.items())))
    glob = compiled.glob
    exec(compile("\n".join(sources), "<repro.isa.compile>", "exec"), glob)
    for bid, (start, length) in enumerate(placed):
        compiled.blocks[start] = (glob[f"_b{start}"], length, bid)


def compile_program(program: Program,
                    extensions: Optional[ExtensionSet] = None
                    ) -> CompiledProgram:
    """Compile ``program``'s fused blocks (uncached); single-instruction
    steps are rendered on first use."""
    compiled = CompiledProgram(program, extensions)
    _build_blocks(compiled, program.labels)
    return compiled


# -- compilation cache -------------------------------------------------------
#
# Keyed weakly on the Program (so a dropped program frees its generated
# code) and, within a program, on the identity of the extension set.
# All machines with no custom instructions share one entry: a fresh
# empty ExtensionSet is indistinguishable from another.

_cache: "weakref.WeakKeyDictionary[Program, Dict[object, CompiledProgram]]" \
    = weakref.WeakKeyDictionary()


def compiled_for(program: Program,
                 extensions: Optional[ExtensionSet] = None
                 ) -> CompiledProgram:
    """The (cached) compiled form of ``program`` + ``extensions``."""
    per_ext = _cache.get(program)
    if per_ext is None:
        per_ext = _cache[program] = {}
    key = None if (extensions is None or len(extensions) == 0) \
        else id(extensions)
    compiled = per_ext.get(key)
    if compiled is None or (key is not None
                            and compiled.extensions is not extensions):
        compiled = per_ext[key] = compile_program(program, extensions)
    return compiled
