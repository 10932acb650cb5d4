"""The XT32 instruction-set simulator with cycle accounting and profiling.

The machine executes a decoded :class:`~repro.isa.assembler.Program`
and charges cycles per the base-ISA table
(:data:`~repro.isa.instructions.BASE_ISA`, plus custom-instruction
latencies).  A lightweight profiler attributes cycles to functions
(``jal`` targets), producing the annotated call graphs of the paper's
Figure 4 and the per-routine cycle counts that characterization fits
macro-models to.

Two execution backends share one architectural contract:

- ``interp`` (default): the readable reference loop -- one step per
  instruction.  Each program is decoded once (:func:`decoded_for`, a
  weak per-``Program`` cache) into a per-pc table of ``(kind, handler,
  d, x, y)``; the loop dispatches on the small-int kind, calls the ALU
  or branch handler rendered at import from the op's ``BASE_ISA``
  expression, does memory ops inline, and looks custom ops up in the
  machine's extensions when they execute, so machines sharing a
  program share its table.  Bookkeeping is per straight-line run (the
  instructions up to the next control transfer, ``halt`` or custom op;
  :func:`runs_for`, cached the same way): entering a run charges its
  length against the budget and its static cycles at once, and only
  dcache penalties, taken-branch penalties and custom-op costs are
  added per step.  A fault or budget trap mid-run un-charges the
  run's tail.
- ``compiled``: generated code via :mod:`repro.isa.compile` -- the
  program is predecoded once into one Python function per fused basic
  block, rendered from the same templates, and the driver makes one
  call per block.

Both backends share one memory path.  A run opens a 32-bit view of
``mem`` (:func:`word_view`, released when the run ends, so no view
outlives it): an aligned, in-range ``lw``/``sw`` reads or writes
``words[addr >> 2]``.  Any other address -- unaligned, negative or
past the end -- takes the byte-slice fallback, which does the bounds
test and raises the ``memory access out of range`` fault; so does
every access on a big-endian host or a machine whose memory size is
not a multiple of 4, where no view is opened.  The pc range is tested
only where control can leave the straight line (a taken branch,
``j``, ``jal``, ``jr``), after the instruction is charged; r0 is
zeroed at run entry and re-zeroed only after an op that can write it
(an ALU op or load with rd = r0, or a custom op).

Both are bit-identical in ``cycles``, ``instret``, ``opcode_counts``,
the :class:`Profile`, and final memory/registers; select with the
``backend=`` constructor argument, :func:`backend_scope`, or the
``REPRO_ISS_BACKEND`` environment variable.

Calling convention (used by all kernels in :mod:`repro.isa.kernels`):

- arguments in ``r1``..``r6``, results in ``r1`` (and ``r2``),
- ``r13`` stack pointer (grows down), ``r14`` link register,
- ``jal`` is a call, ``jr r14`` (after restoring r14) a return,
- callee may clobber ``r1``..``r12``.
"""

import os
import struct
import sys
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import compress
from typing import (Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.isa.assembler import Instruction, Program
from repro.isa.extensions import ExtensionSet
from repro.isa.instructions import (BASE_ISA, BRANCH_TAKEN_PENALTY,
                                    LINK_REG, SP_REG, WORD_MASK, ZERO_REG,
                                    render)


class MachineError(RuntimeError):
    """Raised on simulator faults (bad memory access, runaway programs)."""


def _build_handlers():
    """Render the interpreter's handlers from :data:`BASE_ISA` in one
    ``exec``: per ALU op ``(r, d, x, y)`` writes ``r[d]`` (the loop
    re-zeroes r0), per branch ``(r, x, y) -> taken``.  ``x``/``y`` are
    the op's source operands: register numbers or immediates."""
    lines = []
    for op, spec in BASE_ISA.items():
        if spec.kind == "alu":
            lines += [f"def _{op}(r, d, x, y):",
                      f"    r[d] = {render(op, ('d', 'x', 'y'))}"]
        elif spec.kind == "branch":
            lines += [f"def _{op}(r, x, y):",
                      f"    return {render(op, ('x', 'y'))}"]
    namespace: Dict[str, object] = {}
    exec(compile("\n".join(lines), "<repro.isa.machine>", "exec"), namespace)
    return {op: namespace[f"_{op}"] for op, spec in BASE_ISA.items()
            if spec.kind in ("alu", "branch")}


_HANDLERS = _build_handlers()

# Decoded-entry kinds, in the order the interpreter tests them: the
# straight-line ops first, then the ones that close a run (from _BRANCH
# on).
(_ALU, _LW, _SW, _LB, _SB, _BRANCH, _CUSTOM, _J, _JAL, _JR,
 _HALT) = range(11)

#: (kind, size) of a memory op -> decoded kind
_MEM_KINDS = {("load", 4): _LW, ("load", 1): _LB,
              ("store", 4): _SW, ("store", 1): _SB}
_CONTROL_KINDS = {"j": _J, "jal": _JAL, "halt": _HALT}

#: One decoded instruction: ``(kind, handler, d, x, y)``.  Static
#: cycle costs live in the program's :class:`Runs` table.
Decoded = Tuple[int, object, object, object, object]


def _decode(instr: Instruction) -> Decoded:
    """Decode one instruction for the interpreter.

    - ALU: ``handler(r, d, x, y)`` with destination ``d`` and sources
      ``x``/``y`` (``y`` None for two-operand ops);
    - branch: ``handler(r, x, y)``, taken target in ``d``;
    - lw/lb/sw/sb: data register ``d``, base register ``x``, offset
      ``y``;
    - j/jal: target in ``d``; jr: target register in ``x``; halt;
    - anything else is a custom op: its name in ``handler`` and its
      operands in ``x``, resolved against the machine's extensions when
      it executes (an op no extension defines faults there).
    """
    op = instr.op
    a = instr.args
    spec = BASE_ISA.get(op)
    if spec is None:
        return (_CUSTOM, op, None, a, None)
    if spec.kind == "alu":
        return (_ALU, _HANDLERS[op], a[0], a[1], a[2] if len(a) > 2 else None)
    if spec.kind == "branch":
        return (_BRANCH, _HANDLERS[op], a[2], a[0], a[1])
    if spec.size:
        off, base = a[1]
        return (_MEM_KINDS[spec.kind, spec.size], None, a[0], base, off)
    if op == "jr":
        return (_JR, None, None, a[0], None)
    return (_CONTROL_KINDS[op], None, a[0] if a else None, None, None)


#: Program -> (decoded table, opcode name per pc).  Weak, like the
#: compiled backend's cache, so a dropped program frees its table.
_decoded: "weakref.WeakKeyDictionary[Program, tuple]" = \
    weakref.WeakKeyDictionary()


def decoded_for(program: Program) -> Tuple[List[Decoded], List[str]]:
    """The (cached) interpreter table of ``program``: one decoded entry
    and one opcode name per pc.  It depends on the program alone, so
    machines with different extension sets share it."""
    entry = _decoded.get(program)
    if entry is None:
        code = program.instructions
        entry = _decoded[program] = ([_decode(instr) for instr in code],
                                     [instr.op for instr in code])
    return entry


class Runs(NamedTuple):
    """The straight-line runs of one program, per pc.

    A run is the instructions from a pc up to and including the next
    branch, ``j``, ``jal``, ``jr``, ``halt`` or custom op, or up to the
    end of the program.  Custom ops close a run because their cost is
    dynamic: they count 0 here, so the table depends on the program
    alone."""

    #: instructions in the run starting at each pc
    lengths: List[int]
    #: static cycles of the run starting at each pc
    costs: List[int]
    #: pc of the instruction closing the run starting at each pc, or
    #: the sentinel (the program's length) for a run that falls off its
    #: end
    stops: List[int]
    #: ``prefix[i]``: static cycles of instructions ``0 .. i - 1``
    #: (one entry longer than the program)
    prefix: List[int]


_runs: "weakref.WeakKeyDictionary[Program, Runs]" = \
    weakref.WeakKeyDictionary()


def runs_for(program: Program) -> Runs:
    """The (cached, weak like :func:`decoded_for`) run table of
    ``program``."""
    runs = _runs.get(program)
    if runs is None:
        table, op_names = decoded_for(program)
        sentinel = len(table)
        prefix = [0]
        for op in op_names:
            spec = BASE_ISA.get(op)
            prefix.append(prefix[-1] + (spec.cost if spec else 0))
        stops = [sentinel] * sentinel
        stop = sentinel
        for pc in range(sentinel - 1, -1, -1):
            if table[pc][0] >= _BRANCH:
                stop = pc
            stops[pc] = stop
        ends = [min(last + 1, sentinel) for last in stops]
        runs = _runs[program] = Runs(
            [end - pc for pc, end in enumerate(ends)],
            [prefix[end] - prefix[pc] for pc, end in enumerate(ends)],
            stops, prefix)
    return runs


#: The word view reads ``mem`` as native unsigned 32-bit ints, which
#: are the architecture's little-endian words only on a little-endian
#: host whose ``I`` is 4 bytes.
_NATIVE_WORDS = sys.byteorder == "little" and struct.calcsize("I") == 4

#: ``(words, limit)`` of a machine outside a run: no view, and an empty
#: fast-path range, so every word access takes the fallback.
NO_WORD_VIEW: Tuple[Optional[memoryview], int] = (None, 0)


def word_view(mem: bytearray) -> Tuple[Optional[memoryview], int]:
    """A 32-bit view of ``mem`` and the byte limit of its fast path:
    ``(words, len(mem))``, where ``words[addr >> 2]`` is the
    little-endian word at any aligned ``0 <= addr < len(mem)``.  On a
    big-endian host or a ``mem`` whose size is not a multiple of 4 it
    is :data:`NO_WORD_VIEW`.  The caller releases the view: while it is
    open, ``mem`` cannot be resized."""
    if not _NATIVE_WORDS or len(mem) & 3:
        return NO_WORD_VIEW
    return memoryview(mem).cast("I"), len(mem)


#: Environment variable selecting the default execution backend.
ISS_BACKEND_ENV = "REPRO_ISS_BACKEND"

_BACKENDS = ("interp", "compiled")

#: per-thread backend_scope() state, like repro.mp.hooks' tracer
_scope = threading.local()


def resolve_backend(name: Optional[str] = None) -> str:
    """Resolve a backend name: explicit argument, then this thread's
    active :func:`backend_scope`, then ``$REPRO_ISS_BACKEND``, then
    ``interp``."""
    if name is None:
        name = getattr(_scope, "backend", None)
    if name is None:
        name = os.environ.get(ISS_BACKEND_ENV, "") or "interp"
    if name not in _BACKENDS:
        raise MachineError(
            f"unknown ISS backend {name!r} (expected one of "
            f"{', '.join(_BACKENDS)})")
    return name


@contextmanager
def backend_scope(name: Optional[str]) -> Iterator[str]:
    """Temporarily make ``name`` the default backend for machines
    constructed on the calling thread.

    The scope is per thread: worker threads (a
    :class:`repro.parallel.ThreadExecutor`'s, say) do not inherit it
    and resolve through ``$REPRO_ISS_BACKEND`` instead; a machine
    built there that needs a backend names it with ``backend=``."""
    resolved = resolve_backend(name)
    previous = getattr(_scope, "backend", None)
    _scope.backend = resolved
    try:
        yield resolved
    finally:
        _scope.backend = previous


@dataclass
class Profile:
    """Cycle-accurate execution profile."""

    total_cycles: int = 0
    instructions: int = 0
    #: cycles spent in computations local to each function (no callees)
    local_cycles: Dict[str, int] = field(default_factory=dict)
    #: cycles including callees, summed over all invocations
    inclusive_cycles: Dict[str, int] = field(default_factory=dict)
    #: (caller, callee) -> number of calls
    call_edges: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: function -> number of invocations
    call_counts: Dict[str, int] = field(default_factory=dict)

    def callees(self, func: str) -> Dict[str, int]:
        """callee -> call count for one caller."""
        return {callee: n for (caller, callee), n in self.call_edges.items()
                if caller == func}


class Machine:
    """An XT32 core: base ISA plus an optional extension set."""

    ENTRY_FUNC = "<entry>"

    def __init__(self, program: Program,
                 extensions: Optional[ExtensionSet] = None,
                 mem_size: int = 1 << 20,
                 dcache=None,
                 backend: Optional[str] = None):
        """``dcache``: an optional :class:`repro.isa.cache.CacheConfig`;
        when set, scalar loads/stores pay miss penalties.  Custom
        instructions model dedicated wide memory ports and bypass it.

        ``backend``: ``"interp"`` or ``"compiled"``; ``None`` resolves
        through :func:`backend_scope` / ``$REPRO_ISS_BACKEND``.
        """
        self.program = program
        self.extensions = extensions or ExtensionSet()
        self.backend = resolve_backend(backend)
        self._mem_size = mem_size
        self._dcache_cfg = dcache
        # Profiling labels: the first label at each function entry pc.
        self._func_at: Dict[int, str] = {}
        for label, index in program.labels.items():
            self._func_at.setdefault(index, label)
        #: the compiled backend's (words, limit) memory view, open only
        #: during a run
        self._words = NO_WORD_VIEW
        self.reset()

    def reset(self) -> None:
        """Return the machine to its just-constructed architectural state
        (same program, extensions, memory size, and backend) so it can be
        reused across independent runs."""
        self.mem = bytearray(self._mem_size)
        if self._dcache_cfg is not None:
            from repro.isa.cache import DataCache
            self.dcache = DataCache(self._dcache_cfg)
        else:
            self.dcache = None
        #: opcode -> executed count (for the energy model / statistics)
        self.opcode_counts: Dict[str, int] = {}
        self.regs: List[int] = [0] * 16
        self.user_regs: Dict[str, int] = {}   # wide TIE state registers
        self.pc = 0
        self.cycles = 0
        self.instret = 0
        self._alloc_ptr = 0x1000              # bump allocator for harness data
        self.profile = Profile()
        self._frames: List[Tuple[str, int]] = []  # (func, cycles at entry)
        self._cmark = 0      # cycles already attributed to the top frame
        self._halted = False
        self._halt_pc = 0
        self._block_fault = None

    # -- memory helpers ---------------------------------------------------

    def alloc(self, nbytes: int, align: int = 4) -> int:
        """Bump-allocate scratch memory for harness inputs/outputs."""
        self._alloc_ptr = (self._alloc_ptr + align - 1) & ~(align - 1)
        addr = self._alloc_ptr
        self._alloc_ptr += nbytes
        if self._alloc_ptr > len(self.mem):
            raise MachineError("machine memory exhausted")
        return addr

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or addr + size > len(self.mem):
            raise MachineError(f"memory access out of range: {addr:#x}+{size}")

    def read_word(self, addr: int) -> int:
        self._check(addr, 4)
        return int.from_bytes(self.mem[addr: addr + 4], "little")

    def write_word(self, addr: int, value: int) -> None:
        self._check(addr, 4)
        self.mem[addr: addr + 4] = (value & WORD_MASK).to_bytes(4, "little")

    def read_byte(self, addr: int) -> int:
        self._check(addr, 1)
        return self.mem[addr]

    def write_byte(self, addr: int, value: int) -> None:
        self._check(addr, 1)
        self.mem[addr] = value & 0xFF

    def write_words(self, addr: int, words: Sequence[int]) -> None:
        """Store a little-endian word vector with one bounds check and
        one bytes conversion (not one per word)."""
        count = len(words)
        if count <= 0:
            return
        self._check(addr, 4 * count)
        value = 0
        shift = 0
        for w in words:
            value |= (w & WORD_MASK) << shift
            shift += 32
        self.mem[addr: addr + 4 * count] = value.to_bytes(4 * count, "little")

    def read_words(self, addr: int, count: int) -> List[int]:
        """Load a word vector with one bounds check and one bytes
        conversion (not one per word)."""
        if count <= 0:
            return []
        self._check(addr, 4 * count)
        value = int.from_bytes(self.mem[addr: addr + 4 * count], "little")
        return [(value >> (32 * i)) & WORD_MASK for i in range(count)]

    def write_bytes(self, addr: int, data: bytes) -> None:
        self._check(addr, len(data))
        self.mem[addr: addr + len(data)] = data

    def read_bytes(self, addr: int, count: int) -> bytes:
        self._check(addr, count)
        return bytes(self.mem[addr: addr + count])

    # -- profiling helpers ---------------------------------------------------

    def _flush_frame_cycles(self) -> None:
        """Attribute cycles accumulated since the last flush point to the
        current top frame.  Both backends batch per-instruction charges
        this way: the sums flushed at call/return/exit boundaries equal
        per-step attribution because the top frame is constant between
        boundaries."""
        cycles = self.cycles
        delta = cycles - self._cmark
        if delta and self._frames:
            func = self._frames[-1][0]
            prof = self.profile
            prof.local_cycles[func] = prof.local_cycles.get(func, 0) + delta
        self._cmark = cycles

    def _push_frame(self, callee: str) -> None:
        caller = self._frames[-1][0] if self._frames else self.ENTRY_FUNC
        prof = self.profile
        prof.call_edges[(caller, callee)] = \
            prof.call_edges.get((caller, callee), 0) + 1
        prof.call_counts[callee] = prof.call_counts.get(callee, 0) + 1
        self._frames.append((callee, self.cycles))

    def _enter(self, target_pc: int) -> None:
        self._push_frame(self._func_at.get(target_pc, f"func@{target_pc}"))

    def _leave(self) -> None:
        if len(self._frames) <= 1:
            return  # never pop the entry frame
        func, entry_cycles = self._frames.pop()
        prof = self.profile
        prof.inclusive_cycles[func] = \
            prof.inclusive_cycles.get(func, 0) + (self.cycles - entry_cycles)

    def _compiled_call(self, callee: str) -> None:
        """jal hook for the compiled backend (cycles already charged)."""
        self._flush_frame_cycles()
        self._push_frame(callee)

    def _compiled_ret(self) -> None:
        """jr hook for the compiled backend (cycles already charged)."""
        self._flush_frame_cycles()
        self._leave()

    # -- observability -----------------------------------------------------

    def instruction_mix(self) -> Dict[str, int]:
        """Executed-opcode histogram (sorted by opcode name)."""
        return dict(sorted(self.opcode_counts.items()))

    def publish_metrics(self, registry=None, run: str = "") -> None:
        """Opt-in: publish this machine's instruction-mix profile to a
        :class:`repro.obs.MetricsRegistry` (the global one by default).

        Deliberately not called from :meth:`run` -- the ISS inner loop
        stays observability-free; callers that want the profile ask
        for it after execution.
        """
        from repro.obs import get_registry
        registry = registry if registry is not None else get_registry()
        extra = {"run": run} if run else {}
        for op, count in self.instruction_mix().items():
            kind = ("custom" if self.extensions.get(op) is not None
                    else "base")
            registry.counter("iss.instruction_mix", opcode=op,
                             kind=kind, **extra).inc(count)
        registry.counter("iss.instructions", **extra).inc(self.instret)
        registry.counter("iss.cycles", **extra).inc(self.cycles)

    # -- execution ---------------------------------------------------------

    def _prepare_run(self, entry: str, args: Sequence[int]) -> Tuple[int, int]:
        """Shared run prologue: argument registers, stack/link setup,
        the entry profile frame.  Returns ``(entry_pc, sentinel)``."""
        program = self.program
        sentinel = len(program.instructions)  # "return to exit"
        self.pc = program.entry(entry)
        if len(args) > 6:
            raise MachineError("at most 6 register arguments supported")
        self.regs[ZERO_REG] = 0
        for i, value in enumerate(args):
            self.regs[1 + i] = value & WORD_MASK
        if self.regs[SP_REG] == 0:
            self.regs[SP_REG] = len(self.mem) - 16
        self.regs[LINK_REG] = sentinel
        self._frames = [(self.ENTRY_FUNC, self.cycles)]
        self._enter(self.pc)
        return self.pc, sentinel

    def _end_run(self, pc: int, executed: int, retired_all: bool,
                 counts: List[int], op_names: Sequence[str]) -> None:
        """Shared run epilogue on every path, fault included: attribute
        the cycles, merge the per-pc counts, and add this run's retired
        instructions to ``instret``, which accumulates like ``cycles``.
        A return or a pc fault retires all ``executed`` instructions; a
        halt, a faulting instruction or the one over the budget does
        not retire itself."""
        self._flush_frame_cycles()
        oc = self.opcode_counts
        for i, c in enumerate(counts):
            if c:
                op = op_names[i]
                oc[op] = oc.get(op, 0) + c
        self.pc = pc
        self.instret += executed if retired_all else max(executed - 1, 0)

    def _finish_run(self, executed: int) -> int:
        """Shared run epilogue on the success path (halt or return)."""
        while len(self._frames) > 1:
            self._leave()
        self.profile.total_cycles = self.cycles
        self.profile.instructions = executed
        return self.regs[1]

    def run(self, entry: str, args: Sequence[int] = (),
            max_instructions: int = 200_000_000) -> int:
        """Call ``entry`` with ``args`` in r1..; returns r1 at exit.

        Execution stops at ``halt`` or when the entry function returns
        (jr to the sentinel return address).  Executing more than
        ``max_instructions`` raises :class:`MachineError` at the first
        instruction over it, so a budget <= 0 faults at the first
        instruction; that instruction is counted in ``opcode_counts``
        but neither charged nor retired.  Dispatches to the
        interpreter or the compiled backend per ``self.backend``;
        both produce bit-identical architectural and profile state.
        """
        if self.backend == "compiled":
            return self._run_compiled(entry, args, max_instructions)
        return self._run_interp(entry, args, max_instructions)

    def _run_compiled(self, entry: str, args: Sequence[int],
                      max_instructions: int) -> int:
        from repro.isa.compile import compiled_for
        ext = self.extensions
        compiled = compiled_for(self.program,
                                ext if len(ext) else None)
        steps = compiled.steps
        blocks = compiled.blocks
        sentinel = compiled.sentinel
        pc, _ = self._prepare_run(entry, args)
        self._cmark = self.cycles
        self._halted = False
        self._block_fault = None
        counts = [0] * sentinel
        bcounts = [0] * len(compiled.block_hists)
        executed = 0
        completed = False
        top_fault = False
        self._words = word_view(self.mem)
        try:
            # A negative pc (a custom instruction can leave one in a jr
            # register) would index the tables from the end.
            while 0 <= pc != sentinel:
                blk = blocks[pc]
                if blk is not None:
                    fn, length, bid = blk
                    after = executed + length
                    # Near the instruction budget, fall through to
                    # single steps so the budget trap fires at exactly
                    # the same instruction as the interpreter.
                    if after <= max_instructions:
                        executed = after
                        pc = fn(self)
                        bcounts[bid] += 1
                        continue
                counts[pc] += 1
                executed += 1
                if executed > max_instructions:
                    raise MachineError(
                        "instruction budget exceeded (runaway program?)")
                pc = (steps[pc] or compiled.step(pc))(self)
            if pc < 0:
                top_fault = True
                raise MachineError(f"pc out of range: {pc}")
            completed = not self._halted
        except IndexError:
            if 0 <= pc < sentinel:
                raise  # raised from inside a step, not by the dispatch
            top_fault = True
            raise MachineError(f"pc out of range: {pc}") from None
        finally:
            words = self._words[0]
            if words is not None:
                words.release()
            self._words = NO_WORD_VIEW
            fault = self._block_fault
            if fault is not None:
                # A fused block trapped at sub-instruction `sub`: undo
                # the pre-charged instruction count for the unexecuted
                # tail and attribute per-pc counts for the partial run.
                start, length, sub = fault
                executed -= length - (sub + 1)
                for i in range(sub + 1):
                    counts[start + i] += 1
                pc = start + sub     # the faulting instruction
                self._block_fault = None
            self._end_run(self._halt_pc if self._halted else pc, executed,
                          completed or top_fault, counts, compiled.op_names)
            oc = self.opcode_counts
            hists = compiled.block_hists
            for bid, c in enumerate(bcounts):
                if c:
                    for op, mult in hists[bid]:
                        oc[op] = oc.get(op, 0) + c * mult
        return self._finish_run(executed)

    def _run_interp(self, entry: str, args: Sequence[int],
                    max_instructions: int) -> int:
        """The reference loop: one step per instruction, bookkeeping
        once per straight-line run (:func:`runs_for`).

        Entering a run that fits the budget charges all of it up front:
        its length to ``executed``, its static cycles to ``cycles`` and
        one entry to ``entries[start]``, expanded into per-pc counts at
        exit.  The inner loop then steps the run's ALU and memory ops
        up to its closing instruction with no per-step budget test or
        count, adding only dcache penalties; the closing instruction
        adds only a taken-branch penalty or a custom op's cost.  A run
        the budget ends early stops at the instruction that trips it
        (the run's first one for a budget <= 0).  A fault or the budget
        trap inside a run un-charges the run's tail, so the faulting
        instruction is counted but neither charged nor retired."""
        table, op_names = decoded_for(self.program)
        lengths, costs, stops, prefix = runs_for(self.program)
        pc, sentinel = self._prepare_run(entry, args)
        self._cmark = self.cycles

        regs = self.regs
        mem = self.mem
        ext = self.extensions
        dcache = self.dcache
        penalty = BRANCH_TAKEN_PENALTY
        from_bytes = int.from_bytes
        executed = 0
        cycles = self.cycles
        #: runs entered whole, per start pc; expanded into ``counts`` at
        #: exit, which a run cut short adds to directly
        entries = [0] * sentinel
        #: per-pc execution counts, merged into opcode_counts at exit
        counts = [0] * sentinel
        # The pre-charged run: [start, start + n); whole unless the
        # budget ends it.
        start = n = 0
        whole = True
        completed = False
        halted = False
        words, limit = word_view(mem)

        # pc stays in [0, sentinel) on the straight line; only a control
        # transfer tests its target, after the instruction is charged.
        # r0 (ZERO_REG) is re-zeroed only after an op that can write it.
        try:
            while pc != sentinel:
                start = pc
                n = lengths[pc]
                if executed + n <= max_instructions:
                    executed += n
                    cycles += costs[pc]
                    entries[pc] += 1
                    stop = stops[pc]
                else:
                    # Charge up to the instruction over the budget.
                    whole = False
                    n = max(max_instructions - executed, 0)
                    stop = pc + n
                    executed += n
                    cycles += prefix[stop] - prefix[pc]

                while pc != stop:
                    kind, fn, d, x, y = table[pc]
                    if kind == _ALU:
                        fn(regs, d, x, y)
                        if not d:
                            regs[0] = 0
                    elif kind == _LW:
                        addr = regs[x] + y
                        if not addr & 3 and 0 <= addr < limit:
                            regs[d] = words[addr >> 2]
                        elif addr < 0 or addr + 4 > len(mem):
                            raise MachineError(
                                f"memory access out of range: {addr:#x}+4")
                        else:
                            regs[d] = from_bytes(mem[addr:addr + 4], "little")
                        if not d:
                            regs[0] = 0
                        if dcache is not None:
                            cycles += dcache.access(addr)
                    elif kind == _SW:
                        addr = regs[x] + y
                        if not addr & 3 and 0 <= addr < limit:
                            words[addr >> 2] = regs[d] & WORD_MASK
                        elif addr < 0 or addr + 4 > len(mem):
                            raise MachineError(
                                f"memory access out of range: {addr:#x}+4")
                        else:
                            mem[addr:addr + 4] = \
                                (regs[d] & WORD_MASK).to_bytes(4, "little")
                        if dcache is not None:
                            cycles += dcache.access(addr)
                    else:  # lb / sb
                        addr = regs[x] + y
                        if addr < 0 or addr + 1 > len(mem):
                            raise MachineError(
                                f"memory access out of range: {addr:#x}+1")
                        if kind == _LB:
                            regs[d] = mem[addr]
                            if not d:
                                regs[0] = 0
                        else:
                            mem[addr] = regs[d] & 0xFF
                        if dcache is not None:
                            cycles += dcache.access(addr)
                    pc += 1

                if not whole:
                    raise MachineError(
                        "instruction budget exceeded (runaway program?)")
                if pc == sentinel:
                    break
                # The closing instruction, its static cost already paid.
                kind, fn, d, x, y = table[pc]
                if kind == _BRANCH:
                    if fn(regs, x, y):
                        pc = d
                        cycles += penalty
                        if not 0 <= pc <= sentinel:
                            raise MachineError(f"pc out of range: {pc}")
                    else:
                        pc += 1
                elif kind == _CUSTOM:
                    custom = ext.get(fn)
                    if custom is None:
                        raise MachineError(
                            f"unknown opcode {fn!r} at pc={pc}")
                    self.cycles = cycles
                    custom.semantics(self, x)
                    cost = custom.cycle_cost(self, x)
                    cycles = self.cycles + cost
                    regs[0] = 0
                    pc += 1
                elif kind == _J:
                    pc = d
                    if not 0 <= pc <= sentinel:
                        raise MachineError(f"pc out of range: {pc}")
                elif kind == _HALT:
                    halted = True
                    break
                else:
                    # jal / jr: enter or leave a profile frame
                    self.cycles = cycles
                    self._flush_frame_cycles()
                    if kind == _JAL:
                        regs[LINK_REG] = pc + 1
                        pc = d
                        self._enter(pc)
                    else:
                        pc = regs[x]
                        self._leave()
                    if not 0 <= pc <= sentinel:
                        raise MachineError(f"pc out of range: {pc}")
            completed = not halted
        finally:
            if words is not None:
                words.release()
            if not (completed or halted) and start <= pc <= start + n:
                # Trapped inside the run: count it per pc through pc,
                # and un-charge the instructions after pc and pc itself
                # (pc is past the charged ones on a budget trap).
                if whole:
                    entries[start] -= 1
                for i in range(start, pc + 1):
                    counts[i] += 1
                executed -= start + n - pc - 1
                cycles -= prefix[start + n] - prefix[pc]
            for first in compress(range(sentinel), entries):
                entered = entries[first]
                for i in range(first, first + lengths[first]):
                    counts[i] += entered
            self.cycles = cycles
            # A pc fault retires the transfer that left the program.
            self._end_run(pc, executed,
                          completed or not 0 <= pc <= sentinel, counts,
                          op_names)
        return self._finish_run(executed)
