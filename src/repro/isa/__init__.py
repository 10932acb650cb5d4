"""XT32: a configurable, extensible 32-bit embedded processor model.

This package substitutes for the Tensilica Xtensa T1040 toolchain the
paper used (processor + cycle-accurate instruction-set simulator + TIE
custom-instruction compiler):

- :mod:`repro.isa.instructions` -- the base RISC ISA and its
  per-instruction cycle costs.
- :mod:`repro.isa.assembler`    -- a two-pass textual assembler.
- :mod:`repro.isa.machine`      -- the instruction-set simulator with
  cycle accounting and a function-level profiler (call graph + local
  cycles, feeding the paper's Figure 4 style profiles).
- :mod:`repro.isa.extensions`   -- TIE-like custom instruction
  definitions: designer-specified semantics, latency, and hardware
  resource usage (adders, multipliers, LUT bits) from which area is
  derived.
- :mod:`repro.isa.area`         -- a gate-equivalent area model
  standing in for Synopsys DC + the NEC CB-11 0.18um cell library.
- :mod:`repro.isa.kernels`      -- XT32 assembly implementations of the
  library leaf routines, in base-ISA and extended-ISA variants.

The simulator is cycle-approximate, not Xtensa-faithful; the
reproduction targets the *shape* of the paper's speedups, which the
co-design methodology produces on any extensible core.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.isa.assembler": ("AssemblyError", "assemble"),
    "repro.isa.extensions": ("CustomInstruction", "ExtensionSet"),
    "repro.isa.machine": ("Machine", "MachineError", "Profile"),
})

__all__ = ["assemble", "AssemblyError", "CustomInstruction", "ExtensionSet",
           "Machine", "MachineError", "Profile"]
