"""XT32 assembly kernels for the library leaf routines.

Each kernel exists in a base-ISA variant and (where the formulation
phase produced custom instructions) an extended-ISA variant.  Host-side
runner helpers marshal Python values into simulator memory, execute the
kernel, and return results plus cycle counts; the test suite checks the
kernels bit-exact against the reference Python implementations, and the
characterization phase fits macro-models to their cycle counts.
"""

from repro.isa.assembler import assemble
from repro.isa.machine import Machine

# Base-ISA sources assemble to the same Program every time, so memoize
# them: reconstructing a kernel object (as the characterization jobs
# do per stimulus family) then shares one Program object, which is what
# lets the compiled backend's weak per-Program cache hit instead of
# re-predecoding.  Extended kernels pass an ExtensionSet whose contents
# callers may still grow, so those assemble fresh.
_BASE_PROGRAMS = {}


def _assemble_memo(source: str, extensions):
    if extensions is not None and len(extensions):
        return assemble(source, extensions)
    program = _BASE_PROGRAMS.get(source)
    if program is None:
        program = _BASE_PROGRAMS[source] = assemble(source, None)
    return program


class KernelRunner:
    """Assembles a kernel source once and spawns fresh machines per run."""

    def __init__(self, source: str, extensions=None, mem_size: int = 1 << 20):
        self.source = source
        self.extensions = extensions
        self.mem_size = mem_size
        self.program = _assemble_memo(source, extensions)

    def machine(self) -> Machine:
        return Machine(self.program, self.extensions, self.mem_size)
