"""Activity-based energy model for the XT32.

The paper states its methodology yields "large improvements in
performance *as well as energy efficiency*" but defers the energy
discussion for space.  This module supplies the standard estimate the
claim rests on: per-instruction energy = fetch/decode overhead + a
datapath-class cost, with custom instructions paying for the activity
of the hardware resources they instantiate.

The mechanism behind the energy win is architectural, not magic: one
``desround`` replaces dozens of fetched/decoded RISC instructions, so
even though its datapath toggles more logic per cycle, the fetch/decode
energy (a large fraction of a simple core's power) collapses.
"""

from dataclasses import dataclass, field
from typing import Dict

from repro.isa.instructions import BASE_ISA
from repro.isa.machine import Machine

#: Energy in picojoules for one instruction's datapath activity
#: (representative 0.18um-class numbers; relative values matter).
CLASS_ENERGY_PJ: Dict[str, float] = {
    "alu": 8.0,
    "mul": 30.0,
    "load": 26.0,
    "store": 20.0,
    "branch": 10.0,
    "jump": 12.0,
    "halt": 2.0,
}

#: Fetch + decode + register-file access per *instruction* (not per
#: cycle) -- the overhead custom instructions amortize away.
FETCH_DECODE_PJ = 18.0

#: Activity energy per custom-instruction resource use.
RESOURCE_ENERGY_PJ: Dict[str, float] = {
    "adder32": 6.0,
    "adder16": 3.5,
    "mul32": 35.0,
    "mul16": 12.0,
    "xor32": 2.0,
    "mux32": 1.5,
    "perm64": 4.0,
    "perm32": 2.5,
    "lut_bit": 0.002,    # per bit of ROM read
    "reg_bit": 0.01,
    "gf_mult8": 3.0,
    "control": 4.0,
}


def _classify(op: str) -> str:
    """The op's datapath class: its ``BASE_ISA`` kind, with multiplies
    and halt split out of ``alu``/``control``."""
    if op in ("mul", "mulhu"):
        return "mul"
    kind = BASE_ISA[op].kind
    if kind == "control":
        return "halt" if op == "halt" else "jump"
    return kind


def custom_instruction_energy(instruction) -> float:
    """Per-execution energy of a custom instruction (pJ)."""
    activity = sum(RESOURCE_ENERGY_PJ.get(name, 2.0) * count
                   for name, count in instruction.resources.items())
    return FETCH_DECODE_PJ + activity


@dataclass
class EnergyEstimate:
    total_pj: float = 0.0
    by_class: Dict[str, float] = field(default_factory=dict)

    @property
    def total_nj(self) -> float:
        return self.total_pj / 1000.0


def estimate_energy(machine: Machine) -> EnergyEstimate:
    """Energy estimate for everything the machine has executed so far,
    from its opcode histogram."""
    estimate = EnergyEstimate()
    for op, count in machine.opcode_counts.items():
        if op in BASE_ISA:
            cls = _classify(op)
            per_instr = FETCH_DECODE_PJ + CLASS_ENERGY_PJ[cls]
        else:
            custom = machine.extensions.get(op)
            if custom is None:  # pragma: no cover - defensive
                continue
            cls = f"custom:{op}"
            per_instr = custom_instruction_energy(custom)
        energy = per_instr * count
        estimate.total_pj += energy
        estimate.by_class[cls] = estimate.by_class.get(cls, 0.0) + energy
    return estimate
