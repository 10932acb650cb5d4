"""Joint hardware/software co-design exploration (paper Section 3.1).

The outer loop of the methodology: "Inadequacies in performance are
addressed through further refinements to the HW or SW parts by
iterating the steps ... with either relaxed area constraints,
additional candidate algorithms, or additional custom instruction
candidates."

:class:`CodesignExplorer` sweeps hardware configurations (custom
instruction widths, each with a characterized macro-model set and an
area cost) jointly with a slice of the algorithm space, and selects the
best (hardware, algorithm) pair under an area budget -- the true
co-design optimum, which is *not* in general the best algorithm on the
best hardware evaluated independently.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.crypto.modexp import ModExpConfig
from repro.explore.explorer import AlgorithmExplorer, RsaDecryptWorkload
from repro.isa.custom import mp_datapath_gates
from repro.macromodel import MacroModelSet


@dataclass(frozen=True)
class HardwareConfig:
    """One candidate processor configuration for the mp datapath."""

    add_width: int
    mac_width: int

    @property
    def is_base(self) -> bool:
        return self.add_width == 0 and self.mac_width == 0

    @property
    def area(self) -> float:
        """Gate-equivalent overhead of this configuration's instructions."""
        return mp_datapath_gates(self.add_width, self.mac_width)

    def label(self) -> str:
        if self.is_base:
            return "base"
        return f"add{self.add_width}/mac{self.mac_width}"


#: The default hardware sweep: the base core plus widening datapaths.
DEFAULT_HW_SWEEP = (
    HardwareConfig(0, 0),
    HardwareConfig(2, 1),
    HardwareConfig(4, 2),
    HardwareConfig(8, 4),
    HardwareConfig(8, 8),
)

#: A representative software slice: the exploration winners plus the
#: reference point, so HW/SW interaction is visible without the full
#: 450-point sweep per hardware candidate.
DEFAULT_SW_SLICE = (
    ModExpConfig(modmul="schoolbook", window=1, crt="none",
                 caching="none"),
    ModExpConfig(modmul="barrett", window=4, crt="garner"),
    ModExpConfig(modmul="montgomery", window=4, crt="garner"),
    ModExpConfig(modmul="montgomery", window=5, crt="garner",
                 caching="constants"),
)


@dataclass
class CodesignPoint:
    """One (hardware, algorithm) pair with its cost metrics."""

    hardware: HardwareConfig
    software: ModExpConfig
    estimated_cycles: float
    area: float

    def label(self) -> str:
        return f"{self.hardware.label()} + {self.software.label()}"


class CodesignExplorer:
    """Sweeps (HW config x SW config) and selects under an area budget."""

    def __init__(self, workload: Optional[RsaDecryptWorkload] = None,
                 models_by_hw: Optional[Dict[HardwareConfig,
                                             MacroModelSet]] = None):
        self.workload = workload or RsaDecryptWorkload.bits512()
        self._models_by_hw = dict(models_by_hw or {})

    def models_for(self, hw: HardwareConfig) -> MacroModelSet:
        """Characterized models for ``hw``, via the shared cache (one
        characterization per configuration, ever)."""
        if hw not in self._models_by_hw:
            from repro.costs.cache import characterize_cached
            self._models_by_hw[hw] = characterize_cached(
                hw.add_width, hw.mac_width)
        return self._models_by_hw[hw]

    def sweep(self, hw_configs: Sequence[HardwareConfig] = DEFAULT_HW_SWEEP,
              sw_configs: Sequence[ModExpConfig] = DEFAULT_SW_SLICE
              ) -> List[CodesignPoint]:
        """Evaluate the full product; returns points sorted by cycles."""
        points = []
        for hw in hw_configs:
            explorer = AlgorithmExplorer(self.models_for(hw), self.workload)
            for sw in sw_configs:
                result = explorer.evaluate(sw)
                if not result.correct:  # pragma: no cover - safety net
                    continue
                points.append(CodesignPoint(
                    hardware=hw, software=sw,
                    estimated_cycles=result.estimated_cycles,
                    area=hw.area))
        points.sort(key=lambda p: p.estimated_cycles)
        return points

    @staticmethod
    def select(points: Sequence[CodesignPoint],
               area_budget: float) -> CodesignPoint:
        """Fastest joint configuration within the area budget."""
        feasible = [p for p in points if p.area <= area_budget]
        if not feasible:
            raise ValueError(f"no configuration fits area {area_budget}")
        return min(feasible, key=lambda p: (p.estimated_cycles, p.area))

    @staticmethod
    def pareto(points: Sequence[CodesignPoint]) -> List[CodesignPoint]:
        """Area-cycles Pareto frontier of the joint space."""
        frontier = []
        for candidate in sorted(points, key=lambda p: (p.area,
                                                       p.estimated_cycles)):
            if all(candidate.estimated_cycles < kept.estimated_cycles
                   or candidate.area < kept.area for kept in frontier):
                if not any(kept.area <= candidate.area
                           and kept.estimated_cycles
                           <= candidate.estimated_cycles
                           for kept in frontier):
                    frontier.append(candidate)
        return frontier
