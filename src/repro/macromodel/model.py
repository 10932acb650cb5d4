"""Fitted performance macro-models.

A :class:`MacroModel` answers "how many cycles does one invocation of
leaf routine X with size parameter n cost on platform P?".  A
:class:`MacroModelSet` holds one model per leaf routine for a given
platform configuration (base ISA, or a particular extended ISA).
"""

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.macromodel.regression import FitResult

#: Limb counts used as the characterization domain (bounded superset of
#: what 1024-bit public-key traffic touches, per the paper).
DEFAULT_SIZES = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)

#: The characterization harness's default stimulus seed.
DEFAULT_SEED = 0xC0FFEE


@dataclass
class MacroModel:
    """Cycle-count model for one library leaf routine."""

    routine: str
    fit: FitResult
    samples: List[Tuple[float, float]] = field(default_factory=list)

    def predict(self, n: float = 1.0) -> float:
        """Estimated cycles for one invocation with size parameter n.

        May be negative for *residual* models (e.g. ``mont_redc``): the
        overhead model corrects the leaf-sum toward the ISS truth, and
        when the fused-row hardware beats the per-leaf models the
        correction is a credit.
        """
        return self.fit.predict(n)

    @property
    def form(self) -> str:
        return self.fit.form

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        terms = ", ".join(f"{c:.3g}" for c in self.fit.coeffs)
        return f"MacroModel({self.routine}: {self.fit.form}[{terms}])"


class MacroModelSet:
    """Per-platform collection of leaf-routine macro-models."""

    def __init__(self, platform: str, models: Optional[Dict[str, MacroModel]] = None):
        self.platform = platform
        self._models: Dict[str, MacroModel] = dict(models or {})

    def add(self, model: MacroModel) -> None:
        self._models[model.routine] = model

    def alias(self, new_routine: str, existing: str) -> None:
        """Register ``new_routine`` to share an existing routine's model
        (e.g. mpn_rshift costs the same as mpn_lshift)."""
        self._models[new_routine] = MacroModel(
            routine=new_routine, fit=self._models[existing].fit)

    def get(self, routine: str) -> Optional[MacroModel]:
        return self._models.get(routine)

    def __contains__(self, routine: str) -> bool:
        return routine in self._models

    def __iter__(self) -> Iterator[MacroModel]:
        return iter(self._models.values())

    def __len__(self) -> int:
        return len(self._models)

    def predict(self, routine: str, n: float = 1.0) -> float:
        model = self._models.get(routine)
        if model is None:
            raise KeyError(f"no macro-model for routine {routine!r} "
                           f"on platform {self.platform!r}")
        return model.predict(n)

    def routines(self) -> List[str]:
        return sorted(self._models)
