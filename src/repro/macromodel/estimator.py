"""Native-execution cycle estimation via macro-models.

The paper: "All library routines instantiated in the source code of an
algorithm can now be augmented with their respective performance models
to allow performance estimation through native code execution."

Here the augmentation is the tracing hook in :mod:`repro.mp.hooks`:
running any algorithm from the crypto library under
:func:`estimate_cycles` executes it natively (full functional fidelity)
while a tracer charges each traced leaf call its macro-model estimate.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Tuple

from repro.macromodel.model import MacroModelSet
from repro.mp.hooks import traced


@dataclass
class CycleEstimate:
    """Result of a macro-model estimation run."""

    platform: str
    cycles: float = 0.0
    #: routine -> (call count, cycles charged)
    breakdown: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    #: traced calls with no model on this platform (profiling markers
    #: such as mont_redc, or routines intentionally left unmodeled)
    unmodeled: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    result: object = None

    def calls(self, routine: str) -> int:
        return self.breakdown.get(routine, (0, 0.0))[0]


class CycleLedger:
    """The tracer: accumulates macro-model charges per traced leaf call."""

    def __init__(self, models: MacroModelSet):
        self.models = models
        self.estimate = CycleEstimate(platform=models.platform)

    def __call__(self, routine: str, params: dict) -> None:
        n = params.get("n", 1)
        model = self.models.get(routine)
        if model is None:
            self.estimate.unmodeled[routine] = \
                self.estimate.unmodeled.get(routine, 0) + 1
            return
        charge = model.predict(n)
        self.estimate.cycles += charge
        count, total = self.estimate.breakdown.get(routine, (0, 0.0))
        self.estimate.breakdown[routine] = (count + 1, total + charge)


@contextmanager
def ledger(models: MacroModelSet) -> Iterator[CycleLedger]:
    """Context manager installing a fresh ledger as the active tracer."""
    active = CycleLedger(models)
    with traced(active):
        yield active


def estimate_cycles(models: MacroModelSet, fn: Callable, *args,
                    **kwargs) -> CycleEstimate:
    """Run ``fn`` natively, charging macro-model cycles per leaf call.

    Returns the :class:`CycleEstimate`; ``fn``'s return value is in
    ``estimate.result``.
    """
    start = time.perf_counter()
    with ledger(models) as active:
        result = fn(*args, **kwargs)
    active.estimate.wall_seconds = time.perf_counter() - start
    active.estimate.result = result
    return active.estimate
