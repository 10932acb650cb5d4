"""Performance characterization and macro-modeling (paper Section 3.2).

The methodology's key enabler: instead of simulating whole algorithms
on the cycle-accurate ISS (hours per candidate), each library *leaf
routine* is characterized once -- exercised on the ISS over pseudo-
random stimuli, with a statistical regression fitting its cycle count
as a function of its input-size parameters.  Algorithm candidates are
then executed natively with the macro-models charging estimated cycles
per leaf call, orders of magnitude faster than ISS runs.

- :mod:`repro.macromodel.regression`   -- least-squares model forms and
  selection (the S-Plus substitute); numpy loads on the first fit or
  prediction.
- :mod:`repro.macromodel.model`        -- fitted :class:`MacroModel`
  objects and per-platform :class:`MacroModelSet` collections.
- :mod:`repro.macromodel.characterize` -- the ISS stimulus harness.
- :mod:`repro.macromodel.estimator`    -- the native-execution cycle
  estimator (a tracer charging macro-model estimates per leaf call).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.macromodel.model": ("MacroModel", "MacroModelSet"),
    "repro.macromodel.estimator": ("CycleEstimate", "estimate_cycles"),
    "repro.macromodel.characterize": ("characterize_platform",),
})

__all__ = ["MacroModel", "MacroModelSet", "CycleEstimate", "estimate_cycles",
           "characterize_platform"]
