"""Unified cost estimation: one characterization, every consumer.

The paper's methodology hinges on a single characterization pass whose
macro-models replace the cycle-accurate ISS everywhere downstream
(~1407x faster at ~11.8% error).  This package is that idea as an
architectural layer:

- :mod:`repro.costs.model`    -- :class:`PlatformCosts`, the shared
  unit-cost vocabulary (RSA, ECDH, cipher/hash rates, per-protocol
  overheads) consumed by the SSL model, the throughput calculator,
  the farm, and the capacity planner;
- :mod:`repro.costs.backends` -- the :class:`CostBackend` protocol
  with :class:`MacroModelBackend` (fast, default) and
  :class:`IssBackend` (cycle-accurate ground truth), plus
  :func:`cross_validate` reporting their mean-abs-% disagreement;
- :mod:`repro.costs.cache`    -- the persistent characterization
  cache: content-keyed on the platform configuration, memoized
  in-process, optionally persisted as JSON (built on
  :mod:`repro.macromodel.persist`) so a warm store characterizes
  zero times.

Import :class:`PlatformCosts` and the per-protocol cost constants from
here; the SSL model consumes them but does not re-export them.  Names
resolve on first access, so the cost vocabulary alone never loads the
backends or the characterization harness.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.costs.model": (
        "CRC32_CYCLES_PER_BYTE", "ECDH_RSA_PUBLIC_EQUIV",
        "ESP_PACKET_FIXED_CYCLES", "KASUMI_CYCLES_PER_BYTE",
        "KASUMI_FRAME_FIXED_CYCLES", "PROTOCOL_CYCLES_PER_BYTE",
        "PROTOCOL_FIXED_CYCLES", "PlatformCosts", "RC4_CYCLES_PER_BYTE",
        "WEP_FRAME_FIXED_CYCLES"),
    "repro.costs.backends": (
        "CostBackend", "CrossValidation", "IssBackend",
        "MacroModelBackend", "MPN_LEAF_ROUTINES", "RoutineValidation",
        "cross_validate"),
    "repro.costs.cache": (
        "CacheStats", "CharacterizationCache", "CharacterizationKey",
        "characterize_cached", "configure_cache", "get_cache",
        "reset_cache"),
})

__all__ = [
    "CRC32_CYCLES_PER_BYTE", "CacheStats", "CharacterizationCache",
    "CharacterizationKey", "CostBackend", "CrossValidation",
    "ECDH_RSA_PUBLIC_EQUIV", "ESP_PACKET_FIXED_CYCLES", "IssBackend",
    "KASUMI_CYCLES_PER_BYTE", "KASUMI_FRAME_FIXED_CYCLES",
    "MPN_LEAF_ROUTINES", "MacroModelBackend", "PROTOCOL_CYCLES_PER_BYTE",
    "PROTOCOL_FIXED_CYCLES", "PlatformCosts", "RC4_CYCLES_PER_BYTE",
    "RoutineValidation", "WEP_FRAME_FIXED_CYCLES", "characterize_cached",
    "configure_cache", "cross_validate", "get_cache", "reset_cache",
]
