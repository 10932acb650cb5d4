"""Algorithm design-space exploration (paper Sections 3.2 and 4.3).

Exhaustively evaluates the 450-candidate modular exponentiation space
(:mod:`repro.crypto.modexp`) using macro-model-based native estimation,
which the paper shows is orders of magnitude cheaper than evaluating
candidates on the instruction-set simulator.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.explore.cache": ("ExplorationStore", "exploration_digest"),
    "repro.explore.explorer": ("AlgorithmExplorer", "ExplorationResult",
                               "ExplorationRun", "RsaDecryptWorkload"),
})

__all__ = ["AlgorithmExplorer", "ExplorationResult", "ExplorationRun",
           "ExplorationStore", "RsaDecryptWorkload", "exploration_digest"]
