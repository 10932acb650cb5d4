"""Reproduction of "System Design Methodologies for a Wireless Security
Processing Platform" (Ravi, Raghunathan, Potlapally, Sankaradass --
DAC 2002).

The package implements the paper's entire system stack from scratch:

- :mod:`repro.mp`        -- multi-precision arithmetic (GMP substitute)
- :mod:`repro.crypto`    -- layered cryptographic library (DES, 3DES,
  AES, RC4, SHA-1, MD5, HMAC, RSA, ElGamal) with the 450-point modular
  exponentiation design space
- :mod:`repro.isa`       -- the XT32 configurable/extensible embedded
  processor: ISS, assembler, profiler, TIE-like custom instructions,
  area model, and assembly kernels (Xtensa substitute)
- :mod:`repro.macromodel`-- ISS characterization + regression macro-
  models + native cycle estimation
- :mod:`repro.explore`   -- exhaustive algorithm design-space exploration
- :mod:`repro.tie`       -- A-D curve formulation, call-graph
  propagation, and global custom-instruction selection
- :mod:`repro.ssl`       -- executed SSL handshake/record model and the
  Figure 8 transaction workload model
- :mod:`repro.gap`       -- the Figure 1 security-processing-gap model
- :mod:`repro.platform`  -- the platform facade tying HW and SW
  configurations together
- :mod:`repro.farm`      -- multi-core scale-out: traffic generation,
  discrete-event farm simulation, scheduling, and capacity planning

Importing :mod:`repro` loads none of these layers: the top-level names
below resolve on first access (see :mod:`repro._lazy`), and each
package loads only the layers its caller touches.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured comparison of every table and figure.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.platform": ("REFERENCE_CONFIG", "TUNED_CONFIG",
                       "SecurityPlatform"),
    "repro.crypto.api": ("SecurityApi",),
    "repro.crypto.modexp": ("ModExpConfig",),
})

__version__ = "1.0.0"

__all__ = ["SecurityPlatform", "SecurityApi", "ModExpConfig",
           "REFERENCE_CONFIG", "TUNED_CONFIG", "__version__"]
