"""Multi-precision arithmetic substrate (GNU GMP substitute).

The paper builds its public-key software layers on GNU GMP's ``mpn``
(limb-vector) and ``mpz`` (signed integer) layers.  This package is a
from-scratch reimplementation of the subset the security platform
needs, with the same structural split:

- :mod:`repro.mp.mpn` -- low-level primitives on vectors of limbs
  (``add_n``, ``sub_n``, ``mul_1``, ``addmul_1``, ...).  These are the
  *leaf routines* that the methodology characterizes, macro-models and
  accelerates with custom instructions.
- :mod:`repro.mp.mpz` -- sign-magnitude arbitrary-precision integers
  built on the mpn layer.
- :mod:`repro.mp.hooks` -- a tracing hook that reports every leaf
  routine invocation (name + size parameters) so the macro-modeling
  layer can estimate cycle counts during native execution.
- :mod:`repro.mp.prng` -- a small deterministic PRNG so every
  experiment in the repository is reproducible.
- :mod:`repro.mp.mpn_fast` -- flat (packed-bignum) implementations of
  the hottest mpn routines, value- and trace-identical to the
  reference loops.  ``$REPRO_MPN_BACKEND`` picks the process default;
  :func:`mpn_backend` overrides it for the calling thread.
"""

from contextlib import contextmanager
from typing import Iterator

from repro.mp import mpn
from repro.mp.limb import Radix, RADIX16, RADIX32
from repro.mp.mpn import MPN_BACKEND_ENV
from repro.mp.mpz import Mpz
from repro.mp.prng import DeterministicPrng


def active_backend() -> str:
    """This thread's mpn backend: its :func:`mpn_backend` scope, else
    the ``$REPRO_MPN_BACKEND`` process default (``reference``)."""
    return "fast" if mpn._backend.fast else "reference"


@contextmanager
def mpn_backend(name: str) -> Iterator[None]:
    """Run the calling thread on the named backend (``reference`` or
    ``fast``) inside the block.

    The scope is per thread: other threads keep their own backend, and
    worker threads start on the process default."""
    fast = mpn._is_fast(name)
    previous = mpn._backend.fast
    mpn._backend.fast = fast
    try:
        yield
    finally:
        mpn._backend.fast = previous


__all__ = ["Radix", "RADIX16", "RADIX32", "Mpz", "DeterministicPrng",
           "MPN_BACKEND_ENV", "active_backend", "mpn_backend"]
