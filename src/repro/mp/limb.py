"""Limb (machine-word) parameters for the mpn layer.

The paper's design-space exploration includes *two radix sizes* for the
multi-precision routines (Section 4.3: "two radix sizes").  A
:class:`Radix` bundles the limb width and derived masks; ``RADIX32``
models the native 32-bit Xtensa word, ``RADIX16`` the half-word radix
that trades more limbs for cheaper partial products.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Radix:
    """Limb width configuration for the mpn primitives.

    Attributes:
        bits: number of bits per limb.
        base: 2**bits.
        mask: base - 1, used to split double-width partial products.
    """

    bits: int

    @property
    def base(self) -> int:
        return 1 << self.bits

    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Radix({self.bits})"


RADIX32 = Radix(32)
RADIX16 = Radix(16)

#: Default radix used by Mpz and the crypto layers unless overridden.
DEFAULT_RADIX = RADIX32
