"""Deterministic pseudo-random number generation.

Every experiment in the repository (characterization stimuli, key
generation, workload synthesis) draws randomness from this generator so
runs are exactly reproducible.  The core is a 64-bit xorshift* stream,
which is plenty for *stimulus* generation -- it is NOT a cryptographic
RNG and the crypto layer documents that substitution.
"""

import zlib
from typing import List

from repro.mp.limb import DEFAULT_RADIX, Radix

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class DeterministicPrng:
    """xorshift64* PRNG with convenience draws for the test harnesses."""

    def __init__(self, seed: int = _GOLDEN):
        if seed == 0:
            seed = _GOLDEN
        self._seed = seed & _MASK64
        self._state = self._seed

    @property
    def initial_seed(self) -> int:
        """The seed this stream started from (what :meth:`fork` keys on)."""
        return self._seed

    def fork(self, label) -> "DeterministicPrng":
        """An independent stream derived from the *initial* seed and a
        label.

        Forking ignores how much of this stream has been consumed, so a
        forked stream's values depend only on ``(initial seed, label)``
        -- never on draw order or on which parallel job forked first.
        That is the property that lets per-routine characterization
        jobs run in any order and still produce identical stimuli.
        """
        mixed = (self._seed ^ (zlib.crc32(str(label).encode("utf-8"))
                               * _GOLDEN)) & _MASK64
        # One scramble round so labels differing in few bits diverge.
        mixed ^= (mixed >> 30)
        mixed = (mixed * 0xBF58476D1CE4E5B9) & _MASK64
        return DeterministicPrng(mixed or _GOLDEN)

    def next_u64(self) -> int:
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def next_u64_block(self, count: int) -> List[int]:
        """The next ``count`` :meth:`next_u64` values, as a list.

        Leaves the stream exactly where ``count`` calls would, without
        a method call per value."""
        mask = _MASK64
        x = self._state
        out: List[int] = []
        append = out.append
        for _ in range(count):
            x ^= x >> 12
            x ^= x << 25 & mask
            x ^= x >> 27
            append(x * 0x2545F4914F6CDD1D & mask)
        self._state = x
        return out

    def next_bits(self, nbits: int) -> int:
        """Uniform integer in [0, 2**nbits)."""
        value = 0
        got = 0
        while got < nbits:
            value = (value << 64) | self.next_u64()
            got += 64
        return value >> (got - nbits)

    def next_int(self, upper: int) -> int:
        """Uniform integer in [0, upper)."""
        if upper <= 0:
            raise ValueError("upper must be positive")
        nbits = upper.bit_length()
        while True:
            candidate = self.next_bits(nbits)
            if candidate < upper:
                return candidate

    def next_range(self, low: int, high: int) -> int:
        """Uniform integer in [low, high]."""
        return low + self.next_int(high - low + 1)

    def next_odd_bits(self, nbits: int) -> int:
        """Uniform odd integer with exactly ``nbits`` bits (top bit set)."""
        if nbits < 2:
            raise ValueError("need at least 2 bits")
        value = self.next_bits(nbits)
        value |= (1 << (nbits - 1)) | 1
        return value

    def next_bytes(self, n: int) -> bytes:
        return bytes(self.next_bits(8) for _ in range(n))

    def next_limbs(self, n: int, radix: Radix = DEFAULT_RADIX) -> List[int]:
        """A vector of ``n`` uniform limbs."""
        return [self.next_bits(radix.bits) for _ in range(n)]

    def choice(self, seq):
        return seq[self.next_int(len(seq))]

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.next_int(i + 1)
            seq[i], seq[j] = seq[j], seq[i]
