"""The SSL transaction workload/cycle model (paper Figure 8).

A transaction = one handshake (public-key bound) + ``size`` bytes of
protected application data (symmetric/misc bound).  Following the
paper's breakdown, cycles split into three components:

- **public-key**: the handset's RSA work in the handshake -- verify the
  server certificate, encrypt the premaster secret, and sign the
  CertificateVerify message (client authentication).
- **symmetric**: the bulk cipher over the session data.
- **misc**: everything the custom instructions do *not* accelerate --
  record MAC and transcript hashing (SHA-1) and per-byte protocol
  processing (framing, copies), charged identically on both platforms.

As transaction size grows the unaccelerated misc component dominates
both platforms and the speedup saturates near
(sym+misc)_base / (sym+misc)_opt -- the paper's ~3x plateau.
"""

from dataclasses import dataclass
from typing import Dict, List, Sequence

# Private alias: PlatformCosts and the per-protocol cost constants are
# imported from repro.costs, never from this module.
from repro.costs.model import PlatformCosts as _PlatformCosts

#: Handshake bytes hashed into the transcript (hellos, certificate,
#: key exchange, Finished) -- a representative fixed workload.
HANDSHAKE_TRANSCRIPT_BYTES = 4096


@dataclass
class TransactionBreakdown:
    """Cycle breakdown of one SSL transaction (Figure 8's stacked bars)."""

    public_key: float
    symmetric: float
    misc: float

    @property
    def total(self) -> float:
        return self.public_key + self.symmetric + self.misc

    def fractions(self) -> Dict[str, float]:
        total = self.total
        return {"public_key": self.public_key / total,
                "symmetric": self.symmetric / total,
                "misc": self.misc / total}


class SslWorkloadModel:
    """Computes Figure 8: SSL transaction speedup vs session size."""

    def __init__(self, base_costs: _PlatformCosts,
                 optimized_costs: _PlatformCosts):
        self.base_costs = base_costs
        self.optimized_costs = optimized_costs

    @staticmethod
    def breakdown(costs: _PlatformCosts, size_bytes: int,
                  resumed: bool = False) -> TransactionBreakdown:
        if resumed:
            # Abbreviated handshake (cached session keys, paper ref.
            # [27]): no public-key operations; only the short
            # hello/Finished exchange is hashed.
            public_key = 0.0
            hashed_bytes = HANDSHAKE_TRANSCRIPT_BYTES // 8 + size_bytes
        else:
            # Full handshake: verify server certificate + encrypt
            # premaster (public ops) + sign CertificateVerify (private).
            public_key = (2 * costs.rsa_public_cycles
                          + costs.rsa_private_cycles)
            hashed_bytes = HANDSHAKE_TRANSCRIPT_BYTES + size_bytes
        symmetric = size_bytes * costs.cipher_cycles_per_byte
        misc = (hashed_bytes * costs.hash_cycles_per_byte
                + size_bytes * costs.protocol_cycles_per_byte
                + costs.protocol_fixed_cycles)
        return TransactionBreakdown(public_key=public_key,
                                    symmetric=symmetric, misc=misc)

    def speedup(self, size_bytes: int, resumed: bool = False) -> float:
        base = self.breakdown(self.base_costs, size_bytes, resumed).total
        opt = self.breakdown(self.optimized_costs, size_bytes,
                             resumed).total
        return base / opt

    def resumption_gain(self, costs: _PlatformCosts,
                        size_bytes: int) -> float:
        """How much cheaper a resumed transaction is than a full one
        on the same platform (the session-caching payoff of [27])."""
        full = self.breakdown(costs, size_bytes).total
        resumed = self.breakdown(costs, size_bytes, resumed=True).total
        return full / resumed

    def asymptotic_speedup(self) -> float:
        """Large-transaction limit: the (sym+misc)-bound plateau."""
        b, o = self.base_costs, self.optimized_costs
        per_byte_base = (b.cipher_cycles_per_byte + b.hash_cycles_per_byte
                         + b.protocol_cycles_per_byte)
        per_byte_opt = (o.cipher_cycles_per_byte + o.hash_cycles_per_byte
                        + o.protocol_cycles_per_byte)
        return per_byte_base / per_byte_opt

    def series(self, sizes: Sequence[int]) -> List[dict]:
        """Rows for the Figure 8 table: size, speedup, base breakdown."""
        rows = []
        for size in sizes:
            base = self.breakdown(self.base_costs, size)
            opt = self.breakdown(self.optimized_costs, size)
            rows.append({
                "size_bytes": size,
                "speedup": base.total / opt.total,
                "base_fractions": base.fractions(),
                "opt_fractions": opt.fractions(),
                "base_cycles": base.total,
                "opt_cycles": opt.total,
            })
        return rows
