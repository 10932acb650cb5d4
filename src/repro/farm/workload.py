"""Seeded traffic generation for the security-processor farm.

A *session request* is one unit of secure work a handset population
offers the farm: an SSL transaction (full or resumed handshake plus
record transfer), a WTLS browsing session (ECDH handshake), an IPSec
ESP bulk transfer, a burst of WEP frames -- or any other protocol
registered through :mod:`repro.protocols`.  Requests are generated
from a :class:`~repro.mp.DeterministicPrng` stream so a (profile,
seed) pair always produces the identical request list, and they are
costed in cycles by the registered
:class:`~repro.protocols.ProtocolModel` over the same
:class:`repro.costs.PlatformCosts` vocabulary the single-transaction
evaluation uses.

This module is protocol-agnostic: protocol names, mix weights, cycle
arithmetic, and resumption semantics all resolve through the registry.
The historical surface (``cost_of``, ``is_public_key_heavy``,
``ecdh_cycles``, ``farm_session``, ``session_id_for_client``,
``RequestCost``, ``MTU_BYTES``) is preserved as re-exports; the
protocol menu is :func:`repro.protocols.protocol_names`.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

# WEP/ESP per-byte and framing rates live in the unified cost
# vocabulary now; re-exported here because they are part of this
# module's historical surface.
from repro.costs import (CRC32_CYCLES_PER_BYTE, ESP_PACKET_FIXED_CYCLES,
                         PlatformCosts, RC4_CYCLES_PER_BYTE,
                         WEP_FRAME_FIXED_CYCLES)
from repro.mp import DeterministicPrng
from repro.protocols import (MTU_BYTES, RequestCost, UnknownProtocolError,
                             default_mix, get_protocol, protocol_names)
from repro.protocols.builtin import farm_session, session_id_for_client
from repro.ssl.throughput import DEFAULT_CLOCK_HZ


@dataclass(frozen=True)
class SessionRequest:
    """One unit of offered secure work."""

    seq: int                 # generation order; breaks event-time ties
    arrival_cycle: float     # virtual arrival time, in core cycles
    protocol: str            # a registered protocol name
    size_bytes: int          # protected payload size
    resumed: bool            # resumable protocols: client presents a key
    client_id: int           # originating handset (affinity key)


def is_public_key_heavy(request: SessionRequest) -> bool:
    """Does this request's cost concentrate in public-key work?

    Full SSL/WTLS/TLS-1.3 handshakes are public-key bound; resumed
    handshakes and bulk link-layer traffic are symmetric/misc bound.
    The preferential scheduler uses this split (answered by the
    registered protocol model) to route work onto TIE-extended cores.
    """
    return get_protocol(request.protocol).public_key_heavy(request)


def ecdh_cycles(costs: PlatformCosts) -> float:
    """Per-platform ECDH handshake cost.

    Measured costs (built by :meth:`repro.costs.PlatformCosts.measure`)
    carry a macro-model-estimated secp160r1 figure; hand-built costs
    without one fall back to the documented RSA-equivalence heuristic
    in :meth:`~repro.costs.PlatformCosts.ecdh_handshake_cycles`.
    """
    return costs.ecdh_handshake_cycles()


def cost_of(request: SessionRequest, costs: PlatformCosts,
            cache_hit: bool = False) -> RequestCost:
    """Cycles to serve ``request`` on a core with unit costs ``costs``.

    Delegates to the registered protocol model.  ``cache_hit`` applies
    to resumed requests only: a hit serves the abbreviated handshake, a
    miss falls back to the full one (the client's session key is
    unknown to this core's cache).
    """
    return get_protocol(request.protocol).request_cost(
        request, costs, cache_hit=cache_hit)


@dataclass
class TrafficProfile:
    """Shape of the offered traffic (all draws are seed-deterministic).

    ``arrival_rate`` is in sessions/second of virtual time; inter-
    arrivals are exponential (Poisson arrivals).  ``mix`` weights any
    registered protocols (defaulting to the registry's stock mix);
    ``resumption_ratio`` is the probability a client of a *resumable*
    protocol that already completed a full handshake asks to resume.
    Session sizes are drawn from ``sizes_kb`` with ``size_weights``
    (defaults favour small transactions, matching Figure 8's emphasis).
    """

    arrival_rate: float = 50.0
    mix: Dict[str, float] = field(default_factory=default_mix)
    resumption_ratio: float = 0.4
    sizes_kb: Sequence[int] = (1, 2, 4, 8, 16, 32)
    size_weights: Sequence[float] = (8, 6, 4, 2, 1, 1)
    clients: int = 64

    def __post_init__(self):
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if not 0 <= self.resumption_ratio <= 1:
            raise ValueError("resumption_ratio must be in [0, 1]")
        if self.clients < 1:
            raise ValueError("need at least one client")
        unknown = set(self.mix) - set(protocol_names())
        if unknown:
            raise UnknownProtocolError(sorted(unknown), protocol_names())
        if not self.mix or sum(self.mix.values()) <= 0:
            raise ValueError("mix must have positive total weight")
        if len(self.sizes_kb) != len(self.size_weights):
            raise ValueError("sizes_kb and size_weights length mismatch")


def _uniform(prng: DeterministicPrng) -> float:
    """Uniform draw in (0, 1] -- safe as a log() argument."""
    return (prng.next_u64() + 1) / 2.0 ** 64


def _weighted_choice(prng: DeterministicPrng,
                     items: Sequence, weights: Sequence[float]):
    total = float(sum(weights))
    u = _uniform(prng) * total
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if u <= acc:
            return item
    return items[-1]


def _generate_stream(profile: TrafficProfile, n_requests: int,
                     prng: DeterministicPrng, arrival_rate: float,
                     clock_hz: float, seq_base: int = 0,
                     seq_stride: int = 1, client_base: int = 0,
                     client_stride: int = 1,
                     client_space: int = None) -> List[SessionRequest]:
    """Draw ``n_requests`` from an explicit PRNG stream.

    The draw *order* per request (inter-arrival, protocol, size,
    client, resumption -- the last consumed only by resumable
    protocols with a handshaken client) is the module's compatibility
    contract: with the default ``seq``/``client`` mapping this is
    exactly the :func:`generate_requests` stream.  Sharded generation
    re-maps the drawn client into the shard's residue class
    (``client_base + client_stride * draw``) and interleaves global
    sequence numbers (``seq_base + seq_stride * k``) so shards stay
    disjoint in both keys without consuming extra draws.
    """
    if n_requests < 0:
        raise ValueError("n_requests must be non-negative")
    if client_space is None:
        client_space = profile.clients
    if client_space < 1:
        raise ValueError("client_space must be positive")
    protocols: Tuple[str, ...] = tuple(profile.mix)
    weights = tuple(profile.mix[p] for p in protocols)
    requests: List[SessionRequest] = []
    # Per-protocol completed-full-handshake histories: only resumable
    # protocols keep one, so non-resumable traffic consumes no
    # resumption draws (the legacy SSL-only draw pattern, generalized).
    handshaken: Dict[str, Set[int]] = {
        name: set() for name in protocols if get_protocol(name).resumable}
    arrival_s = 0.0
    for k in range(n_requests):
        arrival_s += -math.log(_uniform(prng)) / arrival_rate
        protocol = _weighted_choice(prng, protocols, weights)
        size_kb = _weighted_choice(prng, profile.sizes_kb,
                                   profile.size_weights)
        client = client_base + client_stride * (prng.next_u64()
                                                % client_space)
        resumed = False
        history = handshaken.get(protocol)
        if history is not None:
            if (client in history
                    and _uniform(prng) <= profile.resumption_ratio):
                resumed = True
            else:
                history.add(client)
        requests.append(SessionRequest(
            seq=seq_base + seq_stride * k,
            arrival_cycle=arrival_s * clock_hz,
            protocol=protocol, size_bytes=size_kb * 1024,
            resumed=resumed, client_id=client))
    return requests


def generate_requests(profile: TrafficProfile, n_requests: int,
                      seed: int = 1,
                      clock_hz: float = DEFAULT_CLOCK_HZ
                      ) -> List[SessionRequest]:
    """Generate a deterministic stream of ``n_requests`` requests.

    Resumption is *causal*: a request is marked resumed only if its
    client already issued a full handshake of the same protocol
    earlier in the stream, so every resumed request has a session some
    core may have cached.
    """
    return _generate_stream(profile, n_requests, DeterministicPrng(seed),
                            profile.arrival_rate, clock_hz)

