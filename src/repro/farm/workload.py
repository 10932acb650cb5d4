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
arithmetic, and resumption semantics all resolve through the registry;
the protocol menu is :func:`repro.protocols.protocol_names`.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Sequence, Set, Tuple

from repro.costs import PlatformCosts
from repro.mp import DeterministicPrng
from repro.protocols import (RequestCost, UnknownProtocolError, default_mix,
                             get_protocol, protocol_names)
from repro.ssl.throughput import DEFAULT_CLOCK_HZ


class SessionRequest(NamedTuple):
    """One unit of offered secure work (an immutable record: a named
    tuple, because a farm run builds one per request)."""

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
        # The weighted draws bisect the running sums of the weights,
        # which only stay ordered for finite non-negative weights.
        for name, weight in self.mix.items():
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(
                    f"mix weight for {name!r} must be finite and "
                    f"non-negative, got {weight!r}")
        if not self.mix or sum(self.mix.values()) <= 0:
            raise ValueError("mix must have positive total weight")
        if len(self.sizes_kb) != len(self.size_weights):
            raise ValueError("sizes_kb and size_weights length mismatch")
        for size_kb, weight in zip(self.sizes_kb, self.size_weights):
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(
                    f"size weight for {size_kb} KB must be finite and "
                    f"non-negative, got {weight!r}")
        if not self.sizes_kb:
            raise ValueError("need at least one session size")


def _draw_bounds(weights: Sequence[float]) -> List[float]:
    """The bounds a weighted draw bisects: the running sums of
    ``weights``, accumulated in order from ``0.0``, with the last one
    raised to infinity.

    A draw picks the first item whose running sum reaches ``u``, or
    the last item if rounding leaves ``u`` above every sum; the
    infinite last bound makes :func:`bisect.bisect_left` return
    exactly that index, zero weights included."""
    acc = 0.0
    bounds = []
    for w in weights:
        acc += w
        bounds.append(acc)
    bounds[-1] = math.inf
    return bounds


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

    Values come from :meth:`DeterministicPrng.next_u64_block` blocks
    that never hold more than the stream goes on to consume, so the
    call draws exactly what its requests use and leaves ``prng``
    where one :meth:`~DeterministicPrng.next_u64` call per draw would.
    """
    if n_requests < 0:
        raise ValueError("n_requests must be non-negative")
    if client_space is None:
        client_space = profile.clients
    if client_space < 1:
        raise ValueError("client_space must be positive")
    protocols: Tuple[str, ...] = tuple(profile.mix)
    weights = tuple(profile.mix[p] for p in protocols)
    # A weighted draw takes ``u`` uniform in (0, 1], scales it by the
    # total weight and bisects the running sums (see _draw_bounds).
    protocol_total = float(sum(weights))
    protocol_bounds = _draw_bounds(weights)
    size_total = float(sum(profile.size_weights))
    size_bounds = _draw_bounds(profile.size_weights)
    sizes_bytes = tuple(size_kb * 1024 for size_kb in profile.sizes_kb)
    resumption_ratio = profile.resumption_ratio
    next_u64 = prng.next_u64
    next_block = prng.next_u64_block
    requests: List[SessionRequest] = []
    append = requests.append
    # Per-protocol completed-full-handshake histories: only resumable
    # protocols keep one, so non-resumable traffic consumes no
    # resumption draws (the legacy SSL-only draw pattern, generalized).
    handshaken: Dict[str, Set[int]] = {
        name: set() for name in protocols if get_protocol(name).resumable}
    # ``draw`` yields the ``left`` buffered values; ``prng`` stands
    # just past them.  Every request draws four values, so the
    # requests from ``k`` on consume at least ``4 * (n_requests - k)``:
    # a refill tops the buffer up to exactly that, and a resumption
    # draw that finds the buffer empty takes the stream's next value.
    draw = iter(()).__next__
    left = 0
    arrival_s = 0.0
    for k in range(n_requests):
        if left < 4:
            block = [draw() for _ in range(left)]
            block += next_block(4 * (n_requests - k) - left)
            draw = iter(block).__next__
            left = len(block)
        left -= 4
        # Uniform draws in (0, 1] -- safe as a log() argument.
        arrival_s += -math.log((draw() + 1) / 2.0 ** 64) / arrival_rate
        protocol = protocols[bisect_left(
            protocol_bounds, (draw() + 1) / 2.0 ** 64 * protocol_total)]
        size_bytes = sizes_bytes[bisect_left(
            size_bounds, (draw() + 1) / 2.0 ** 64 * size_total)]
        client = client_base + client_stride * (draw() % client_space)
        resumed = False
        history = handshaken.get(protocol)
        if history is not None:
            if client in history:
                if left:
                    left -= 1
                    value = draw()
                else:
                    value = next_u64()
                resumed = (value + 1) / 2.0 ** 64 <= resumption_ratio
            if not resumed:
                history.add(client)
        append(SessionRequest(seq_base + seq_stride * k,
                              arrival_s * clock_hz, protocol, size_bytes,
                              resumed, client))
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

