"""The pluggable protocol-model registry.

The paper's point is one security platform serving *many* wireless
protocols, so protocol behavior must be a seam, not a hardwired menu.
A :class:`ProtocolModel` bundles everything the farm layer needs to
know about one protocol -- its per-request cycle model over
:class:`~repro.costs.PlatformCosts`, its handshake/resumption
semantics (whether it participates in session caching, and under what
affinity key), and its weight in the default traffic mix -- and
:func:`register_protocol` publishes it under its name, mirroring the
``register_algorithm`` registry of :mod:`repro.crypto.api`.

Every consumer resolves protocols through :func:`get_protocol`:
:mod:`repro.farm.workload` (generation and costing),
:mod:`repro.farm.simulator` (per-protocol session caches),
:mod:`repro.farm.scheduler` (cache affinity), :mod:`repro.farm.replay`
and :mod:`repro.farm.shard` (trace validation), and the CLI's
``--mix``/``--list-protocols``.  Adding a protocol is therefore one
registration in one file -- see :mod:`repro.protocols.tls13` and
:mod:`repro.protocols.kasumi_link` for complete examples -- with zero
edits to the farm engine (locked in by the toy-protocol plugin test).
"""

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["MTU_BYTES", "ProtocolModel", "RequestCost", "SessionKeys",
           "UnknownProtocolError", "default_mix", "get_protocol",
           "protocol_names", "register_protocol",
           "unregister_protocol"]

#: Link-layer MTU used to charge per-packet/per-frame fixed overheads
#: (historically exported by :mod:`repro.farm.workload`).
MTU_BYTES = 1500


@dataclass(frozen=True)
class RequestCost:
    """Cycle price of serving one request on one core configuration."""

    cycles: float
    public_key_cycles: float
    payload_bytes: int


class UnknownProtocolError(ValueError):
    """Raised for any protocol name missing from the registry.

    Always names the registered choices, so a typo in a ``--mix`` flag
    or a foreign trace file fails with the valid menu in hand.
    """

    def __init__(self, names, choices):
        names = (names,) if isinstance(names, str) else tuple(sorted(names))
        self.names = names
        self.choices = tuple(choices)
        label = "protocol" if len(names) == 1 else "protocols"
        super().__init__(
            f"unknown {label} {', '.join(repr(n) for n in names)}; "
            f"registered: {list(self.choices)}")


class ProtocolModel:
    """Everything the farm layer needs to know about one protocol.

    Subclasses override :meth:`request_cost` (mandatory) and, when the
    protocol supports session resumption, set :attr:`resumable` and
    provide :meth:`cache_key`.  Requests are duck-typed
    :class:`~repro.farm.workload.SessionRequest` records; the model
    never mutates them.
    """

    #: Registry key; also the ``protocol`` field of generated requests.
    name = "abstract"
    #: Weight in :class:`~repro.farm.workload.TrafficProfile`'s stock
    #: mix.  Zero keeps the protocol opt-in only (an explicit ``mix``
    #: entry), which is what lets new registrations leave the legacy
    #: default stream -- and its benchmark baselines -- byte-identical.
    default_mix_weight = 0.0
    #: Whether clients may resume an earlier session.  Drives the
    #: workload generator's resumption draw, the simulator's
    #: per-protocol session caches, and scheduler cache affinity.
    resumable = False

    def request_cost(self, request, costs, cache_hit=False):
        """Cycles to serve ``request`` under unit costs ``costs``.

        ``cache_hit`` applies to resumed requests only: a hit serves
        the abbreviated handshake, a miss falls back to the full one.
        Returns a :class:`RequestCost`.

        Must be a pure function of its arguments: the farm prices each
        request once when it is dispatched, and serves a cache miss on
        the same cost table at that dispatch-time price.
        """
        raise NotImplementedError

    def public_key_heavy(self, request) -> bool:
        """Does this request's cost concentrate in public-key work?
        The preferential scheduler routes such jobs to TIE-extended
        cores."""
        return False

    def cache_key(self, client_id: int) -> bytes:
        """The session-cache/affinity key a resuming client presents.

        Must be a pure function of ``client_id``: a farm run derives
        each client's key at most once (see :class:`SessionKeys`) and
        reuses it for every store, lookup and affinity probe."""
        raise NotImplementedError(
            f"protocol {self.name!r} is not resumable")

    def session_record(self, client_id: int):
        """What a core caches under :meth:`cache_key` after serving a
        full handshake (the cached value is never inspected, only its
        presence matters)."""
        return client_id


class SessionKeys(dict):
    """A run-scoped memo ``(protocol, client_id) -> cache key``.

    Indexing a missing pair derives the key once through the
    registered model's :meth:`ProtocolModel.cache_key`.  Each farm run
    creates its own instance, so no run reuses a key another run
    derived.
    """

    def __missing__(self, ident):
        protocol, client_id = ident
        key = self[ident] = get_protocol(protocol).cache_key(client_id)
        return key


#: Insertion-ordered: registration order IS the default-mix key order,
#: which the seeded weighted-choice draws depend on -- register legacy
#: protocols before additions (see repro.protocols.__init__).
_REGISTRY: Dict[str, ProtocolModel] = {}


def register_protocol(model: ProtocolModel) -> ProtocolModel:
    """Publish ``model`` under ``model.name`` (latest wins)."""
    name = getattr(model, "name", "")
    if not name or name == ProtocolModel.name:
        raise ValueError("protocol model needs a concrete name")
    if model.default_mix_weight < 0:
        raise ValueError(f"protocol {name!r}: default_mix_weight "
                         "must be non-negative")
    _REGISTRY[name] = model
    return model


def unregister_protocol(name: str) -> bool:
    """Remove a registration (plugin/test cleanup); True if present."""
    return _REGISTRY.pop(name, None) is not None


def protocol_names() -> Tuple[str, ...]:
    """Registered names, in registration order."""
    return tuple(_REGISTRY)


def get_protocol(name: str) -> ProtocolModel:
    """The registered model for ``name``, or a uniform error."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownProtocolError(name, protocol_names()) from None


def default_mix() -> Dict[str, float]:
    """The stock traffic mix: every registered protocol with a
    positive default weight, in registration order."""
    return {name: model.default_mix_weight
            for name, model in _REGISTRY.items()
            if model.default_mix_weight > 0}
