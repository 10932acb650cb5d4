"""Deterministic fault injection for the security-core farm.

Every robustness claim the chaos scenarios make rests on the same
property the performance benchmarks lean on: byte-identical
reproducibility.  A :class:`FaultPlan` is therefore *data*, fixed
before the simulation starts -- a sorted schedule of
:class:`FaultEvent` records, either declared explicitly (tests, JSON
plan files) or drawn from ``DeterministicPrng(seed).fork("faults")``
(:func:`generate_fault_plan`), never from wall-clock randomness.  The
same plan replayed over the same workload produces the same merged
:class:`~repro.farm.simulator.FarmResult` under any ``--shards`` /
``--jobs`` setting, because plans shard by the same strided core
ownership the simulator uses (:meth:`FaultPlan.subplan_strided`).

Four fault kinds, matching the failure modes a wireless security
gateway operator actually plans for:

- ``core_down``   -- the core dies at ``cycle``: its session caches
  are lost (flushed, counters kept), its in-flight and queued requests
  re-enter the farm after a re-dispatch penalty, and no scheduler may
  select it until it recovers;
- ``core_up``     -- the core rejoins, cold caches and all;
- ``cache_flush`` -- the core survives but its session caches are
  wiped (a cache-poisoning mitigation, a failover without state
  transfer);
- ``degrade``     -- a TIE-extended core falls back to base-ISA
  pricing (the accelerator is fenced off after an error) until its
  next ``core_up``.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.costs import PlatformCosts
from repro.mp import DeterministicPrng

__all__ = ["DEFAULT_REDISPATCH_PENALTY_CYCLES", "FAULT_KINDS",
           "FaultEvent", "FaultPlan", "FaultReport",
           "generate_fault_plan", "summarize_faults"]

#: The recognized fault kinds (see module docstring).
FAULT_KINDS = ("core_down", "core_up", "cache_flush", "degrade")

#: Cycles a request displaced by a core failure spends being detected,
#: re-queued, and re-dispatched before the scheduler sees it again
#: (order of a protocol-stack traversal, far below a handshake).
DEFAULT_REDISPATCH_PENALTY_CYCLES = 2000.0


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: ``kind`` strikes ``core`` at ``cycle``."""

    cycle: float
    kind: str
    core: int

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {list(FAULT_KINDS)}")
        if not 0 <= self.cycle < math.inf:
            raise ValueError(f"fault cycle must be finite and "
                             f"non-negative, got {self.cycle!r}")
        if self.core < 0:
            raise ValueError("fault core must be non-negative")

    def as_dict(self) -> Dict:
        return {"cycle": self.cycle, "kind": self.kind,
                "core": self.core}

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultEvent":
        """Rebuild an event from :meth:`as_dict` output; a missing or
        ill-typed field raises a :class:`ValueError` naming it."""
        if not isinstance(payload, dict):
            raise ValueError(f"fault event is not a JSON object: "
                             f"{payload!r}")
        return cls(cycle=_field(payload, "cycle", (int, float)),
                   kind=_field(payload, "kind", (str,)),
                   core=_field(payload, "core", (int,)))


_REQUIRED = object()


def _field(payload: Dict, name: str, types: Tuple[type, ...],
           default=_REQUIRED):
    """``payload[name]`` (or ``default`` when absent and given), which
    must be one of ``types`` and never a ``bool`` (JSON's booleans are
    Python ints).  Numbers are returned as floats."""
    if name not in payload:
        if default is _REQUIRED:
            raise ValueError(f"missing field {name!r}")
        return default
    value = payload[name]
    if not isinstance(value, types) or isinstance(value, bool):
        kinds = " or ".join(t.__name__ for t in types)
        raise ValueError(f"field {name!r} must be {kinds}, got {value!r}")
    if float in types:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"field {name!r} is too large") from None
    return value


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule plus its injection parameters.

    ``events`` are kept in ``(cycle, declaration order)`` order;
    simulators inject them with that order as the tie-breaker, so two
    faults at the same cycle fire in plan order everywhere.
    ``degraded_costs`` prices a degraded extended core (typically the
    farm's base-core costs); without it, ``degrade`` events are
    recorded but do not change pricing.
    """

    events: Tuple[FaultEvent, ...] = ()
    redispatch_penalty_cycles: float = DEFAULT_REDISPATCH_PENALTY_CYCLES
    degraded_costs: Optional[PlatformCosts] = None

    def __post_init__(self):
        events = tuple(self.events)
        ordered = sorted(range(len(events)),
                         key=lambda i: (events[i].cycle, i))
        object.__setattr__(self, "events",
                           tuple(events[i] for i in ordered))
        if not 0 <= self.redispatch_penalty_cycles < math.inf:
            raise ValueError(
                f"redispatch_penalty_cycles must be finite and "
                f"non-negative, got {self.redispatch_penalty_cycles!r}")

    def __bool__(self) -> bool:
        return bool(self.events)

    def subplan_strided(self, shards: int, shard: int) -> "FaultPlan":
        """The sub-plan for shard ``shard`` of ``shards``.

        Shard ``i`` owns the cores at stride ``shards``
        (``specs[i::shards]``, exactly the shard layer's core
        ownership), so global core ``g`` belongs to shard ``g %
        shards`` where its local index is ``g // shards``.  Sub-plans
        partition the parent's events; merging the per-shard outcomes
        reproduces the unsharded run.
        """
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if not 0 <= shard < shards:
            raise ValueError(f"shard must be in [0, {shards})")
        if shards == 1:
            return self
        return replace(self, events=tuple(
            replace(event, core=event.core // shards)
            for event in self.events if event.core % shards == shard))

    def window(self, start_cycle: float, end_cycle: float) -> "FaultPlan":
        """The sub-plan covering ``[start_cycle, end_cycle)``, rebased
        so the window's first cycle is 0 (the autoscale loop runs each
        epoch on a fresh virtual clock)."""
        if end_cycle < start_cycle:
            raise ValueError("end_cycle must be >= start_cycle")
        return replace(self, events=tuple(
            replace(event, cycle=event.cycle - start_cycle)
            for event in self.events
            if start_cycle <= event.cycle < end_cycle))

    def on_cores(self, n_cores: int) -> "FaultPlan":
        """The sub-plan striking only cores below ``n_cores`` (the
        active prefix of an autoscaled pool)."""
        return replace(self, events=tuple(
            event for event in self.events if event.core < n_cores))

    def check_cores(self, n_cores: int) -> None:
        """Reject an event striking a core a farm of ``n_cores`` does
        not have, instead of dropping it silently."""
        for event in self.events:
            if event.core >= n_cores:
                raise ValueError(
                    f"fault plan: event {event.as_dict()} strikes core "
                    f"{event.core}, but the farm has {n_cores} cores")

    def as_dict(self) -> Dict:
        return {
            "events": [event.as_dict() for event in self.events],
            "redispatch_penalty_cycles": self.redispatch_penalty_cycles,
            "degraded_costs": (self.degraded_costs.name
                               if self.degraded_costs else None),
        }

    @classmethod
    def from_dict(cls, payload: Dict,
                  degraded_costs: Optional[PlatformCosts] = None
                  ) -> "FaultPlan":
        """Rebuild a plan from :meth:`as_dict` output (a JSON plan
        file).  ``degraded_costs`` must be supplied by the caller --
        cost tables are measured objects, not plan data.  A missing
        or ill-typed field, or a non-finite cycle or penalty, raises a
        :class:`ValueError` naming it."""
        try:
            if not isinstance(payload, dict):
                raise ValueError(f"not a JSON object: {payload!r}")
            events = []
            for index, entry in enumerate(
                    _field(payload, "events", (list,), [])):
                try:
                    events.append(FaultEvent.from_dict(entry))
                except ValueError as exc:
                    raise ValueError(f"events[{index}]: {exc}") from None
            return cls(events=tuple(events),
                       redispatch_penalty_cycles=_field(
                           payload, "redispatch_penalty_cycles",
                           (int, float), DEFAULT_REDISPATCH_PENALTY_CYCLES),
                       degraded_costs=degraded_costs)
        except ValueError as exc:
            raise ValueError(f"fault plan: {exc}") from None


def generate_fault_plan(seed: int, n_cores: int, horizon_cycles: float,
                        episodes: int = 3,
                        mean_outage_fraction: float = 0.15,
                        redispatch_penalty_cycles: float =
                        DEFAULT_REDISPATCH_PENALTY_CYCLES,
                        degraded_costs: Optional[PlatformCosts] = None
                        ) -> FaultPlan:
    """Draw a seeded chaos schedule from the ``"faults"`` PRNG fork.

    Each of ``episodes`` episodes picks a victim core and one of three
    shapes: an outage (``core_down`` then ``core_up`` after roughly
    ``mean_outage_fraction`` of the horizon), a degradation
    (``degrade`` then ``core_up``), or a lone ``cache_flush``.  The
    schedule depends only on ``(seed, n_cores, horizon_cycles,
    episodes, mean_outage_fraction)`` -- the fork label keeps it
    independent of workload generation and sharding draws on the same
    seed.
    """
    if n_cores < 1:
        raise ValueError("need at least one core")
    if horizon_cycles <= 0:
        raise ValueError("horizon_cycles must be positive")
    if episodes < 0:
        raise ValueError("episodes must be non-negative")
    if not 0 < mean_outage_fraction <= 1:
        raise ValueError("mean_outage_fraction must be in (0, 1]")
    prng = DeterministicPrng(seed).fork("faults")

    def uniform() -> float:
        return (prng.next_u64() + 1) / 2.0 ** 64

    events: List[FaultEvent] = []
    for _ in range(episodes):
        core = prng.next_int(n_cores)
        # Strike somewhere in the first 80% of the horizon so the
        # fault has traffic left to disturb.
        strike = uniform() * 0.8 * horizon_cycles
        shape = prng.next_int(3)
        if shape == 0:
            outage = ((0.5 + uniform())
                      * mean_outage_fraction * horizon_cycles)
            events.append(FaultEvent(cycle=strike, kind="core_down",
                                     core=core))
            events.append(FaultEvent(cycle=strike + outage,
                                     kind="core_up", core=core))
        elif shape == 1:
            outage = ((0.5 + uniform())
                      * mean_outage_fraction * horizon_cycles)
            events.append(FaultEvent(cycle=strike, kind="degrade",
                                     core=core))
            events.append(FaultEvent(cycle=strike + outage,
                                     kind="core_up", core=core))
        else:
            events.append(FaultEvent(cycle=strike, kind="cache_flush",
                                     core=core))
    return FaultPlan(events=tuple(events),
                     redispatch_penalty_cycles=redispatch_penalty_cycles,
                     degraded_costs=degraded_costs)


@dataclass
class FaultReport:
    """What a plan actually did to a run."""

    events_injected: int
    redispatches: int
    sessions_flushed: int
    downtime_cycles: float
    by_kind: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return {"events_injected": self.events_injected,
                "redispatches": self.redispatches,
                "sessions_flushed": self.sessions_flushed,
                "downtime_cycles": self.downtime_cycles,
                "by_kind": dict(sorted(self.by_kind.items()))}


def summarize_faults(result, plan: FaultPlan) -> FaultReport:
    """Reduce a fault-aware :class:`~repro.farm.simulator.FarmResult`
    to its chaos summary (injected counts come from the cores'
    recorded fault history, so merged sharded results sum cleanly)."""
    by_kind: Dict[str, int] = {}
    flushed = 0
    downtime = 0.0
    for core in result.cores:
        for kind in getattr(core, "fault_kinds", ()):
            by_kind[kind] = by_kind.get(kind, 0) + 1
        flushed += getattr(core, "sessions_flushed", 0)
        downtime += getattr(core, "down_cycles", 0.0)
    return FaultReport(
        events_injected=sum(by_kind.values()),
        redispatches=result.redispatches,
        sessions_flushed=flushed,
        downtime_cycles=downtime,
        by_kind=by_kind)
