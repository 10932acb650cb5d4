"""Capacity planning: cores needed to serve N users at rate R.

Extends the single-core feasibility question of
:mod:`repro.ssl.throughput` ("can this platform sustain 3G rates?") to
the farm: the per-core ceiling comes from
:func:`repro.ssl.throughput.max_secure_rate`, aggregate demand from a
user population with an activity factor (of a million subscribers only
a few percent hold active secure sessions at any instant), and the
planner reports, per core configuration, how many replicas meet the
demand and at what total gate cost -- so "serve a million users" gets
the same area-vs-performance treatment as a custom instruction.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.costs import PlatformCosts
from repro.obs import validate
from repro.ssl.throughput import (DEFAULT_CLOCK_HZ, RATE_TARGETS,
                                  max_secure_rate)
from repro.farm.simulator import CoreSpec

#: Fraction of a subscriber population with an active secure session
#: at the busy instant (classic teletraffic sizing assumption).
DEFAULT_ACTIVITY_FACTOR = 0.02

#: Representative populations for the aggregate targets table.
USER_POPULATIONS = (1_000, 100_000, 1_000_000)


def farm_rate_targets(per_user_targets: Dict[str, float] = None,
                      populations: Sequence[int] = USER_POPULATIONS,
                      activity_factor: float = DEFAULT_ACTIVITY_FACTOR
                      ) -> Dict[str, float]:
    """Aggregate farm targets from the paper's per-user RATE_TARGETS.

    Each entry is ``active_users * per_user_rate`` for ``active_users
    = population * activity_factor`` -- e.g. a million 3G-low
    subscribers at 2% activity demand 20,000 x 384 kbps of sustained
    secure throughput from the farm.
    """
    if per_user_targets is None:
        per_user_targets = RATE_TARGETS
    if not 0 < activity_factor <= 1:
        raise ValueError("activity_factor must be in (0, 1]")
    targets = {}
    for population in populations:
        for name, rate in per_user_targets.items():
            active = population * activity_factor
            targets[f"{population:,} users x {name}"] = active * rate
    return targets


def cores_for_rate(costs: PlatformCosts, target_bps: float,
                   clock_hz: float = DEFAULT_CLOCK_HZ,
                   cpu_fraction: float = 1.0) -> int:
    """Minimum cores of one configuration sustaining ``target_bps``."""
    if target_bps < 0:
        raise ValueError("target_bps must be non-negative")
    if target_bps == 0:
        return 0
    per_core = max_secure_rate(costs, clock_hz, cpu_fraction)
    return math.ceil(target_bps / per_core)


@dataclass
class CapacityPlan:
    """One (target, configuration) sizing answer."""

    target_name: str
    target_bps: float
    config_name: str
    cores: int
    per_core_bps: float
    farm_gates: float

    def as_dict(self) -> Dict:
        return {
            "target": self.target_name,
            "target_bps": self.target_bps,
            "config": self.config_name,
            "cores": self.cores,
            "per_core_bps": self.per_core_bps,
            "farm_gates": self.farm_gates,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CapacityPlan":
        """Inverse of :meth:`as_dict` (round-trip tested).

        Numbers may be JSON numbers or numeric strings.  A non-object
        payload, a missing field, a non-string name, or a number that
        is not finite and non-negative (``cores``: not a non-negative
        integer) raises a :class:`ValueError` naming the field."""
        where = "capacity plan"
        data = dict(validate.as_object(data, where))
        for name, (kind, convert) in _PLAN_FIELDS.items():
            if convert is not str and isinstance(data.get(name), str):
                try:
                    data[name] = convert(data[name])
                except ValueError:
                    pass         # the check below names the string
        values = [convert(validate.field(data, name, kind, where))
                  for name, (kind, convert) in _PLAN_FIELDS.items()]
        return cls(*values)


#: :meth:`CapacityPlan.as_dict` keys in field order, each with its kind
#: and the type a numeric string converts to.
_PLAN_FIELDS = {"target": (validate.STRING, str),
                "target_bps": (validate.NON_NEGATIVE, float),
                "config": (validate.STRING, str),
                "cores": (validate.integer(0), int),
                "per_core_bps": (validate.NON_NEGATIVE, float),
                "farm_gates": (validate.NON_NEGATIVE, float)}


def capacity_table(configs: Sequence[Tuple[str, PlatformCosts, float]],
                   targets: Dict[str, float] = None,
                   clock_hz: float = DEFAULT_CLOCK_HZ,
                   cpu_fraction: float = 1.0) -> List[CapacityPlan]:
    """Sizing table: for each aggregate target, each configuration's
    core count and total gate cost.

    ``configs`` holds ``(name, costs, gates_per_core)`` triples --
    e.g. base vs TIE-extended cores with their area overheads.
    """
    if targets is None:
        targets = farm_rate_targets()
    plans = []
    for target_name, target_bps in targets.items():
        for config_name, costs, gates in configs:
            per_core = max_secure_rate(costs, clock_hz, cpu_fraction)
            cores = cores_for_rate(costs, target_bps, clock_hz,
                                   cpu_fraction)
            plans.append(CapacityPlan(
                target_name=target_name, target_bps=target_bps,
                config_name=config_name, cores=cores,
                per_core_bps=per_core, farm_gates=cores * gates))
    return plans


def plan_farm(n_users: int, per_user_bps: float,
              configs: Sequence[Tuple[str, PlatformCosts, float]],
              activity_factor: float = DEFAULT_ACTIVITY_FACTOR,
              clock_hz: float = DEFAULT_CLOCK_HZ,
              cpu_fraction: float = 1.0) -> CapacityPlan:
    """The planner's headline answer: the cheapest (fewest total
    gates) configuration serving ``n_users`` at ``per_user_bps``."""
    if n_users < 1:
        raise ValueError("need at least one user")
    if not 0 < activity_factor <= 1:
        raise ValueError("activity_factor must be in (0, 1]")
    demand = n_users * activity_factor * per_user_bps
    target = {f"{n_users:,} users x {per_user_bps / 1e3:.0f} kbps":
              demand}
    plans = capacity_table(configs, target, clock_hz, cpu_fraction)
    return min(plans, key=lambda p: (p.farm_gates, p.cores))


def specs_as_configs(specs: Sequence[CoreSpec]
                     ) -> List[Tuple[str, PlatformCosts, float]]:
    """Unique (name, costs, gates) triples from a farm's core specs."""
    seen = {}
    for spec in specs:
        key = spec.costs.name
        if key not in seen:
            seen[key] = (key, spec.costs, spec.gates)
    return list(seen.values())
