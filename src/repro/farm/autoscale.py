"""Autoscaling capacity service: epoch-driven farm sizing under SLOs.

The static planner (:mod:`repro.farm.capacity`) answers "how many
cores for rate R" with a closed-form ceiling.  Real populations do not
offer rate R -- they breathe (diurnal load curves) and spike (flash
crowds), and a farm provisioned for the peak idles through the trough.
This module simulates the control loop an operator would run instead:
virtual time advances in *epochs*; each epoch draws its own traffic
from a deterministic per-epoch PRNG fork at a rate shaped by an
arrival curve, runs it through the event-driven simulator on the
currently active cores, and then a scale-out/scale-in policy reacts to
measured utilization and SLO attainment (p99 latency, secure Mbps).
Scale-out pays a *warm-up cost*: new cores join the active set only
``warmup_epochs`` later, so a reactive policy visibly lags a burst --
exactly the behavior that motivates over-provisioning headroom.

Everything runs on the virtual clock; reports are byte-stable
functions of ``(profile, policy, slo, curve, epochs, seed)``.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

# Private alias: SloTarget is imported from repro.obs.slo (or
# repro.farm), never from this module.
from repro.obs.slo import SloTarget as _SloTarget
from repro.obs.timeseries import MetricsTimeSeries
from repro.farm.metrics import percentile

__all__ = ["ARRIVAL_CURVES", "AutoscalePolicy", "AutoscaleReport",
           "EpochReport", "arrival_multiplier", "curve_names",
           "run_autoscale"]


def _constant(epoch: int, n_epochs: int) -> float:
    return 1.0


def _diurnal(epoch: int, n_epochs: int) -> float:
    """One full day across the run: trough at epoch 0, peak mid-run
    (1 -+ 0.5 cosine swing)."""
    return 1.0 - 0.5 * math.cos(2.0 * math.pi * epoch / n_epochs)


def _bursty(epoch: int, n_epochs: int) -> float:
    """Quiet baseline with a 3x flash crowd every eighth epoch
    (deterministic burst schedule, not a random one)."""
    return 3.0 if epoch % 8 == 4 else 0.6


#: Arrival-curve registry: multiplier(epoch, n_epochs) on the profile's
#: base rate.
ARRIVAL_CURVES = {"constant": _constant, "diurnal": _diurnal,
                  "bursty": _bursty}


def curve_names() -> List[str]:
    return list(ARRIVAL_CURVES)


def arrival_multiplier(curve: str, epoch: int, n_epochs: int) -> float:
    """The rate multiplier of ``curve`` at ``epoch`` of ``n_epochs``."""
    try:
        fn = ARRIVAL_CURVES[curve]
    except KeyError:
        raise ValueError(f"unknown arrival curve {curve!r}; "
                         f"known: {sorted(ARRIVAL_CURVES)}") from None
    return fn(epoch, n_epochs)


@dataclass(frozen=True)
class AutoscalePolicy:
    """Reactive scaling rules with hysteresis and warm-up lag.

    Scale out when measured utilization exceeds ``target_utilization``
    *or* the SLO is missed; the new cores become active after
    ``warmup_epochs``.  Scale in only below ``scale_in_utilization``
    with the SLO met and no scaling action within
    ``cooldown_epochs`` -- the asymmetry (eager out, reluctant in) is
    the standard guard against flapping.
    """

    min_cores: int = 1
    max_cores: int = 64
    target_utilization: float = 0.7
    scale_in_utilization: float = 0.3
    scale_out_step: int = 2
    scale_in_step: int = 1
    warmup_epochs: int = 1
    cooldown_epochs: int = 2

    def __post_init__(self):
        if self.min_cores < 1:
            raise ValueError("min_cores must be >= 1")
        if self.max_cores < self.min_cores:
            raise ValueError("max_cores must be >= min_cores")
        if not 0 < self.target_utilization <= 1:
            raise ValueError("target_utilization must be in (0, 1]")
        if not 0 <= self.scale_in_utilization < self.target_utilization:
            raise ValueError("scale_in_utilization must be in "
                             "[0, target_utilization)")
        if self.scale_out_step < 1 or self.scale_in_step < 1:
            raise ValueError("scale steps must be >= 1")
        if self.warmup_epochs < 0 or self.cooldown_epochs < 0:
            raise ValueError("warmup/cooldown epochs must be >= 0")

    def as_dict(self) -> Dict:
        return {
            "min_cores": self.min_cores, "max_cores": self.max_cores,
            "target_utilization": self.target_utilization,
            "scale_in_utilization": self.scale_in_utilization,
            "scale_out_step": self.scale_out_step,
            "scale_in_step": self.scale_in_step,
            "warmup_epochs": self.warmup_epochs,
            "cooldown_epochs": self.cooldown_epochs,
        }


@dataclass
class EpochReport:
    """One epoch of the control loop."""

    epoch: int
    rate_multiplier: float
    offered_rate: float          # sessions/s this epoch
    offered: int
    completed: int
    active_cores: int
    warming_cores: int
    utilization: float           # busy cycles / (active * epoch cycles)
    p99_ms: float
    secure_mbps: float
    slo_met: bool
    action: str                  # scale_out | scale_in | hold
    #: Objectives breached this epoch (0 when the SLO was met).
    slo_violations: int = 0
    #: Cores the epoch's fault plan left dead at the epoch boundary;
    #: they leave the active set and the policy must replace them.
    failed_cores: int = 0

    def as_dict(self) -> Dict:
        return {
            "epoch": self.epoch,
            "rate_multiplier": self.rate_multiplier,
            "offered_rate": self.offered_rate,
            "offered": self.offered,
            "completed": self.completed,
            "active_cores": self.active_cores,
            "warming_cores": self.warming_cores,
            "utilization": self.utilization,
            "p99_ms": self.p99_ms,
            "secure_mbps": self.secure_mbps,
            "slo_met": self.slo_met,
            "slo_violations": self.slo_violations,
            "failed_cores": self.failed_cores,
            "action": self.action,
        }


@dataclass
class AutoscaleReport:
    """The whole run: per-epoch rows plus capacity/attainment totals."""

    curve: str
    scheduler: str
    policy: AutoscalePolicy
    slo: _SloTarget
    epoch_seconds: float
    epochs: List[EpochReport] = field(default_factory=list)
    #: Epoch-granularity time series of the control loop (one sample
    #: per epoch boundary, scale actions and core failures annotated).
    #: Not serialized by :meth:`as_dict` -- the epoch rows already
    #: carry the same numbers; export it with
    #: :func:`repro.obs.timeseries.write_series_jsonl`.
    series: Optional[MetricsTimeSeries] = None

    @property
    def peak_cores(self) -> int:
        return max((e.active_cores for e in self.epochs), default=0)

    @property
    def mean_cores(self) -> float:
        if not self.epochs:
            return 0.0
        return sum(e.active_cores for e in self.epochs) / len(self.epochs)

    @property
    def core_epochs(self) -> int:
        """Capacity bill: active core-epochs summed over the run."""
        return sum(e.active_cores for e in self.epochs)

    @property
    def slo_violations(self) -> int:
        return sum(1 for e in self.epochs if not e.slo_met)

    @property
    def core_failures(self) -> int:
        """Cores lost to faults across the run (replaced by scaling)."""
        return sum(e.failed_cores for e in self.epochs)

    @property
    def scale_outs(self) -> int:
        return sum(1 for e in self.epochs if e.action == "scale_out")

    @property
    def scale_ins(self) -> int:
        return sum(1 for e in self.epochs if e.action == "scale_in")

    def as_dict(self) -> Dict:
        return {
            "curve": self.curve,
            "scheduler": self.scheduler,
            "policy": self.policy.as_dict(),
            "slo": self.slo.as_dict(),
            "epoch_seconds": self.epoch_seconds,
            "peak_cores": self.peak_cores,
            "mean_cores": self.mean_cores,
            "core_epochs": self.core_epochs,
            "slo_violations": self.slo_violations,
            "core_failures": self.core_failures,
            "scale_outs": self.scale_outs,
            "scale_ins": self.scale_ins,
            "epochs": [e.as_dict() for e in self.epochs],
        }


def run_autoscale(config, policy: AutoscalePolicy = None,
                  n_epochs: int = 24, epoch_seconds: float = 2.0,
                  curve: str = "diurnal") -> AutoscaleReport:
    """Run the autoscaling control loop over ``n_epochs`` epochs.

    ``config`` is a :class:`repro.farm.config.FarmConfig` whose
    ``specs`` are the *pool* the policy may draw from (``max_cores``
    is clamped to its size) and whose ``profile``/``seed`` shape the
    traffic; each epoch runs the first ``active_cores`` specs through
    :func:`repro.farm.config.run_epoch`.  Measured utilization and SLO
    attainment (``config.slo``) drive the policy, and scale-outs land
    after the warm-up lag.  Epoch workloads come from
    ``DeterministicPrng(seed).fork(f"epoch[{e}]")``, so any epoch's
    traffic is independent of every other's and of the policy's
    decisions.

    With a fault plan on the config, each epoch injects the plan's
    ``[epoch * epoch_cycles, (epoch+1) * epoch_cycles)`` window
    (rebased to the epoch clock; events striking pool cores outside
    the active set are dropped); cores the window leaves dead at the
    epoch boundary are *removed* from the active set -- failures
    consume capacity, and replacing it costs the policy a scale-out
    plus the warm-up lag, exactly like absorbing a burst.
    """
    from repro.farm.config import run_epoch
    if policy is None:
        policy = AutoscalePolicy()
    slo = config.slo if config.slo is not None else _SloTarget()
    if n_epochs < 1:
        raise ValueError("n_epochs must be >= 1")
    if epoch_seconds <= 0:
        raise ValueError("epoch_seconds must be positive")
    if config.profile is None:
        raise ValueError("autoscale needs a config with a profile")
    specs = config.specs
    profile = config.profile
    clock_hz = config.clock_hz
    max_cores = min(policy.max_cores, len(specs))
    active = min(policy.min_cores, max_cores)
    warming: List[List[int]] = []    # [ready_epoch, count] pairs
    cooldown = 0
    epoch_cycles = epoch_seconds * clock_hz
    report = AutoscaleReport(curve=curve, scheduler=config.scheduler,
                             policy=policy, slo=slo,
                             epoch_seconds=epoch_seconds,
                             series=MetricsTimeSeries(
                                 clock_hz=clock_hz,
                                 interval_cycles=epoch_cycles,
                                 capacity=max(1, n_epochs)))
    for epoch in range(n_epochs):
        # Warm cores ordered before this epoch come online now.
        ready = sum(count for ready_epoch, count in warming
                    if ready_epoch <= epoch)
        warming = [entry for entry in warming if entry[0] > epoch]
        active = min(max_cores, active + ready)
        multiplier = arrival_multiplier(curve, epoch, n_epochs)
        rate = profile.arrival_rate * multiplier
        result = run_epoch(config, epoch, epoch_seconds, rate,
                           active).result
        offered = result.offered
        busy = sum(core.busy_cycles for core in result.cores)
        utilization = busy / (active * epoch_cycles)
        latencies_ms = [c.latency_cycles / clock_hz * 1e3
                        for c in result.completions]
        p99_ms = percentile(latencies_ms, 99)
        payload_bits = sum(c.request.size_bytes * 8
                           for c in result.completions)
        # Rates are charged to the epoch wall, not the makespan: a
        # farm that needs longer than the epoch to drain its traffic
        # is failing to keep up, and the Mbps figure should say so.
        secure_mbps = payload_bits / epoch_seconds / 1e6
        sample = {"p99_ms": p99_ms, "secure_mbps": secure_mbps,
                  "utilization": utilization}
        hits = sum(c.hits for core in result.cores
                   for c in core.caches.values())
        misses = sum(c.misses for core in result.cores
                     for c in core.caches.values())
        if hits + misses:
            sample["cache_hit_rate"] = hits / (hits + misses)
        violated = slo.violations(sample)
        slo_met = not violated
        failed = sum(1 for core in result.cores if not core.up)
        committed = active + sum(count for _, count in warming)
        action = "hold"
        if ((utilization > policy.target_utilization or not slo_met)
                and committed < max_cores):
            step = min(policy.scale_out_step, max_cores - committed)
            warming.append([epoch + policy.warmup_epochs, step])
            cooldown = policy.cooldown_epochs
            action = "scale_out"
        elif (utilization < policy.scale_in_utilization and slo_met
                and cooldown == 0 and not warming
                and active > policy.min_cores):
            active = max(policy.min_cores,
                         active - policy.scale_in_step)
            cooldown = policy.cooldown_epochs
            action = "scale_in"
        else:
            cooldown = max(0, cooldown - 1)
        if failed:
            # Dead hardware leaves the fleet; the policy has to win
            # the capacity back through the normal scale-out path.
            active = max(1, active - failed)
        report.epochs.append(EpochReport(
            epoch=epoch, rate_multiplier=multiplier, offered_rate=rate,
            offered=offered, completed=len(result.completions),
            active_cores=active,
            warming_cores=sum(count for _, count in warming),
            utilization=utilization, p99_ms=p99_ms,
            secure_mbps=secure_mbps, slo_met=slo_met, action=action,
            slo_violations=len(violated), failed_cores=failed))
        # One sample per epoch boundary on the virtual clock: the
        # over-time view of the warm-up lag the epoch table tabulates.
        boundary = (epoch + 1) * epoch_cycles
        report.series.append(boundary, {
            "autoscale.active_cores": float(active),
            "autoscale.warming_cores": float(
                sum(count for _, count in warming)),
            "autoscale.offered_rate": rate,
            "autoscale.offered": float(offered),
            "autoscale.completed": float(len(result.completions)),
            "autoscale.utilization": utilization,
            "autoscale.p99_ms": p99_ms,
            "autoscale.secure_mbps": secure_mbps,
            "autoscale.slo_met": float(slo_met),
        })
        if action != "hold":
            report.series.annotate(boundary, f"autoscale.{action}",
                                   epoch=epoch, active_cores=active)
        if failed:
            report.series.annotate(boundary, "autoscale.core_failure",
                                   epoch=epoch, failed=failed)
    return report

