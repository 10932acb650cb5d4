"""Shared service-level-objective vocabulary.

An SLO is a *gate on a live run* the way a bench
:class:`~repro.obs.bench.Gate` is a gate on a recorded baseline: a
metric, a target, and a direction ("lower is better" for latency,
"higher is better" for throughput).  This module owns that vocabulary
so the autoscaling control loop (:mod:`repro.farm.autoscale`) and the
runtime :class:`SloMonitor` speak the same objects instead of growing
two private notions of "is the service healthy".

:class:`SloTarget` covers p99 latency and secure Mbps plus
session-cache hit-rate and utilization floors; import it from here or
from :mod:`repro.farm`.

Like everything in :mod:`repro.obs`, this module is dependency-free
within the repo (stdlib + :mod:`repro.obs` only), so any layer may
import it without cycles.
"""

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.validate import is_finite_number

__all__ = ["SloMonitor", "SloObjective", "SloReport", "SloTarget",
           "SloWindow", "parse_slo"]

#: Metric directions: "lower" means measured values above the target
#: violate (latency-like), "higher" means values below violate
#: (throughput-like) -- the same convention as ``obs.bench.Gate``.
_DIRECTIONS = ("lower", "higher")


@dataclass(frozen=True)
class SloObjective:
    """One objective: a metric name, a target value, and a direction."""

    metric: str
    target: float
    direction: str = "lower"

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"direction must be one of {_DIRECTIONS}, "
                f"not {self.direction!r}")

    def violated_by(self, value: float) -> bool:
        """Does ``value`` breach this objective?"""
        if self.direction == "lower":
            return value > self.target
        return value < self.target

    def as_dict(self) -> Dict:
        return {"metric": self.metric, "target": self.target,
                "direction": self.direction}


@dataclass(frozen=True)
class SloTarget:
    """A bundle of objectives evaluated per window (None = don't care).

    ``p99_ms`` caps request latency, ``secure_mbps`` floors secure
    throughput (the two objectives the autoscale loop always had);
    ``cache_hit_rate`` floors session-cache effectiveness and
    ``utilization`` floors farm efficiency (the two the runtime
    monitor adds).  Each set target must be a finite, non-negative
    number; anything else raises a :class:`ValueError` naming it.
    """

    p99_ms: Optional[float] = None
    secure_mbps: Optional[float] = None
    cache_hit_rate: Optional[float] = None
    utilization: Optional[float] = None

    def __post_init__(self):
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value is None:
                continue
            if not (is_finite_number(value) and value >= 0):
                raise ValueError(
                    f"SLO target {spec.name} must be a finite "
                    f"non-negative number, got {value!r}")

    def objectives(self) -> Tuple[SloObjective, ...]:
        """The non-None objectives, in declaration order."""
        pairs = (("p99_ms", self.p99_ms, "lower"),
                 ("secure_mbps", self.secure_mbps, "higher"),
                 ("cache_hit_rate", self.cache_hit_rate, "higher"),
                 ("utilization", self.utilization, "higher"))
        return tuple(SloObjective(metric=name, target=value,
                                  direction=direction)
                     for name, value, direction in pairs
                     if value is not None)

    def violations(self, sample: Dict[str, float]) -> List[str]:
        """Names of the objectives ``sample`` breaches (missing
        metrics are treated as unmeasured, never as violations)."""
        breached = []
        for objective in self.objectives():
            value = sample.get(objective.metric)
            if value is not None and objective.violated_by(value):
                breached.append(objective.metric)
        return breached

    def as_dict(self) -> Dict:
        return {"p99_ms": self.p99_ms, "secure_mbps": self.secure_mbps,
                "cache_hit_rate": self.cache_hit_rate,
                "utilization": self.utilization}

    @classmethod
    def from_dict(cls, payload: Dict) -> "SloTarget":
        if not isinstance(payload, dict):
            raise ValueError(f"SLO target must be an object, got "
                             f"{type(payload).__name__}")
        return cls(p99_ms=payload.get("p99_ms"),
                   secure_mbps=payload.get("secure_mbps"),
                   cache_hit_rate=payload.get("cache_hit_rate"),
                   utilization=payload.get("utilization"))


def parse_slo(spec: str) -> SloTarget:
    """Parse ``"p99_ms=5,secure_mbps=10"`` into an :class:`SloTarget`
    (the CLI ``--slo`` flag's format)."""
    fields = {"p99_ms", "secure_mbps", "cache_hit_rate", "utilization"}
    values: Dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"bad SLO component {part!r} (want metric=value)")
        name, _, raw = part.partition("=")
        name = name.strip()
        if name not in fields:
            raise ValueError(f"unknown SLO metric {name!r}; "
                             f"known: {sorted(fields)}")
        try:
            values[name] = float(raw)
        except ValueError:
            raise ValueError(
                f"bad SLO value {raw!r} for {name}") from None
    if not values:
        raise ValueError("empty SLO spec")
    # SloTarget rejects non-finite and negative targets by name.
    return SloTarget(**values)


@dataclass
class SloWindow:
    """One evaluated window: the measured sample and what it breached.

    ``attainment`` is the *cumulative* attainment through this window
    (fraction of windows up to and including it with every objective
    met) -- the running health figure a live dashboard plots.  The
    monitor fills it in; hand-built windows may leave it ``None``.
    """

    index: int
    start_s: float
    end_s: float
    sample: Dict[str, float]
    violations: List[str] = field(default_factory=list)
    attainment: Optional[float] = None

    @property
    def met(self) -> bool:
        return not self.violations

    def as_dict(self) -> Dict:
        return {"index": self.index, "start_s": self.start_s,
                "end_s": self.end_s, "sample": dict(self.sample),
                "violations": list(self.violations), "met": self.met,
                "attainment": self.attainment}


@dataclass
class SloReport:
    """A monitor's verdict over a whole run."""

    target: SloTarget
    window_seconds: float
    windows: List[SloWindow] = field(default_factory=list)

    @property
    def violations(self) -> int:
        """Total objective breaches across all windows."""
        return sum(len(w.violations) for w in self.windows)

    @property
    def windows_violated(self) -> int:
        return sum(1 for w in self.windows if not w.met)

    @property
    def attainment(self) -> float:
        """Fraction of windows with every objective met (1.0 when no
        windows were evaluated -- nothing was breached)."""
        if not self.windows:
            return 1.0
        return 1.0 - self.windows_violated / len(self.windows)

    def as_dict(self) -> Dict:
        return {"target": self.target.as_dict(),
                "window_seconds": self.window_seconds,
                "windows_evaluated": len(self.windows),
                "windows_violated": self.windows_violated,
                "violations": self.violations,
                "attainment": self.attainment,
                "windows": [w.as_dict() for w in self.windows]}


class SloMonitor:
    """Runtime SLO checker: feed it per-window samples, get a report.

    Each :meth:`observe` call evaluates one window's measured sample
    dict (``{"p99_ms": ..., "secure_mbps": ..., ...}``) against the
    target's objectives.  With a :class:`~repro.obs.MetricsRegistry`
    attached, every window publishes ``farm.slo_windows`` /
    ``farm.slo_violations`` counters, a breach bumps the
    ``farm.slo_alerts`` counter per violated metric, and the final
    ``farm.slo_attainment`` gauge lands on :meth:`finish`.
    """

    def __init__(self, target: SloTarget, window_seconds: float = 1.0,
                 registry: Optional[MetricsRegistry] = None,
                 scheduler: str = "?"):
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.target = target
        self.window_seconds = window_seconds
        self.registry = registry
        self.scheduler = scheduler
        self.report = SloReport(target=target,
                                window_seconds=window_seconds)

    def observe(self, sample: Dict[str, float]) -> SloWindow:
        """Evaluate one window's sample; returns its verdict."""
        index = len(self.report.windows)
        window = SloWindow(
            index=index, start_s=index * self.window_seconds,
            end_s=(index + 1) * self.window_seconds,
            sample=dict(sample),
            violations=self.target.violations(sample))
        self.report.windows.append(window)
        window.attainment = self.report.attainment
        if self.registry is not None:
            self.registry.counter("farm.slo_windows",
                                  scheduler=self.scheduler).inc()
            if window.violations:
                self.registry.counter(
                    "farm.slo_violations",
                    scheduler=self.scheduler).inc(len(window.violations))
                for metric in window.violations:
                    self.registry.counter("farm.slo_alerts",
                                          scheduler=self.scheduler,
                                          metric=metric).inc()
        return window

    def observe_all(self, samples: Sequence[Dict[str, float]]
                    ) -> List[SloWindow]:
        """Evaluate a run's windows in order; returns their verdicts.

        Historically this sealed the run and returned the
        :class:`SloReport`, silently discarding the per-window
        verdicts it had just computed; now the windows come back and
        the caller seals with :meth:`finish` (which still returns the
        full report)."""
        return [self.observe(sample) for sample in samples]

    def finish(self) -> SloReport:
        """Seal the run: publish the attainment gauge, return the
        report."""
        if self.registry is not None:
            self.registry.gauge("farm.slo_attainment",
                                scheduler=self.scheduler).set(
                self.report.attainment)
        return self.report
