"""One config object, one entry point for every farm simulation.

:class:`FarmConfig` freezes the *description* of a run (cores,
scheduler, workload, sharding, faults, SLOs, series sampling) into one
validated dataclass, and :func:`run_farm` is the single execution path
the CLI, the shard layer, the autoscale epochs
(:func:`~repro.farm.autoscale.run_autoscale`), the soak service, and
the benchmark scenarios all route through; :func:`run_epoch` is the
one epoch of the two epoch-driven loops (the soak service and the
autoscale loop).  Runtime resources that are not part of the run's
identity (tracers, metric registries, executors) stay out of the
config and ride as keyword arguments.
"""

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.mp import DeterministicPrng
from repro.obs import MetricsRegistry, Tracer
from repro.obs.slo import SloMonitor, SloReport, SloTarget
from repro.obs.timeseries import (DEFAULT_SERIES_CAPACITY,
                                  MetricsTimeSeries)
from repro.parallel import Executor
from repro.ssl.throughput import DEFAULT_CLOCK_HZ
from repro.costs import PlatformCosts
from repro.farm.faults import FaultPlan, FaultReport, summarize_faults
from repro.farm.metrics import FarmMetrics, summarize, window_metrics
from repro.farm.scheduler import SCHEDULERS
from repro.farm.shard import ShardedRun, _run_shards
from repro.farm.simulator import (CoreSpec, FarmResult, build_farm,
                                  check_unique_seqs)
from repro.farm.workload import (SessionRequest, TrafficProfile,
                                 _generate_stream)

__all__ = ["FarmConfig", "FarmRun", "run_epoch", "run_farm"]


def _is_int(value) -> bool:
    """A real integer: ``bool`` is an ``int`` subclass but no count."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class FarmConfig:
    """Everything that shapes a farm run's results.

    Workload comes either from ``requests`` (an explicit or replayed
    stream, whose ``seq`` values must be unique) or from ``profile`` +
    ``n_requests`` (seeded generation), validated at construction
    instead of failing mid-run.  ``faults`` and ``slo``
    are both optional: a config without them describes exactly the
    pre-chaos simulation (and reproduces it byte for byte).
    """

    specs: Tuple[CoreSpec, ...]
    scheduler: str = "preferential"
    profile: Optional[TrafficProfile] = None
    n_requests: Optional[int] = None
    requests: Optional[Tuple[SessionRequest, ...]] = None
    shards: int = 1
    seed: int = 1
    jobs: Optional[int] = None
    clock_hz: float = DEFAULT_CLOCK_HZ
    faults: Optional[FaultPlan] = None
    slo: Optional[SloTarget] = None
    slo_window_seconds: float = 1.0
    #: Sample the run as a virtual-time series every this many
    #: (virtual) seconds; ``None`` (the default) records no series, so
    #: pre-series configs reproduce byte for byte.
    series_interval_seconds: Optional[float] = None
    series_capacity: int = DEFAULT_SERIES_CAPACITY

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        if self.requests is not None:
            object.__setattr__(self, "requests", tuple(self.requests))
            check_unique_seqs(self.requests)
        if not self.specs:
            raise ValueError("farm needs at least one core")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"known: {sorted(SCHEDULERS)}")
        # A config needs a workload source: an explicit stream, or a
        # profile to draw from.  n_requests may stay None for configs
        # consumed per-epoch (run_autoscale sizes each epoch itself);
        # run_farm requires it when generating.
        if self.requests is None and self.profile is None:
            raise ValueError(
                "need either requests= or profile= (+ n_requests=)")
        if self.n_requests is not None and not (
                _is_int(self.n_requests) and self.n_requests >= 0):
            raise ValueError(
                f"n_requests must be None or an int >= 0, got "
                f"{self.n_requests!r}")
        if self.jobs is not None and not (
                _is_int(self.jobs) and self.jobs >= 1):
            raise ValueError(
                f"jobs must be None or an int >= 1, got {self.jobs!r}")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shards > len(self.specs):
            raise ValueError(
                f"cannot split {len(self.specs)} cores into "
                f"{self.shards} shards")
        if self.clock_hz <= 0:
            raise ValueError("clock_hz must be positive")
        if self.slo_window_seconds <= 0:
            raise ValueError("slo_window_seconds must be positive")
        if (self.series_interval_seconds is not None
                and self.series_interval_seconds <= 0):
            raise ValueError("series_interval_seconds must be positive")
        if self.series_capacity < 1:
            raise ValueError("series_capacity must be >= 1")
        if self.faults is not None:
            self.faults.check_cores(len(self.specs))

    @classmethod
    def build(cls, cores: int, base_costs: PlatformCosts,
              optimized_costs: PlatformCosts,
              extended_fraction: float = 0.5, **kwargs) -> "FarmConfig":
        """Construct a config over a freshly built heterogeneous farm
        (the :func:`~repro.farm.simulator.build_farm` shorthand)."""
        return cls(specs=tuple(build_farm(cores, base_costs,
                                          optimized_costs,
                                          extended_fraction)), **kwargs)

    def with_scheduler(self, scheduler: str) -> "FarmConfig":
        """The same run under a different policy (scheduler sweeps)."""
        return replace(self, scheduler=scheduler)


@dataclass
class FarmRun:
    """Everything :func:`run_farm` produced for one config."""

    config: FarmConfig
    sharded: ShardedRun
    metrics: FarmMetrics
    faults: Optional[FaultReport] = None
    slo: Optional[SloReport] = None
    #: The run's virtual-time series (only when the config asked for
    #: one via ``series_interval_seconds``), fault and SLO-alert
    #: events annotated.
    series: Optional[MetricsTimeSeries] = None

    @property
    def result(self) -> FarmResult:
        """The merged simulation result."""
        return self.sharded.result


def run_farm(config: FarmConfig, *, tracer: Optional[Tracer] = None,
             metrics: Optional[MetricsRegistry] = None,
             executor: Optional[Executor] = None) -> FarmRun:
    """Execute one described run: simulate, summarize, judge.

    The simulation itself is the shard engine (``shards=1`` is the
    plain in-process simulator, bit-identical to pre-config behavior).
    When the config carries a :class:`~repro.farm.faults.FaultPlan`
    the run is chaos-injected and the :class:`FarmRun` gains a fault
    report; when it carries an :class:`~repro.obs.slo.SloTarget` an
    :class:`~repro.obs.slo.SloMonitor` evaluates every
    ``slo_window_seconds`` window of the finished run and publishes
    ``farm.slo_*`` counters into ``metrics``.
    """
    sharded = _run_shards(config, executor=executor, tracer=tracer,
                          metrics=metrics)
    result = sharded.result
    fault_report = (summarize_faults(result, config.faults)
                    if config.faults is not None else None)
    slo_report: Optional[SloReport] = None
    if config.slo is not None:
        monitor = SloMonitor(config.slo,
                             window_seconds=config.slo_window_seconds,
                             registry=metrics,
                             scheduler=result.scheduler_name)
        monitor.observe_all(
            window_metrics(result, config.slo_window_seconds))
        slo_report = monitor.finish()
    series: Optional[MetricsTimeSeries] = None
    if config.series_interval_seconds is not None:
        # Derived post hoc from the merged completion stream, so the
        # series is byte-identical for any worker count.
        from repro.farm.timeseries import series_of
        series = series_of(
            result, faults=config.faults, slo_report=slo_report,
            interval_seconds=config.series_interval_seconds,
            capacity=config.series_capacity)
    return FarmRun(config=config, sharded=sharded,
                   metrics=summarize(result), faults=fault_report,
                   slo=slo_report, series=series)


def run_epoch(config: FarmConfig, epoch: int, epoch_seconds: float,
              rate: float, n_cores: int, *,
              series_interval_seconds: Optional[float] = None,
              metrics: Optional[MetricsRegistry] = None) -> FarmRun:
    """Run epoch ``epoch`` of an epoch-driven farm on the first
    ``n_cores`` of ``config.specs``.

    The epoch offers ``max(1, round(rate * epoch_seconds))`` requests
    drawn from ``DeterministicPrng(config.seed).fork(f"epoch[{epoch}]")``,
    so its traffic is independent of every other epoch's, and injects
    the ``[epoch, epoch + 1) * epoch_cycles`` window of
    ``config.faults``, rebased to the epoch clock and limited to the
    ``n_cores`` active cores.  It is one unsharded run without an SLO
    gate: the soak service and the autoscale loop judge epochs
    themselves.
    """
    offered = max(1, round(rate * epoch_seconds))
    requests = _generate_stream(
        config.profile, offered,
        DeterministicPrng(config.seed).fork(f"epoch[{epoch}]"), rate,
        config.clock_hz)
    epoch_cycles = epoch_seconds * config.clock_hz
    faults = (config.faults.window(epoch * epoch_cycles,
                                   (epoch + 1) * epoch_cycles
                                   ).on_cores(n_cores)
              if config.faults is not None else None)
    return run_farm(replace(
        config, specs=config.specs[:n_cores], requests=tuple(requests),
        shards=1, jobs=None, faults=faults, slo=None,
        series_interval_seconds=series_interval_seconds),
        metrics=metrics)
