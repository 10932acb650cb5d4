"""Farm time series: the simulator's completion stream, over time.

The farm's registry metrics are published once, at the end of a run
(:func:`repro.farm.simulator.publish_metrics`); this module produces
the *time-resolved* counterpart.  :func:`series_of` replays the
completions of a finished :class:`~repro.farm.simulator.FarmResult`
through a :class:`FarmSeriesRecorder`'s private registry, sampling it
on the virtual cycle clock every ``interval_seconds`` of simulated
time.

Determinism is the point.  :func:`series_of` derives the series from
the *merged* completion stream in canonical ``(finish_cycle, seq)``
order -- the exact order :func:`repro.farm.shard.merge_results`
establishes -- so a sharded run's series is independent of the worker
count and repeat runs export byte-identical JSONL (the
``farm_timeseries`` bench scenario gates both at diff exactly zero).

Each sample carries the cumulative registry view (counters,
histogram quantiles) plus three per-interval gauges derived from the
work that finished since the previous sample -- ``farm.interval.p99_ms``
is what makes a fault's latency spike *and recovery* visible, where a
cumulative histogram could only show the spike.
"""

from typing import Dict, List, Optional

from repro.obs import MetricsRegistry
from repro.obs.slo import SloReport
from repro.obs.timeseries import (DEFAULT_SERIES_CAPACITY,
                                  MetricsTimeSeries, TimeSeriesSampler)
from repro.farm.faults import FaultPlan
from repro.farm.metrics import percentile
from repro.farm.simulator import Completion, FarmResult

__all__ = ["DEFAULT_SERIES_INTERVAL_SECONDS", "FarmSeriesRecorder",
           "annotate_faults", "annotate_slo", "series_of"]

#: One sample per 50 virtual milliseconds: fine enough to straddle the
#: chaos plans' sub-second fault windows, coarse enough that a
#: thousands-of-requests run stays well inside the default ring.
DEFAULT_SERIES_INTERVAL_SECONDS = 0.05


class FarmSeriesRecorder:
    """Builds a farm time series from a completion stream.

    Feed :meth:`observe` completions in non-decreasing
    ``(finish_cycle, seq)`` order (the simulator's own emission order,
    and the shard merge order) and :meth:`finish` with the makespan.
    All of a completion's effects are attributed at its finish time,
    which is what makes the series a pure function of the completion
    stream.
    """

    def __init__(self, scheduler: str, n_cores: int, clock_hz: float,
                 interval_seconds: float = DEFAULT_SERIES_INTERVAL_SECONDS,
                 capacity: int = DEFAULT_SERIES_CAPACITY):
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        if n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        self.scheduler = scheduler
        self.n_cores = n_cores
        self.clock_hz = clock_hz
        self.interval_seconds = interval_seconds
        self.registry = MetricsRegistry()
        self.sampler = TimeSeriesSampler(
            registry=self.registry, clock_hz=clock_hz,
            interval_cycles=interval_seconds * clock_hz,
            capacity=capacity, before_sample=self._derive_gauges)
        self._busy_cycles = 0.0
        self._last_sample_t = 0.0
        self._interval_latencies_ms: List[float] = []
        self._interval_bits = 0.0

    def _derive_gauges(self, t_cycles: float) -> None:
        """Set the per-interval and utilization gauges for the sample
        being taken at ``t_cycles`` (runs via the sampler hook)."""
        sched = self.scheduler
        elapsed_s = max(0.0, (t_cycles - self._last_sample_t)
                        / self.clock_hz)
        lat = self._interval_latencies_ms
        self.registry.gauge("farm.interval.completed",
                            scheduler=sched).set(float(len(lat)))
        self.registry.gauge("farm.interval.p99_ms",
                            scheduler=sched).set(
            percentile(lat, 99) if lat else 0.0)
        self.registry.gauge("farm.interval.secure_mbps",
                            scheduler=sched).set(
            self._interval_bits / elapsed_s / 1e6 if elapsed_s else 0.0)
        self.registry.gauge("farm.utilization", scheduler=sched).set(
            self._busy_cycles / (self.n_cores * t_cycles)
            if t_cycles else 0.0)
        self._interval_latencies_ms = []
        self._interval_bits = 0.0
        self._last_sample_t = t_cycles

    def observe(self, completion: Completion) -> None:
        """Account one served request at its finish time."""
        t = completion.finish_cycle
        self.sampler.advance(t)
        sched = self.scheduler
        registry = self.registry
        request = completion.request
        latency_ms = completion.latency_cycles / self.clock_hz * 1e3
        registry.counter("farm.requests.completed",
                         scheduler=sched).inc()
        registry.counter("farm.secure.bytes", scheduler=sched).inc(
            request.size_bytes)
        registry.histogram("farm.request.latency_ms",
                           scheduler=sched).observe(latency_ms)
        registry.counter("farm.core.served", scheduler=sched,
                         core=completion.core_index).inc()
        if request.resumed:
            name = ("farm.session_cache.hits" if completion.cache_hit
                    else "farm.session_cache.misses")
            registry.counter(name, scheduler=sched,
                             protocol=request.protocol).inc()
        self._busy_cycles += completion.service_cycles
        self._interval_latencies_ms.append(latency_ms)
        self._interval_bits += request.size_bytes * 8

    def finish(self, makespan_cycles: float) -> MetricsTimeSeries:
        """Drain the remaining boundaries and close the series with
        one final sample at the makespan."""
        return self.sampler.finish(makespan_cycles)

    @property
    def series(self) -> MetricsTimeSeries:
        return self.sampler.series


def annotate_faults(series: MetricsTimeSeries, plan: FaultPlan,
                    makespan_cycles: float) -> int:
    """Pin the plan's fault events (within the run) onto the series;
    returns how many were annotated."""
    count = 0
    for event in plan.events:
        if event.cycle <= makespan_cycles:
            series.annotate(event.cycle, f"fault.{event.kind}",
                            core=event.core)
            count += 1
    return count


def annotate_slo(series: MetricsTimeSeries, report: SloReport,
                 clock_hz: float) -> int:
    """Pin one ``slo.alert`` per violated SLO window (at the window's
    end, when the verdict is known); returns the alert count."""
    count = 0
    for window in report.windows:
        if window.violations:
            series.annotate(window.end_s * clock_hz, "slo.alert",
                            window=window.index,
                            metrics=list(window.violations))
            count += 1
    return count


def series_of(result: FarmResult, *,
              faults: Optional[FaultPlan] = None,
              slo_report: Optional[SloReport] = None,
              interval_seconds: float = DEFAULT_SERIES_INTERVAL_SECONDS,
              capacity: int = DEFAULT_SERIES_CAPACITY
              ) -> MetricsTimeSeries:
    """Derive the time series of a finished (possibly merged) run.

    Completions replay in canonical ``(finish_cycle, seq)`` order, so
    the series of a sharded run is a pure function of the merged
    result -- identical for any ``jobs`` count.  ``faults`` and
    ``slo_report``
    annotate their events onto the series.
    """
    recorder = FarmSeriesRecorder(
        scheduler=result.scheduler_name, n_cores=len(result.cores),
        clock_hz=result.clock_hz, interval_seconds=interval_seconds,
        capacity=capacity)
    for completion in sorted(result.completions,
                             key=lambda c: (c.finish_cycle,
                                            c.request.seq)):
        recorder.observe(completion)
    series = recorder.finish(result.makespan_cycles)
    if faults is not None:
        annotate_faults(series, faults, result.makespan_cycles)
    if slo_report is not None:
        annotate_slo(series, slo_report, result.clock_hz)
    return series
