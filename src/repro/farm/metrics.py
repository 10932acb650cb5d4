"""Farm-level performance metrics.

Reduces a :class:`~repro.farm.simulator.FarmResult` to the unified
throughput / latency / area report the analysis framework of Damaj &
Kasbah (arXiv:1904.01000) argues for: sessions/s and secure Mbps,
latency percentiles, per-core utilization, and *area-normalized*
throughput -- sessions/s per million gate equivalents, the farm-level
analogue of the paper's A-D trade-off (more cores buy throughput at a
gate cost, exactly as wider datapaths buy cycles).
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.farm.simulator import FarmResult


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    if not 0 < pct <= 100:
        raise ValueError("pct must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def percentiles(values: Sequence[float],
                pcts: Sequence[float]) -> List[float]:
    """:func:`percentile` of ``values`` at each of ``pcts``, sorting
    ``values`` once."""
    if not values:
        return [0.0] * len(pcts)
    ordered = sorted(values)
    result = []
    for pct in pcts:
        if not 0 < pct <= 100:
            raise ValueError("pct must be in (0, 100]")
        rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
        result.append(ordered[rank - 1])
    return result


@dataclass
class FarmMetrics:
    """One scheduler/farm configuration's summary row."""

    scheduler: str
    n_cores: int
    completed: int
    elapsed_s: float
    sessions_per_s: float
    secure_mbps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    core_utilization: List[float]
    mean_utilization: float
    cache_hit_rate: float
    total_gates: float
    sessions_per_s_per_mgate: float
    #: Per-protocol session-cache traffic, keyed by protocol name:
    #: ``{"ssl": {"hits": ..., "misses": ..., "hit_rate": ...}}``.
    #: Only protocols that touched a cache appear.
    session_cache: Dict[str, Dict[str, float]] = field(
        default_factory=dict)

    def as_dict(self) -> Dict:
        return {
            "scheduler": self.scheduler,
            "n_cores": self.n_cores,
            "completed": self.completed,
            "elapsed_s": self.elapsed_s,
            "sessions_per_s": self.sessions_per_s,
            "secure_mbps": self.secure_mbps,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "core_utilization": self.core_utilization,
            "mean_utilization": self.mean_utilization,
            "cache_hit_rate": self.cache_hit_rate,
            "total_gates": self.total_gates,
            "sessions_per_s_per_mgate": self.sessions_per_s_per_mgate,
            "session_cache": self.session_cache,
        }


def window_metrics(result: FarmResult,
                   window_seconds: float = 1.0) -> List[Dict[str, float]]:
    """Per-window SLO samples over a run's virtual timeline.

    Splits ``[0, makespan]`` into ``window_seconds`` windows on the
    farm's cycle clock and reduces each to the sample dict a
    :class:`repro.obs.slo.SloMonitor` evaluates: ``p99_ms`` and
    ``cache_hit_rate`` over the completions that *finish* in the
    window (omitted when none did -- unmeasured, not zero),
    ``secure_mbps`` of the payload those completions delivered against
    the window wall, and ``utilization`` as the served cycles
    overlapping the window over the farm's window capacity.  Every
    sample also carries ``completed`` (the window's completion count);
    :class:`~repro.obs.slo.SloTarget` ignores metrics it has no
    objective for, and the count lets conservation checks assert that
    windowing neither drops nor double-counts completions.
    """
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")
    clock = result.clock_hz
    window_cycles = window_seconds * clock
    if result.makespan_cycles <= 0:
        return []
    n_windows = max(1, math.ceil(result.makespan_cycles / window_cycles))
    buckets: List[List] = [[] for _ in range(n_windows)]
    for completion in result.completions:
        index = min(n_windows - 1,
                    int(completion.finish_cycle // window_cycles))
        buckets[index].append(completion)
    n_cores = len(result.cores)
    samples: List[Dict[str, float]] = []
    for index, bucket in enumerate(buckets):
        start = index * window_cycles
        end = start + window_cycles
        sample: Dict[str, float] = {"completed": float(len(bucket))}
        if bucket:
            sample["p99_ms"] = percentile(
                [c.latency_cycles / clock * 1e3 for c in bucket], 99)
            sample["secure_mbps"] = (
                sum(c.request.size_bytes * 8 for c in bucket)
                / window_seconds / 1e6)
            lookups = sum(1 for c in bucket if c.request.resumed)
            if lookups:
                sample["cache_hit_rate"] = (
                    sum(1 for c in bucket if c.cache_hit) / lookups)
        else:
            sample["secure_mbps"] = 0.0
        busy = sum(
            max(0.0, min(c.finish_cycle, end) - max(c.start_cycle, start))
            for c in result.completions
            if c.start_cycle < end and c.finish_cycle > start)
        sample["utilization"] = (busy / (n_cores * window_cycles)
                                 if n_cores else 0.0)
        samples.append(sample)
    return samples


def summarize(result: FarmResult) -> FarmMetrics:
    """Reduce a simulation run to its metrics row."""
    clock = result.clock_hz
    elapsed_s = result.makespan_cycles / clock if result.makespan_cycles \
        else 0.0
    latencies_ms = [c.latency_cycles / clock * 1e3
                    for c in result.completions]
    payload_bits = sum(c.request.size_bytes * 8
                       for c in result.completions)
    utilization = [
        (core.busy_cycles / result.makespan_cycles
         if result.makespan_cycles else 0.0)
        for core in result.cores]
    per_protocol: Dict[str, List[int]] = {}
    for core in result.cores:
        for protocol, cache in core.caches.items():
            totals = per_protocol.setdefault(protocol, [0, 0])
            totals[0] += cache.hits
            totals[1] += cache.misses
    session_cache = {
        protocol: {"hits": float(h), "misses": float(m),
                   "hit_rate": h / (h + m) if h + m else 0.0}
        for protocol, (h, m) in sorted(per_protocol.items())}
    hits = sum(h for h, _ in per_protocol.values())
    misses = sum(m for _, m in per_protocol.values())
    gates = sum(core.spec.gates for core in result.cores)
    sessions_per_s = (len(result.completions) / elapsed_s
                      if elapsed_s else 0.0)
    p50, p95, p99 = percentiles(latencies_ms, (50, 95, 99))
    return FarmMetrics(
        scheduler=result.scheduler_name,
        n_cores=len(result.cores),
        completed=len(result.completions),
        elapsed_s=elapsed_s,
        sessions_per_s=sessions_per_s,
        secure_mbps=(payload_bits / elapsed_s / 1e6 if elapsed_s else 0.0),
        p50_ms=p50,
        p95_ms=p95,
        p99_ms=p99,
        core_utilization=utilization,
        mean_utilization=(sum(utilization) / len(utilization)
                          if utilization else 0.0),
        cache_hit_rate=(hits / (hits + misses) if hits + misses else 0.0),
        total_gates=gates,
        sessions_per_s_per_mgate=(sessions_per_s / (gates / 1e6)
                                  if gates else 0.0),
        session_cache=session_cache,
    )
