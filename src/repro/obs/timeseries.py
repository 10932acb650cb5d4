"""Virtual-time metrics time series: sampled registry snapshots.

Every metric in :mod:`repro.obs` is a point-in-time aggregate; this
module adds the *over-time* view the soak and chaos studies need.  A
:class:`TimeSeriesSampler` snapshots a :class:`~repro.obs.metrics
.MetricsRegistry` at fixed virtual-time intervals (every N cycles of
simulation -- never wall clock), flattening each instrument into
scalar values: counters and gauges verbatim, histograms expanded into
``:count`` / ``:sum`` / ``:mean`` / ``:pXX`` derived keys.  Samples
land in a :class:`MetricsTimeSeries` -- a bounded ring buffer with
point-event annotations (fault injections, SLO alerts, scale actions)
and the windowed query helpers a scrape-side PromQL user would reach
for (:meth:`~MetricsTimeSeries.rate`, :meth:`~MetricsTimeSeries
.delta`, :meth:`~MetricsTimeSeries.max_over_time`,
:meth:`~MetricsTimeSeries.quantile_over_time`).

Serialization follows the trace/workload convention: one JSONL header
line, then one sorted-keys JSON record per sample and per event, so a
series exports byte-identically on every run and
``write -> read -> write`` round-trips exactly.

Like everything in :mod:`repro.obs`, this module depends on nothing
outside the package, so any layer may feed or consume a series
without import cycles.
"""

import json
import math
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import (Callable, Deque, Dict, Iterable, List, Optional,
                    Sequence, TextIO, Tuple, Union)

from repro.obs.metrics import MetricsRegistry
from repro.obs import validate

__all__ = ["DEFAULT_QUANTILES", "DEFAULT_SERIES_CAPACITY",
           "MetricsTimeSeries", "SERIES_FORMAT", "SERIES_VERSION",
           "SeriesEvent", "SeriesSample", "TimeSeriesSampler",
           "read_series_jsonl", "render_series", "snapshot_registry",
           "sparkline", "write_series_jsonl"]

SERIES_FORMAT = "repro.obs.timeseries"
SERIES_VERSION = 1

#: Histogram quantiles expanded into per-sample derived keys.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)

#: Ring capacity: at the farm default of one sample per 50 virtual
#: milliseconds this holds over three virtual minutes of history.
DEFAULT_SERIES_CAPACITY = 4096

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


@dataclass(frozen=True)
class SeriesSample:
    """One registry snapshot at a virtual instant (cycles)."""

    t_cycles: float
    values: Dict[str, float]

    def as_dict(self) -> Dict:
        return {"kind": "sample", "t_cycles": self.t_cycles,
                "values": dict(self.values)}


@dataclass(frozen=True)
class SeriesEvent:
    """A point annotation on the series (fault, alert, scale action)."""

    t_cycles: float
    name: str
    attrs: Dict = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return {"kind": "event", "t_cycles": self.t_cycles,
                "name": self.name, "attrs": dict(self.attrs)}


def snapshot_registry(registry: MetricsRegistry,
                      quantiles: Sequence[float] = DEFAULT_QUANTILES
                      ) -> Dict[str, float]:
    """Flatten a registry into scalar values for one series sample.

    Keys follow :meth:`MetricsRegistry.as_dict`'s ``name{k=v,...}``
    convention; histogram instruments expand into ``key:count`` /
    ``key:sum`` / ``key:mean`` and one ``key:pXX`` per requested
    quantile (the registry's deterministic bucket-edge estimate).
    """
    values: Dict[str, float] = {}
    for name, labels, instrument in registry.items():
        if labels:
            rendered = ",".join(f"{k}={v}" for k, v in labels)
            key = f"{name}{{{rendered}}}"
        else:
            key = name
        payload = instrument.as_dict()
        if payload["type"] == "histogram":
            count = payload["count"]
            values[f"{key}:count"] = float(count)
            values[f"{key}:sum"] = payload["sum"]
            values[f"{key}:mean"] = (payload["sum"] / count
                                     if count else 0.0)
            for q in quantiles:
                values[f"{key}:p{_quantile_label(q)}"] = \
                    instrument.quantile(q)
        else:
            values[key] = payload["value"]
    return values


def _quantile_label(q: float) -> str:
    """``0.5 -> "50"``, ``0.99 -> "99"``, ``0.999 -> "99.9"``."""
    pct = q * 100.0
    return f"{pct:g}"


class MetricsTimeSeries:
    """A bounded ring of samples plus point-event annotations.

    ``interval_cycles`` documents the sampler's cadence (queries do
    not require it -- samples carry their own timestamps), and
    ``capacity`` bounds memory: appending beyond it evicts the oldest
    sample and bumps :attr:`dropped`, the honest record that history
    was truncated.
    """

    def __init__(self, clock_hz: float, interval_cycles: float,
                 capacity: int = DEFAULT_SERIES_CAPACITY):
        if clock_hz <= 0:
            raise ValueError("clock_hz must be positive")
        if interval_cycles <= 0:
            raise ValueError("interval_cycles must be positive")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.clock_hz = clock_hz
        self.interval_cycles = interval_cycles
        self.capacity = capacity
        self.samples: Deque[SeriesSample] = deque(maxlen=capacity)
        self.events: List[SeriesEvent] = []
        #: Samples evicted by the ring bound (0 in a sized run).
        self.dropped = 0

    # -- building --------------------------------------------------------

    def append(self, t_cycles: float, values: Dict[str, float]) -> None:
        """Add one sample (evicting the oldest at capacity)."""
        if len(self.samples) == self.capacity:
            self.dropped += 1
        self.samples.append(SeriesSample(t_cycles=float(t_cycles),
                                         values=dict(values)))

    def annotate(self, t_cycles: float, name: str, /, **attrs) -> None:
        """Pin a named point event onto the series (an attribute may
        itself be called ``name`` or ``t_cycles``)."""
        self.events.append(SeriesEvent(t_cycles=float(t_cycles),
                                       name=name, attrs=dict(attrs)))

    def merge(self, other: "MetricsTimeSeries",
              offset_cycles: float = 0.0) -> None:
        """Append another series' samples and events, order-preserved,
        with timestamps rebased by ``offset_cycles`` (how the soak
        loop stitches per-epoch series onto one timeline)."""
        for sample in other.samples:
            self.append(sample.t_cycles + offset_cycles, sample.values)
        for event in other.events:
            self.annotate(event.t_cycles + offset_cycles, event.name,
                          **event.attrs)
        self.dropped += other.dropped

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.samples)

    def keys(self) -> List[str]:
        """Every value key any retained sample carries, sorted."""
        seen = set()
        for sample in self.samples:
            seen.update(sample.values)
        return sorted(seen)

    def points(self, key: str,
               start_cycles: Optional[float] = None,
               end_cycles: Optional[float] = None
               ) -> List[Tuple[float, float]]:
        """``(t_cycles, value)`` pairs of ``key`` inside the window
        (inclusive bounds; ``None`` means unbounded)."""
        out = []
        for sample in self.samples:
            if start_cycles is not None and sample.t_cycles < start_cycles:
                continue
            if end_cycles is not None and sample.t_cycles > end_cycles:
                continue
            if key in sample.values:
                out.append((sample.t_cycles, sample.values[key]))
        return out

    def events_between(self, start_cycles: Optional[float] = None,
                       end_cycles: Optional[float] = None
                       ) -> List[SeriesEvent]:
        return [event for event in self.events
                if (start_cycles is None or event.t_cycles >= start_cycles)
                and (end_cycles is None or event.t_cycles <= end_cycles)]

    # -- windowed queries ------------------------------------------------

    def delta(self, key: str, start_cycles: Optional[float] = None,
              end_cycles: Optional[float] = None) -> float:
        """Last minus first value of ``key`` over the window (the
        increase of a cumulative counter; 0.0 with <2 points)."""
        pts = self.points(key, start_cycles, end_cycles)
        if len(pts) < 2:
            return 0.0
        return pts[-1][1] - pts[0][1]

    def rate(self, key: str, start_cycles: Optional[float] = None,
             end_cycles: Optional[float] = None) -> float:
        """Per-virtual-second increase of ``key`` over the window."""
        pts = self.points(key, start_cycles, end_cycles)
        if len(pts) < 2:
            return 0.0
        span = pts[-1][0] - pts[0][0]
        if span <= 0:
            return 0.0
        return (pts[-1][1] - pts[0][1]) / (span / self.clock_hz)

    def max_over_time(self, key: str,
                      start_cycles: Optional[float] = None,
                      end_cycles: Optional[float] = None) -> float:
        pts = self.points(key, start_cycles, end_cycles)
        return max((v for _, v in pts), default=0.0)

    def quantile_over_time(self, key: str, q: float,
                           start_cycles: Optional[float] = None,
                           end_cycles: Optional[float] = None) -> float:
        """Nearest-rank ``q``-quantile of the sampled values (the same
        deterministic convention as :func:`repro.farm.metrics
        .percentile`)."""
        if not 0 < q <= 1:
            raise ValueError("q must be in (0, 1]")
        values = sorted(v for _, v in self.points(key, start_cycles,
                                                  end_cycles))
        if not values:
            return 0.0
        rank = max(1, math.ceil(q * len(values)))
        return values[rank - 1]

    def as_dict(self) -> Dict:
        return {
            "clock_hz": self.clock_hz,
            "interval_cycles": self.interval_cycles,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "samples": [s.as_dict() for s in self.samples],
            "events": [e.as_dict() for e in self.events],
        }


class TimeSeriesSampler:
    """Drives a series from a registry on a fixed virtual cadence.

    Feed it monotonically non-decreasing times: :meth:`advance`
    snapshots the registry at every interval boundary *strictly
    before* ``t_cycles`` (so state changes landing exactly on a
    boundary are included in that boundary's sample), and
    :meth:`finish` emits the remaining boundaries plus one final
    sample at the end time.  ``before_sample`` (if given) runs with
    the sample time right before each snapshot -- the hook derived
    per-interval gauges are computed in.
    """

    def __init__(self, registry: MetricsRegistry, clock_hz: float,
                 interval_cycles: float,
                 capacity: int = DEFAULT_SERIES_CAPACITY,
                 quantiles: Sequence[float] = DEFAULT_QUANTILES,
                 before_sample: Optional[Callable[[float], None]] = None):
        self.registry = registry
        self.quantiles = tuple(quantiles)
        self.before_sample = before_sample
        self.series = MetricsTimeSeries(clock_hz=clock_hz,
                                        interval_cycles=interval_cycles,
                                        capacity=capacity)
        self._boundary = interval_cycles

    def sample_at(self, t_cycles: float) -> None:
        """Snapshot the registry into one sample at ``t_cycles``."""
        if self.before_sample is not None:
            self.before_sample(t_cycles)
        self.series.append(t_cycles,
                           snapshot_registry(self.registry,
                                             self.quantiles))

    def advance(self, t_cycles: float) -> None:
        """Emit every pending interval boundary before ``t_cycles``."""
        interval = self.series.interval_cycles
        while self._boundary < t_cycles:
            self.sample_at(self._boundary)
            self._boundary += interval

    def finish(self, t_cycles: float) -> MetricsTimeSeries:
        """Drain boundaries and take the closing sample at the end
        time (exactly one sample lands at ``t_cycles``)."""
        self.advance(t_cycles)
        self.sample_at(t_cycles)
        return self.series


# -- JSONL round-trip --------------------------------------------------------

def write_series_jsonl(series: MetricsTimeSeries,
                       destination: Union[str, TextIO]) -> int:
    """Write a series as JSONL (header, samples, then events); returns
    the record count.  Sorted keys and repr-exact floats make repeated
    exports of the same run byte-identical."""
    header = {"format": SERIES_FORMAT, "version": SERIES_VERSION,
              "clock_hz": series.clock_hz,
              "interval_cycles": series.interval_cycles,
              "capacity": series.capacity, "dropped": series.dropped,
              "samples": len(series.samples),
              "events": len(series.events)}
    if hasattr(destination, "write"):
        fh, close = destination, False
    else:
        fh, close = open(destination, "w", encoding="utf-8"), True
    try:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for sample in series.samples:
            fh.write(json.dumps(sample.as_dict(), sort_keys=True) + "\n")
        for event in series.events:
            fh.write(json.dumps(event.as_dict(), sort_keys=True) + "\n")
    finally:
        if close:
            fh.close()
    return 1 + len(series.samples) + len(series.events)


def read_series_jsonl(source: Union[str, TextIO]) -> MetricsTimeSeries:
    """Rebuild a series from a JSONL export (the exact inverse of
    :func:`write_series_jsonl`: re-exporting the result reproduces the
    input byte for byte).

    A truncated, foreign or hand-damaged file -- invalid JSON, a
    non-object line, an ill-typed or out-of-range header field, or a
    record missing a field or holding an ill-typed one -- fails with a
    :class:`ValueError` naming the file, the line and the field."""
    jsonl = validate.read_jsonl(source)
    where, header = jsonl.header(SERIES_FORMAT, SERIES_VERSION)
    rate, count = validate.POSITIVE, validate.integer(0, sys.maxsize)
    series = MetricsTimeSeries(
        clock_hz=float(validate.field(header, "clock_hz", rate, where)),
        interval_cycles=float(validate.field(header, "interval_cycles",
                                             rate, where)),
        capacity=validate.field(header, "capacity",
                                validate.integer(1, sys.maxsize), where))
    counts = {name: validate.field(header, name, count, where, 0)
              for name in ("dropped", "samples", "events")}
    expected = counts["samples"] + counts["events"]
    records = jsonl.lines[1:]
    if len(records) != expected:
        raise ValueError(f"{jsonl.name}: header promises {expected} "
                         f"records, found {len(records)} (truncated "
                         f"series?)")
    for where, record in records:
        kind = validate.field(record, "kind", validate.STRING, where)
        if kind not in _RECORD_FIELDS:
            raise validate.invalid(where, "kind", "'sample' or 'event'",
                                   kind)
        values = [validate.field(record, name, shape, where)
                  for name, shape in _RECORD_FIELDS[kind]]
        if kind == "sample":
            t_cycles, sample = values
            if not all(map(validate.is_finite_number, sample.values())):
                raise validate.invalid(where, "values", "a JSON object of "
                                       "finite numbers", sample)
            series.append(t_cycles, sample)
        else:
            t_cycles, name, attrs = values
            series.annotate(t_cycles, name, **attrs)
    series.dropped = counts["dropped"]
    return series


#: The fields of each record kind, in ``append``/``annotate`` order.
_RECORD_FIELDS = {
    "sample": (("t_cycles", validate.NUMBER), ("values", validate.OBJECT)),
    "event": (("t_cycles", validate.NUMBER), ("name", validate.STRING),
              ("attrs", validate.OBJECT)),
}


# -- rendering ---------------------------------------------------------------

def sparkline(values: Sequence[float], width: int = 64) -> str:
    """Unicode block sparkline of ``values`` (bucketed to ``width``
    columns, each showing its bucket's maximum -- spikes survive the
    downsample).  Deterministic: equal inputs render equal strings."""
    if width < 1:
        raise ValueError("width must be >= 1")
    if not values:
        return ""
    if len(values) > width:
        per = len(values) / width
        buckets = []
        for i in range(width):
            lo, hi = int(i * per), max(int(i * per) + 1,
                                       int((i + 1) * per))
            buckets.append(max(values[lo:hi]))
    else:
        buckets = list(values)
    low, high = min(buckets), max(buckets)
    span = high - low
    if span <= 0:
        return _SPARK_BLOCKS[3] * len(buckets)
    top = len(_SPARK_BLOCKS) - 1
    return "".join(
        _SPARK_BLOCKS[min(top, int((v - low) / span * top + 0.5))]
        for v in buckets)


def render_series(series: MetricsTimeSeries,
                  keys: Optional[Iterable[str]] = None,
                  width: int = 64) -> str:
    """Per-metric sparkline panel of a series, plus its annotations.

    One row per key: sparkline over the retained samples with the
    min/max/last values, followed by the point events in time order --
    the terminal rendition of the HTML dashboard.
    """
    chosen = list(keys) if keys is not None else series.keys()
    clock = series.clock_hz
    lines: List[str] = []
    span_s = (series.samples[-1].t_cycles / clock
              if series.samples else 0.0)
    lines.append(f"{len(series.samples)} samples over {span_s:.3f}s "
                 f"virtual, {len(series.events)} events"
                 + (f", {series.dropped} dropped" if series.dropped
                    else ""))
    for key in chosen:
        pts = series.points(key)
        if not pts:
            continue
        values = [v for _, v in pts]
        lines.append(f"  {key}")
        lines.append(f"    {sparkline(values, width)}  "
                     f"min={min(values):g} max={max(values):g} "
                     f"last={values[-1]:g}")
    if series.events:
        lines.append("events:")
        for event in sorted(series.events,
                            key=lambda e: (e.t_cycles, e.name)):
            attrs = ",".join(f"{k}={event.attrs[k]}"
                             for k in sorted(event.attrs))
            lines.append(f"  {event.t_cycles / clock:10.3f}s "
                         f"{event.name}" + (f" [{attrs}]" if attrs
                                            else ""))
    return "\n".join(lines)
