"""Observability: metrics and structured tracing for every layer.

The paper's methodology is measurement all the way down -- the ISS
characterizes, macro-models estimate, the farm simulates -- yet until
this package the scale-out layers only reported end-of-run aggregates.
:mod:`repro.obs` is the substrate that lets every later performance PR
justify itself:

- :mod:`repro.obs.metrics` -- a deterministic metrics registry:
  :class:`Counter`, :class:`Gauge`, and :class:`Histogram` (fixed
  bucket edges, so two identical runs bucket identically), keyed by
  ``(name, labels)`` and serialized in sorted order;
- :mod:`repro.obs.trace`   -- span-based structured tracing: a
  :class:`Tracer` records :class:`Span` records (explicit virtual-time
  stamps from the farm's cycle clock, or a logical step clock
  elsewhere), and the process-global tracer is a shared
  :data:`NULL_TRACER` no-op when disabled so hot loops pay one
  identity check;
- :mod:`repro.obs.export`  -- JSON-lines event logs (write *and*
  read) and the text / JSON / Prometheus summaries the CLI's
  ``--trace-out``/``--metrics`` flags emit;
- :mod:`repro.obs.profile` -- the hierarchical cycle-attribution
  profiler: :class:`CycleProfile` merges any tracer's span tree by
  call path into exact self/cumulative cycle accounting, also
  buildable from annotated call graphs and raw ISS profiles, with
  top-N tables, JSON, and folded-stack (flamegraph) exports;
- :mod:`repro.obs.bench`   -- deterministic benchmark scenarios and
  the ``BENCH_<scenario>.json`` baseline / regression gate behind
  ``python -m repro bench [--check]``;
- :mod:`repro.obs.slo`     -- the shared service-level-objective
  vocabulary (:class:`SloObjective`, :class:`SloTarget`) and the
  runtime :class:`SloMonitor` that grades epoch windows and publishes
  ``farm.slo_*`` counters;
- :mod:`repro.obs.timeseries` -- virtual-time metrics series: a
  :class:`TimeSeriesSampler` snapshots a registry every N cycles into
  a bounded :class:`MetricsTimeSeries` ring (JSONL round-trip,
  windowed ``rate``/``delta``/``max_over_time``/``quantile_over_time``
  queries, sparkline rendering);
- :mod:`repro.obs.dashboard` -- self-contained HTML dashboards of an
  exported series (inline-SVG charts, event annotations, no external
  assets).

Instrumented layers: :mod:`repro.farm.simulator` (per-request spans,
queue-depth timelines, session-cache counters), :mod:`repro.costs`
(characterization-cache hit/miss/stale counters, per-routine fit-error
gauges), :mod:`repro.isa.machine` (opt-in instruction-mix profiles),
and the :mod:`repro.ssl` / :mod:`repro.protocols` entry points.

Everything here is dependency-free within the repo (stdlib only), so
any layer may import it without cycles; the names above resolve on
first access, so a layer that only counts or traces never loads the
exporters, the series store or the dashboard.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.obs.metrics": (
        "Counter", "DEFAULT_LATENCY_MS_EDGES", "Gauge", "Histogram",
        "MetricsRegistry", "get_registry", "reset_metrics", "set_registry"),
    "repro.obs.trace": (
        "NULL_TRACER", "NullTracer", "Span", "Tracer", "configure_tracing",
        "get_tracer", "reset_tracing", "tracing_enabled"),
    "repro.obs.export": (
        "metrics_summary", "read_events_jsonl", "render_metrics",
        "write_events_jsonl"),
    "repro.obs.profile": ("CycleProfile", "ProfileNode"),
    "repro.obs.slo": (
        "SloMonitor", "SloObjective", "SloReport", "SloTarget", "SloWindow",
        "parse_slo"),
    "repro.obs.timeseries": (
        "DEFAULT_SERIES_CAPACITY", "MetricsTimeSeries", "SeriesEvent",
        "SeriesSample", "TimeSeriesSampler", "read_series_jsonl",
        "render_series", "snapshot_registry", "sparkline",
        "write_series_jsonl"),
    "repro.obs.dashboard": ("render_dashboard_html",),
})

__all__ = [
    "Counter", "CycleProfile", "DEFAULT_LATENCY_MS_EDGES",
    "DEFAULT_SERIES_CAPACITY", "Gauge", "Histogram", "MetricsRegistry",
    "MetricsTimeSeries", "NULL_TRACER", "NullTracer", "ProfileNode",
    "SeriesEvent", "SeriesSample", "SloMonitor", "SloObjective",
    "SloReport", "SloTarget", "SloWindow", "Span",
    "TimeSeriesSampler", "Tracer", "configure_tracing",
    "get_registry", "get_tracer", "metrics_summary", "parse_slo",
    "read_events_jsonl", "read_series_jsonl", "render_dashboard_html",
    "render_metrics", "render_series", "reset_metrics",
    "reset_tracing", "set_registry", "snapshot_registry", "sparkline",
    "tracing_enabled", "write_events_jsonl", "write_series_jsonl",
]
