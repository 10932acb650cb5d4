"""Exporters: JSON-lines event logs and metrics summaries.

The trace file format is one JSON object per line, in emission order:
spans as ``{"kind": "span", ...}`` and point events as ``{"kind":
"event", ...}``.  Keys are sorted and nothing is timestamped with wall
clock, so a seeded run writes a byte-identical log every time.
:func:`read_events_jsonl` is the inverse -- it rebuilds a
:class:`~repro.obs.trace.Tracer` from a log file, which is how the
``profile`` CLI subcommand analyses traces offline.

:func:`render_metrics` renders a registry as a human-readable table
(default) or in the Prometheus text exposition format
(``format="prometheus"``): ``name{label="v"} value`` samples, with
histograms expanded into cumulative ``_bucket``/``_sum``/``_count``
series, so external scrapers ingest a metrics dump without custom
parsing.
"""

import json
import re
from typing import Dict, List, Optional, TextIO, Union

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import Span, TraceEvent, Tracer
from repro.obs.validate import is_finite_number


def write_events_jsonl(tracer: Tracer,
                       destination: Union[str, TextIO]) -> int:
    """Write the tracer's records to ``destination`` (path or file
    object) as JSON lines; returns the number of records written."""
    records = tracer.records()
    if hasattr(destination, "write"):
        fh, close = destination, False
    else:
        fh, close = open(destination, "w"), True
    try:
        for record in records:
            fh.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")
    finally:
        if close:
            fh.close()
    return len(records)


#: Field -> (accepted JSON types, may be null), per record kind.
_NUMBER = (int, float)
_RECORD_FIELDS = {
    "span": {"span_id": ((int,), False), "parent_id": ((int,), True),
             "name": ((str,), False), "start": (_NUMBER, False),
             "end": (_NUMBER, True), "attrs": ((dict,), False)},
    "event": {"name": ((str,), False), "time": (_NUMBER, False),
              "span_id": ((int,), True), "attrs": ((dict,), False)},
}


def _check_record(payload, where: str) -> None:
    """Reject a line that is not a span or event record, naming the
    field: a missing or ill-typed one, or a non-finite number."""
    if not isinstance(payload, dict):
        raise ValueError(f"{where}: a record is a JSON object, got "
                         f"{type(payload).__name__}")
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in _RECORD_FIELDS:
        raise ValueError(f"{where}: field 'kind' must be 'span' or "
                         f"'event', got {kind!r}")
    for name, (types, nullable) in _RECORD_FIELDS[kind].items():
        if name not in payload:
            raise ValueError(f"{where}: {kind} field {name!r} is missing")
        value = payload[name]
        if value is None and nullable:
            continue
        if (isinstance(value, bool) or not isinstance(value, types)
                or (types is _NUMBER and not is_finite_number(value))):
            raise ValueError(f"{where}: {kind} field {name!r} has an "
                             f"invalid value {value!r}")


def read_events_jsonl(source: Union[str, TextIO]) -> Tracer:
    """Rebuild a :class:`Tracer` from a JSON-lines event log.

    Span ids, parent links, timestamps, and emission order are
    preserved, so ``write_events_jsonl(read_events_jsonl(path))``
    round-trips byte-identically and the profiler can reconstruct the
    span tree from a file exactly as from the live tracer.  A line that
    is not valid JSON or not a well-formed span or event record raises
    a :class:`ValueError` naming the file, the line and the field.
    """
    if hasattr(source, "read"):
        name = getattr(source, "name", "<stream>")
        lines = source.read().splitlines()
    else:
        name = source
        with open(source) as fh:
            lines = fh.read().splitlines()
    tracer = Tracer()
    max_id = 0
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{name}: line {number}"
        try:
            payload = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"{where}: invalid JSON ({exc})") from None
        _check_record(payload, where)
        if payload["kind"] == "span":
            span = Span(span_id=payload["span_id"],
                        parent_id=payload["parent_id"],
                        name=payload["name"], start=payload["start"],
                        end=payload["end"], attrs=dict(payload["attrs"]))
            tracer.spans.append(span)
            tracer._records.append(span)
            max_id = max(max_id, span.span_id)
        else:
            event = TraceEvent(name=payload["name"],
                               time=payload["time"],
                               span_id=payload["span_id"],
                               attrs=dict(payload["attrs"]))
            tracer.events.append(event)
            tracer._records.append(event)
    tracer._next_id = max_id + 1
    return tracer


def metrics_summary(registry: Optional[MetricsRegistry] = None) -> Dict:
    """The JSON form of a registry (the CLI's ``--metrics`` payload)."""
    registry = registry if registry is not None else get_registry()
    return registry.as_dict()


def _prom_name(name: str) -> str:
    """A legal Prometheus metric name (dots etc. become underscores)."""
    sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_escape(value) -> str:
    """Escape a label value per the text exposition format: backslash
    first (so the other escapes survive), then quote, then newline."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _prom_label_str(labels) -> str:
    """``{k="v",...}`` with value escaping, or '' when unlabelled."""
    if not labels:
        return ""
    rendered = ",".join(
        '{}="{}"'.format(_prom_name(key), _prom_escape(value))
        for key, value in labels)
    return "{" + rendered + "}"


def _render_prometheus(registry: MetricsRegistry,
                       timestamp_ms: Optional[int] = None) -> str:
    # Explicit timestamps (milliseconds, appended per sample line) let
    # the /metrics soak endpoint expose *virtual* time to a scraper
    # instead of the scrape wall clock.
    stamp = "" if timestamp_ms is None else f" {int(timestamp_ms)}"
    lines: List[str] = []
    typed = set()
    for name, labels, instrument in registry.items():
        payload = instrument.as_dict()
        kind = payload["type"]
        metric = _prom_name(name)
        if metric not in typed:
            lines.append(f"# TYPE {metric} {kind}")
            typed.add(metric)
        if kind in ("counter", "gauge"):
            lines.append(f"{metric}{_prom_label_str(labels)} "
                         f"{payload['value']:g}{stamp}")
            continue
        # Histogram: cumulative buckets, then sum and count.
        cumulative = 0
        for edge, count in zip(payload["edges"],
                               payload["bucket_counts"]):
            cumulative += count
            bucket_labels = tuple(labels) + (("le", f"{edge:g}"),)
            lines.append(f"{metric}_bucket{_prom_label_str(bucket_labels)}"
                         f" {cumulative}{stamp}")
        inf_labels = tuple(labels) + (("le", "+Inf"),)
        lines.append(f"{metric}_bucket{_prom_label_str(inf_labels)} "
                     f"{payload['count']}{stamp}")
        lines.append(f"{metric}_sum{_prom_label_str(labels)} "
                     f"{payload['sum']:g}{stamp}")
        lines.append(f"{metric}_count{_prom_label_str(labels)} "
                     f"{payload['count']}{stamp}")
    return "\n".join(lines)


def render_metrics(registry: Optional[MetricsRegistry] = None,
                   format: str = "text",
                   timestamp_ms: Optional[int] = None) -> str:
    """Render a registry: ``format="text"`` (one instrument per line,
    human-readable) or ``format="prometheus"`` (text exposition;
    ``timestamp_ms`` stamps every sample line with an explicit
    millisecond timestamp -- virtual time, for the soak endpoint)."""
    registry = registry if registry is not None else get_registry()
    if format == "prometheus":
        return _render_prometheus(registry, timestamp_ms=timestamp_ms)
    if timestamp_ms is not None:
        raise ValueError("timestamp_ms requires format='prometheus'")
    if format != "text":
        raise ValueError(f"unknown metrics format {format!r} "
                         f"(expected 'text' or 'prometheus')")
    lines = []
    for key, payload in registry.as_dict().items():
        kind = payload["type"]
        if kind == "histogram":
            mean = (payload["sum"] / payload["count"]
                    if payload["count"] else 0.0)
            lines.append(f"{key:52s} histogram count={payload['count']} "
                         f"mean={mean:.3f} min={payload['min']} "
                         f"max={payload['max']}")
        else:
            lines.append(f"{key:52s} {kind} {payload['value']:g}")
    return "\n".join(lines)
