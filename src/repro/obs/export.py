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
from math import isfinite
from typing import Dict, List, Optional, TextIO, Union

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import Span, TraceEvent, Tracer
from repro.obs import validate


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


_ID = validate.integer()

#: Field -> (kind, may be null), per record kind, in the order of the
#: record class's constructor arguments.
_RECORD_FIELDS = {
    "span": {"span_id": (_ID, False),
             "parent_id": (_ID, True),
             "name": (validate.STRING, False),
             "start": (validate.NUMBER, False),
             "end": (validate.NUMBER, True),
             "attrs": (validate.OBJECT, False)},
    "event": {"name": (validate.STRING, False),
              "time": (validate.NUMBER, False),
              "span_id": (_ID, True),
              "attrs": (validate.OBJECT, False)},
}

#: The Python type of the values each kind above accepts outright; a
#: finite number must also pass ``isfinite``.
_FAST_TYPES = {_ID: int, validate.STRING: str, validate.NUMBER: float,
               validate.OBJECT: dict}


def _checks(fields) -> List[tuple]:
    """``(field, types, finite, kind, may be null)`` per field.  The
    first three are the cheap test every valid record of the usual
    shape passes; a value failing it -- an int for a number, say, or a
    bad value -- takes :func:`validate.field` with the last two, which
    accepts it or raises the error naming it."""
    return [(name, frozenset([_FAST_TYPES[shape]] + [type(None)] * nullable),
             shape is validate.NUMBER, shape, nullable)
            for name, (shape, nullable) in fields.items()]


#: Per record kind: its class and the checks of its fields.
_RECORD_CHECKS = {"span": (Span, _checks(_RECORD_FIELDS["span"])),
                  "event": (TraceEvent, _checks(_RECORD_FIELDS["event"]))}
_MISSING = object()


def read_events_jsonl(source: Union[str, TextIO]) -> Tracer:
    """Rebuild a :class:`Tracer` from a JSON-lines event log.

    Span ids, parent links, timestamps, and emission order are
    preserved, so ``write_events_jsonl(read_events_jsonl(path))``
    round-trips byte-identically and the profiler can reconstruct the
    span tree from a file exactly as from the live tracer.  A line that
    is not valid JSON or not a well-formed span or event record raises
    a :class:`ValueError` naming the file, the line and the field.
    """
    tracer = Tracer()
    records = tracer._records
    max_id = 0
    for where, payload in validate.read_jsonl(source).lines:
        kind = payload.get("kind")
        check = _RECORD_CHECKS.get(kind) if type(kind) is str else None
        if check is None:
            kind = validate.field(payload, "kind", validate.STRING, where)
            raise validate.invalid(where, "kind", "'span' or 'event'",
                                   kind)
        cls, fields = check
        values = []
        for name, types, finite, shape, nullable in fields:
            value = payload.get(name, _MISSING)
            if type(value) not in types or (
                    finite and value is not None and not isfinite(value)):
                value = validate.field(payload, name, shape, where,
                                       nullable=nullable)
            values.append(value)
        record = cls(*values)
        records.append(record)
        if cls is Span:
            tracer.spans.append(record)
            max_id = max(max_id, record.span_id)
        else:
            tracer.events.append(record)
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
