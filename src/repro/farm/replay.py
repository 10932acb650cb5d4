"""JSONL workload traces: export a request stream, replay it anywhere.

Comparing schedulers, core mixes, or fault plans is only honest when
every configuration serves the *same* traffic.  Seeded generation
already guarantees that in-process; a trace file extends the guarantee
across processes, CI jobs, and repo versions: one header line of
metadata, then one JSON record per :class:`~repro.farm.workload.
SessionRequest`, floats serialized by ``repr`` so arrival cycles
round-trip bit-exactly (``export -> import`` reproduces the identical
request list, and replaying it reproduces the identical
:class:`~repro.farm.simulator.FarmResult` -- covered by the CI
``shard-smoke`` job).
"""

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.protocols import protocol_names
from repro.ssl.throughput import DEFAULT_CLOCK_HZ
from repro.farm.workload import SessionRequest

__all__ = ["TRACE_FORMAT", "TRACE_VERSION", "WorkloadTrace",
           "export_workload", "import_workload"]

TRACE_FORMAT = "repro.farm.workload"
TRACE_VERSION = 1

#: Record fields in :class:`SessionRequest` order, each with the JSON
#: types it accepts.
_FIELD_TYPES = {"seq": (int,), "arrival_cycle": (int, float),
                "protocol": (str,), "size_bytes": (int,),
                "resumed": (bool,), "client_id": (int,)}
_FIELDS = tuple(_FIELD_TYPES)


@dataclass
class WorkloadTrace:
    """A request stream plus the metadata it was generated under."""

    requests: List[SessionRequest]
    clock_hz: float = DEFAULT_CLOCK_HZ
    meta: Dict = field(default_factory=dict)


def export_workload(path, requests: Sequence[SessionRequest],
                    clock_hz: float = DEFAULT_CLOCK_HZ,
                    **meta) -> int:
    """Write ``requests`` as a JSONL trace; returns the record count.

    Extra keyword arguments land in the header's ``meta`` object --
    conventionally the generation parameters (profile, seed, shards)
    so a trace documents its own provenance.
    """
    path = str(path)
    with open(path, "w", encoding="utf-8") as handle:
        header = {"format": TRACE_FORMAT, "version": TRACE_VERSION,
                  "count": len(requests), "clock_hz": clock_hz,
                  "meta": dict(meta)}
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for request in requests:
            record = {name: getattr(request, name) for name in _FIELDS}
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(requests)


def import_workload(path) -> WorkloadTrace:
    """Read a JSONL trace back into a :class:`WorkloadTrace`.

    Validates the header (a JSON object with the format marker, the
    version, and well-typed ``count``, ``clock_hz`` and ``meta``) and
    every record's fields, their JSON types, and its protocol against
    the registry, so a truncated, foreign, or hand-damaged file fails
    with a :class:`ValueError` naming the file and the line or field
    instead of replaying a partial or unpriceable population.
    """
    path = str(path)
    with open(path, "r", encoding="utf-8") as handle:
        lines = [(number, line) for number, line in
                 enumerate((raw.strip() for raw in handle), start=1)
                 if line]
    if not lines:
        raise ValueError(f"{path}: empty workload trace")
    number, line = lines[0]
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {number}: invalid JSON "
                         f"({exc})") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: line {number}: header is not a JSON "
                         "object")
    if header.get("format") != TRACE_FORMAT:
        raise ValueError(f"{path}: not a {TRACE_FORMAT} trace")
    if header.get("version") != TRACE_VERSION:
        raise ValueError(f"{path}: unsupported trace version "
                         f"{header.get('version')!r}")
    records = lines[1:]
    expected = header.get("count", len(records))
    if (not isinstance(expected, int) or isinstance(expected, bool)
            or expected < 0):
        raise ValueError(f"{path}: header field 'count' must be a "
                         f"non-negative int, got {expected!r}")
    clock_hz = header.get("clock_hz", DEFAULT_CLOCK_HZ)
    if (not isinstance(clock_hz, (int, float))
            or isinstance(clock_hz, bool)
            or not (math.isfinite(clock_hz) and clock_hz > 0)):
        raise ValueError(f"{path}: header field 'clock_hz' must be a "
                         f"positive finite number, got {clock_hz!r}")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: header field 'meta' must be a JSON "
                         f"object, got {meta!r}")
    if len(records) != expected:
        raise ValueError(f"{path}: header promises {expected} records, "
                         f"found {len(records)} (truncated trace?)")
    known = protocol_names()
    requests = []
    for number, line in records:
        where = f"{path}: line {number}"
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where}: invalid JSON ({exc})") from None
        if not isinstance(data, dict):
            raise ValueError(f"{where}: record is not a JSON object")
        for name, types in _FIELD_TYPES.items():
            if name not in data:
                raise ValueError(f"{where}: record is missing field "
                                 f"{name!r}")
            value = data[name]
            # bool is an int subclass: only "resumed" may be one.
            if (not isinstance(value, types)
                    or isinstance(value, bool) != (bool in types)):
                kinds = " or ".join(t.__name__ for t in types)
                raise ValueError(f"{where}: field {name!r} must be "
                                 f"{kinds}, got {value!r}")
        if data["protocol"] not in known:
            raise ValueError(
                f"{where}: trace names unregistered protocol "
                f"{data['protocol']!r}; registered: {list(known)}")
        requests.append(SessionRequest(
            seq=data["seq"],
            arrival_cycle=float(data["arrival_cycle"]),
            protocol=data["protocol"],
            size_bytes=data["size_bytes"],
            resumed=data["resumed"],
            client_id=data["client_id"]))
    return WorkloadTrace(requests=requests, clock_hz=float(clock_hz),
                         meta=dict(meta))
