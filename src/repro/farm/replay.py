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
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.obs import validate
from repro.protocols import protocol_names
from repro.ssl.throughput import DEFAULT_CLOCK_HZ
from repro.farm.workload import SessionRequest

__all__ = ["TRACE_FORMAT", "TRACE_VERSION", "WorkloadTrace",
           "export_workload", "import_workload"]

TRACE_FORMAT = "repro.farm.workload"
TRACE_VERSION = 1

#: Record fields in :class:`SessionRequest` order, each with its kind.
_FIELDS = {"seq": validate.integer(),
           "arrival_cycle": validate.NON_NEGATIVE,
           "protocol": validate.STRING, "size_bytes": validate.integer(),
           "resumed": validate.BOOL, "client_id": validate.integer()}


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
    jsonl = validate.read_jsonl(path)
    where, header = jsonl.header(TRACE_FORMAT, TRACE_VERSION)
    records = jsonl.lines[1:]
    expected = validate.field(header, "count", validate.integer(0), where,
                              len(records))
    clock_hz = validate.field(header, "clock_hz", validate.POSITIVE, where,
                              DEFAULT_CLOCK_HZ)
    meta = validate.field(header, "meta", validate.OBJECT, where, {})
    if len(records) != expected:
        raise ValueError(f"{jsonl.name}: header promises {expected} "
                         f"records, found {len(records)} (truncated trace?)")
    known = protocol_names()
    requests = []
    for where, data in records:
        values = {name: validate.field(data, name, kind, where)
                  for name, kind in _FIELDS.items()}
        if values["protocol"] not in known:
            raise validate.invalid(where, "protocol", f"a registered "
                                   f"protocol {list(known)}",
                                   values["protocol"])
        values["arrival_cycle"] = float(values["arrival_cycle"])
        requests.append(SessionRequest(**values))
    return WorkloadTrace(requests=requests, clock_hz=float(clock_hz),
                         meta=dict(meta))
