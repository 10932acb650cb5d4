"""The one reader and checker of JSON that comes from outside the program.

Model files, the characterization and exploration stores, bench
baselines, workload traces, event logs, series files and fault plans
all parse through :func:`read_json` or :func:`read_jsonl`; those
loaders, :class:`~repro.farm.capacity.CapacityPlan` and
:class:`~repro.obs.slo.SloTarget` check their fields with
:func:`field`, so damaged input fails with one error shape::

    {where}: missing field 'x'
    {where}: field 'x' must be <kind>, got <value>

``where`` names the file (``"{file}: line N"`` in a JSONL file) or the
document.  Every failure is a :class:`ValueError`: the CLI reports it
and exits 2, and the tolerant loaders (the stores, the baselines) take
it for a miss.  Stdlib-only, so any layer may import it.
"""

import json
import math
from typing import Callable, List, NamedTuple, Optional, Tuple

__all__ = ["BOOL", "LIST", "NON_NEGATIVE", "NUMBER", "OBJECT", "POSITIVE",
           "STRING", "JsonLines", "Kind", "as_object", "field", "integer",
           "invalid", "is_finite_number", "only_fields", "read_json",
           "read_jsonl"]


def is_finite_number(value) -> bool:
    """Is ``value`` an int or float (not a bool) with a finite float
    value?  An int beyond the float range is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


class Kind(NamedTuple):
    """A JSON value shape: its name in errors and its test."""

    name: str
    accepts: Callable[[object], bool]


STRING = Kind("a string", lambda v: isinstance(v, str))
BOOL = Kind("a bool", lambda v: isinstance(v, bool))
OBJECT = Kind("a JSON object", lambda v: isinstance(v, dict))
LIST = Kind("a list", lambda v: isinstance(v, list))
NUMBER = Kind("a finite number", is_finite_number)
NON_NEGATIVE = Kind("a finite non-negative number",
                    lambda v: is_finite_number(v) and v >= 0)
POSITIVE = Kind("a positive finite number",
                lambda v: is_finite_number(v) and v > 0)


def integer(least: Optional[int] = None,
            most: Optional[int] = None) -> Kind:
    """An int (never a bool) in ``[least, most]``; a bound left at
    ``None`` is open."""
    if most is not None:
        name = f"an int from {least} to {most}"
    else:
        name = "an int" if least is None else f"an int >= {least}"

    def accepts(value) -> bool:
        return (isinstance(value, int) and not isinstance(value, bool)
                and (least is None or value >= least)
                and (most is None or value <= most))
    return Kind(name, accepts)


_REQUIRED = object()


def invalid(where: str, name: str, wanted: str, value) -> ValueError:
    """The error for field ``name`` holding ``value`` where ``wanted``
    was due (loaders raise it for checks beyond a :class:`Kind`)."""
    return ValueError(f"{where}: field {name!r} must be {wanted}, got "
                      f"{value!r}")


def field(doc: dict, name: str, kind: Kind, where: str,
          default=_REQUIRED, nullable: bool = False):
    """``doc[name]``, which must be of ``kind`` (or ``None`` when
    ``nullable``); ``default`` when absent and given."""
    if name not in doc:
        if default is _REQUIRED:
            raise ValueError(f"{where}: missing field {name!r}")
        return default
    value = doc[name]
    if not (kind.accepts(value) or (nullable and value is None)):
        wanted = f"{kind.name} or null" if nullable else kind.name
        raise invalid(where, name, wanted, value)
    return value


def only_fields(doc: dict, known, where: str) -> None:
    """Reject a key of ``doc`` outside ``known`` (a misspelt field
    would otherwise fall back to its default unnoticed)."""
    for name in doc:
        if name not in known:
            raise ValueError(f"{where}: unknown field {name!r}; known: "
                             f"{sorted(known)}")


def as_object(value, where: str) -> dict:
    """``value`` if it is a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{where}: not a JSON object, got "
                         f"{type(value).__name__}")
    return value


def _parse(text: str, where: str) -> dict:
    try:
        value = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{where}: invalid JSON ({exc})") from None
    return as_object(value, where)


def _read(source) -> Tuple[str, str]:
    """``(name, text)`` of a path or a text stream."""
    if hasattr(source, "read"):
        return getattr(source, "name", "<stream>"), source.read()
    with open(source, encoding="utf-8") as handle:
        return str(source), handle.read()


def read_json(source) -> dict:
    """The JSON object a file (path or text stream) holds; a read
    failure is an :class:`OSError`, anything else a named
    :class:`ValueError`."""
    name, text = _read(source)
    return _parse(text, name)


class JsonLines(NamedTuple):
    """A parsed JSONL file: its name, then ``(where, object)`` per
    non-blank line, ``where`` being ``"{name}: line N"``."""

    name: str
    lines: List[Tuple[str, dict]]

    def header(self, format: str, version: int) -> Tuple[str, dict]:
        """The first line's ``(where, object)``, which must carry
        ``format`` and ``version``."""
        if not self.lines:
            raise ValueError(f"{self.name}: empty file, expected a "
                             f"{format} header")
        where, header = self.lines[0]
        if header.get("format") != format:
            raise ValueError(f"{self.name}: not a {format} file")
        if header.get("version") != version:
            raise ValueError(f"{self.name}: unsupported {format} version "
                             f"{header.get('version')!r}")
        return where, header


def read_jsonl(source) -> JsonLines:
    """Parse a JSON-lines file (path or text stream): blank lines are
    skipped, and every other line must be a JSON object."""
    name, text = _read(source)
    lines = []
    for number, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            where = f"{name}: line {number}"
            lines.append((where, _parse(line, where)))
    return JsonLines(name, lines)
