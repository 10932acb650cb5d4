"""In-memory span recording around calls into the program's layers.

A traced benchmark round wraps the public functions of each layer (the
mpn arithmetic, the macro-model estimator, the explorer, protocol
keying, SHA-1, the farm scheduler and event loop, ...) from the
benchmark's side: the program's sources are untouched, and an untraced
run executes no wrapper at all.

Three kinds of wrapper, chosen by how often the function runs:

* kept (``timed(..., keep=True)`` and ``span``) -- timed, and every
  call is kept as a span record ``(name, start, end, parent)`` for the
  trace file;
* ``timed`` -- timed and aggregated (calls, inclusive and self time)
  without keeping each record, for functions called up to a few
  million times per round, whose records would dominate memory;
* ``counted`` -- only counted, for functions called millions of times
  whose timing would dominate the round (``mp.hooks.trace``).

Self time is derived on the fly: each open call accumulates the
duration of the timed calls nested in it, and its self time is its
duration minus that.
"""

import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class LayerStat:
    """Aggregate of every timed call recorded under one name."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"calls": self.calls, "total_s": self.total_s,
                "self_s": self.self_s}


class SpanRecorder:
    """Spans, layer aggregates and call counts of one traced run."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: ``[name_id, start, end, parent_index]``; parent -1 is a root.
        self.spans: List[list] = []
        self.stats: Dict[str, LayerStat] = {}
        self.counts: Dict[str, int] = {}
        #: Distinct keys observed at a layer boundary (e.g. the
        #: ``(routine, n)`` pairs the estimator is asked to price).
        self.distinct: Dict[str, set] = {}
        # One frame per open timed call (see ``_open``).
        self._stack: List[list] = []

    def stat(self, name: str) -> LayerStat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = LayerStat()
        return stat

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _open(self, name_id: int, keep: bool) -> list:
        """Push a frame ``[child_time, span_index, parent, name_id,
        start]`` for a timed call that starts now."""
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        index = parent
        if keep:
            index = len(self.spans)
            self.spans.append(None)
        frame = [0.0, index, parent, name_id if keep else -1, 0.0]
        stack.append(frame)
        frame[4] = _clock()
        return frame

    def _close(self, frame: list, stat: LayerStat) -> None:
        end = _clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[4]
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += duration - frame[0]
        if stack:
            stack[-1][0] += duration
        if frame[3] >= 0:
            self.spans[frame[1]] = [frame[3], frame[4], end, frame[2]]

    def timed(self, name: str, fn: Callable, keep: bool = False,
              key: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to time each call under ``name``.

        ``keep`` stores every call as a span record; ``key`` maps the
        call's arguments to a value collected in ``distinct[name]``.
        """
        stat = self.stat(name)
        name_id = self._name_id(name)
        seen = self.distinct.setdefault(name, set()) if key else None
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            if seen is not None:
                seen.add(key(*args, **kwargs))
            frame = open_(name_id, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, stat)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count its calls under ``name``."""
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A kept span around a block of the benchmark's own code."""
        stat = self.stat(name)
        frame = self._open(self._name_id(name), True)
        try:
            yield
        finally:
            self._close(frame, stat)

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured outside any wrapper (set-up work)."""
        stat = self.stat(name)
        stat.calls += 1
        stat.total_s += end - start
        stat.self_s += end - start
        self.spans.append([self._name_id(name), start, end, -1])

    def total(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.total_s if stat else 0.0

    def self_time(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.self_s if stat else 0.0

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def count(self, name: str) -> int:
        return self.counts.get(name, 0)

    def write(self, path: str, **header) -> None:
        """Write spans, aggregates and counts as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        document = dict(header)
        document["names"] = self.names
        document["spans"] = [span for span in self.spans
                             if span is not None]
        document["layers"] = {name: stat.as_dict()
                              for name, stat in sorted(self.stats.items())}
        document["counts"] = dict(sorted(self.counts.items()))
        document["distinct"] = {name: len(keys) for name, keys
                                in sorted(self.distinct.items())}
        with open(path, "w") as fh:
            json.dump(document, fh)


class Patches:
    """Wrappers installed over program functions, undone in reverse."""

    def __init__(self):
        self._undo: List[tuple] = []

    def method(self, cls, name: str, wrap: Callable) -> None:
        """Replace ``cls.name`` (defined on ``cls`` itself)."""
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, wrap(original))

    def function(self, module, name: str, wrap: Callable) -> None:
        """Replace ``module.name`` in every loaded ``repro`` module that
        bound it by name (``from module import name``)."""
        original = getattr(module, name)
        wrapper = wrap(original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            namespace = vars(loaded)
            for attr, value in list(namespace.items()):
                if value is original:
                    self._undo.append((loaded, attr, original))
                    setattr(loaded, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def instrument(recorder: SpanRecorder) -> Patches:
    """Wrap every layer boundary the per-layer metrics are read from.

    Installed for every workload alike, so a layer a workload does not
    reach simply reports zero calls.
    """
    import repro.farm.metrics
    import repro.protocols.builtin
    from repro.crypto import sha1
    from repro.crypto.modexp import ModExpEngine
    from repro.explore import AlgorithmExplorer
    from repro.farm.scheduler import SCHEDULERS
    from repro.farm.simulator import Core, FarmSimulator
    from repro.macromodel.estimator import CycleLedger
    from repro.macromodel.model import MacroModel
    from repro.mp import hooks, mpn

    timed, counted = recorder.timed, recorder.counted
    patches = Patches()

    def kept(name):
        return lambda fn: timed(name, fn, keep=True)

    def hot(name, key=None):
        return lambda fn: timed(name, fn, key=key)

    # -- exploration: explorer -> modexp -> mpn -> trace hook -> ledger
    patches.method(AlgorithmExplorer, "explore", kept("explore.explore"))
    patches.method(AlgorithmExplorer, "evaluate", kept("explore.evaluate"))
    for name in ("powm", "powm_crt"):
        patches.method(ModExpEngine, name, kept("crypto.modexp"))
    for name, value in sorted(vars(mpn).items()):
        if (callable(value) and not name.startswith("_")
                and getattr(value, "__module__", None) == mpn.__name__):
            patches.function(mpn, name, hot("mp.mpn"))
    patches.function(hooks, "trace",
                     lambda fn: counted("mp.hooks.trace", fn))
    patches.method(CycleLedger, "__call__", hot(
        "macromodel.ledger",
        key=lambda ledger, routine, params: (routine, params.get("n", 1))))
    patches.method(MacroModel, "predict", hot("macromodel.predict"))

    # -- farm: keying -> SHA-1; scheduler -> backlog scans; event loop
    patches.function(repro.protocols.builtin, "session_id_for_client",
                     hot("protocols.keying", key=lambda client: client))
    for name in ("update", "digest"):
        patches.method(sha1.Sha1, name, hot("crypto.sha1"))
    patches.function(sha1, "_compress",
                     lambda fn: counted("crypto.sha1.compress", fn))
    for cls in SCHEDULERS.values():
        if "select" in cls.__dict__:
            patches.method(cls, "select", hot("farm.scheduler.select"))
    patches.method(Core, "backlog_cycles", hot("farm.core.backlog"))
    patches.method(FarmSimulator, "run", kept("farm.simulator"))
    patches.function(repro.farm.metrics, "summarize",
                     kept("farm.metrics.summarize"))
    return patches
