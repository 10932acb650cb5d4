"""Deterministic parallel sweep execution.

The paper's headline methodology win is *evaluation throughput*:
macro-model-driven native execution explored 450+ modexp candidates in
hours instead of ISS-weeks.  The sweeps that remain in this
reproduction (candidate exploration, platform characterization, A-D
curve formulation) are embarrassingly parallel, so this module gives
them one shared fan-out substrate whose results are **element-for-
element identical to a serial run**:

- work is partitioned by :func:`chunked` -- deterministic, contiguous
  chunk boundaries that depend only on the item count and the job
  count, never on timing;
- task functions are pure: workers receive picklable payloads and
  return plain values (no shared mutable state, no global registries);
- results are merged in **submission order** regardless of completion
  order, so ``executor.map(fn, tasks)`` returns exactly what a serial
  ``[fn(t) for t in tasks]`` would;
- completion callbacks (used for incremental result-store flushes) may
  fire in completion order, but never influence the merged output.

Three executors implement one ``map`` surface: :class:`SerialExecutor`
(the default -- zero new failure modes), :class:`ThreadExecutor`
(in-process; useful for tests and GIL-released workloads), and
:class:`ProcessExecutor` (the real fan-out across cores).
:func:`get_executor` builds the serial one for one job and the process
one for more, the job count coming from an explicit ``jobs`` or the
``$REPRO_JOBS`` environment variable.  Pool classes resolve when the
first pool is built, so importing this module loads neither
``concurrent.futures.process`` nor :mod:`multiprocessing`.

Observability: every ``map`` runs under a ``parallel.map`` span and
publishes ``parallel.chunks_scheduled`` / ``parallel.items`` counters
plus a ``parallel.worker_utilization`` gauge (worker-busy seconds over
``jobs * elapsed``), so ``repro profile`` can attribute the fan-out.
"""

import os
import time
from concurrent import futures as _futures
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.obs import get_registry, get_tracer

__all__ = ["CHUNKS_PER_JOB", "Executor", "JOBS_ENV",
           "ProcessExecutor", "SerialExecutor", "ThreadExecutor",
           "chunked", "chunk_bounds", "executor_scope", "get_executor",
           "resolve_jobs"]

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Chunks submitted per worker: >1 so per-item cost variance load-
#: balances, small enough that per-chunk overhead stays negligible.
CHUNKS_PER_JOB = 4


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The effective worker count: explicit ``jobs``, else ``$REPRO_JOBS``,
    else 1 (serial)."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"${JOBS_ENV} must be an integer, got {raw!r}") from None
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return jobs


def chunk_bounds(n_items: int, jobs: int,
                 chunks_per_job: int = CHUNKS_PER_JOB
                 ) -> List[Tuple[int, int]]:
    """Deterministic contiguous ``(start, end)`` chunk boundaries.

    A pure function of ``(n_items, jobs, chunks_per_job)`` -- never of
    timing -- so a parallel run partitions work identically every time
    (and a serial run is the single chunk ``[(0, n_items)]``).
    """
    if n_items <= 0:
        return []
    if jobs <= 1:
        return [(0, n_items)]
    n_chunks = min(n_items, jobs * max(1, chunks_per_job))
    size, extra = divmod(n_items, n_chunks)
    bounds = []
    start = 0
    for index in range(n_chunks):
        end = start + size + (1 if index < extra else 0)
        bounds.append((start, end))
        start = end
    return bounds


def chunked(items: Sequence, jobs: int,
            chunks_per_job: int = CHUNKS_PER_JOB) -> List[List]:
    """Split ``items`` into the deterministic chunks of
    :func:`chunk_bounds` (contiguous, order-preserving)."""
    items = list(items)
    return [items[start:end]
            for start, end in chunk_bounds(len(items), jobs,
                                           chunks_per_job)]


def _timed_call(fn: Callable, task) -> Tuple[float, object]:
    """Run one task and measure its wall time (module-level so
    :class:`ProcessExecutor` can pickle it)."""
    start = time.perf_counter()
    result = fn(task)
    return time.perf_counter() - start, result


class Executor:
    """One ``map`` surface over serial, thread, and process back ends.

    :meth:`map` preserves task order in its result list no matter the
    completion order, so any caller is byte-compatible with a serial
    run.  ``on_result(index, result)`` fires as results *complete*
    (serial: in order) -- callers use it for incremental flushes and
    progress, never for ordering.
    """

    kind = "abstract"
    jobs = 1

    def map(self, fn: Callable, tasks: Sequence,
            on_result: Optional[Callable[[int, object], None]] = None,
            label: str = "map") -> List:
        tasks = list(tasks)
        registry = get_registry()
        registry.counter("parallel.chunks_scheduled",
                         kind=self.kind).inc(len(tasks))
        start = time.perf_counter()
        with get_tracer().span("parallel.map", label=label,
                               kind=self.kind, jobs=self.jobs,
                               chunks=len(tasks)):
            results, busy = self._run(fn, tasks, on_result)
        elapsed = time.perf_counter() - start
        if tasks and elapsed > 0:
            registry.gauge("parallel.worker_utilization",
                           kind=self.kind).set(
                min(1.0, busy / (self.jobs * elapsed)))
        return results

    def _run(self, fn, tasks, on_result):
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled workers (no-op for the serial executor)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class SerialExecutor(Executor):
    """In-order, in-process execution -- the default everywhere."""

    kind = "serial"
    jobs = 1

    def _run(self, fn, tasks, on_result):
        results = []
        busy = 0.0
        for index, task in enumerate(tasks):
            wall, result = _timed_call(fn, task)
            busy += wall
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results, busy


class _PoolExecutor(Executor):
    """Shared submit/merge logic over a ``concurrent.futures`` pool."""

    #: ``concurrent.futures`` pool class name, resolved on first use
    _pool_name = ""

    def __init__(self, jobs: int):
        self.jobs = resolve_jobs(jobs)
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            pool_cls = getattr(_futures, self._pool_name)
            self._pool = pool_cls(max_workers=self.jobs)
        return self._pool

    def _run(self, fn, tasks, on_result):
        pool = self._ensure_pool()
        pending = {pool.submit(_timed_call, fn, task): index
                   for index, task in enumerate(tasks)}
        slots: List = [None] * len(tasks)
        busy = 0.0
        for future in _futures.as_completed(pending):
            index = pending[future]
            wall, result = future.result()
            busy += wall
            slots[index] = result
            if on_result is not None:
                on_result(index, result)
        return slots, busy

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


class ThreadExecutor(_PoolExecutor):
    """Thread-pool fan-out (in-process; the mp tracing hook is
    thread-local, so concurrent estimations never cross-charge)."""

    kind = "thread"
    _pool_name = "ThreadPoolExecutor"


class ProcessExecutor(_PoolExecutor):
    """Process-pool fan-out across cores.  Task functions must be
    module-level (picklable) and payloads plain data."""

    kind = "process"
    _pool_name = "ProcessPoolExecutor"


def get_executor(jobs: Optional[int] = None) -> Executor:
    """Build the executor for ``jobs`` workers (resolved through
    :func:`resolve_jobs`): serial for one, a process pool for more."""
    jobs = resolve_jobs(jobs)
    return ProcessExecutor(jobs) if jobs > 1 else SerialExecutor()


@contextmanager
def executor_scope(jobs: Optional[int] = None,
                   executor: Optional[Executor] = None
                   ) -> Iterator[Executor]:
    """Yield ``executor`` if given, else build one for ``jobs`` and
    close it on exit (callers never leak a pool they did not create)."""
    if executor is not None:
        yield executor
        return
    own = get_executor(jobs)
    try:
        yield own
    finally:
        own.close()
