"""Dispatch policies for the security-core farm.

Three policies, mirroring the scale-out literature the farm models
(Paul & Chakrabarti's multi-core SSL/TLS processor with a preferential
scheduling algorithm, arXiv:1410.7560):

- **round-robin** -- the baseline: cores in rotation, blind to both
  load and job class.
- **least-loaded** -- shortest-backlog-first over the estimated
  outstanding cycles of each core.
- **preferential** -- class-aware: public-key-heavy jobs (full SSL and
  WTLS handshakes) go to TIE-extended cores, bulk-symmetric jobs (ESP,
  WEP, resumed SSL) to base cores, each class least-loaded within its
  preferred pool; resumed requests of any resumable registered
  protocol are first routed to the core whose session cache holds the
  client's key (cache affinity), so the abbreviated-handshake price is
  actually realized.

Dispatch probes almost no cores.  Least-loaded selection (the
``least-loaded`` policy, and each ``preferential`` pool) keeps an
*idle-core index*: a min-heap of idle core indices per pool, and one
wake heap of ``(busy_until, index)`` entries for the busy cores.  Every
live core has exactly one entry in one of them.  Between faults a
core's ``busy_until`` only grows, so a core cannot go idle before its
wake key; each pick first moves the due wake entries (key ``<= now``)
into the idle heaps.  An entry is confirmed idle whenever it changes
heaps or is about to be picked, so a core serving a zero-cycle
request, or finishing at ``now``, counts as idle, and a stale idle
entry (its core was picked since) moves to the wake heap.

The confirmation is exact without asking the core for its backlog.
A backlog is ``max(0, busy_until - now)`` plus the queued estimates,
and neither term is negative; for floats ``busy_until - now > 0``
exactly when ``busy_until > now``.  So a core is idle (backlog exactly
``0.0``) exactly when ``busy_until <= now`` and its queue is empty or
holds only zero-cycle estimates; only that last case asks
``backlog_cycles(now)``.  Building the index asks every live core once.
The confirmed top of a pool's idle heap is therefore the lowest-index
idle core, the very core the full ``(backlog, index)`` scan picks.
When a pool has no idle core, the pick falls back to that strict-``<``
scan over the pool.  The pools and the index are built lazily for each
run's ``cores`` list and rebuilt when the simulator reports an applied
fault through the optional :meth:`Scheduler.cores_changed` hook.

Cache affinity reads the run's *session directory*: the simulator maps
``(protocol, key)`` to the ascending indices of the cores that stored
that key, a superset of the cores still holding it.  The affinity probe
asks only those candidates, in ascending order, with ``knows_session``,
and drops the ones an LRU eviction or a flush made stale.
"""

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.farm.workload import SessionRequest, is_public_key_heavy
from repro.protocols import SessionKeys, get_protocol

#: A run's session directory: ``(protocol, cache key)`` -> ascending
#: indices of the cores that stored the key (see the module docstring).
SessionDirectory = Dict[Tuple[str, bytes], List[int]]


class Scheduler:
    """Base policy: picks a core index for each arriving request.

    The simulator calls two optional hooks when a scheduler defines
    them, found by ``getattr`` so duck-typed policies without them
    keep working: :meth:`bind_sessions` once before a run's first
    dispatch, and :meth:`cores_changed` after every applied fault
    (a core's ``up`` or ``degraded`` state may have changed).
    """

    name = "abstract"
    #: The running simulation's session-key memo and session directory
    #: (see :meth:`bind_sessions`); ``None`` before the first run.
    _session_keys: Optional[SessionKeys] = None
    _directory: Optional[SessionDirectory] = None
    #: The ``cores`` list the pools and idle index were built from.
    _index_for: Optional[Sequence] = None

    def select(self, request: SessionRequest, cores: Sequence,
               now: float) -> int:
        raise NotImplementedError

    def bind_sessions(self, keys: SessionKeys,
                      directory: SessionDirectory) -> None:
        """Share the simulator's run-scoped session-key memo and
        session directory.

        :meth:`~repro.farm.simulator.FarmSimulator.run` calls this
        before its first dispatch when the scheduler defines it, so
        affinity probes reuse the keys the simulator derives for
        cache stores and lookups, and probe only the cores the
        directory lists.  Without it a policy knows no session.
        """
        self._session_keys = keys
        self._directory = directory

    def cores_changed(self) -> None:
        """Forget the pools and idle index derived from the cores.

        :meth:`~repro.farm.simulator.FarmSimulator.run` calls this
        after every applied fault event (a fault can move a core's
        backlog and its ``busy_until`` backwards).
        """
        self._index_for = None

    def _pools(self, cores: Sequence) -> Tuple[List[int], ...]:
        """The live cores' indices, ascending, split into pools; the
        base policy has one pool."""
        return ([c.index for c in cores if c.up],)

    def _refresh_index(self, cores: Sequence,
                       now: float) -> Tuple[List[int], ...]:
        """Bring the idle index up to ``now`` and return the pools.

        Rebuilt from scratch for a new ``cores`` list or after
        :meth:`cores_changed`; otherwise only the due wake entries are
        re-checked."""
        if self._index_for is not cores:
            self._build_index(cores, now)
            return self._pool_lists
        wake = self._wake
        idle, pool_of = self._idle, self._pool_of
        pending = None
        while wake and wake[0][0] <= now:
            entry = heappop(wake)
            i = entry[1]
            core = cores[i]
            until = core.busy_until
            if until > now:
                heappush(wake, (until, i))
            elif not core.queue or core.backlog_cycles(now) == 0.0:
                heappush(idle[pool_of[i]], i)
            else:
                # Busy only until ``now``, with work queued behind: its
                # completion at ``now`` is still to come.  Look again
                # at the next pick.
                if pending is None:
                    pending = []
                pending.append(entry)
        if pending:
            for entry in pending:
                heappush(wake, entry)
        return self._pool_lists

    def _build_index(self, cores: Sequence, now: float) -> None:
        pools = self._pools(cores)
        pool_of = [-1] * len(cores)
        idle: List[List[int]] = []
        wake = []
        for number, pool in enumerate(pools):
            heap = []
            for i in pool:
                pool_of[i] = number
                core = cores[i]
                if core.backlog_cycles(now) == 0.0:
                    heap.append(i)      # ascending: already a heap
                else:
                    wake.append((core.busy_until, i))
            idle.append(heap)
        heapify(wake)
        self._pool_lists, self._pool_of = pools, pool_of
        self._idle, self._wake = idle, wake
        self._index_for = cores

    def _least_loaded(self, cores: Sequence, now: float,
                      pool: int = 0) -> int:
        """Smallest estimated backlog in pool number ``pool`` of an
        index :meth:`_refresh_index` brought up to ``now``; lowest
        index breaks ties.

        Backlogs are never negative, so the lowest-index idle core
        (backlog exactly ``0.0``) is the answer when there is one;
        otherwise the strict ``<`` scan keeps the lowest index among
        equal backlogs."""
        heap = self._idle[pool]
        while heap:
            i = heap[0]
            core = cores[i]
            if core.busy_until <= now and (
                    not core.queue or core.backlog_cycles(now) == 0.0):
                return i
            heappop(heap)
            heappush(self._wake, (core.busy_until, i))
        best = -1
        least = 0.0
        for i in self._pool_lists[pool]:
            backlog = cores[i].backlog_cycles(now)
            if best < 0 or backlog < least:
                best, least = i, backlog
        if best < 0:
            raise RuntimeError("no live core to dispatch to")
        return best

    def _affine_core(self, request: SessionRequest,
                     cores: Sequence) -> Optional[int]:
        """The lowest-index *live* core whose session cache can resume
        this request (a failed core's cache is gone; affinity must
        fall back).  Only the cores the session directory lists for
        the request's key are probed."""
        directory = self._directory
        if not (request.resumed and directory):
            return None
        protocol = request.protocol
        if not get_protocol(protocol).resumable:
            return None
        key = self._session_keys[protocol, request.client_id]
        holders = directory.get((protocol, key))
        if holders is None:
            return None
        for i in tuple(holders):
            core = cores[i]
            if not core.knows_session(key, protocol):
                # Evicted or flushed since the core stored it.
                holders.remove(i)
            elif core.up:
                return i
        return None


class RoundRobinScheduler(Scheduler):
    """Cores in strict rotation."""

    name = "round-robin"

    def __init__(self):
        self._next = 0

    def select(self, request: SessionRequest, cores: Sequence,
               now: float) -> int:
        # Scan forward from the rotation pointer to the first live
        # core; with every core up this is exactly the historical
        # one-step rotation (same pointer advance, same picks).
        for offset in range(len(cores)):
            index = (self._next + offset) % len(cores)
            if cores[index].up:
                self._next += offset + 1
                return index
        raise RuntimeError("no live core to dispatch to")


class LeastLoadedScheduler(Scheduler):
    """Shortest estimated backlog first."""

    name = "least-loaded"

    def select(self, request: SessionRequest, cores: Sequence,
               now: float) -> int:
        self._refresh_index(cores, now)
        return self._least_loaded(cores, now)


class PreferentialScheduler(Scheduler):
    """Class-aware routing with session-cache affinity.

    ``affinity=False`` disables the session-cache check (useful for
    ablating how much of the policy's win is affinity vs routing).
    """

    name = "preferential"

    def __init__(self, affinity: bool = True):
        self.affinity = affinity

    def _pools(self, cores: Sequence) -> Tuple[List[int], List[int]]:
        """The live ``(extended, base)`` pools."""
        # A degraded extended core prices like a base core, so it
        # routes like one until it recovers.
        extended = [c.index for c in cores
                    if c.up and c.spec.extended and not c.degraded]
        base = [c.index for c in cores
                if c.up and not (c.spec.extended and not c.degraded)]
        return extended, base

    def select(self, request: SessionRequest, cores: Sequence,
               now: float) -> int:
        if self.affinity and request.resumed:
            affine = self._affine_core(request, cores)
            if affine is not None:
                return affine
        pools = self._refresh_index(cores, now)
        pool = 0 if is_public_key_heavy(request) else 1
        if not pools[pool]:
            pool = 1 if pools[1] else 0
        return self._least_loaded(cores, now, pool)


SCHEDULERS: Dict[str, Type[Scheduler]] = {
    RoundRobinScheduler.name: RoundRobinScheduler,
    LeastLoadedScheduler.name: LeastLoadedScheduler,
    PreferentialScheduler.name: PreferentialScheduler,
}


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a policy by registry name."""
    try:
        cls = SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; known: {sorted(SCHEDULERS)}")
    return cls(**kwargs)


def scheduler_names() -> List[str]:
    return list(SCHEDULERS)
