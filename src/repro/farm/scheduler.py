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

Dispatch is scan-free in the common case: least-loaded selection
returns the lowest-index idle core (backlog exactly ``0.0``) as soon
as it meets one, and the preferential pools are built once per run
and rebuilt only when the simulator reports a fault through the
optional :meth:`Scheduler.cores_changed` hook.
"""

from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.farm.workload import SessionRequest, is_public_key_heavy
from repro.protocols import SessionKeys, get_protocol


class Scheduler:
    """Base policy: picks a core index for each arriving request.

    The simulator calls two optional hooks when a scheduler defines
    them, found by ``getattr`` so duck-typed policies without them
    keep working: :meth:`bind_session_keys` once before a run's first
    dispatch, and :meth:`cores_changed` after every applied fault
    (a core's ``up`` or ``degraded`` state may have changed).
    """

    name = "abstract"
    #: The running simulation's session-key memo (see
    #: :meth:`bind_session_keys`); ``None`` before the first run.
    _session_keys: Optional[SessionKeys] = None

    def select(self, request: SessionRequest, cores: Sequence,
               now: float) -> int:
        raise NotImplementedError

    def bind_session_keys(self, keys: SessionKeys) -> None:
        """Share the simulator's run-scoped session-key memo.

        :meth:`~repro.farm.simulator.FarmSimulator.run` calls this
        before its first dispatch when the scheduler defines it, so
        affinity probes reuse the keys the simulator derives for
        cache stores and lookups instead of re-deriving them.
        """
        self._session_keys = keys

    def cores_changed(self) -> None:
        """Forget state derived from the cores' fault status.

        :meth:`~repro.farm.simulator.FarmSimulator.run` calls this
        after every applied fault event.  The base policy keeps no
        such state.
        """

    @staticmethod
    def _least_loaded(cores: Sequence, now: float,
                      indices: Optional[Sequence[int]] = None) -> int:
        """Smallest estimated backlog among the *live* candidates;
        lowest index breaks ties.

        ``indices`` must ascend.  Backlogs are never negative, so the
        first live core with a backlog of exactly ``0.0`` is the
        answer and the scan stops there; otherwise the strict ``<``
        keeps the lowest index among equal backlogs."""
        if indices is None:
            indices = range(len(cores))
        best = -1
        least = 0.0
        for i in indices:
            core = cores[i]
            if not core.up:
                continue
            backlog = core.backlog_cycles(now)
            if backlog == 0.0:
                return i
            if best < 0 or backlog < least:
                best, least = i, backlog
        if best < 0:
            raise RuntimeError("no live core to dispatch to")
        return best

    def _affine_core(self, request: SessionRequest,
                     cores: Sequence) -> Optional[int]:
        """The *live* core whose session cache can resume this request
        (a failed core's cache is gone; affinity must fall back)."""
        if not request.resumed:
            return None
        if not get_protocol(request.protocol).resumable:
            return None
        keys = self._session_keys
        if keys is None:
            keys = SessionKeys()
        key = keys[request.protocol, request.client_id]
        for core in cores:
            if core.up and core.knows_session(key, request.protocol):
                return core.index
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
        return self._least_loaded(cores, now)


class PreferentialScheduler(Scheduler):
    """Class-aware routing with session-cache affinity.

    ``affinity=False`` disables the session-cache check (useful for
    ablating how much of the policy's win is affinity vs routing).
    """

    name = "preferential"

    def __init__(self, affinity: bool = True):
        self.affinity = affinity
        #: The ``cores`` list the pools were built from, and the
        #: ``(extended, base)`` index pools themselves.
        self._pools_for: Optional[Sequence] = None
        self._pools: Tuple[List[int], List[int]] = ([], [])

    def cores_changed(self) -> None:
        self._pools_for = None

    def _pools_of(self, cores: Sequence) -> Tuple[List[int], List[int]]:
        """The live ``(extended, base)`` pools, rebuilt for a new run
        (a different ``cores`` list) or after :meth:`cores_changed`."""
        if self._pools_for is not cores:
            # A degraded extended core prices like a base core, so it
            # routes like one until it recovers.
            extended = [c.index for c in cores
                        if c.up and c.spec.extended and not c.degraded]
            base = [c.index for c in cores
                    if c.up and not (c.spec.extended and not c.degraded)]
            self._pools = (extended, base)
            self._pools_for = cores
        return self._pools

    def select(self, request: SessionRequest, cores: Sequence,
               now: float) -> int:
        if self.affinity:
            affine = self._affine_core(request, cores)
            if affine is not None:
                return affine
        extended, base = self._pools_of(cores)
        preferred = extended if is_public_key_heavy(request) else base
        if not preferred:
            preferred = base or extended
        return self._least_loaded(cores, now, preferred)


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
