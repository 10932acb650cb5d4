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
"""

from typing import Dict, List, Optional, Sequence, Type

from repro.farm.workload import SessionRequest, is_public_key_heavy
from repro.protocols import SessionKeys, get_protocol


class Scheduler:
    """Base policy: picks a core index for each arriving request."""

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

    @staticmethod
    def _least_loaded(cores: Sequence, now: float,
                      indices: Optional[Sequence[int]] = None) -> int:
        """Smallest estimated backlog among the *live* candidates;
        lowest index breaks ties.  The simulator never dispatches with
        zero live cores, so the filtered pool is never empty when at
        least one candidate is up."""
        if indices is None:
            indices = range(len(cores))
        indices = [i for i in indices if cores[i].up]
        return min(indices, key=lambda i: (cores[i].backlog_cycles(now), i))

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

    def select(self, request: SessionRequest, cores: Sequence,
               now: float) -> int:
        if self.affinity:
            affine = self._affine_core(request, cores)
            if affine is not None:
                return affine
        # A degraded extended core prices like a base core, so it
        # routes like one until it recovers.
        extended = [c.index for c in cores
                    if c.up and c.spec.extended and not c.degraded]
        base = [c.index for c in cores
                if c.up and not (c.spec.extended and not c.degraded)]
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
