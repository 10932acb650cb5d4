"""Deterministic discrete-event simulation of a security-core farm.

Virtual time is counted in *cycles* of the farm's common clock (the
paper's 188 MHz Xtensa, :data:`repro.ssl.throughput.DEFAULT_CLOCK_HZ`).
The engine is a classic event-heap design: request arrivals and core
completions are totally ordered by ``(time, sequence)``, so two runs
over the same request stream and scheduler produce byte-identical
results -- the property every benchmark and test in this package leans
on.

Each core carries its own run queue, busy-cycle accounting, and one
:class:`~repro.ssl.session_cache.SessionCache` per *resumable*
registered protocol (SSL sessions, TLS 1.3 tickets, ...): a resumed
request only gets the abbreviated-handshake price if it lands on a
core that cached the client's session under the protocol model's
cache key, which is what makes scheduler affinity a measurable
performance lever rather than a flag.
"""

import heapq
from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.costs import PlatformCosts
from repro.isa.custom import mp_datapath_gates
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
from repro.protocols import SessionKeys, get_protocol
from repro.ssl.session_cache import SessionCache
from repro.ssl.throughput import DEFAULT_CLOCK_HZ
from repro.farm.faults import FaultPlan
from repro.farm.scheduler import SessionDirectory
from repro.farm.workload import SessionRequest, cost_of

#: Representative gate-equivalent area of one base XT32 core (an
#: Xtensa-T1040-class embedded core is on the order of 1e5 NAND2
#: equivalents).  Only *relative* farm areas matter, exactly as with
#: the A-D curves.
BASE_CORE_GATES = 100_000.0

# Event kinds on the heap: faults sort before arrivals, arrivals
# before completions at equal times (a recovered core sees the work
# that lands on its recovery cycle; a freed core sees new work
# immediately).  _FAULT events only exist when a plan is injected, so
# the fault-free event order -- and with it every recorded baseline --
# is untouched.
_FAULT, _ARRIVAL, _COMPLETE = -1, 0, 1


@dataclass(frozen=True)
class CoreSpec:
    """Static description of one core in the farm."""

    name: str
    costs: PlatformCosts
    extended: bool
    gates: float


def extension_gates(add_width: int = 8, mac_width: int = 8) -> float:
    """Gate overhead of the TIE datapath (the co-design area model)."""
    return mp_datapath_gates(add_width, mac_width)


def build_farm(n_cores: int, base_costs: PlatformCosts,
               optimized_costs: PlatformCosts,
               extended_fraction: float = 0.5) -> List[CoreSpec]:
    """A farm of ``n_cores``: the first ``ceil(n*fraction)`` cores are
    TIE-extended ("optimized"), the rest are base cores.

    ``extended_fraction=1.0`` gives a homogeneous optimized farm,
    ``0.0`` a homogeneous base farm, anything between a heterogeneous
    one (the configuration the preferential scheduler targets).
    """
    if n_cores < 1:
        raise ValueError("need at least one core")
    if not 0 <= extended_fraction <= 1:
        raise ValueError("extended_fraction must be in [0, 1]")
    n_ext = round(n_cores * extended_fraction)
    if extended_fraction > 0:
        n_ext = max(1, n_ext)
    ext_gates = BASE_CORE_GATES + extension_gates()
    specs = []
    for i in range(n_cores):
        if i < n_ext:
            specs.append(CoreSpec(name=f"ext{i}", costs=optimized_costs,
                                  extended=True, gates=ext_gates))
        else:
            specs.append(CoreSpec(name=f"base{i}", costs=base_costs,
                                  extended=False, gates=BASE_CORE_GATES))
    return specs


@dataclass
class Completion:
    """One served request, with its full timing record (cycles)."""

    request: SessionRequest
    core_index: int
    start_cycle: float
    finish_cycle: float
    service_cycles: float
    cache_hit: bool

    @property
    def latency_cycles(self) -> float:
        return self.finish_cycle - self.request.arrival_cycle

    @property
    def queue_cycles(self) -> float:
        return self.start_cycle - self.request.arrival_cycle


class Core:
    """Runtime state of one farm core."""

    def __init__(self, index: int, spec: CoreSpec):
        self.index = index
        self.spec = spec
        #: One session cache per resumable protocol, created on first
        #: touch, so protocols never compete for cache slots and their
        #: hit/miss counters stay separable.
        self.caches: Dict[str, SessionCache] = {}
        self.queue: Deque[Tuple[SessionRequest, float]] = deque()
        #: ``sum`` of the queued estimates, or ``None`` when the queue
        #: changed since it was last summed (see :meth:`backlog_cycles`).
        self._queued_cycles: Optional[float] = None
        #: How many queued estimates, from the front, were priced with
        #: a cost table other than :attr:`active_costs`.
        self._stale_estimates = 0
        self.current: Optional[SessionRequest] = None
        self.busy_until = 0.0
        self.busy_cycles = 0.0
        self.served = 0
        # -- fault-injection state (inert without a FaultPlan) --
        self.up = True
        self.degraded = False
        #: The cost table requests are priced with *right now*: the
        #: spec's table normally, the plan's degraded table while a
        #: ``degrade`` fault is in force (see :meth:`price_with`).
        self.active_costs: PlatformCosts = spec.costs
        self.down_since: Optional[float] = None
        self.down_cycles = 0.0
        self.sessions_flushed = 0
        #: Fault kinds applied to this core, in injection order.
        self.fault_kinds: List[str] = []

    def cache_for(self, protocol: str) -> SessionCache:
        """The per-protocol session cache (created on first touch)."""
        cache = self.caches.get(protocol)
        if cache is None:
            cache = self.caches[protocol] = SessionCache()
        return cache

    def backlog_cycles(self, now: float) -> float:
        """Estimated outstanding work: remainder of the in-flight
        request plus the (full-handshake-priced) queued estimates.

        The queued sum is cached until the queue next changes and is
        then re-summed from scratch, never kept as a running total:
        incremental float addition rounds differently, which could
        flip least-loaded ties."""
        remaining = max(0.0, self.busy_until - now)
        queued = self._queued_cycles
        if queued is None:
            queued = self._queued_cycles = sum(est for _, est in self.queue)
        return remaining + queued

    def enqueue(self, request: SessionRequest, estimate: float) -> None:
        """Append a dispatched request with its estimated cycles."""
        self.queue.append((request, estimate))
        self._queued_cycles = None

    def dequeue(self) -> Tuple[SessionRequest, Optional[float]]:
        """Pop the oldest queued request with its estimate; the
        estimate is ``None`` when :attr:`active_costs` did not price
        it (the table changed while the request waited)."""
        request, estimate = self.queue.popleft()
        self._queued_cycles = None
        if self._stale_estimates:
            self._stale_estimates -= 1
            return request, None
        return request, estimate

    def drain(self) -> List[SessionRequest]:
        """Empty the queue, returning its requests in order."""
        requests = [request for request, _ in self.queue]
        self.queue.clear()
        self._queued_cycles = None
        self._stale_estimates = 0
        return requests

    def price_with(self, costs: PlatformCosts) -> None:
        """Price requests with ``costs`` from now on; every estimate
        already queued was priced with the previous table."""
        if costs is not self.active_costs:
            self.active_costs = costs
            self._stale_estimates = len(self.queue)

    def knows_session(self, session_id: bytes,
                      protocol: str = "ssl") -> bool:
        """Non-mutating cache membership probe (no hit/miss counting);
        the real, counted lookup happens when service starts."""
        cache = self.caches.get(protocol)
        return cache is not None and session_id in cache


@dataclass
class FarmResult:
    """Everything a simulation run produced."""

    completions: List[Completion]
    cores: List[Core]
    makespan_cycles: float
    clock_hz: float
    scheduler_name: str
    offered: int = 0
    events_processed: int = 0
    #: Requests displaced by a core failure and re-entered into the
    #: farm (each pays the plan's re-dispatch penalty).
    redispatches: int = 0
    #: Fault events that actually applied to a core this run.
    fault_events: int = 0


class FarmSimulator:
    """Event-driven farm simulator (arrivals in, completions out).

    Observability is opt-in: pass a :class:`repro.obs.Tracer` to get a
    span *tree* on the farm's cycle clock -- one ``farm.run`` root per
    simulation covering ``[0, makespan]``, a ``farm.request`` child
    per completion (enqueue/start/finish stamped on the cycle clock),
    and ``farm.wait`` / ``farm.service`` grandchildren splitting each
    request's latency into queueing and service time, which is what
    the :class:`repro.obs.CycleProfile` profiler attributes cycles
    over -- plus ``farm.core.queue_depth`` events
    whenever a run queue changes length, and a
    :class:`repro.obs.MetricsRegistry` for cache hit/miss counters,
    latency histograms, and per-core utilization gauges.  With neither
    supplied the inner loop's only overhead is one precomputed
    identity check against :data:`repro.obs.NULL_TRACER` -- the
    disabled path allocates nothing per event.
    """

    def __init__(self, specs: Sequence[CoreSpec], scheduler,
                 clock_hz: float = DEFAULT_CLOCK_HZ,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 faults: Optional[FaultPlan] = None):
        if not specs:
            raise ValueError("farm needs at least one core")
        if faults is not None:
            faults.check_cores(len(specs))
        self.specs = list(specs)
        self.scheduler = scheduler
        self.clock_hz = clock_hz
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.faults = faults

    def run(self, requests: Sequence[SessionRequest]) -> FarmResult:
        cores = [Core(i, spec) for i, spec in enumerate(self.specs)]
        tracer = self.tracer
        # Hoisted no-op checks: the disabled path costs one identity /
        # None comparison per run, not per event (regression-tested).
        trace = tracer is not NULL_TRACER
        sched_name = getattr(self.scheduler, "name", "?")
        # The run's root span: opened now so request spans can parent
        # to it, closed at the makespan once the heap drains.
        root = (tracer.open_virtual("farm.run", 0.0,
                                    scheduler=sched_name)
                if trace else None)
        root_id = root.span_id if trace else None
        heap: List[Tuple[float, int, int, int]] = []
        plan = self.faults
        if plan is not None:
            for order, event in enumerate(plan.events):
                # Fault events ride the same heap as traffic, keyed
                # (cycle, _FAULT, plan order, core): same-cycle faults
                # fire in plan order, before any same-cycle arrival.
                heapq.heappush(heap, (event.cycle, _FAULT, order,
                                      event.core))
        # (time, kind, seq, core): arrivals sort before completions
        # at equal times so a freed core sees new work immediately.
        heap.extend((request.arrival_cycle, _ARRIVAL, request.seq, -1)
                    for request in requests)
        heapq.heapify(heap)
        by_seq = {r.seq: r for r in requests}
        if len(by_seq) != len(requests):
            check_unique_seqs(requests)
        # Run-scoped session-key memo: each (protocol, client) key is
        # derived at most once per run, shared with the scheduler's
        # affinity probe.  Never process-global, so every run pays its
        # own keying, as a single farm invocation does.
        keys = SessionKeys()
        # Run-scoped session directory: (protocol, key) -> ascending
        # indices of the cores that stored the key, added to at every
        # cache store.  Evictions and flushes leave stale indices,
        # which the scheduler's affinity probe drops as it meets them.
        directory: SessionDirectory = {}
        bind = getattr(self.scheduler, "bind_sessions", None)
        if bind is not None:
            bind(keys, directory)
        # Told after every applied fault, so a scheduler can cache
        # what it derives from the cores' up/degraded state.
        cores_changed = getattr(self.scheduler, "cores_changed", None)
        completions: List[Completion] = []
        starts = {}
        #: (core, seq, finish_cycle) tombstones of completion events
        #: voided by a core failure -- the heap has no remove, so we
        #: skip them.  The scheduled finish time is part of the key:
        #: a displaced request re-dispatched to the same core may
        #: legitimately finish *before* the voided event's time, and
        #: only the old event must be swallowed.
        cancelled = set()
        #: Requests that arrived while *no* core was alive; they
        #: re-enter the farm on the next recovery.
        stalled: List[SessionRequest] = []
        alive = len(cores)
        redispatches = 0
        fault_count = 0
        events = 0
        makespan = 0.0
        heappop = heapq.heappop
        select = self.scheduler.select
        start_next = self._start_next
        while heap:
            now, kind, seq, core_index = heappop(heap)
            events += 1
            if kind == _FAULT:
                event = plan.events[seq]
                applied, displaced, woken = self._apply_fault(
                    cores[event.core], event, plan, now, heap, starts,
                    cancelled, stalled)
                fault_count += applied
                redispatches += displaced
                alive += woken
                if event.kind == "core_down" and applied:
                    alive -= 1
                if applied and cores_changed is not None:
                    cores_changed()
                continue
            if now > makespan:
                makespan = now
            if kind == _ARRIVAL:
                request = by_seq[seq]
                if alive == 0:
                    # Nobody to dispatch to: hold the request until a
                    # core recovers (its arrival stamp is unchanged,
                    # so the outage shows up as latency).
                    stalled.append(request)
                    continue
                target = select(request, cores, now)
                core = cores[target]
                estimate = cost_of(request, core.active_costs).cycles
                core.enqueue(request, estimate)
                if trace:
                    tracer.event("farm.core.queue_depth", time=now,
                                 core=core.index, depth=len(core.queue))
                if core.current is None:
                    start_next(core, now, heap, starts, keys, tracer,
                               trace)
            else:
                if cancelled and (core_index, seq, now) in cancelled:
                    cancelled.discard((core_index, seq, now))
                    continue
                core = cores[core_index]
                request = core.current
                start, service, hit = starts.pop((core_index, seq))
                completion = Completion(
                    request=request, core_index=core_index,
                    start_cycle=start, finish_cycle=now,
                    service_cycles=service, cache_hit=hit)
                completions.append(completion)
                core.busy_cycles += service
                core.served += 1
                model = get_protocol(request.protocol)
                if model.resumable and not (request.resumed and hit):
                    key = keys[request.protocol, request.client_id]
                    core.cache_for(request.protocol).store_entry(
                        key, model.session_record(request.client_id))
                    holders = directory.setdefault(
                        (request.protocol, key), [])
                    if core_index not in holders:
                        insort(holders, core_index)
                core.current = None
                if trace:
                    span = tracer.record(
                        "farm.request", start=request.arrival_cycle,
                        end=now, parent_id=root_id,
                        scheduler=sched_name, seq=request.seq,
                        protocol=request.protocol,
                        client_id=request.client_id, core=core_index,
                        resumed=request.resumed, cache_hit=hit,
                        enqueue_cycle=request.arrival_cycle,
                        start_cycle=start, finish_cycle=now,
                        service_cycles=service,
                        queue_cycles=start - request.arrival_cycle,
                        size_bytes=request.size_bytes)
                    # Wait/service children tile the request span
                    # exactly, so the profiler attributes every
                    # latency cycle to queueing or service.
                    tracer.record("farm.wait",
                                  start=request.arrival_cycle,
                                  end=start, parent_id=span.span_id,
                                  core=core_index,
                                  protocol=request.protocol)
                    tracer.record("farm.service", start=start, end=now,
                                  parent_id=span.span_id,
                                  core=core_index,
                                  protocol=request.protocol,
                                  cache_hit=hit)
                if core.queue:
                    start_next(core, now, heap, starts, keys, tracer,
                               trace)
        if trace:
            tracer.close_virtual(root, makespan)
        for core in cores:
            if not core.up and core.down_since is not None:
                core.down_cycles += max(0.0, makespan - core.down_since)
                core.down_since = makespan
        result = FarmResult(completions=completions, cores=cores,
                            makespan_cycles=makespan,
                            clock_hz=self.clock_hz,
                            scheduler_name=getattr(self.scheduler, "name",
                                                   "?"),
                            offered=len(requests), events_processed=events,
                            redispatches=redispatches,
                            fault_events=fault_count)
        if self.metrics is not None:
            self._publish_metrics(result)
        return result

    def _publish_metrics(self, result: FarmResult) -> None:
        """End-of-run reduction into the supplied registry."""
        publish_metrics(result, self.metrics)

    @staticmethod
    def _apply_fault(core: Core, event, plan: FaultPlan, now: float,
                     heap, starts, cancelled, stalled):
        """Apply one fault event to ``core`` at ``now``.

        Returns ``(applied, displaced, woken)``: whether the event
        took effect (no-ops like downing a dead core don't count),
        how many requests it displaced back into the farm, and how
        many cores it brought back up.
        """
        kind = event.kind
        if kind == "core_down":
            if not core.up:
                return 0, 0, 0
            core.up = False
            core.down_since = now
            core.fault_kinds.append(kind)
            core.sessions_flushed += sum(
                cache.flush() for cache in core.caches.values())
            displaced: List[SessionRequest] = []
            if core.current is not None:
                request = core.current
                start, _, _ = starts.pop((core.index, request.seq))
                # The work done before the crash is real (and wasted):
                # it counts as busy cycles, and the already-scheduled
                # completion is voided by a tombstone.
                core.busy_cycles += now - start
                cancelled.add((core.index, request.seq,
                               core.busy_until))
                core.current = None
                displaced.append(request)
            displaced.extend(core.drain())
            core.busy_until = now
            retry = now + plan.redispatch_penalty_cycles
            for request in displaced:
                heapq.heappush(heap, (retry, _ARRIVAL, request.seq, -1))
            return 1, len(displaced), 0
        if kind == "core_up":
            recovered = 0
            applied = 0
            if not core.up:
                core.up = True
                if core.down_since is not None:
                    core.down_cycles += now - core.down_since
                    core.down_since = None
                recovered = 1
                applied = 1
            if core.degraded:
                core.degraded = False
                core.price_with(core.spec.costs)
                applied = 1
            if applied:
                core.fault_kinds.append(kind)
                # Requests stranded by a farm-wide outage re-arrive
                # now that a core is back.
                for request in stalled:
                    heapq.heappush(heap, (now, _ARRIVAL, request.seq, -1))
                del stalled[:]
            return applied, 0, recovered
        if kind == "cache_flush":
            if not core.up:
                return 0, 0, 0
            core.fault_kinds.append(kind)
            core.sessions_flushed += sum(
                cache.flush() for cache in core.caches.values())
            return 1, 0, 0
        # degrade: the extension is fenced off; pricing falls back to
        # the plan's degraded table (when it has one) until core_up.
        if not core.up or core.degraded:
            return 0, 0, 0
        core.degraded = True
        core.fault_kinds.append(kind)
        if plan.degraded_costs is not None and core.spec.extended:
            core.price_with(plan.degraded_costs)
        return 1, 0, 0

    @staticmethod
    def _start_next(core: Core, now: float, heap, starts,
                    keys: SessionKeys, tracer=NULL_TRACER,
                    trace: bool = False) -> None:
        request, service = core.dequeue()
        hit = False
        if request.resumed and get_protocol(request.protocol).resumable:
            hit = core.cache_for(request.protocol).lookup(
                keys[request.protocol, request.client_id]) is not None
        if hit or service is None:
            # The dispatch estimate is the cache-miss price on the
            # active table; anything else is priced afresh.
            service = cost_of(request, core.active_costs,
                              cache_hit=hit).cycles
        core.current = request
        core.busy_until = now + service
        starts[(core.index, request.seq)] = (now, service, hit)
        if trace:
            tracer.event("farm.core.queue_depth", time=now,
                         core=core.index, depth=len(core.queue))
        heapq.heappush(heap, (now + service, _COMPLETE, request.seq,
                              core.index))


def check_unique_seqs(requests: Sequence[SessionRequest]) -> None:
    """Raise :class:`ValueError` naming the first repeated ``seq``.

    The simulator keys requests by seq; a repeated seq would serve one
    request twice and silently drop the other.
    """
    seen = set()
    for request in requests:
        if request.seq in seen:
            raise ValueError(
                f"duplicate request seq {request.seq}; every request "
                "in a stream needs a unique seq")
        seen.add(request.seq)


def publish_metrics(result: FarmResult, registry: MetricsRegistry) -> None:
    """End-of-run reduction of a :class:`FarmResult` into a registry.

    Module-level so merged (sharded) results can publish in the parent
    process, where per-shard registries from pool workers never land.
    """
    sched = result.scheduler_name
    clock = result.clock_hz
    registry.counter("farm.requests.offered",
                     scheduler=sched).inc(result.offered)
    registry.counter("farm.requests.completed",
                     scheduler=sched).inc(len(result.completions))
    registry.counter("farm.events.processed",
                     scheduler=sched).inc(result.events_processed)
    latency = registry.histogram("farm.request.latency_ms",
                                 scheduler=sched)
    for completion in result.completions:
        latency.observe(completion.latency_cycles / clock * 1e3)
    for core in result.cores:
        registry.counter("farm.cache.hits", scheduler=sched,
                         core=core.index).inc(
            sum(c.hits for c in core.caches.values()))
        registry.counter("farm.cache.misses", scheduler=sched,
                         core=core.index).inc(
            sum(c.misses for c in core.caches.values()))
        registry.gauge("farm.core.utilization", scheduler=sched,
                       core=core.index).set(
            core.busy_cycles / result.makespan_cycles
            if result.makespan_cycles else 0.0)
        registry.counter("farm.core.served", scheduler=sched,
                         core=core.index).inc(core.served)
    # Farm-wide per-protocol session-cache counters: one pair per
    # protocol that touched a cache anywhere in the farm.
    per_protocol: Dict[str, Tuple[int, int]] = {}
    for core in result.cores:
        for protocol, cache in core.caches.items():
            hits, misses = per_protocol.get(protocol, (0, 0))
            per_protocol[protocol] = (hits + cache.hits,
                                      misses + cache.misses)
    for protocol, (hits, misses) in sorted(per_protocol.items()):
        registry.counter("farm.session_cache.hits", scheduler=sched,
                         protocol=protocol).inc(hits)
        registry.counter("farm.session_cache.misses", scheduler=sched,
                         protocol=protocol).inc(misses)
    # Fault counters only exist when a plan actually struck: a
    # fault-free run's metrics payload stays byte-identical to the
    # pre-fault-injection engine.
    if result.fault_events or result.redispatches:
        registry.counter("farm.fault.events",
                         scheduler=sched).inc(result.fault_events)
        registry.counter("farm.fault.redispatches",
                         scheduler=sched).inc(result.redispatches)
        registry.counter("farm.fault.sessions_flushed",
                         scheduler=sched).inc(
            sum(core.sessions_flushed for core in result.cores))
        registry.gauge("farm.fault.downtime_cycles",
                       scheduler=sched).set(
            sum(core.down_cycles for core in result.cores))
