"""Sharded population-scale farm simulation.

One global event heap tops out long before the ROADMAP's "millions of
users": every request in the population funnels through a single
simulation loop.  This module partitions the *population* instead --
shard ``i`` owns the clients in residue class ``client_id % shards ==
i``, draws its own traffic from the independent PRNG stream
``DeterministicPrng(seed).fork(f"shard[{i}]")``, and runs a private
:class:`~repro.farm.simulator.FarmSimulator` over its own slice of the
farm's cores.  Shards never share state (client affinity, and with it
SSL session-cache locality, stays within a shard by construction), so
they run perfectly parallel on the :mod:`repro.parallel` executors.

Determinism contract:

- per-shard workloads depend only on ``(profile, n_requests, shards,
  seed)`` -- fork labels make the streams order- and
  schedule-independent;
- :func:`merge_results` reduces per-shard results with a *stable* sort
  on ``(finish_cycle, request.seq)`` -- the order a single simulator
  naturally completes in -- so merged metrics are identical run to run
  and across ``--jobs`` settings;
- ``shards=1`` takes the plain :func:`~repro.farm.workload.
  generate_requests` stream and an in-process simulator, so its
  :class:`~repro.farm.simulator.FarmResult` is **bit-identical** to
  the unsharded engine (gated at diff=0 by ``BENCH_farm_sharded``).

Observability: a parallel run cannot stream spans out of pool workers,
so the parent emits one ``farm.sharded`` root with a ``farm.shard``
child per shard (offered/completed/makespan attributes).  A serial run
(jobs=1) additionally passes the tracer *into* each shard simulator,
preserving the full per-request span tree.  Merged metrics publish
once, in the parent, through
:func:`repro.farm.simulator.publish_metrics`.
"""

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.mp import DeterministicPrng
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
from repro.parallel import Executor, executor_scope
from repro.protocols import UnknownProtocolError, protocol_names
from repro.ssl.throughput import DEFAULT_CLOCK_HZ
from repro.farm.scheduler import make_scheduler
from repro.farm.simulator import (FarmResult, FarmSimulator,
                                  publish_metrics)
from repro.farm.workload import (SessionRequest, TrafficProfile,
                                 _generate_stream, generate_requests)

__all__ = ["ShardedRun", "merge_results", "partition_requests",
           "shard_workload"]


def shard_workload(profile: TrafficProfile, n_requests: int,
                   shards: int, seed: int = 1,
                   clock_hz: float = DEFAULT_CLOCK_HZ
                   ) -> List[List[SessionRequest]]:
    """Per-shard request streams for a population split ``shards`` ways.

    Shard ``i`` draws from ``DeterministicPrng(seed).fork(f"shard[{i}]")``
    and owns the clients congruent to ``i`` modulo ``shards``; global
    sequence numbers interleave (``seq % shards == i``) so the merged
    stream keeps unique, deterministic tie-breakers.  ``shards=1``
    returns exactly ``[generate_requests(...)]`` -- same PRNG stream,
    same requests, byte for byte.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if shards > profile.clients:
        raise ValueError(
            f"cannot split {profile.clients} clients into {shards} shards")
    if n_requests < 0:
        raise ValueError("n_requests must be non-negative")
    if shards == 1:
        return [generate_requests(profile, n_requests, seed, clock_hz)]
    root = DeterministicPrng(seed)
    workloads = []
    base, extra = divmod(n_requests, shards)
    for i in range(shards):
        count = base + (1 if i < extra else 0)
        # Clients in residue class i: i, i+shards, ... below clients.
        client_space = (profile.clients - i + shards - 1) // shards
        workloads.append(_generate_stream(
            profile, count, root.fork(f"shard[{i}]"),
            profile.arrival_rate / shards, clock_hz,
            seq_base=i, seq_stride=shards,
            client_base=i, client_stride=shards,
            client_space=client_space))
    return workloads


def partition_requests(requests: Sequence[SessionRequest],
                       shards: int) -> List[List[SessionRequest]]:
    """Split an *existing* stream by client residue class.

    The replay path: a trace partitions exactly as generation would
    have sharded it (shard ``i`` serves the clients with ``client_id %
    shards == i``), preserving each shard's arrival order, so a
    replayed sharded run equals a generated one over the same stream.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    unknown = ({request.protocol for request in requests}
               - set(protocol_names()))
    if unknown:
        raise UnknownProtocolError(sorted(unknown), protocol_names())
    if shards == 1:
        return [list(requests)]
    buckets: List[List[SessionRequest]] = [[] for _ in range(shards)]
    for request in requests:
        buckets[request.client_id % shards].append(request)
    return buckets


def merge_results(shard_results: Sequence[FarmResult]) -> FarmResult:
    """Order-preserving reduction of per-shard results into one.

    Completions merge under a stable sort by ``(finish_cycle,
    request.seq)`` -- exactly the order the event loop pops completion
    events -- so a one-shard merge is a no-op and a many-shard merge
    does not depend on the order shard results arrive.  Core (and
    completion) indices are re-offset by each shard's position so
    ``result.cores[c.core_index]`` stays valid in the merged result;
    the inputs are **consumed** by that in-place renumbering.
    """
    if not shard_results:
        raise ValueError("nothing to merge")
    completions = []
    cores = []
    offset = 0
    for result in shard_results:
        for core in result.cores:
            core.index += offset
        for completion in result.completions:
            completion.core_index += offset
        completions.extend(result.completions)
        cores.extend(result.cores)
        offset += len(result.cores)
    completions.sort(key=lambda c: (c.finish_cycle, c.request.seq))
    first = shard_results[0]
    return FarmResult(
        completions=completions, cores=cores,
        makespan_cycles=max(r.makespan_cycles for r in shard_results),
        clock_hz=first.clock_hz,
        scheduler_name=first.scheduler_name,
        offered=sum(r.offered for r in shard_results),
        events_processed=sum(r.events_processed for r in shard_results),
        redispatches=sum(r.redispatches for r in shard_results),
        fault_events=sum(r.fault_events for r in shard_results))


def _simulate_shard(task):
    """Run one shard (module-level so process pools can pickle it)."""
    specs, scheduler_name, requests, clock_hz, faults = task
    simulator = FarmSimulator(specs, make_scheduler(scheduler_name),
                              clock_hz=clock_hz, faults=faults)
    start = time.perf_counter()
    result = simulator.run(requests)
    return result, time.perf_counter() - start


@dataclass
class ShardedRun:
    """Everything a sharded simulation produced."""

    result: FarmResult                 # merged, order-preserving
    shards: int
    jobs: int
    executor: str
    wall_seconds: float = 0.0          # parent wall clock
    shard_wall_seconds: float = 0.0    # summed per-shard wall clocks

    @property
    def parallel_speedup(self) -> float:
        """Summed shard work over parent wall time (same definition as
        the exploration engine's speedup)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.shard_wall_seconds / self.wall_seconds


def _run_shards(config, *, executor: Optional[Executor] = None,
                tracer: Optional[Tracer] = None,
                metrics: Optional[MetricsRegistry] = None) -> ShardedRun:
    """Generate (or replay), shard, simulate, and merge one
    :class:`~repro.farm.config.FarmConfig` (the engine behind
    :func:`repro.farm.config.run_farm`).

    With ``config.requests`` set (the replay path) the stream is
    partitioned by :func:`partition_requests` instead of generated
    from ``profile``/``n_requests``/``seed``.

    Each shard gets a *fresh* scheduler (``make_scheduler(name)``) over
    its own strided slice of the farm (``specs[i::shards]``, so the
    merged farm keeps the original core count and extended/base mix)
    and the matching strided sub-plan of ``faults``
    (:meth:`~repro.farm.faults.FaultPlan.subplan_strided` follows the
    same core ownership), and shard count -- not jobs count --
    is the only thing that shapes results: the same ``(profile,
    n_requests, shards, seed, faults)`` tuple reproduces identical
    merged metrics under any executor.

    ``shards=1`` short-circuits to one in-process simulator run with
    the caller's tracer and metrics attached -- byte-identical
    behavior, spans, and metrics to driving
    :class:`~repro.farm.simulator.FarmSimulator` directly.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    trace = tracer is not NULL_TRACER
    specs, shards = config.specs, config.shards
    if config.requests is not None:
        workloads = partition_requests(config.requests, shards)
    elif config.n_requests is None:
        raise ValueError("need either requests= or profile+n_requests")
    else:
        workloads = shard_workload(config.profile, config.n_requests,
                                   shards, config.seed, config.clock_hz)
    start = time.perf_counter()
    if shards == 1:
        simulator = FarmSimulator(specs, make_scheduler(config.scheduler),
                                  clock_hz=config.clock_hz,
                                  tracer=tracer, metrics=metrics,
                                  faults=config.faults)
        result = simulator.run(workloads[0])
        wall = time.perf_counter() - start
        return ShardedRun(result=result, shards=1, jobs=1,
                          executor="serial", wall_seconds=wall,
                          shard_wall_seconds=wall)
    # Shard i owns the cores at stride `shards` (specs[i::shards]), so
    # a heterogeneous farm's extended/base mix spreads evenly across
    # shards and the merged farm has exactly the original core count.
    # The fault plan shards under the same ownership map.
    faults = config.faults
    tasks = [(list(specs[i::shards]), config.scheduler, workloads[i],
              config.clock_hz,
              faults.subplan_strided(shards, i) if faults else None)
             for i in range(shards)]
    root = (tracer.open_virtual("farm.sharded", 0.0,
                                scheduler=config.scheduler, shards=shards)
            if trace else None)
    with executor_scope(config.jobs, executor) as pool:
        outcomes = pool.map(_simulate_shard, tasks, label="farm.shard")
        kind, pool_jobs = pool.kind, pool.jobs
    wall = time.perf_counter() - start
    shard_results = [result for result, _ in outcomes]
    if trace:
        for i, shard_result in enumerate(shard_results):
            tracer.record(
                "farm.shard", start=0.0,
                end=shard_result.makespan_cycles,
                parent_id=root.span_id, shard=i,
                offered=shard_result.offered,
                completed=len(shard_result.completions))
    merged = merge_results(shard_results)
    if trace:
        tracer.close_virtual(root, merged.makespan_cycles)
    if metrics is not None:
        publish_metrics(merged, metrics)
    return ShardedRun(
        result=merged, shards=shards, jobs=pool_jobs, executor=kind,
        wall_seconds=wall,
        shard_wall_seconds=sum(shard_wall for _, shard_wall in outcomes))
