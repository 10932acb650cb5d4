"""The benchmark's three workloads.

Each workload builds its inputs from a seed in ``__init__`` (the run's
set-up) and then serves identical *rounds* in a closed loop: a round
is a fixed amount of work, and the next round starts only after the
previous one returned.  A round yields one exact output per operation,
which the worker checks against the stored reference (at the reference
seed) and against functional invariants (at any seed).

Why these three, and which layers each one loads:

* ``explore`` -- the paper's macro-model-driven design-space
  exploration: a serial ``AlgorithmExplorer.explore`` over one
  candidate per modular-multiplication algorithm.  Loads the
  macro-model estimator (ledger and prediction) and the mpn arithmetic;
  no farm or ISS code runs.
* ``farm_ssl`` -- the preferential multi-core SSL farm of Paul &
  Chakrabarti (arXiv 1410.7560) under the default protocol mix with
  session resumption.  Loads protocol keying (pure-Python SHA-1 session
  ids), session-cache affinity probes, the scheduler's backlog scans
  and the event loop; the estimator is not involved.
* ``iss`` -- the cycle-accurate ground truth: the RSA-512 private
  operation on the base XT32 core and on the TIE-extended (8, 8) core,
  side by side (plain base-ISA instructions vs custom instructions).
"""

import hashlib
import json
import os
import time
from contextlib import nullcontext
from typing import Dict, List

from repro.mp import DeterministicPrng
from repro.ssl import fixtures

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
COSTS_PATH = os.path.join(DATA_DIR, "costs.json")
REFERENCE_SEED = 1


def reference_path(workload: str) -> str:
    return os.path.join(DATA_DIR, "reference", f"{workload}.json")


def load_costs():
    """The stored base and optimized ``PlatformCosts`` of the farm."""
    from repro.costs import PlatformCosts
    with open(COSTS_PATH) as fh:
        stored = json.load(fh)
    return (PlatformCosts(**stored["base"]),
            PlatformCosts(**stored["optimized"]))


class Round:
    """What one round produced: per-operation outputs and its work."""

    def __init__(self, outputs: List, work: float, errors: Dict[int, str],
                 stats: Dict[str, float]):
        #: One exact, JSON-ready output per operation, in a fixed order.
        self.outputs = outputs
        #: Work completed: candidates evaluated, requests completed or
        #: instructions retired.
        self.work = work
        #: Functional-check failures: operation index -> message.
        self.errors = errors
        #: Simulated statistics reported by a traced run.
        self.stats = stats

    def digest(self) -> str:
        payload = json.dumps(self.outputs, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


class Workload:
    name = "abstract"

    def __init__(self, seed: int):
        self.seed = seed
        #: Wraps the benchmark's own calls into a layer; replaced by a
        #: ``SpanRecorder.span`` in the traced round.
        self.span = lambda name: nullcontext()

    def run_round(self) -> Round:
        raise NotImplementedError


class Explore(Workload):
    name = "explore"
    #: One candidate per modmul algorithm: ``iter_configs`` lists the
    #: 90 configurations of each algorithm contiguously, and offset 89
    #: picks the 5-bit window, Garner CRT, radix-32, fully cached point
    #: of each, so a round is short enough to repeat several times a
    #: run.
    OFFSET, STRIDE = 89, 90

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.costs import characterize_cached
        from repro.crypto.modexp import iter_configs
        from repro.explore import AlgorithmExplorer, RsaDecryptWorkload
        key = fixtures.SERVER_512
        ciphertext = DeterministicPrng(seed).next_bits(512) % int(
            key.private.n)
        self.configs = list(iter_configs())[self.OFFSET::self.STRIDE]
        self.explorer = AlgorithmExplorer(
            characterize_cached(),
            RsaDecryptWorkload(keypair=key, ciphertext=ciphertext))

    def run_round(self) -> Round:
        from repro.explore import ExplorationStore
        results = self.explorer.explore(
            self.configs, store=ExplorationStore(enabled=False))
        by_label = {r.label: r for r in results}
        outputs = []
        errors = {}
        for index, config in enumerate(self.configs):
            result = by_label[config.label()]
            outputs.append([result.label, result.estimated_cycles,
                            result.correct])
            if not result.correct:
                errors[index] = f"{result.label}: result differs from pow()"
        correct = sum(1 for r in results if r.correct)
        return Round(outputs, float(len(results)), errors,
                     {"explore.correct_ratio": correct / len(results)})


class FarmSsl(Workload):
    name = "farm_ssl"
    CORES = 128
    REQUESTS = 4_000

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.farm import TrafficProfile, build_farm
        base, optimized = load_costs()
        self.specs = tuple(build_farm(self.CORES, base, optimized,
                                      extended_fraction=0.5))
        self.profile = TrafficProfile(arrival_rate=4000.0,
                                      resumption_ratio=0.4, clients=512)

    def run_round(self) -> Round:
        from repro.farm import FarmConfig, generate_requests, run_farm
        with self.span("farm.workload.generate"):
            requests = generate_requests(self.profile, self.REQUESTS,
                                         seed=self.seed)
        with self.span("farm.run"):
            run = run_farm(FarmConfig(specs=self.specs,
                                      scheduler="preferential",
                                      requests=tuple(requests)))
        # One operation per admitted request, plus the summary row.
        index_of = {r.seq: index for index, r in enumerate(requests)}
        outputs = [None] * len(requests)
        errors = {}
        for c in run.result.completions:
            index = index_of[c.request.seq]
            if outputs[index] is not None:
                errors[index] = f"request {c.request.seq} completed twice"
            elif not (c.request.arrival_cycle <= c.start_cycle
                      <= c.finish_cycle):
                errors[index] = f"request {c.request.seq}: bad timeline"
            outputs[index] = completion_digest(c)
        for index, output in enumerate(outputs):
            if output is None:
                errors[index] = (f"request {requests[index].seq} admitted "
                                 "but never completed")
        metrics = run.metrics
        outputs.append(metrics.as_dict())
        return Round(outputs, float(len(run.result.completions)), errors, {
            "farm.sim.completed": float(metrics.completed),
            "farm.sim.p99_ms": metrics.p99_ms,
            "farm.sim.cache_hit_ratio": metrics.cache_hit_rate,
            "farm.sim.mean_utilization": metrics.mean_utilization,
        })


def completion_digest(completion) -> str:
    """A 32-bit digest of one request's completion: core, start, end."""
    text = (f"{completion.request.seq}:{completion.core_index}:"
            f"{completion.start_cycle!r}:{completion.finish_cycle!r}")
    return hashlib.blake2b(text.encode(), digest_size=4).hexdigest()


class Iss(Workload):
    name = "iss"
    CORES = (("base", 0, 0), ("ext", 8, 8))

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.isa.kernels.modexp_kernel import ModExpKernel
        key = fixtures.SERVER_512.private
        self.d, self.n = int(key.d), int(key.n)
        self.message = DeterministicPrng(seed).next_bits(512) % self.n
        self.expected = pow(self.message, self.d, self.n)
        start = time.perf_counter()
        self.kernels = [(label, ModExpKernel(add, mac))
                        for label, add, mac in self.CORES]
        #: ``(start, end)`` of the kernel build, for the traced run.
        self.build_span = (start, time.perf_counter())

    def run_round(self) -> Round:
        outputs = []
        errors = {}
        stats = {}
        work = 0
        for index, (label, kernel) in enumerate(self.kernels):
            # powm builds its machine internally; keep it to read the
            # retired-instruction and opcode counts.
            machines = []
            make = kernel.runner.machine
            kernel.runner.machine = lambda: _keep(machines, make())
            try:
                with self.span(f"isa.{label}.run"):
                    result, cycles, _ = kernel.powm(self.message, self.d,
                                                    self.n)
            finally:
                del kernel.runner.machine
            machine, = machines
            counts = dict(sorted(machine.opcode_counts.items()))
            outputs.append([label, hex(result), cycles, machine.instret,
                            counts])
            if result != self.expected:
                errors[index] = f"{label}: result differs from pow()"
            work += machine.instret
            stats[f"isa.{label}.instret"] = float(machine.instret)
            stats[f"isa.{label}.cycles"] = float(cycles)
            if label == "ext":
                stats["isa.ext.custom_instret"] = float(sum(
                    n for op, n in counts.items()
                    if op in kernel.runner.extensions))
        return Round(outputs, float(work), errors, stats)


def _keep(machines: list, machine):
    machines.append(machine)
    return machine


WORKLOADS = {cls.name: cls for cls in (Explore, FarmSsl, Iss)}
