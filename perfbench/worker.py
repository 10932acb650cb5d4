"""One benchmark process: set up a workload, then time rounds of it.

Started by ``run.py`` with a scrubbed environment.  The worker builds
the workload's inputs (the set-up), prints ``READY`` -- the runner
times set-up from process start to that line -- and, unless
``--setup-only``, runs rounds in a closed loop until the next round
would end after ``--seconds``.  Every round is checked; the last line
on standard output is one JSON object with the run's outputs.

With ``--trace 1`` the untraced rounds are followed by one traced
round, and the worker reports per-layer metrics from that round
instead of the end-to-end ones; the spans go to
``.perfbench/trace-<workload>.json`` under the checkout.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Most functional-check messages a report carries.
MAX_ERRORS = 20


class Checker:
    """Counts operations and failures across a run's rounds.

    An operation fails when its functional check fails, when its output
    differs from the stored reference (reference seed only), or when it
    differs from the same operation in the run's first round (rounds
    repeat identical inputs, so outputs must repeat exactly).
    """

    def __init__(self, reference=None):
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, rnd) -> None:
        outputs = json.loads(json.dumps(rnd.outputs))
        bad = set(rnd.errors)
        self.errors.extend(rnd.errors.values())
        for label, expected in (("reference", self.reference),
                                ("first round", self.first)):
            if expected is None:
                continue
            if len(expected) != len(outputs):
                bad.update(range(len(outputs)))
                self.errors.append(f"{label}: {len(expected)} operations,"
                                   f" round has {len(outputs)}")
                continue
            for index, (got, want) in enumerate(zip(outputs, expected)):
                if got != want:
                    bad.add(index)
                    self.errors.append(f"operation {index} differs from "
                                       f"the {label}")
        if self.first is None:
            self.first = outputs
        self.attempted += len(outputs)
        self.failed += len(bad)
        del self.errors[MAX_ERRORS:]


def resolved_configuration() -> dict:
    """The program defaults the run actually used."""
    from repro.costs import get_cache
    from repro.isa.machine import resolve_backend
    from repro.mp import active_backend
    from repro.parallel import resolve_jobs
    return {"mpn_backend": active_backend(),
            "iss_backend": resolve_backend(),
            "jobs": resolve_jobs(),
            "costs_cache_dir": get_cache().cache_dir,
            "repro_env": sorted(k for k in os.environ
                                if k.startswith("REPRO_"))}


def layer_metrics(recorder, rnd, traced_s: float,
                  untraced_s: float) -> dict:
    """Per-layer metrics of the traced round, each with its unit."""
    r = recorder
    stats = rnd.stats
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name, layer in (("macromodel.ledger.self_s", "macromodel.ledger"),
                        ("macromodel.predict.self_s", "macromodel.predict"),
                        ("mp.mpn.self_s", "mp.mpn"),
                        ("crypto.modexp.self_s", "crypto.modexp"),
                        ("explore.sweep_overhead_s", "explore.explore"),
                        ("protocols.keying.self_s", "protocols.keying"),
                        ("crypto.sha1.self_s", "crypto.sha1"),
                        ("farm.simulator.loop_self_s", "farm.simulator")):
        put(name, r.self_time(layer), "s")
    for name, layer in (("explore.evaluate_s", "explore.evaluate"),
                        ("farm.scheduler.select_s", "farm.scheduler.select"),
                        ("farm.core.backlog_s", "farm.core.backlog"),
                        ("farm.workload.generate_s", "farm.workload.generate"),
                        ("farm.metrics.summarize_s", "farm.metrics.summarize"),
                        ("isa.base.run_s", "isa.base.run"),
                        ("isa.ext.run_s", "isa.ext.run"),
                        ("isa.kernel.build_s", "isa.kernel.build")):
        put(name, r.total(layer), "s")
    for name, layer in (("macromodel.ledger.calls", "macromodel.ledger"),
                        ("protocols.keying.calls", "protocols.keying"),
                        ("farm.scheduler.select_calls", "farm.scheduler.select"),
                        ("farm.core.backlog_calls", "farm.core.backlog")):
        put(name, r.calls(layer), "count")
    put("macromodel.predict.distinct_keys",
        len(r.distinct.get("macromodel.ledger", ())), "count")
    put("protocols.keying.distinct_clients",
        len(r.distinct.get("protocols.keying", ())), "count")
    put("mp.hooks.trace_calls", r.count("mp.hooks.trace"), "count")
    put("crypto.sha1.compress_calls", r.count("crypto.sha1.compress"),
        "count")
    for name, unit in (("explore.correct_ratio", "ratio"),
                       ("farm.sim.completed", "count"),
                       ("farm.sim.p99_ms", "ms"),
                       ("farm.sim.cache_hit_ratio", "ratio"),
                       ("farm.sim.mean_utilization", "ratio"),
                       ("isa.base.instret", "count"),
                       ("isa.ext.instret", "count"),
                       ("isa.base.cycles", "count"),
                       ("isa.ext.cycles", "count"),
                       ("isa.ext.custom_instret", "count")):
        put(name, stats.get(name, 0.0), unit)
    for label in ("base", "ext"):
        instret = stats.get(f"isa.{label}.instret", 0.0)
        cycles = stats.get(f"isa.{label}.cycles", 0.0)
        run_s = r.total(f"isa.{label}.run")
        put(f"isa.{label}.ipc", instret / cycles if cycles else 0.0, "ratio")
        put(f"isa.{label}.instr_per_s", instret / run_s if run_s else 0.0,
            "1/s")
    put("trace.overhead_ratio", traced_s / untraced_s, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.costs import configure_cache
    from workloads import REFERENCE_SEED, WORKLOADS, reference_path
    # No on-disk characterization store: the run characterizes what it
    # needs itself, independent of any local cache state.
    configure_cache(cache_dir=None)
    workload = WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    reference = None
    if args.seed == REFERENCE_SEED:
        with open(reference_path(args.workload)) as fh:
            reference = json.load(fh)["outputs"]
    checker = Checker(reference)
    times = []
    work = 0.0
    digest = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rnd = workload.run_round()
        t1 = time.perf_counter()
        times.append(t1 - t0)
        work += rnd.work
        digest = digest or rnd.digest()
        checker.check(rnd)
        if t1 - start + statistics.median(times) > args.seconds:
            break
    report = {"round_s": times, "digest": digest,
              "configuration": resolved_configuration()}
    untraced_s = statistics.median(times)
    if args.trace:
        from tracing import SpanRecorder, instrument
        recorder = SpanRecorder()
        build_span = getattr(workload, "build_span", None)
        if build_span:
            recorder.add_span("isa.kernel.build", *build_span)
        patches = instrument(recorder)
        workload.span = recorder.span
        try:
            t0 = time.perf_counter()
            rnd = workload.run_round()
            traced_s = time.perf_counter() - t0
        finally:
            patches.undo()
        checker.check(rnd)
        metrics = layer_metrics(recorder, rnd, traced_s, untraced_s)
        recorder.write(os.path.join(ROOT, ".perfbench",
                                    f"trace-{args.workload}.json"),
                       workload=args.workload, seed=args.seed)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "work_per_s": {"value": work / sum(times), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    report.update(attempted=checker.attempted, failed=checker.failed,
                  errors=checker.errors, metrics=metrics)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
