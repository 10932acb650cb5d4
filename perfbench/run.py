"""The repository's benchmark: one workload, one seed, one line of JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``explore``,
``farm_ssl`` and ``iss``.  The last line on standard
output is ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones:

* ``work_per_s`` -- work completed per host second over the timed
  rounds (candidates evaluated, simulated requests completed, or
  simulated XT32 instructions retired);
* ``setup_s`` -- host seconds from interpreter start to the first
  timed operation, the median of several fresh worker processes;
* ``peak_rss_mb`` -- peak resident memory of the measuring process.

With ``--trace 1`` they are the per-layer metrics of one traced round.

The runner starts every worker with the program's ``REPRO_*``
environment overrides removed, so each run uses the program's own
defaults whatever the calling shell exports.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("explore", "farm_ssl", "iss")

#: Program overrides a calling shell may export; removed, not pinned.
SCRUBBED_ENV = ("REPRO_JOBS", "REPRO_EXECUTOR", "REPRO_ISS_BACKEND",
                "REPRO_MPN_BACKEND", "REPRO_COSTS_CACHE_DIR")
#: Fresh processes timed for ``setup_s`` (the measuring one included).
SETUP_SAMPLES = 5
#: Past this many seconds after the runner started, the running worker
#: is killed and the run fails.
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def child_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}


class Worker:
    """One worker process, started with the runner's deadline."""

    def __init__(self, args, deadline: float, setup_only: bool):
        command = [sys.executable, WORKER, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if setup_only:
            command.append("--setup-only")
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    self._remaining())
        line = self.proc.stdout.readline() if ready else ""
        #: Seconds from process start to the worker's ``READY`` line.
        self.setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            self.finish()
            raise BenchmarkError("worker failed during set-up")

    def _remaining(self) -> float:
        return max(0.0, self.deadline - time.perf_counter())

    def finish(self) -> str:
        """Wait for the worker (killing it past the deadline); the rest
        of its standard output."""
        try:
            out, _ = self.proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchmarkError("worker ran past the deadline")
        if self.proc.returncode != 0:
            raise BenchmarkError(
                f"worker exited with code {self.proc.returncode}")
        return out


def run(args) -> dict:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise BenchmarkError(f"no program sources under {ROOT}/src")
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    # A traced run reports no set-up time, so it starts one worker only.
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        probe = Worker(args, deadline, setup_only=True)
        probe.finish()
        setups.append(probe)
    worker = Worker(args, deadline, setup_only=False)
    setups.append(worker)
    lines = worker.finish().strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchmarkError("worker printed no report") from None
    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = {
            "value": statistics.median(w.setup_s for w in setups),
            "unit": "s"}
    for error in report["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    # Details for humans and tests; the result is the last line.
    print(json.dumps({"round_s": report["round_s"],
                      "setup_s": [w.setup_s for w in setups],
                      "digest": report["digest"],
                      "configuration": report["configuration"]}))
    return {"correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
