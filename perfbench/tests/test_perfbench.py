"""Tests of the benchmark itself: stored inputs, reference checks, the
runner's environment hygiene, and the traced per-layer split.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import tracing
import workloads
from run import ROOT, SCRUBBED_ENV, WORKLOADS
from worker import Checker


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_benchmark(workload, trace=0, env=None, cwd=ROOT):
    if env is None:
        env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(workloads.REFERENCE_SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=180)


def reports(proc):
    assert proc.returncode == 0, proc.stderr
    *_, details, result = proc.stdout.strip().splitlines()
    return json.loads(details), json.loads(result)


def test_workload_names_agree():
    names = [w["name"] for w in benchmark_spec()["workloads"]]
    assert names == list(WORKLOADS) == list(workloads.WORKLOADS)


def test_stored_platform_costs_match_a_fresh_measurement():
    from repro.costs import PlatformCosts
    from repro.platform import SecurityPlatform
    from repro.ssl import fixtures
    base, optimized = workloads.load_costs()
    assert PlatformCosts.measure(SecurityPlatform.base(),
                                 fixtures.SERVER_1024) == base
    assert PlatformCosts.measure(SecurityPlatform.optimized(),
                                 fixtures.SERVER_1024) == optimized


def _perturb(value):
    """The same output with one scalar changed."""
    if isinstance(value, str):
        return value[:-1] + ("0" if value[-1] != "0" else "1")
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    value = copy.deepcopy(value)
    keys = range(len(value)) if isinstance(value, list) else sorted(value)
    for key in keys:
        if isinstance(value[key], (int, float, str)):
            value[key] = _perturb(value[key])
            return value
    raise AssertionError(f"nothing to perturb in {value!r}")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_round_passes_and_a_perturbed_reference_fails(name):
    with open(workloads.reference_path(name)) as fh:
        reference = json.load(fh)["outputs"]
    rnd = workloads.WORKLOADS[name](workloads.REFERENCE_SEED).run_round()

    exact = Checker(reference)
    exact.check(rnd)
    assert (exact.attempted, exact.failed) == (len(reference), 0)

    perturbed = list(reference)
    perturbed[0] = _perturb(perturbed[0])
    perturbed[-1] = _perturb(perturbed[-1])
    checker = Checker(perturbed)
    checker.check(rnd)
    assert (checker.attempted, checker.failed) == (len(reference), 2)
    assert len(checker.errors) == 2


def test_runner_scrubs_program_overrides(tmp_path):
    plain = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    overridden = dict(plain, REPRO_JOBS="2", REPRO_EXECUTOR="process",
                      REPRO_ISS_BACKEND="compiled",
                      REPRO_MPN_BACKEND="fast",
                      REPRO_COSTS_CACHE_DIR=str(tmp_path / "store"))
    first_details, first = reports(run_benchmark("farm_ssl", env=plain))
    second_details, second = reports(
        run_benchmark("farm_ssl", env=overridden))

    assert first_details["configuration"] == {
        "mpn_backend": "reference", "iss_backend": "interp", "jobs": 1,
        "costs_cache_dir": None, "repro_env": []}
    assert second_details["configuration"] == first_details["configuration"]
    assert second_details["digest"] == first_details["digest"]
    for details, result in ((first_details, first),
                            (second_details, second)):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] % len(details["round_s"]) == 0
    assert (first["attempted"] // len(first_details["round_s"])
            == second["attempted"] // len(second_details["round_s"]))
    assert not (tmp_path / "store").exists()


def test_untraced_run_reports_every_end_to_end_metric():
    details, result = reports(run_benchmark("farm_ssl"))
    names = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    details, result = reports(run_benchmark("farm_ssl", trace=1))
    names = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["farm.core.backlog_calls"] > 0
    assert metrics["protocols.keying.calls"] > 0
    assert metrics["farm.sim.completed"] == workloads.FarmSsl.REQUESTS
    assert metrics["macromodel.ledger.calls"] == 0
    with open(os.path.join(ROOT, ".perfbench",
                           "trace-farm_ssl.json")) as fh:
        trace = json.load(fh)
    names = trace["names"]
    assert {names[span[0]] for span in trace["spans"]} >= {
        "farm.run", "farm.simulator", "farm.workload.generate"}


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("iss", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_recorder_derives_self_time_from_nested_calls(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing, "_clock", lambda: float(next(ticks)))
    recorder = tracing.SpanRecorder()
    inner = recorder.timed("inner", lambda: None)
    counted = recorder.counted("hook", lambda: None)

    def outer_body():
        inner()
        counted()
        inner()

    outer = recorder.timed("outer", outer_body, keep=True)
    with recorder.span("block"):
        outer()
    # Clock reads: block 0..7, outer 1..6, inner 2..3 and 4..5.
    assert recorder.total("inner") == 2.0
    assert recorder.calls("inner") == 2
    assert recorder.total("outer") == 5.0
    assert recorder.self_time("outer") == 3.0
    assert recorder.self_time("block") == 2.0
    assert recorder.count("hook") == 1
    names = recorder.names
    spans = [(names[n], start, end, parent)
             for n, start, end, parent in recorder.spans]
    assert spans == [("block", 0.0, 7.0, -1), ("outer", 1.0, 6.0, 0)]
