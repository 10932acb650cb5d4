"""Deterministic benchmark scenarios and the regression gate.

A :class:`Scenario` is a named, zero-argument callable producing a
flat metrics dict from the existing estimators and simulators -- cycle
counts and model outputs only, never wall-clock or unseeded
randomness, so a scenario's metrics are **byte-stable across machines
and runs**.  Baselines are committed as ``BENCH_<scenario>.json``
files; ``python -m repro bench --check`` re-runs the scenarios,
compares each gated metric against its committed baseline with a
per-metric :class:`Gate` (relative tolerance + which direction is
better), and exits non-zero on any regression.  That is what lets
every later performance PR be justified -- and gated -- by numbers.

The framework here (registry, baseline I/O, comparison) imports
nothing outside :mod:`repro.obs`; the built-in scenarios lazily import
the layers they measure inside their run functions, so ``repro.obs``
stays cycle-free.
"""

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.obs import validate

__all__ = ["BASELINE_SCHEMA", "DEFAULT_BASELINE_DIR", "Gate",
           "MetricDiff", "Scenario", "ScenarioReport", "baseline_filename",
           "baseline_path", "check_scenarios", "compare_metrics",
           "get_scenario", "load_baseline", "register_scenario",
           "render_report", "run_scenario", "scenario_names",
           "write_baseline"]

BASELINE_SCHEMA = 1

#: Where the committed baselines live, relative to the repo root (the
#: CLI's ``--dir`` default).
DEFAULT_BASELINE_DIR = os.path.join("benchmarks", "baselines")


@dataclass(frozen=True)
class Gate:
    """Pass/fail policy for one metric.

    ``direction`` says which way is better; a current value that is
    worse than ``baseline * (1 +/- tolerance)`` is a regression.
    ``tolerance`` is relative (0.10 == 10%); 0.0 demands exactness,
    which deterministic metrics can honestly promise.
    """

    tolerance: float = 0.0
    direction: str = "lower"     # "lower" or "higher" is better

    def __post_init__(self):
        if self.direction not in ("lower", "higher"):
            raise ValueError("direction must be 'lower' or 'higher'")
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")

    def regressed(self, baseline: float, current: float) -> bool:
        if self.direction == "lower":
            return current > baseline * (1.0 + self.tolerance) + 1e-12
        return current < baseline * (1.0 - self.tolerance) - 1e-12


@dataclass(frozen=True)
class Scenario:
    """One named benchmark: a deterministic metrics producer + gates."""

    name: str
    description: str
    run: Callable[[], Dict[str, object]]
    gates: Mapping[str, Gate] = field(default_factory=dict)


_SCENARIOS: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add (or replace) a scenario in the process-global registry."""
    _SCENARIOS[scenario.name] = scenario
    return scenario


def scenario_names() -> List[str]:
    return sorted(_SCENARIOS)


def get_scenario(name: str) -> Scenario:
    if name not in _SCENARIOS:
        raise KeyError(f"unknown bench scenario {name!r}; "
                       f"known: {', '.join(scenario_names())}")
    return _SCENARIOS[name]


def run_scenario(name: str) -> Dict[str, object]:
    """Run one scenario and return its (sorted) metrics dict."""
    metrics = get_scenario(name).run()
    return {key: metrics[key] for key in sorted(metrics)}


# -- baseline I/O ------------------------------------------------------------

def baseline_filename(name: str) -> str:
    return f"BENCH_{name}.json"


def baseline_path(directory: str, name: str) -> str:
    return os.path.join(directory, baseline_filename(name))


def write_baseline(directory: str, name: str,
                   metrics: Dict[str, object]) -> str:
    """Persist one scenario's metrics; the payload is serialized with
    sorted keys and no timestamps, so identical runs write identical
    bytes (the property the determinism test asserts)."""
    os.makedirs(directory, exist_ok=True)
    path = baseline_path(directory, name)
    payload = {"schema": BASELINE_SCHEMA, "scenario": name,
               "description": get_scenario(name).description,
               "metrics": {key: metrics[key] for key in sorted(metrics)}}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_baseline(directory: str, name: str) -> Optional[Dict[str, object]]:
    """The committed metrics for ``name``, or ``None`` if absent or
    unreadable (an unreadable baseline is a gate failure, reported by
    the caller, never a crash)."""
    path = baseline_path(directory, name)
    try:
        payload = validate.read_json(path)
        if payload.get("schema") != BASELINE_SCHEMA:
            return None
        return dict(validate.field(payload, "metrics", validate.OBJECT,
                                   path))
    except (OSError, ValueError):
        return None


# -- comparison --------------------------------------------------------------

@dataclass
class MetricDiff:
    """One metric's baseline-vs-current comparison row."""

    metric: str
    baseline: object
    current: object
    status: str                   # ok | regression | improved | changed
    #                             # | new | missing
    delta_pct: Optional[float] = None
    gated: bool = False

    def as_dict(self) -> Dict:
        return {"metric": self.metric, "baseline": self.baseline,
                "current": self.current, "status": self.status,
                "delta_pct": self.delta_pct, "gated": self.gated}


@dataclass
class ScenarioReport:
    """Every metric row of one scenario, plus the verdict."""

    scenario: str
    rows: List[MetricDiff]
    failed: bool
    error: Optional[str] = None

    def regressions(self) -> List[MetricDiff]:
        return [row for row in self.rows
                if row.status in ("regression", "missing") and row.gated]

    def as_dict(self) -> Dict:
        return {"scenario": self.scenario, "failed": self.failed,
                "error": self.error,
                "rows": [row.as_dict() for row in self.rows]}


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_metrics(scenario: Scenario, baseline: Dict[str, object],
                    current: Dict[str, object]) -> ScenarioReport:
    """Diff two metrics dicts under the scenario's gates.

    Only gated metrics can fail the report: a gated metric that is
    worse than its tolerance allows, or that vanished from the current
    run, is a regression.  Ungated metrics are compared informationally
    (``changed``/``ok``); metrics new in the current run are ``new``.
    """
    rows: List[MetricDiff] = []
    failed = False
    for metric in sorted(set(baseline) | set(current)):
        gate = scenario.gates.get(metric)
        gated = gate is not None
        if metric not in current:
            rows.append(MetricDiff(metric, baseline[metric], None,
                                   "missing", gated=gated))
            failed = failed or gated
            continue
        if metric not in baseline:
            rows.append(MetricDiff(metric, None, current[metric], "new",
                                   gated=gated))
            continue
        base, cur = baseline[metric], current[metric]
        if _numeric(base) and _numeric(cur):
            delta = ((cur - base) / base * 100.0) if base else None
            if gated and gate.regressed(base, cur):
                rows.append(MetricDiff(metric, base, cur, "regression",
                                       delta_pct=delta, gated=True))
                failed = True
            elif cur == base:
                rows.append(MetricDiff(metric, base, cur, "ok",
                                       delta_pct=0.0, gated=gated))
            else:
                better = (gated
                          and ((gate.direction == "lower" and cur < base)
                               or (gate.direction == "higher"
                                   and cur > base)))
                rows.append(MetricDiff(
                    metric, base, cur, "improved" if better else "changed",
                    delta_pct=delta, gated=gated))
        else:
            status = "ok" if base == cur else "changed"
            rows.append(MetricDiff(metric, base, cur, status, gated=gated))
    return ScenarioReport(scenario=scenario.name, rows=rows, failed=failed)


def check_scenarios(directory: str,
                    names: Optional[List[str]] = None
                    ) -> Tuple[List[ScenarioReport], bool]:
    """Run scenarios and gate them against committed baselines.

    Returns the per-scenario reports and an overall ok flag; a missing
    baseline fails its scenario (there is nothing to gate against).
    """
    reports = []
    ok = True
    for name in (names or scenario_names()):
        baseline = load_baseline(directory, name)
        if baseline is None:
            reports.append(ScenarioReport(
                scenario=name, rows=[], failed=True,
                error=f"no baseline at {baseline_path(directory, name)} "
                      f"(record one with: python -m repro bench --dir "
                      f"{directory})"))
            ok = False
            continue
        report = compare_metrics(get_scenario(name), baseline,
                                 run_scenario(name))
        reports.append(report)
        ok = ok and not report.failed
    return reports, ok


def render_report(reports: List[ScenarioReport],
                  verbose: bool = False) -> str:
    """Human-readable gate report (regressions always shown; every
    row with ``verbose``)."""
    lines = []
    for report in reports:
        verdict = "FAIL" if report.failed else "ok"
        lines.append(f"[{verdict}] {report.scenario}")
        if report.error:
            lines.append(f"    {report.error}")
        for row in report.rows:
            if not verbose and row.status in ("ok", "changed", "new",
                                              "improved"):
                continue
            delta = (f" ({row.delta_pct:+.1f}%)"
                     if row.delta_pct is not None else "")
            lines.append(f"    {row.status:10s} {row.metric}: "
                         f"{row.baseline} -> {row.current}{delta}")
    return "\n".join(lines)


# -- built-in scenarios ------------------------------------------------------
#
# Each scenario lazily imports the layers it measures, so importing
# repro.obs.bench never drags the whole stack in (and obs stays
# dependency-free).  All of them share one measured cost pair per
# process through the module memo below -- the ISS kernel runs behind
# it are the only expensive step.

_pair_memo: List = []


def _measured_pair():
    """Both stock platforms' unit costs, measured once per process."""
    if not _pair_memo:
        from repro.costs import PlatformCosts
        from repro.platform import SecurityPlatform
        from repro.ssl import fixtures
        base = PlatformCosts.measure(SecurityPlatform.base(),
                                     fixtures.SERVER_1024)
        opt = PlatformCosts.measure(SecurityPlatform.optimized(),
                                    fixtures.SERVER_1024)
        _pair_memo.append((base, opt))
    return _pair_memo[0]


def _ssl_transaction_metrics() -> Dict[str, object]:
    from repro.ssl.transaction import SslWorkloadModel
    base, opt = _measured_pair()
    model = SslWorkloadModel(base, opt)
    metrics: Dict[str, object] = {
        "asymptotic_speedup": model.asymptotic_speedup(),
        "resumption_gain_base_1kb": model.resumption_gain(base, 1024),
    }
    for kb in (1, 16):
        size = kb * 1024
        for label, costs in (("base", base), ("opt", opt)):
            full = model.breakdown(costs, size)
            resumed = model.breakdown(costs, size, resumed=True)
            metrics[f"{label}.full_{kb}kb_cycles"] = full.total
            metrics[f"{label}.resumed_{kb}kb_cycles"] = resumed.total
        metrics[f"speedup_{kb}kb"] = model.speedup(size)
    return metrics


def _farm_sweep(profile) -> Tuple[list, Dict[str, object]]:
    """The shared 4-core setup of the farm_mixed/tls13/kasumi
    scenarios: half-extended cores, 200 seed-1 requests drawn from
    ``profile``, one run per scheduler.  Returns the requests and each
    scheduler's metrics row, keyed by scheduler name."""
    from repro.farm import FarmConfig, build_farm, generate_requests, run_farm
    from repro.farm.scheduler import scheduler_names as farm_schedulers
    base, opt = _measured_pair()
    specs = build_farm(4, base, opt, extended_fraction=0.5)
    requests = generate_requests(profile, 200, seed=1)
    # The unified facade: every scenario drives the same FarmConfig /
    # run_farm path the CLI and shard layer use (shards=1 is the
    # plain simulator, bit for bit -- these baselines prove it).
    config = FarmConfig(specs=tuple(specs), requests=tuple(requests))
    return requests, {name: run_farm(config.with_scheduler(name)).metrics
                      for name in farm_schedulers()}


def _sweep_metrics(rows: Dict[str, object], keys: Tuple[str, ...],
                   **fixed: float) -> Dict[str, object]:
    """``fixed`` plus ``<scheduler>.<key>`` for every row and key."""
    metrics: Dict[str, object] = {"requests": 200.0, "cores": 4.0,
                                  **fixed}
    for name, row in rows.items():
        for key in keys:
            metrics[f"{name}.{key}"] = getattr(row, key)
    return metrics


def _farm_mixed_metrics() -> Dict[str, object]:
    from repro.farm import TrafficProfile
    _, rows = _farm_sweep(TrafficProfile(arrival_rate=60.0,
                                         resumption_ratio=0.4))
    return _sweep_metrics(rows, (
        "sessions_per_s", "secure_mbps", "p50_ms", "p95_ms", "p99_ms",
        "mean_utilization", "cache_hit_rate"))


def _farm_tls13_metrics() -> Dict[str, object]:
    from repro.farm import TrafficProfile
    requests, rows = _farm_sweep(TrafficProfile(
        arrival_rate=60.0, resumption_ratio=0.5,
        mix={"tls13": 0.7, "wep": 0.3}))
    metrics = _sweep_metrics(
        rows, ("sessions_per_s", "secure_mbps", "p95_ms", "p99_ms"),
        tls13_requests=float(sum(1 for r in requests
                                 if r.protocol == "tls13")),
        tls13_resumed=float(sum(1 for r in requests
                                if r.protocol == "tls13" and r.resumed)))
    for name, row in rows.items():
        # The generic session-cache seam: tls13 resumption rides the
        # same per-protocol caches and affinity path SSL uses.
        tls13 = row.session_cache.get("tls13", {})
        metrics[f"{name}.tls13_cache_hits"] = tls13.get("hits", 0.0)
        metrics[f"{name}.tls13_cache_hit_rate"] = tls13.get("hit_rate",
                                                            0.0)
    return metrics


def _farm_kasumi_metrics() -> Dict[str, object]:
    from repro.farm import TrafficProfile
    requests, rows = _farm_sweep(TrafficProfile(
        arrival_rate=80.0, mix={"kasumi": 0.6, "wep": 0.4}))
    base, _ = _measured_pair()
    return _sweep_metrics(
        rows, ("sessions_per_s", "secure_mbps", "p95_ms", "p99_ms",
               "mean_utilization"),
        kasumi_requests=float(sum(1 for r in requests
                                  if r.protocol == "kasumi")),
        # The kernel-measured per-byte rate the registered model
        # charges (both platforms: KASUMI is not TIE-accelerated).
        kasumi_cycles_per_byte=base.overhead("kasumi_cycles_per_byte",
                                             0.0))


def _characterize_metrics() -> Dict[str, object]:
    from repro.costs.cache import (CharacterizationCache,
                                   CharacterizationKey)
    # A deliberately fresh, disk-less cache: this scenario measures the
    # characterization itself, so a warm store must not short-circuit
    # it (and its metrics stay independent of local cache state).
    cache = CharacterizationCache(cache_dir=None)
    metrics: Dict[str, object] = {}
    for label, key in (("base", CharacterizationKey()),
                       ("ext", CharacterizationKey(add_width=8,
                                                   mac_width=8))):
        models = cache.models_for(key)
        errors = [m.fit.mean_abs_pct_error for m in models]
        metrics[f"{label}.n_models"] = float(len(models))
        metrics[f"{label}.mean_fit_error_pct"] = sum(errors) / len(errors)
        metrics[f"{label}.max_fit_error_pct"] = max(errors)
        for model in models:
            metrics[f"{label}.cycles.{model.routine}@32"] = \
                models.predict(model.routine, 32)
    # Warm path: the second lookup must be a pure memo hit.
    cache.models_for(CharacterizationKey())
    metrics["cold.characterizations"] = float(
        cache.stats.characterizations)
    metrics["warm.memo_hits"] = float(cache.stats.memo_hits)
    return metrics


def _modexp_candidates_metrics() -> Dict[str, object]:
    from repro.costs import characterize_cached
    from repro.crypto.modexp import iter_configs
    from repro.explore import (AlgorithmExplorer, ExplorationStore,
                               RsaDecryptWorkload)
    models = characterize_cached()
    configs = list(iter_configs())[::90]        # 5 strided candidates
    explorer = AlgorithmExplorer(models, RsaDecryptWorkload.bits512())
    # A disabled store: this scenario measures exploration itself, so
    # a warm local store must not short-circuit it.
    results = explorer.explore(configs,
                               store=ExplorationStore(enabled=False))
    cycles = sorted(r.estimated_cycles for r in results)
    best = results[0]
    return {
        "candidates": float(len(results)),
        "correct_fraction": (sum(1 for r in results if r.correct)
                             / len(results)),
        "best_cycles": best.estimated_cycles,
        "best_label": best.label,
        "median_cycles": cycles[len(cycles) // 2],
        "worst_cycles": cycles[-1],
    }


def _explore_parallel_metrics() -> Dict[str, object]:
    import tempfile
    from repro.costs import characterize_cached
    from repro.crypto.modexp import iter_configs
    from repro.explore import (AlgorithmExplorer, ExplorationStore,
                               RsaDecryptWorkload)
    from repro.parallel import ThreadExecutor
    models = characterize_cached()
    configs = list(iter_configs())[::90]        # 5 strided candidates
    explorer = AlgorithmExplorer(models, RsaDecryptWorkload.bits512())
    serial = explorer.explore(configs,
                              store=ExplorationStore(enabled=False))
    with tempfile.TemporaryDirectory() as tmp:
        # Cold: 2 worker threads filling a fresh persistent store.
        with ThreadExecutor(2) as pool:
            cold = explorer.explore(configs, executor=pool,
                                    store=ExplorationStore(cache_dir=tmp))
        cold_run = explorer.last_run
        # Warm: a fresh store object over the same directory (a new
        # process, effectively) must evaluate nothing.
        warm = explorer.explore(configs,
                                store=ExplorationStore(cache_dir=tmp))
        warm_run = explorer.last_run
    return {
        "candidates": float(len(serial)),
        "best_cycles": serial[0].estimated_cycles,
        "chunks": float(cold_run.chunks),
        "cold_evaluated": float(cold_run.evaluated),
        "warm_evaluated": float(warm_run.evaluated),
        "parallel_max_abs_cycle_diff": max(
            abs(a.estimated_cycles - b.estimated_cycles)
            for a, b in zip(serial, cold)),
        "parallel_label_agreement": float(all(
            a.label == b.label for a, b in zip(serial, cold))),
        "warm_max_abs_cycle_diff": max(
            abs(a.estimated_cycles - b.estimated_cycles)
            for a, b in zip(serial, warm)),
    }


def _farm_sharded_metrics() -> Dict[str, object]:
    from dataclasses import replace
    from repro.farm import (FarmConfig, FarmSimulator, TrafficProfile,
                            build_farm, generate_requests,
                            make_scheduler, run_farm, summarize)
    from repro.parallel import ThreadExecutor
    base, opt = _measured_pair()
    specs = build_farm(64, base, opt, extended_fraction=0.5)
    profile = TrafficProfile(arrival_rate=400.0, clients=256)
    n = 640
    keys = ("completed", "sessions_per_s", "secure_mbps", "p50_ms",
            "p95_ms", "p99_ms", "mean_utilization", "cache_hit_rate")
    requests = generate_requests(profile, n, seed=1)
    plain = summarize(FarmSimulator(
        specs, make_scheduler("preferential")).run(requests))
    config = FarmConfig(specs=tuple(specs), scheduler="preferential",
                        profile=profile, n_requests=n, seed=1)
    one = run_farm(config).metrics
    # shards=1 must be *bit*-identical to the plain simulator.
    shards1_diff = max(abs(getattr(plain, key) - getattr(one, key))
                       for key in keys)
    config8 = replace(config, shards=8)
    serial8 = run_farm(config8).metrics
    with ThreadExecutor(4) as pool:
        par8 = run_farm(config8, executor=pool).metrics
    # ...and a sharded run must not depend on the executor.
    jobs_diff = max(abs(getattr(serial8, key) - getattr(par8, key))
                    for key in keys)
    return {
        "cores": 64.0,
        "requests": float(n),
        "shards1.max_abs_metric_diff": shards1_diff,
        "shard8.jobs_metric_diff": jobs_diff,
        "shard8.completed": float(serial8.completed),
        "shard8.sessions_per_s": serial8.sessions_per_s,
        "shard8.p99_ms": serial8.p99_ms,
        "shard8.mean_utilization": serial8.mean_utilization,
        "shard8.cache_hit_rate": serial8.cache_hit_rate,
        # Sharding skew: per-shard PRNG streams differ from the global
        # one, so aggregate rates drift a little -- the ratios are
        # deterministic and the gates keep the drift bounded.
        "shard8.sessions_per_s_skew": (serial8.sessions_per_s
                                       / plain.sessions_per_s),
        "shard8.p99_ms_skew": (serial8.p99_ms / plain.p99_ms
                               if plain.p99_ms else 0.0),
    }


def _chaos_config(**fields):
    """The 8-core chaos farm of ``farm_chaos`` and ``farm_timeseries``:
    400 requests at 150/s from 64 clients under an explicit, committed
    plan -- an extended core dies mid-run and recovers, a second core
    loses its session cache, another extended core degrades to
    base-ISA pricing until recovery -- graded against a p99/throughput
    SLO.  ``fields`` are further :class:`FarmConfig` fields."""
    from repro.farm import (FarmConfig, FaultEvent, FaultPlan,
                            TrafficProfile, build_farm)
    from repro.obs.slo import SloTarget
    from repro.ssl.throughput import DEFAULT_CLOCK_HZ
    base, opt = _measured_pair()
    second = DEFAULT_CLOCK_HZ
    plan = FaultPlan(events=(
        FaultEvent(cycle=0.5 * second, kind="core_down", core=1),
        FaultEvent(cycle=1.5 * second, kind="core_up", core=1),
        FaultEvent(cycle=0.8 * second, kind="cache_flush", core=4),
        FaultEvent(cycle=0.6 * second, kind="degrade", core=2),
        FaultEvent(cycle=1.8 * second, kind="core_up", core=2),
    ), degraded_costs=base)
    return FarmConfig(
        specs=tuple(build_farm(8, base, opt, extended_fraction=0.5)),
        scheduler="preferential",
        profile=TrafficProfile(arrival_rate=150.0, clients=64),
        n_requests=400, seed=1, faults=plan,
        slo=SloTarget(p99_ms=20.0, secure_mbps=1.0), **fields)


def _farm_chaos_metrics() -> Dict[str, object]:
    from dataclasses import replace
    from repro.farm import generate_fault_plan, run_farm
    from repro.parallel import ThreadExecutor
    from repro.ssl.throughput import DEFAULT_CLOCK_HZ
    config = _chaos_config()
    chaos = run_farm(config)
    again = run_farm(config)
    keys = ("completed", "sessions_per_s", "secure_mbps", "p50_ms",
            "p95_ms", "p99_ms", "mean_utilization", "cache_hit_rate")
    repeat_diff = max(abs(getattr(chaos.metrics, k)
                          - getattr(again.metrics, k)) for k in keys)
    # The same plan under shards must stay deterministic: a sharded
    # chaos run is executor-independent and repeatable.
    config4 = replace(config, shards=4)
    serial4 = run_farm(config4)
    with ThreadExecutor(2) as pool:
        par4 = run_farm(config4, executor=pool)
    shard_jobs_diff = max(abs(getattr(serial4.metrics, k)
                              - getattr(par4.metrics, k)) for k in keys)
    healthy = run_farm(replace(config, faults=None))
    # Chaos must cost something: the wounded farm completes the same
    # offered load strictly slower at the tail.
    metrics: Dict[str, object] = {
        "cores": 8.0, "requests": float(config.n_requests),
        "plan_events": float(len(config.faults.events)),
        "fault_events": float(chaos.result.fault_events),
        "redispatches": float(chaos.result.redispatches),
        "sessions_flushed": float(chaos.faults.sessions_flushed),
        "downtime_megacycles": chaos.faults.downtime_cycles / 1e6,
        "repeat_metric_diff": repeat_diff,
        "shard4.jobs_metric_diff": shard_jobs_diff,
        "shard4.fault_events": float(serial4.result.fault_events),
        "completed": float(chaos.metrics.completed),
        "p99_ms": chaos.metrics.p99_ms,
        "p99_slowdown": (chaos.metrics.p99_ms / healthy.metrics.p99_ms
                         if healthy.metrics.p99_ms else 0.0),
        "slo_windows": float(len(chaos.slo.windows)),
        "slo_windows_violated": float(chaos.slo.windows_violated),
        "slo_violations": float(chaos.slo.violations),
        "slo_attainment": chaos.slo.attainment,
        # The seeded-generation path: the drawn schedule is a pure
        # function of (seed, cores, horizon, episodes).
        "gen.events": float(len(generate_fault_plan(
            7, 8, 3.0 * DEFAULT_CLOCK_HZ, episodes=4).events)),
    }
    return metrics


def _farm_scale_metrics() -> Dict[str, object]:
    from repro.farm import FarmConfig, TrafficProfile, run_farm
    base, opt = _measured_pair()
    cores, n = 256, 50_000
    config = FarmConfig.build(
        cores, base, opt, extended_fraction=0.5,
        scheduler="preferential", n_requests=n, seed=1,
        profile=TrafficProfile(arrival_rate=8000.0,
                               resumption_ratio=0.4, clients=4096))
    run = run_farm(config)
    row = run.metrics
    return {
        "cores": float(cores),
        "requests": float(n),
        "completed": float(row.completed),
        "events": float(run.result.events_processed),
        "cache_hit_rate": row.cache_hit_rate,
        "p50_ms": row.p50_ms,
        "p99_ms": row.p99_ms,
        "mean_utilization": row.mean_utilization,
    }


def _farm_timeseries_metrics() -> Dict[str, object]:
    import io
    from dataclasses import replace
    from repro.farm import run_farm
    from repro.obs.timeseries import (read_series_jsonl,
                                      write_series_jsonl)
    from repro.parallel import ThreadExecutor
    from repro.ssl.throughput import DEFAULT_CLOCK_HZ
    second = DEFAULT_CLOCK_HZ
    # The farm_chaos plan, re-observed as a time series: the p99 spike
    # must be visible in the interval gauge while core 1 is down, and
    # the recovery must be visible after it returns.
    config = _chaos_config(series_interval_seconds=0.05)

    def export(series) -> str:
        buf = io.StringIO()
        write_series_jsonl(series, buf)
        return buf.getvalue()

    chaos = run_farm(config)
    text = export(chaos.series)
    repeat = export(run_farm(config).series)
    # The exact round-trip: read back, re-export, byte-compare.
    reread = export(read_series_jsonl(io.StringIO(text)))
    # A sharded chaos series must not depend on the worker count.
    config4 = replace(config, shards=4)
    serial4 = export(run_farm(config4).series)
    with ThreadExecutor(2) as pool:
        par4 = export(run_farm(config4, executor=pool).series)

    series = chaos.series
    key = "farm.interval.p99_ms{scheduler=preferential}"
    pre_spike = series.max_over_time(key, end_cycles=0.5 * second)
    spike = series.max_over_time(key, start_cycles=0.5 * second,
                                 end_cycles=1.5 * second)
    recovered = series.max_over_time(key, start_cycles=1.9 * second)
    return {
        "cores": 8.0, "requests": float(config.n_requests),
        "samples": float(len(series.samples)),
        "events": float(len(series.events)),
        "fault_annotations": float(sum(
            1 for e in series.events if e.name.startswith("fault."))),
        "slo_alerts": float(sum(
            1 for e in series.events if e.name == "slo.alert")),
        # Hard zeros: the determinism contract, byte for byte.
        "repeat_export_diff": float(text != repeat),
        "roundtrip_diff": float(text != reread),
        "shard4.jobs_export_diff": float(serial4 != par4),
        "p99_pre_spike_ms": pre_spike,
        "p99_spike_ms": spike,
        "p99_recovered_ms": recovered,
        # The outage is visible (spike well above the pre-fault tail)
        # and transient (post-recovery tail back near pre-fault).
        "p99_spike_ratio": (spike / pre_spike if pre_spike else 0.0),
        "p99_recovery_ratio": (recovered / spike if spike else 0.0),
    }


_CYCLES = Gate(tolerance=0.10, direction="lower")
_SPEEDUP = Gate(tolerance=0.10, direction="higher")
_EXACT_COUNT = Gate(tolerance=0.0, direction="higher")

register_scenario(Scenario(
    name="ssl_transaction",
    description="SSL handshake full/resumed cycle totals and "
                "speedups (Figure 8 model on measured costs)",
    run=_ssl_transaction_metrics,
    gates={
        "asymptotic_speedup": _SPEEDUP,
        "resumption_gain_base_1kb": _SPEEDUP,
        "speedup_1kb": _SPEEDUP,
        "speedup_16kb": _SPEEDUP,
        "base.full_1kb_cycles": _CYCLES,
        "base.full_16kb_cycles": _CYCLES,
        "base.resumed_1kb_cycles": _CYCLES,
        "base.resumed_16kb_cycles": _CYCLES,
        "opt.full_1kb_cycles": _CYCLES,
        "opt.full_16kb_cycles": _CYCLES,
        "opt.resumed_1kb_cycles": _CYCLES,
        "opt.resumed_16kb_cycles": _CYCLES,
    }))

register_scenario(Scenario(
    name="farm_mixed",
    description="4-core heterogeneous farm, 200 mixed-protocol "
                "requests at 60/s (seed 1), every scheduler",
    run=_farm_mixed_metrics,
    gates=dict(
        {"requests": _EXACT_COUNT, "cores": _EXACT_COUNT},
        **{f"{sched}.{metric}": gate
           for sched in ("round-robin", "least-loaded", "preferential")
           for metric, gate in (
               ("sessions_per_s", _SPEEDUP),
               ("secure_mbps", _SPEEDUP),
               ("p95_ms", Gate(tolerance=0.15, direction="lower")),
               ("p99_ms", Gate(tolerance=0.15, direction="lower")),
               ("cache_hit_rate", _SPEEDUP),
           )})))

register_scenario(Scenario(
    name="farm_tls13",
    description="4-core heterogeneous farm, 200 tls13-dominant "
                "requests at 60/s (seed 1): the registered TLS-1.3 "
                "model through the generic session-cache seam",
    run=_farm_tls13_metrics,
    gates=dict(
        {"requests": _EXACT_COUNT, "cores": _EXACT_COUNT,
         "tls13_requests": _EXACT_COUNT, "tls13_resumed": _EXACT_COUNT},
        **{f"{sched}.{metric}": gate
           for sched in ("round-robin", "least-loaded", "preferential")
           for metric, gate in (
               ("sessions_per_s", _SPEEDUP),
               ("secure_mbps", _SPEEDUP),
               ("p95_ms", Gate(tolerance=0.15, direction="lower")),
               ("p99_ms", Gate(tolerance=0.15, direction="lower")),
               ("tls13_cache_hits", _EXACT_COUNT),
               ("tls13_cache_hit_rate", _SPEEDUP),
           )})))

register_scenario(Scenario(
    name="farm_kasumi",
    description="4-core heterogeneous farm, 200 kasumi/wep link-layer "
                "requests at 80/s (seed 1): the registered KASUMI "
                "model priced by the kernel-measured per-byte rate",
    run=_farm_kasumi_metrics,
    gates=dict(
        {"requests": _EXACT_COUNT, "cores": _EXACT_COUNT,
         "kasumi_requests": _EXACT_COUNT,
         "kasumi_cycles_per_byte": _CYCLES},
        **{f"{sched}.{metric}": gate
           for sched in ("round-robin", "least-loaded", "preferential")
           for metric, gate in (
               ("sessions_per_s", _SPEEDUP),
               ("secure_mbps", _SPEEDUP),
               ("p95_ms", Gate(tolerance=0.15, direction="lower")),
               ("p99_ms", Gate(tolerance=0.15, direction="lower")),
           )})))

register_scenario(Scenario(
    name="characterize",
    description="cold + warm characterization: fit quality, "
                "per-routine predictions at n=32, cache behavior",
    run=_characterize_metrics,
    gates={
        "base.mean_fit_error_pct": Gate(tolerance=0.25,
                                        direction="lower"),
        "ext.mean_fit_error_pct": Gate(tolerance=0.25,
                                       direction="lower"),
        "base.cycles.mpn_addmul_1@32": _CYCLES,
        "base.cycles.mpn_mul_1@32": _CYCLES,
        "ext.cycles.mpn_addmul_1@32": _CYCLES,
        "ext.cycles.mpn_mul_1@32": _CYCLES,
        "cold.characterizations": Gate(tolerance=0.0,
                                       direction="lower"),
        "warm.memo_hits": _EXACT_COUNT,
    }))

register_scenario(Scenario(
    name="explore_parallel",
    description="serial-vs-parallel exploration agreement and "
                "persistent-store reuse over 5 strided candidates",
    run=_explore_parallel_metrics,
    gates={
        "candidates": _EXACT_COUNT,
        "best_cycles": Gate(tolerance=0.05, direction="lower"),
        "cold_evaluated": Gate(tolerance=0.0, direction="lower"),
        "warm_evaluated": Gate(tolerance=0.0, direction="lower"),
        "parallel_max_abs_cycle_diff": Gate(tolerance=0.0,
                                            direction="lower"),
        "parallel_label_agreement": _EXACT_COUNT,
        "warm_max_abs_cycle_diff": Gate(tolerance=0.0,
                                        direction="lower"),
    }))

register_scenario(Scenario(
    name="farm_sharded",
    description="64-core sharded farm: shards=1 bit-equivalence, "
                "executor independence at shards=8, bounded shard skew",
    run=_farm_sharded_metrics,
    gates={
        "cores": _EXACT_COUNT,
        "requests": _EXACT_COUNT,
        # Hard zero: sharding with one shard IS the plain simulator.
        "shards1.max_abs_metric_diff": Gate(tolerance=0.0,
                                            direction="lower"),
        "shard8.jobs_metric_diff": Gate(tolerance=0.0,
                                        direction="lower"),
        "shard8.completed": _EXACT_COUNT,
        "shard8.sessions_per_s": _SPEEDUP,
        "shard8.p99_ms": Gate(tolerance=0.15, direction="lower"),
        "shard8.sessions_per_s_skew": Gate(tolerance=0.10,
                                           direction="higher"),
        "shard8.p99_ms_skew": Gate(tolerance=0.25, direction="lower"),
    }))

register_scenario(Scenario(
    name="farm_chaos",
    description="8-core farm under a committed FaultPlan (core loss, "
                "cache flush, degradation): deterministic chaos, "
                "sharded repeatability, and runtime SLO gating",
    run=_farm_chaos_metrics,
    gates={
        "cores": _EXACT_COUNT,
        "requests": _EXACT_COUNT,
        "plan_events": _EXACT_COUNT,
        "fault_events": _EXACT_COUNT,
        "sessions_flushed": _EXACT_COUNT,
        # Hard zeros: chaos runs are as reproducible as healthy ones.
        "repeat_metric_diff": Gate(tolerance=0.0, direction="lower"),
        "shard4.jobs_metric_diff": Gate(tolerance=0.0,
                                        direction="lower"),
        "shard4.fault_events": _EXACT_COUNT,
        "completed": _EXACT_COUNT,
        "p99_ms": Gate(tolerance=0.15, direction="lower"),
        # The outage must be *visible* in the tail (>1x slowdown) --
        # a chaos layer that does not hurt is not injecting anything.
        "p99_slowdown": Gate(tolerance=0.15, direction="higher"),
        "slo_windows": _EXACT_COUNT,
        "slo_windows_violated": _EXACT_COUNT,
        "slo_violations": _EXACT_COUNT,
        "gen.events": _EXACT_COUNT,
    }))

register_scenario(Scenario(
    name="farm_timeseries",
    description="virtual-time series of the chaos run: byte-identical "
                "exports across repeats/jobs, JSONL round-trip, and "
                "the visible p99 spike + recovery around the core "
                "outage",
    run=_farm_timeseries_metrics,
    gates={
        "cores": _EXACT_COUNT,
        "requests": _EXACT_COUNT,
        "samples": _EXACT_COUNT,
        "events": _EXACT_COUNT,
        "fault_annotations": _EXACT_COUNT,
        "slo_alerts": _EXACT_COUNT,
        # Hard zeros: determinism is byte-level, not approximate.
        "repeat_export_diff": Gate(tolerance=0.0, direction="lower"),
        "roundtrip_diff": Gate(tolerance=0.0, direction="lower"),
        "shard4.jobs_export_diff": Gate(tolerance=0.0,
                                        direction="lower"),
        "p99_spike_ms": Gate(tolerance=0.15, direction="lower"),
        "p99_spike_ratio": Gate(tolerance=0.15, direction="higher"),
        "p99_recovery_ratio": Gate(tolerance=0.25, direction="lower"),
    }))

register_scenario(Scenario(
    name="farm_scale",
    description="256-core heterogeneous farm, 50,000 preferential "
                "requests at 8000/s over 4096 clients (seed 1): "
                "dispatch at scale, every result gated exactly",
    run=_farm_scale_metrics,
    gates={
        "cores": _EXACT_COUNT,
        "requests": _EXACT_COUNT,
        "completed": _EXACT_COUNT,
        "events": _EXACT_COUNT,
        "cache_hit_rate": Gate(tolerance=0.0, direction="higher"),
        "p50_ms": Gate(tolerance=0.0, direction="lower"),
        "p99_ms": Gate(tolerance=0.0, direction="lower"),
        "mean_utilization": Gate(tolerance=0.0, direction="higher"),
    }))

register_scenario(Scenario(
    name="modexp_candidates",
    description="macro-model exploration of 5 strided modexp "
                "candidates (512-bit RSA decrypt workload)",
    run=_modexp_candidates_metrics,
    gates={
        "candidates": _EXACT_COUNT,
        "correct_fraction": _EXACT_COUNT,
        "best_cycles": Gate(tolerance=0.05, direction="lower"),
        "median_cycles": _CYCLES,
    }))


# -- compiled fast paths (generated-code ISS + flat mpn) ---------------------

def _iss_compiled_metrics() -> Dict[str, object]:
    from repro.isa.kernels.modexp_kernel import ModExpKernel
    from repro.isa.kernels.mpn_kernels import MpnKernels
    from repro.isa.machine import backend_scope
    from repro.macromodel.characterize import characterize_platform
    from repro.mp.prng import DeterministicPrng

    # Kernel objects are shared across backends: the point of the
    # compiled backend is that one decoded/compiled program is reused.
    base = MpnKernels()
    ext = MpnKernels(4, 2)
    modexp = ModExpKernel()
    modulus = (1 << 256) - 189          # odd 256-bit modulus

    def kernel_menu():
        """Deterministic mixed-kernel run; returns full observables."""
        outputs = []
        prng = DeterministicPrng(0x15C0)
        for n in (4, 16, 32):
            up, vp = prng.next_limbs(n), prng.next_limbs(n)
            outputs.append(base.addmul_1(vp, up, prng.next_bits(32)))
            outputs.append(base.add_n(up, vp))
        up, vp = prng.next_limbs(8), prng.next_limbs(8)
        outputs.append(ext.addmul_1(vp, up, prng.next_bits(32)))
        value, cycles, profile = modexp.powm(0x1234567, 0x1B5, modulus)
        outputs.append((value, cycles, profile.total_cycles,
                        profile.instructions,
                        tuple(sorted(profile.local_cycles.items())),
                        tuple(sorted(profile.call_counts.items()))))
        return outputs

    observed = {}
    for backend in ("interp", "compiled"):
        with backend_scope(backend):
            observed[backend] = kernel_menu()
    mismatches = sum(1 for a, b in zip(observed["interp"],
                                       observed["compiled"]) if a != b)

    def cycles_total(outputs):
        return float(sum(entry[-1] if len(entry) == 3 else entry[1]
                         for entry in outputs[:-1])
                     + outputs[-1][1])

    interp_cycles = cycles_total(observed["interp"])
    compiled_cycles = cycles_total(observed["compiled"])

    # A trimmed characterization must produce identical model sets.
    # jobs=1 keeps the stimulus jobs in-process, where backend_scope
    # actually governs them (worker processes re-resolve from the env).
    def char_predictions(backend):
        with backend_scope(backend):
            models = characterize_platform(sizes=(4, 16), reps=1,
                                           modmul_overhead=False, jobs=1)
        return {routine: models.predict(routine, 16)
                for routine in models.routines()}

    char = {backend: char_predictions(backend)
            for backend in ("interp", "compiled")}
    char_diff = max(abs(char["interp"][r] - char["compiled"][r])
                    for r in char["interp"])

    return {
        "runs": float(len(observed["interp"])),
        "backend_mismatches": float(mismatches),
        "cycles_diff": abs(interp_cycles - compiled_cycles),
        "characterize_max_abs_diff": char_diff,
        "interp.total_cycles": interp_cycles,
        "compiled.total_cycles": compiled_cycles,
        "modexp.cycles": float(observed["compiled"][-1][1]),
    }


def _mpn_fast_metrics() -> Dict[str, object]:
    from repro.mp import mpn, mpn_backend, mpn_fast
    from repro.mp.hooks import traced
    from repro.mp.limb import RADIX16, RADIX32
    from repro.mp.prng import DeterministicPrng

    def traced_call(fn, *args):
        calls = []
        with traced(lambda name, params: calls.append(
                (name, tuple(sorted(params.items()))))):
            result = fn(*args)
        return result, calls

    cases = []
    for radix in (RADIX32, RADIX16):
        prng = DeterministicPrng(0xFA57 ^ radix.bits)
        vec = lambda n: prng.next_limbs(n, radix)
        for n in (3, 9):
            rp, up = vec(n), vec(n)
            v = prng.next_int(radix.base)
            cases.append((mpn.addmul_1, mpn_fast.addmul_1,
                          (rp, up, v, radix)))
            cases.append((mpn.mul_basecase, mpn_fast.mul_basecase,
                          (up, vec(n + 2), radix)))
            cases.append((mpn.sqr, mpn_fast.sqr, (up, radix)))
            cases.append((mpn.divrem_1, mpn_fast.divrem_1,
                          (up, 1 + prng.next_int(radix.mask), radix)))
            cases.append((mpn.divrem, mpn_fast.divrem,
                          (vec(n + 4), vec(n), radix)))
        cases.append((mpn.sqr, mpn_fast.sqr, (vec(40), radix)))
        # The crafted Knuth D6 add-back trigger (see test_mpn_fast.py).
        half = radix.base // 2
        cases.append((mpn.divrem, mpn_fast.divrem,
                      ([0, 0, half, half - 1], [radix.mask, 0, half],
                       radix)))

    value_mismatches = trace_mismatches = traced_calls = 0
    for reference, fast, args in cases:
        # Pinned, so the oracle stays the reference loops when
        # $REPRO_MPN_BACKEND=fast makes the flat path the default.
        with mpn_backend("reference"):
            ref_result, ref_calls = traced_call(reference, *args)
        fast_result, fast_calls = traced_call(fast, *args)
        value_mismatches += ref_result != fast_result
        trace_mismatches += ref_calls != fast_calls
        traced_calls += len(fast_calls)

    # The add-back must fire exactly once per radix on the trigger.
    d6_addbacks = 0
    for radix in (RADIX32, RADIX16):
        half = radix.base // 2
        _, calls = traced_call(mpn_fast.divrem, [0, 0, half, half - 1],
                               [radix.mask, 0, half], radix)
        d6_addbacks += sum(1 for name, _ in calls if name == "mpn_add_n")

    return {
        "cases": float(len(cases)),
        "value_mismatches": float(value_mismatches),
        "trace_mismatches": float(trace_mismatches),
        "traced_calls": float(traced_calls),
        "d6_addback_traces": float(d6_addbacks),
    }


register_scenario(Scenario(
    name="iss_compiled",
    description="generated-code ISS backend vs interpreter: "
                "bit-identical kernel/characterize results and cycle "
                "totals",
    run=_iss_compiled_metrics,
    gates={
        "runs": _EXACT_COUNT,
        # Hard zeros: the compiled backend IS the interpreter,
        # architecturally.
        "backend_mismatches": Gate(tolerance=0.0, direction="lower"),
        "cycles_diff": Gate(tolerance=0.0, direction="lower"),
        "characterize_max_abs_diff": Gate(tolerance=0.0,
                                          direction="lower"),
        "interp.total_cycles": _CYCLES,
        "compiled.total_cycles": _CYCLES,
        "modexp.cycles": _CYCLES,
    }))

register_scenario(Scenario(
    name="mpn_fast",
    description="flat mpn fast path vs reference loops: value and "
                "trace identity incl. the Knuth D6 add-back",
    run=_mpn_fast_metrics,
    gates={
        "cases": _EXACT_COUNT,
        # Hard zeros: the fast path must be value- and trace-exact.
        "value_mismatches": Gate(tolerance=0.0, direction="lower"),
        "trace_mismatches": Gate(tolerance=0.0, direction="lower"),
        "traced_calls": _EXACT_COUNT,
        "d6_addback_traces": _EXACT_COUNT,
    }))
