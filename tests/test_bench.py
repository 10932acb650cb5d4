"""Tests for repro.obs.bench: gates, baseline I/O, comparison and the
regression-check flow, driven by cheap stub scenarios (the expensive
built-in scenarios are exercised by the committed baselines in CI)."""

import copy
import json

import pytest

from repro.obs import bench
from repro.obs.bench import (DEFAULT_BASELINE_DIR, Gate, Scenario,
                             baseline_filename, baseline_path,
                             check_scenarios, compare_metrics,
                             get_scenario, load_baseline, render_report,
                             run_scenario, scenario_names, write_baseline)

STUB_METRICS = {
    "handshake_cycles": 1_000_000.0,
    "throughput_mbps": 40.0,
    "candidates": 5.0,
    "best_label": "radix-32/window-4",
}


@pytest.fixture
def stub_scenario():
    """A registered throwaway scenario whose metrics the test mutates."""
    metrics = copy.deepcopy(STUB_METRICS)
    scenario = Scenario(
        name="stub", description="test stub",
        run=lambda: dict(metrics),
        gates={"handshake_cycles": Gate(tolerance=0.10,
                                        direction="lower"),
               "throughput_mbps": Gate(tolerance=0.10,
                                       direction="higher"),
               "candidates": Gate(tolerance=0.0, direction="higher")})
    bench.register_scenario(scenario)
    try:
        yield scenario, metrics
    finally:
        del bench._SCENARIOS["stub"]


class TestGate:
    def test_validates_direction_and_tolerance(self):
        with pytest.raises(ValueError):
            Gate(direction="sideways")
        with pytest.raises(ValueError):
            Gate(tolerance=-0.1)

    def test_lower_is_better_with_tolerance(self):
        gate = Gate(tolerance=0.10, direction="lower")
        assert not gate.regressed(100.0, 100.0)
        assert not gate.regressed(100.0, 110.0)   # exactly at tolerance
        assert gate.regressed(100.0, 111.0)
        assert not gate.regressed(100.0, 50.0)    # improvement

    def test_higher_is_better_with_tolerance(self):
        gate = Gate(tolerance=0.10, direction="higher")
        assert not gate.regressed(40.0, 40.0)
        assert not gate.regressed(40.0, 36.0)     # exactly at tolerance
        assert gate.regressed(40.0, 35.9)
        assert not gate.regressed(40.0, 80.0)

    def test_zero_tolerance_demands_exactness(self):
        gate = Gate(tolerance=0.0, direction="higher")
        assert not gate.regressed(5.0, 5.0)
        assert gate.regressed(5.0, 4.999)


class TestRegistry:
    def test_builtin_scenarios_are_registered(self):
        names = scenario_names()
        for expected in ("ssl_transaction", "farm_mixed",
                         "characterize", "modexp_candidates",
                         "iss_compiled", "mpn_fast"):
            assert expected in names

    def test_get_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(KeyError, match="ssl_transaction"):
            get_scenario("nope")

    def test_run_scenario_sorts_metric_keys(self, stub_scenario):
        metrics = run_scenario("stub")
        assert list(metrics) == sorted(metrics)


class TestBaselineIO:
    def test_write_then_load_round_trips(self, stub_scenario, tmp_path):
        _, metrics = stub_scenario
        path = write_baseline(str(tmp_path), "stub", metrics)
        assert path == baseline_path(str(tmp_path), "stub")
        assert load_baseline(str(tmp_path), "stub") == dict(
            sorted(metrics.items()))

    def test_double_write_is_byte_identical(self, stub_scenario,
                                            tmp_path):
        _, metrics = stub_scenario
        path = write_baseline(str(tmp_path), "stub", metrics)
        first = open(path, "rb").read()
        write_baseline(str(tmp_path), "stub", metrics)
        assert open(path, "rb").read() == first
        assert first.endswith(b"\n")

    def test_load_missing_or_corrupt_returns_none(self, tmp_path):
        assert load_baseline(str(tmp_path), "absent") is None
        path = tmp_path / baseline_filename("bad")
        for document in ("{not json", "[1]", '"x"', "null",
                         '{"schema": 1}', '{"schema": 1, "metrics": [1]}'):
            path.write_text(document)
            assert load_baseline(str(tmp_path), "bad") is None

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / baseline_filename("future")
        path.write_text(json.dumps({"schema": 999, "metrics": {"a": 1}}))
        assert load_baseline(str(tmp_path), "future") is None


class TestCompare:
    def test_identical_metrics_pass(self, stub_scenario):
        scenario, metrics = stub_scenario
        report = compare_metrics(scenario, dict(metrics), dict(metrics))
        assert not report.failed
        assert {row.status for row in report.rows} == {"ok"}

    def test_twenty_percent_cycle_regression_fails(self, stub_scenario):
        """Acceptance: +20% cycles on a 10%-toleranced gate fails."""
        scenario, metrics = stub_scenario
        worse = dict(metrics,
                     handshake_cycles=metrics["handshake_cycles"] * 1.20)
        report = compare_metrics(scenario, dict(metrics), worse)
        assert report.failed
        (row,) = report.regressions()
        assert row.metric == "handshake_cycles"
        assert row.delta_pct == pytest.approx(20.0)

    def test_within_tolerance_drift_is_changed_not_failed(
            self, stub_scenario):
        scenario, metrics = stub_scenario
        drift = dict(metrics,
                     handshake_cycles=metrics["handshake_cycles"] * 1.05)
        report = compare_metrics(scenario, dict(metrics), drift)
        assert not report.failed
        row = next(r for r in report.rows
                   if r.metric == "handshake_cycles")
        assert row.status == "changed"

    def test_improvement_is_reported_not_failed(self, stub_scenario):
        scenario, metrics = stub_scenario
        better = dict(metrics, throughput_mbps=80.0)
        report = compare_metrics(scenario, dict(metrics), better)
        assert not report.failed
        row = next(r for r in report.rows
                   if r.metric == "throughput_mbps")
        assert row.status == "improved"

    def test_missing_gated_metric_fails(self, stub_scenario):
        scenario, metrics = stub_scenario
        current = {k: v for k, v in metrics.items()
                   if k != "candidates"}
        report = compare_metrics(scenario, dict(metrics), current)
        assert report.failed
        assert report.regressions()[0].status == "missing"

    def test_new_and_ungated_metrics_never_fail(self, stub_scenario):
        scenario, metrics = stub_scenario
        current = dict(metrics, best_label="radix-64/window-5",
                       extra_metric=1.0)
        report = compare_metrics(scenario, dict(metrics), current)
        assert not report.failed
        by_name = {r.metric: r for r in report.rows}
        assert by_name["best_label"].status == "changed"
        assert by_name["extra_metric"].status == "new"


class TestCheckFlow:
    def test_check_passes_then_fails_on_injected_regression(
            self, stub_scenario, tmp_path):
        scenario, metrics = stub_scenario
        write_baseline(str(tmp_path), "stub", run_scenario("stub"))
        reports, ok = check_scenarios(str(tmp_path), ["stub"])
        assert ok and not reports[0].failed
        # Inject a +20% cycle regression into the live scenario.
        metrics["handshake_cycles"] *= 1.20
        reports, ok = check_scenarios(str(tmp_path), ["stub"])
        assert not ok and reports[0].failed
        assert "handshake_cycles" in render_report(reports)

    def test_missing_baseline_fails_check(self, stub_scenario,
                                          tmp_path):
        reports, ok = check_scenarios(str(tmp_path), ["stub"])
        assert not ok
        assert reports[0].error and "no baseline" in reports[0].error
        # A damaged baseline fails the gate the same way.
        (tmp_path / baseline_filename("stub")).write_text("[1]")
        reports, ok = check_scenarios(str(tmp_path), ["stub"])
        assert not ok
        assert reports[0].error and "no baseline" in reports[0].error

    def test_render_report_verbose_lists_every_row(self, stub_scenario,
                                                   tmp_path):
        write_baseline(str(tmp_path), "stub", run_scenario("stub"))
        reports, _ = check_scenarios(str(tmp_path), ["stub"])
        terse = render_report(reports)
        assert terse.splitlines() == ["[ok] stub"]
        verbose = render_report(reports, verbose=True)
        assert "throughput_mbps" in verbose


class TestCommittedBaselines:
    """The repo ships a baseline for every registered scenario."""

    def test_every_scenario_has_a_committed_baseline(self):
        for name in scenario_names():
            assert load_baseline(DEFAULT_BASELINE_DIR, name) is not None

    def test_committed_baselines_gate_cleanly_shaped(self):
        # Cheap structural check (the full re-run happens in CI's
        # bench-gate job): every gated metric exists in its baseline.
        for name in scenario_names():
            baseline = load_baseline(DEFAULT_BASELINE_DIR, name)
            missing = set(get_scenario(name).gates) - set(baseline)
            assert not missing, (name, missing)
