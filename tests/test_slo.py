"""SLO vocabulary (`repro.obs.slo`) and its per-window plumbing."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costs import PlatformCosts
from repro.farm import (FarmConfig, TrafficProfile, build_farm,
                        run_farm, window_metrics)
from repro.obs import MetricsRegistry
from repro.obs.slo import (SloMonitor, SloObjective, SloReport,
                           SloTarget, SloWindow, parse_slo)
from tests.mutation import mutated, swapped

BASE_COSTS = PlatformCosts(
    name="base", rsa_public_cycles=631103.0,
    rsa_private_cycles=61433705.5, cipher_cycles_per_byte=703.5,
    hash_cycles_per_byte=50.84375, ecdh_cycles=4451571.0)
OPT_COSTS = PlatformCosts(
    name="optimized", rsa_public_cycles=124890.5,
    rsa_private_cycles=2139136.0, cipher_cycles_per_byte=21.375,
    hash_cycles_per_byte=50.84375, ecdh_cycles=2903293.8)


class TestSloObjective:
    def test_lower_direction(self):
        latency = SloObjective(metric="p99_ms", target=5.0)
        assert latency.violated_by(5.1)
        assert not latency.violated_by(5.0)
        assert not latency.violated_by(1.0)

    def test_higher_direction(self):
        rate = SloObjective(metric="secure_mbps", target=10.0,
                            direction="higher")
        assert rate.violated_by(9.9)
        assert not rate.violated_by(10.0)

    def test_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            SloObjective(metric="p99_ms", target=5.0,
                         direction="sideways")


class TestSloTarget:
    def test_objectives_in_declaration_order(self):
        target = SloTarget(p99_ms=5.0, secure_mbps=10.0,
                           cache_hit_rate=0.8, utilization=0.3)
        objectives = target.objectives()
        assert [o.metric for o in objectives] == \
            ["p99_ms", "secure_mbps", "cache_hit_rate", "utilization"]
        assert [o.direction for o in objectives] == \
            ["lower", "higher", "higher", "higher"]

    def test_none_fields_skipped(self):
        assert SloTarget().objectives() == ()
        assert [o.metric
                for o in SloTarget(utilization=0.5).objectives()] == \
            ["utilization"]

    def test_violations_ignore_unmeasured_metrics(self):
        target = SloTarget(p99_ms=5.0, cache_hit_rate=0.9)
        # No cache lookups this window: hit rate unmeasured, not zero.
        assert target.violations({"p99_ms": 9.0}) == ["p99_ms"]
        assert target.violations(
            {"p99_ms": 1.0, "cache_hit_rate": 0.5}) == \
            ["cache_hit_rate"]
        assert target.violations({"p99_ms": 1.0}) == []

    def test_violations_latency_and_throughput(self):
        target = SloTarget(p99_ms=5.0, secure_mbps=10.0)
        assert target.violations({"p99_ms": 4.0, "secure_mbps": 11.0}) \
            == []
        assert target.violations({"p99_ms": 6.0, "secure_mbps": 11.0}) \
            == ["p99_ms"]
        assert target.violations({"p99_ms": 4.0, "secure_mbps": 9.0}) \
            == ["secure_mbps"]

    def test_round_trip(self):
        target = SloTarget(p99_ms=5.0, utilization=0.25)
        assert SloTarget.from_dict(target.as_dict()) == target

    @pytest.mark.parametrize("field, value", [
        ("p99_ms", float("nan")), ("p99_ms", -1.0),
        ("secure_mbps", float("inf")), ("cache_hit_rate", "0.9"),
        ("utilization", True)])
    def test_rejects_bad_targets_by_name(self, field, value):
        with pytest.raises(ValueError,
                           match=f"SLO target: field '{field}' "):
            SloTarget(**{field: value})
        with pytest.raises(ValueError,
                           match=f"SLO target: field '{field}' "):
            SloTarget.from_dict({field: value})

    @pytest.mark.parametrize("payload", [[], [("p99_ms", 5.0)], "p99_ms",
                                         None])
    def test_from_dict_rejects_non_objects(self, payload):
        with pytest.raises(ValueError,
                           match="^SLO target: not a JSON object"):
            SloTarget.from_dict(payload)

    def test_zero_targets_are_valid(self):
        assert SloTarget(p99_ms=0, utilization=0.0).objectives()


class TestParseSlo:
    def test_parses_multiple_metrics(self):
        target = parse_slo("p99_ms=5, secure_mbps=10.5")
        assert target == SloTarget(p99_ms=5.0, secure_mbps=10.5)

    @pytest.mark.parametrize("spec", [
        "", "p99_ms", "p99_ms=fast", "latency=5"])
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            parse_slo(spec)

    @pytest.mark.parametrize("spec", [
        "p99_ms=nan", "p99_ms=-1", "p99_ms=inf", "p99_ms=5,utilization=-0.5"])
    def test_rejects_non_finite_and_negative_targets(self, spec):
        with pytest.raises(ValueError, match="finite non-negative"):
            parse_slo(spec)


class TestMutatedTargets:
    """Every damaged SLO target loads or fails with a ``ValueError``,
    so ``farm --slo`` exits 2, never with a traceback."""

    VALID = {"p99_ms": 5.0, "secure_mbps": 10, "cache_hit_rate": 0.5,
             "utilization": 0.25}

    @settings(max_examples=300)
    @given(payload=mutated(VALID))
    def test_from_dict_loads_or_raises_value_error(self, payload):
        try:
            target = SloTarget.from_dict(payload)
        except ValueError:
            return
        assert SloTarget.from_dict(target.as_dict()) == target

    @settings(max_examples=300)
    @given(payload=mutated(VALID))
    def test_parse_slo_loads_or_raises_value_error(self, payload):
        if isinstance(payload, dict):
            spec = ",".join(f"{k}={v}" for k, v in payload.items())
        else:
            spec = json.dumps(payload)
        try:
            parse_slo(spec)
        except ValueError:
            pass

    @given(spec=st.text())
    def test_parse_slo_of_any_text(self, spec):
        try:
            parse_slo(spec)
        except ValueError:
            pass

    @pytest.mark.parametrize("field", sorted(VALID))
    def test_huge_int_target_is_named(self, field):
        with pytest.raises(ValueError,
                           match=f"SLO target: field '{field}' "):
            SloTarget.from_dict(swapped(self.VALID, (field,), 10 ** 400))


class TestSloMonitor:
    def test_report_accumulates_windows(self):
        monitor = SloMonitor(SloTarget(p99_ms=5.0), window_seconds=0.5)
        good = monitor.observe({"p99_ms": 2.0})
        bad = monitor.observe({"p99_ms": 7.0})
        assert good.met and not bad.met
        assert (bad.start_s, bad.end_s) == (0.5, 1.0)
        report = monitor.finish()
        assert len(report.windows) == 2
        assert report.windows_violated == 1
        assert report.violations == 1
        assert report.attainment == pytest.approx(0.5)

    def test_empty_report_attains_fully(self):
        report = SloReport(target=SloTarget(p99_ms=5.0),
                           window_seconds=1.0)
        assert report.attainment == 1.0
        assert report.as_dict()["windows_evaluated"] == 0

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window_seconds"):
            SloMonitor(SloTarget(p99_ms=5.0), window_seconds=0.0)

    def test_publishes_farm_slo_metrics(self):
        registry = MetricsRegistry()
        monitor = SloMonitor(
            SloTarget(p99_ms=5.0, secure_mbps=10.0),
            registry=registry, scheduler="preferential")
        windows = monitor.observe_all([
            {"p99_ms": 1.0, "secure_mbps": 20.0},
            {"p99_ms": 9.0, "secure_mbps": 20.0},
            {"p99_ms": 9.0, "secure_mbps": 1.0},
        ])
        # observe_all returns the per-window verdicts, each stamped
        # with the cumulative attainment through that window.
        assert [w.met for w in windows] == [True, False, False]
        assert [w.attainment for w in windows] == \
            pytest.approx([1.0, 0.5, 1 / 3])
        monitor.finish()
        tag = dict(scheduler="preferential")
        assert registry.counter("farm.slo_windows", **tag).value == 3
        assert registry.counter("farm.slo_violations", **tag).value == 3
        assert registry.counter("farm.slo_alerts", metric="p99_ms",
                                **tag).value == 2
        assert registry.counter("farm.slo_alerts",
                                metric="secure_mbps", **tag).value == 1
        assert registry.gauge("farm.slo_attainment", **tag).value == \
            pytest.approx(1 / 3)

    def test_no_registry_is_fine(self):
        monitor = SloMonitor(SloTarget(p99_ms=5.0))
        windows = monitor.observe_all([{"p99_ms": 9.0}])
        assert len(windows) == 1 and not windows[0].met
        assert monitor.finish().windows_violated == 1

    def test_window_as_dict(self):
        window = SloWindow(index=0, start_s=0.0, end_s=1.0,
                           sample={"p99_ms": 9.0},
                           violations=["p99_ms"])
        payload = window.as_dict()
        assert payload["met"] is False
        assert payload["violations"] == ["p99_ms"]
        # Hand-built windows carry no cumulative attainment; the
        # monitor stamps it when it appends the window to its report.
        assert payload["attainment"] is None


class TestWindowMetrics:
    @staticmethod
    def _result(n_requests=200, rate=60.0):
        config = FarmConfig(
            specs=tuple(build_farm(4, BASE_COSTS, OPT_COSTS, 0.5)),
            profile=TrafficProfile(arrival_rate=rate),
            n_requests=n_requests, seed=1)
        return run_farm(config).result

    def test_windows_cover_makespan(self):
        result = self._result()
        window_seconds = 0.5
        samples = window_metrics(result, window_seconds)
        expected = result.makespan_cycles / result.clock_hz
        assert len(samples) * window_seconds >= expected
        assert (len(samples) - 1) * window_seconds < expected

    def test_every_completion_counted_once(self):
        result = self._result()
        samples = window_metrics(result, 0.5)
        total_bits = sum(s.get("secure_mbps", 0.0) * 0.5 * 1e6
                        for s in samples)
        assert total_bits == pytest.approx(
            sum(c.request.size_bytes * 8 for c in result.completions))

    def test_samples_feed_the_monitor(self):
        result = self._result()
        samples = window_metrics(result, 1.0)
        monitor = SloMonitor(SloTarget(utilization=0.0),
                             window_seconds=1.0)
        windows = monitor.observe_all(samples)
        report = monitor.finish()
        assert len(windows) == len(samples)
        assert len(report.windows) == len(samples)
        assert all("utilization" in w.sample for w in report.windows)
        assert all(0.0 <= w.sample["utilization"] <= 1.0
                   for w in report.windows)

    def test_validation(self):
        result = self._result(n_requests=10)
        with pytest.raises(ValueError):
            window_metrics(result, 0.0)

    def test_window_longer_than_run(self):
        # One window swallows the whole run: every completion lands in
        # it and nothing is invented past the makespan.
        result = self._result(n_requests=20)
        samples = window_metrics(result, 1000.0)
        assert len(samples) == 1
        assert samples[0]["completed"] == float(len(result.completions))
        assert 0.0 <= samples[0]["utilization"] <= 1.0

    def test_zero_request_windows_are_explicit(self):
        # Narrow windows leave gaps with no finishes; those samples
        # report zero throughput and zero completions rather than
        # omitting the window (an unmeasured window would hide an
        # outage), and never invent a latency figure.
        result = self._result(n_requests=40, rate=20.0)
        samples = window_metrics(result, 0.01)
        empty = [s for s in samples if s["completed"] == 0.0]
        assert empty, "expected at least one idle window"
        for sample in empty:
            assert sample["secure_mbps"] == 0.0
            assert "p99_ms" not in sample
            assert "cache_hit_rate" not in sample

    def test_completions_conserved_across_windows(self):
        # Conservation: windowing neither drops nor double-counts, for
        # any window size -- including windows that straddle fault
        # transitions of a chaos-injected run.
        from repro.farm import FaultEvent, FaultPlan
        clock = self._result(n_requests=10).clock_hz
        plan = FaultPlan(events=(
            FaultEvent(cycle=0.5 * clock, kind="core_down", core=1),
            FaultEvent(cycle=1.5 * clock, kind="core_up", core=1),
        ), degraded_costs=BASE_COSTS)
        config = FarmConfig(
            specs=tuple(build_farm(4, BASE_COSTS, OPT_COSTS, 0.5)),
            profile=TrafficProfile(arrival_rate=60.0),
            n_requests=200, seed=1, faults=plan)
        result = run_farm(config).result
        total = float(len(result.completions))
        for window_seconds in (0.25, 0.5, 0.7, 1.0, 3.0):
            samples = window_metrics(result, window_seconds)
            assert sum(s["completed"] for s in samples) == total
