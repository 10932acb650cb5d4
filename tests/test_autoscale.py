"""Tests for the autoscaling capacity service and capacity-plan
serialization (frozen measured unit costs, no ISS runs)."""

import pytest

from repro.costs import PlatformCosts
from repro.farm import (ARRIVAL_CURVES, AutoscalePolicy, CapacityPlan,
                        FarmConfig, SloTarget, TrafficProfile,
                        arrival_multiplier, build_farm, curve_names,
                        plan_farm, run_autoscale, specs_as_configs)

BASE_COSTS = PlatformCosts(
    name="base", rsa_public_cycles=631103.0,
    rsa_private_cycles=61433705.5, cipher_cycles_per_byte=703.5,
    hash_cycles_per_byte=50.84375, ecdh_cycles=4451571.0)
OPT_COSTS = PlatformCosts(
    name="optimized", rsa_public_cycles=124890.5,
    rsa_private_cycles=2139136.0, cipher_cycles_per_byte=21.375,
    hash_cycles_per_byte=50.84375, ecdh_cycles=2903293.8)


def _pool(n=16):
    return build_farm(n, BASE_COSTS, OPT_COSTS, 0.5)


class TestArrivalCurves:
    def test_registry(self):
        assert set(curve_names()) == {"constant", "diurnal", "bursty"}
        with pytest.raises(ValueError, match="unknown arrival curve"):
            arrival_multiplier("square", 0, 10)

    def test_constant_is_flat(self):
        assert all(arrival_multiplier("constant", e, 24) == 1.0
                   for e in range(24))

    def test_diurnal_troughs_and_peaks(self):
        values = [arrival_multiplier("diurnal", e, 24)
                  for e in range(24)]
        assert min(values) == pytest.approx(0.5)
        assert max(values) == pytest.approx(1.5)
        assert values[0] == pytest.approx(0.5)      # trough at epoch 0
        assert values[12] == pytest.approx(1.5)     # peak mid-run

    def test_bursty_spikes(self):
        values = [arrival_multiplier("bursty", e, 16)
                  for e in range(16)]
        assert values[4] == values[12] == 3.0
        assert all(v == 0.6 for i, v in enumerate(values)
                   if i % 8 != 4)


class TestSloTarget:
    def test_empty_slo_always_met(self):
        assert SloTarget().met_by(1e9, 0.0)

    def test_p99_and_throughput_bounds(self):
        slo = SloTarget(p99_ms=100.0, secure_mbps=5.0)
        assert slo.met_by(99.0, 6.0)
        assert not slo.met_by(101.0, 6.0)
        assert not slo.met_by(99.0, 4.0)


class TestPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"min_cores": 0},
        {"min_cores": 8, "max_cores": 4},
        {"target_utilization": 0.0},
        {"target_utilization": 1.5},
        {"scale_in_utilization": 0.9},
        {"scale_out_step": 0},
        {"warmup_epochs": -1},
    ])
    def test_bad_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AutoscalePolicy(**kwargs)


def _autoscale(specs, profile, slo=None, seed=1, **kwargs):
    config = FarmConfig(specs=tuple(specs), scheduler="preferential",
                        profile=profile, seed=seed, slo=slo)
    return run_autoscale(config, **kwargs)


class TestAutoscale:
    def _run(self, **kwargs):
        defaults = dict(
            policy=AutoscalePolicy(min_cores=2, max_cores=16,
                                   warmup_epochs=1),
            slo=SloTarget(p99_ms=500.0),
            n_epochs=12, epoch_seconds=1.0, curve="bursty", seed=4)
        defaults.update(kwargs)
        return _autoscale(
            _pool(), TrafficProfile(arrival_rate=500.0, clients=128),
            **defaults)

    def test_deterministic(self):
        assert self._run().as_dict() == self._run().as_dict()

    def test_burst_triggers_scale_out_with_warmup_lag(self):
        report = self._run()
        burst = report.epochs[4]
        assert burst.rate_multiplier == 3.0
        assert burst.action == "scale_out"
        # Warm-up: cores ordered at the burst epoch are not active in
        # it -- they join one epoch later.
        assert report.epochs[5].active_cores > burst.active_cores
        assert report.scale_outs >= 1

    def test_respects_max_cores(self):
        report = self._run(
            policy=AutoscalePolicy(min_cores=2, max_cores=4),
            curve="constant",
            slo=SloTarget(secure_mbps=1e9))   # unmeetable -> scale out
        assert report.peak_cores <= 4
        assert all(e.active_cores + e.warming_cores <= 4
                   for e in report.epochs)
        assert report.slo_violations == len(report.epochs)

    def test_scale_in_after_load_drops(self):
        report = _autoscale(
            _pool(), TrafficProfile(arrival_rate=300.0, clients=128),
            policy=AutoscalePolicy(min_cores=2, max_cores=16,
                                   scale_in_utilization=0.45,
                                   cooldown_epochs=0),
            n_epochs=16, epoch_seconds=1.0, curve="bursty", seed=4)
        # The flash crowd forces a scale-out; once the burst passes,
        # utilization drops under the scale-in threshold and the farm
        # shrinks back -- never below min_cores.
        assert report.scale_outs >= 1
        assert report.scale_ins >= 1
        assert report.epochs[-1].active_cores < report.peak_cores
        assert all(e.active_cores >= 2 for e in report.epochs)

    def test_report_totals_match_epochs(self):
        report = self._run()
        assert report.peak_cores == max(e.active_cores
                                        for e in report.epochs)
        assert report.core_epochs == sum(e.active_cores
                                         for e in report.epochs)
        data = report.as_dict()
        assert len(data["epochs"]) == 12
        assert data["policy"]["max_cores"] == 16
        assert data["slo"]["p99_ms"] == 500.0

    def test_validation(self):
        profile = TrafficProfile()
        with pytest.raises(ValueError):
            _autoscale(_pool(), profile, n_epochs=0)
        with pytest.raises(ValueError):
            _autoscale(_pool(), profile, epoch_seconds=0.0)
        with pytest.raises(ValueError):
            _autoscale([], profile)
        with pytest.raises(ValueError, match="unknown arrival curve"):
            _autoscale(_pool(), profile, curve="sawtooth")


class TestCapacityPlanSerialization:
    def test_as_dict_from_dict_round_trip(self):
        configs = specs_as_configs(_pool(2))
        plan = plan_farm(100_000, 384e3, configs)
        assert CapacityPlan.from_dict(plan.as_dict()) == plan

    def test_from_dict_coerces_types(self):
        plan = CapacityPlan.from_dict({
            "target": "t", "target_bps": "1000.0", "config": "base",
            "cores": "4", "per_core_bps": 250, "farm_gates": 400000})
        assert plan.cores == 4
        assert plan.target_bps == 1000.0
        assert plan.farm_gates == 400000.0
