"""The farm soak service (`repro.farm.serve`): epoch replay,
virtual-time accounting, and the HTTP scrape surface."""

import json
import urllib.error
import urllib.request

import pytest

from repro.costs import PlatformCosts
from repro.farm import (AutoscalePolicy, FarmConfig, FarmSoakService,
                        FaultEvent, FaultPlan, TrafficProfile,
                        build_farm, percentile, run_autoscale,
                        run_epoch)
from repro.obs.slo import SloTarget

BASE_COSTS = PlatformCosts(
    name="base", rsa_public_cycles=631103.0,
    rsa_private_cycles=61433705.5, cipher_cycles_per_byte=703.5,
    hash_cycles_per_byte=50.84375, ecdh_cycles=4451571.0)
OPT_COSTS = PlatformCosts(
    name="optimized", rsa_public_cycles=124890.5,
    rsa_private_cycles=2139136.0, cipher_cycles_per_byte=21.375,
    hash_cycles_per_byte=50.84375, ecdh_cycles=2903293.8)


def _config(**kwargs):
    kwargs.setdefault("profile", TrafficProfile(arrival_rate=40.0))
    return FarmConfig(
        specs=tuple(build_farm(4, BASE_COSTS, OPT_COSTS, 0.5)),
        seed=7, **kwargs)


def _get(port, path):
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10) as response:
        return response.status, response.read().decode("utf-8")


class TestSoakService:
    def test_epochs_accumulate_deterministically(self):
        service = FarmSoakService(_config(), epoch_seconds=1.0)
        service.run(max_epochs=2)
        assert service.epochs == 2
        assert service.virtual_seconds == pytest.approx(2.0)
        # Each 1 s epoch at 40 req/s serves 40 requests.
        counter = service.registry.counter(
            "farm.requests.completed", scheduler="preferential")
        assert counter.value == 80
        # Epoch 1's series is rebased past epoch 0's.
        boundary = service.epoch_cycles
        assert any(s.t_cycles > boundary for s in service.series.samples)
        marks = [e for e in service.series.events
                 if e.name == "soak.epoch"]
        assert [e.attrs["epoch"] for e in marks] == [0, 1]
        assert all(e.attrs["completed"] == 40 for e in marks)

    def test_same_seed_same_soak(self):
        runs = []
        for _ in range(2):
            service = FarmSoakService(_config(), epoch_seconds=1.0)
            service.run(max_epochs=2)
            runs.append(service.render_prometheus())
        assert runs[0] == runs[1]

    def test_faults_windowed_onto_epoch_timeline(self):
        clock = _config().clock_hz
        plan = FaultPlan(events=(
            # Lands in epoch 1 (epoch_seconds=1.0).
            FaultEvent(cycle=1.5 * clock, kind="core_down", core=1),
        ), degraded_costs=BASE_COSTS)
        service = FarmSoakService(_config(faults=plan),
                                  epoch_seconds=1.0)
        service.run(max_epochs=2)
        downs = [e for e in service.series.events
                 if e.name == "fault.core_down"]
        assert len(downs) == 1
        assert downs[0].t_cycles == pytest.approx(1.5 * clock)

    def test_slo_monitor_persists_across_epochs(self):
        # An unattainable latency target alerts in every window.
        service = FarmSoakService(
            _config(slo=SloTarget(p99_ms=0.0001),
                    slo_window_seconds=0.5),
            epoch_seconds=1.0)
        service.run(max_epochs=2)
        payload = service.slo_payload()
        assert payload["windows_evaluated"] >= 2
        assert payload["attainment"] < 1.0
        alerts = [e for e in service.series.events
                  if e.name == "slo.alert"]
        assert alerts and {a.attrs["epoch"] for a in alerts} == {0, 1}

    def test_stop_halts_the_loop(self):
        service = FarmSoakService(_config(), epoch_seconds=1.0)
        service.stop()
        assert service.run(max_epochs=50) == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="epoch_seconds"):
            FarmSoakService(_config(), epoch_seconds=0.0)
        with pytest.raises(ValueError, match="series_interval_seconds"):
            FarmSoakService(_config(), series_interval_seconds=0.0)
        with pytest.raises(ValueError, match="profile"):
            FarmSoakService(FarmConfig(
                specs=tuple(build_farm(2, BASE_COSTS, OPT_COSTS, 0.5)),
                requests=()))


class TestEpochConvention:
    def test_soak_and_autoscale_epochs_agree(self):
        # Both loops run their epochs through run_epoch: with every
        # core active and a constant curve, soak epoch e and autoscale
        # epoch e serve the same traffic under the same fault window.
        clock = _config().clock_hz
        plan = FaultPlan(events=(
            FaultEvent(cycle=1.25 * clock, kind="degrade", core=0),
            FaultEvent(cycle=2.5 * clock, kind="cache_flush", core=1),
        ), degraded_costs=BASE_COSTS)
        config = _config(profile=TrafficProfile(arrival_rate=90.0),
                         faults=plan)
        service = FarmSoakService(config, epoch_seconds=1.0)
        service.run(max_epochs=3)
        soak = [e.attrs["completed"] for e in service.series.events
                if e.name == "soak.epoch"]
        report = run_autoscale(
            config, policy=AutoscalePolicy(min_cores=4, max_cores=4),
            n_epochs=3, epoch_seconds=1.0, curve="constant")
        assert [e.active_cores for e in report.epochs] == [4, 4, 4]
        assert [e.completed for e in report.epochs] == soak == [90] * 3
        for epoch in report.epochs:
            run = run_epoch(config, epoch.epoch, 1.0, 90.0, 4)
            assert run.result.fault_events == (epoch.epoch > 0)
            assert epoch.p99_ms == percentile(
                [c.latency_cycles / clock * 1e3
                 for c in run.result.completions], 99)


class TestHttpSurface:
    def test_scrape_cycle(self):
        service = FarmSoakService(
            _config(slo=SloTarget(p99_ms=50.0)), epoch_seconds=1.0)
        port = service.serve()
        try:
            service.run_epoch()

            status, metrics = _get(port, "/metrics")
            assert status == 200
            line = next(l for l in metrics.splitlines()
                        if l.startswith("farm_requests_completed"))
            # Sample lines carry the virtual timestamp (1 s = 1000 ms).
            assert line.endswith(" 1000")
            assert 'scheduler="preferential"' in line

            status, body = _get(port, "/healthz")
            health = json.loads(body)
            assert (status, health["status"]) == (200, "ok")
            assert health["epochs"] == 1
            assert health["virtual_seconds"] == pytest.approx(1.0)

            status, body = _get(port, "/slo")
            assert status == 200
            assert json.loads(body)["target"]["p99_ms"] == 50.0

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(port, "/nope")
            assert excinfo.value.code == 404

            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/quit", method="POST",
                data=b"")
            with urllib.request.urlopen(request, timeout=10) as resp:
                assert resp.status == 200
            assert service.stopping
            # A quit service refuses further epochs.
            assert service.run(max_epochs=10) == 1
        finally:
            service.shutdown()

    def test_slo_endpoint_without_target(self):
        service = FarmSoakService(_config(), epoch_seconds=1.0)
        port = service.serve()
        try:
            status, body = _get(port, "/slo")
            assert status == 200
            assert json.loads(body) == {"slo": None}
        finally:
            service.shutdown()

    def test_serve_twice_is_an_error(self):
        service = FarmSoakService(_config(), epoch_seconds=1.0)
        service.serve()
        try:
            with pytest.raises(RuntimeError, match="already serving"):
                service.serve()
        finally:
            service.shutdown()
        service.shutdown()      # idempotent
