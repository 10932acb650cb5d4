"""Virtual-time metrics series (`repro.obs.timeseries`), the farm
recorder (`repro.farm.timeseries`), and their exporters."""

import io
import json
import math

import pytest
from hypothesis import given, settings

from repro.costs import PlatformCosts
from repro.farm import (FarmConfig, FaultEvent, FaultPlan,
                        TrafficProfile, build_farm, run_farm, series_of)
from repro.obs import (MetricsRegistry, MetricsTimeSeries,
                       TimeSeriesSampler, read_series_jsonl,
                       render_dashboard_html, render_metrics,
                       render_series, snapshot_registry, sparkline,
                       write_series_jsonl)
from repro.ssl.throughput import DEFAULT_CLOCK_HZ
from tests.mutation import dropped, mutated_lines, swapped

BASE_COSTS = PlatformCosts(
    name="base", rsa_public_cycles=631103.0,
    rsa_private_cycles=61433705.5, cipher_cycles_per_byte=703.5,
    hash_cycles_per_byte=50.84375, ecdh_cycles=4451571.0)
OPT_COSTS = PlatformCosts(
    name="optimized", rsa_public_cycles=124890.5,
    rsa_private_cycles=2139136.0, cipher_cycles_per_byte=21.375,
    hash_cycles_per_byte=50.84375, ecdh_cycles=2903293.8)


def _series(samples=((1.0, {"a": 1.0}), (2.0, {"a": 3.0}))):
    series = MetricsTimeSeries(clock_hz=1.0, interval_cycles=1.0)
    for t, values in samples:
        series.append(t, values)
    return series


class TestSnapshotRegistry:
    def test_flattens_every_instrument_kind(self):
        registry = MetricsRegistry()
        registry.counter("reqs", scheduler="pref").inc(3)
        registry.gauge("depth").set(2.5)
        registry.histogram("lat_ms").observe(4.0)
        registry.histogram("lat_ms").observe(12.0)
        values = snapshot_registry(registry)
        assert values["reqs{scheduler=pref}"] == 3.0
        assert values["depth"] == 2.5
        assert values["lat_ms:count"] == 2.0
        assert values["lat_ms:sum"] == 16.0
        assert values["lat_ms:mean"] == 8.0
        assert "lat_ms:p99" in values and "lat_ms:p50" in values


class TestMetricsTimeSeries:
    def test_ring_evicts_and_counts_drops(self):
        series = MetricsTimeSeries(clock_hz=1.0, interval_cycles=1.0,
                                   capacity=3)
        for t in range(5):
            series.append(float(t), {"a": float(t)})
        assert len(series) == 3
        assert series.dropped == 2
        assert [s.t_cycles for s in series.samples] == [2.0, 3.0, 4.0]

    def test_windowed_queries(self):
        series = MetricsTimeSeries(clock_hz=2.0, interval_cycles=1.0)
        for t, v in ((0.0, 0.0), (2.0, 4.0), (4.0, 6.0)):
            series.append(t, {"c": v})
        assert series.delta("c") == 6.0
        # 6 units over 4 cycles at 2 Hz = 2 virtual seconds.
        assert series.rate("c") == pytest.approx(3.0)
        assert series.max_over_time("c", start_cycles=1.0) == 6.0
        assert series.quantile_over_time("c", 0.5) == 4.0
        assert series.delta("missing") == 0.0
        assert series.rate("c", start_cycles=3.0) == 0.0

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            _series().quantile_over_time("a", 0.0)

    def test_events_between(self):
        series = _series()
        series.annotate(1.5, "fault.core_down", core=2)
        series.annotate(3.0, "slo.alert")
        assert [e.name for e in series.events_between(0.0, 2.0)] == \
            ["fault.core_down"]

    def test_merge_rebases_timestamps(self):
        soak = MetricsTimeSeries(clock_hz=1.0, interval_cycles=1.0)
        epoch = _series()
        epoch.annotate(1.5, "fault.degrade", core=0)
        soak.merge(epoch, offset_cycles=10.0)
        assert [s.t_cycles for s in soak.samples] == [11.0, 12.0]
        assert soak.events[0].t_cycles == 11.5
        assert soak.events[0].attrs == {"core": 0}

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricsTimeSeries(clock_hz=0.0, interval_cycles=1.0)
        with pytest.raises(ValueError):
            MetricsTimeSeries(clock_hz=1.0, interval_cycles=0.0)
        with pytest.raises(ValueError):
            MetricsTimeSeries(clock_hz=1.0, interval_cycles=1.0,
                              capacity=0)


class TestSampler:
    def test_boundary_semantics(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")
        sampler = TimeSeriesSampler(registry, clock_hz=1.0,
                                    interval_cycles=10.0)
        counter.inc()          # lands at t=0, before any boundary
        sampler.advance(25.0)  # boundaries 10 and 20 fire
        counter.inc()
        series = sampler.finish(30.0)
        times = [s.t_cycles for s in series.samples]
        assert times == [10.0, 20.0, 30.0]
        assert [s.values["n"] for s in series.samples] == \
            [1.0, 1.0, 2.0]

    def test_event_on_boundary_included_in_that_sample(self):
        registry = MetricsRegistry()
        sampler = TimeSeriesSampler(registry, clock_hz=1.0,
                                    interval_cycles=10.0)
        registry.counter("n").inc()     # exactly at the t=10 boundary
        sampler.advance(10.0)           # strictly-before: nothing yet
        assert len(sampler.series) == 0
        sampler.advance(10.1)
        assert sampler.series.samples[0].values["n"] == 1.0

    def test_before_sample_hook_sees_sample_time(self):
        registry = MetricsRegistry()
        seen = []
        sampler = TimeSeriesSampler(registry, clock_hz=1.0,
                                    interval_cycles=5.0,
                                    before_sample=seen.append)
        sampler.finish(12.0)
        assert seen == [5.0, 10.0, 12.0]


class TestJsonlRoundTrip:
    def test_exact_round_trip(self):
        series = _series()
        series.annotate(1.5, "fault.core_down", core=2)
        buf = io.StringIO()
        n = write_series_jsonl(series, buf)
        text = buf.getvalue()
        assert n == len(text.splitlines())
        again = io.StringIO()
        write_series_jsonl(read_series_jsonl(io.StringIO(text)), again)
        assert again.getvalue() == text

    def test_header_validates(self):
        with pytest.raises(ValueError, match="not a"):
            read_series_jsonl(io.StringIO('{"format": "bogus"}\n'))
        with pytest.raises(ValueError, match="empty"):
            read_series_jsonl(io.StringIO(""))

    @pytest.mark.parametrize("header", ["[1]", "3", '"series"', "null"])
    def test_non_object_header_rejected(self, tmp_path, capsys, header):
        from repro.cli import main
        path = tmp_path / "series.jsonl"
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match="line 1: not a JSON "
                                             "object") as info:
            read_series_jsonl(str(path))
        assert str(path) in str(info.value)
        assert main(["timeseries", "--series", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read series {path}: {path}: ")
        assert "Traceback" not in err

    def test_non_object_record_rejected(self):
        buf = io.StringIO()
        write_series_jsonl(_series(), buf)
        lines = buf.getvalue().splitlines()
        lines[2] = "[1]"
        with pytest.raises(ValueError,
                           match="<stream>: line 3: not a JSON object"):
            read_series_jsonl(io.StringIO("\n".join(lines) + "\n"))

    def test_truncation_detected(self):
        buf = io.StringIO()
        write_series_jsonl(_series(), buf)
        lines = buf.getvalue().splitlines()
        clipped = "\n".join(lines[:-1]) + "\n"
        with pytest.raises(ValueError, match="truncated"):
            read_series_jsonl(io.StringIO(clipped))

    def test_path_round_trip(self, tmp_path):
        path = tmp_path / "series.jsonl"
        write_series_jsonl(_series(), str(path))
        restored = read_series_jsonl(str(path))
        assert [s.t_cycles for s in restored.samples] == [1.0, 2.0]


def _records(series):
    """A series' JSONL export, one parsed object per line."""
    buf = io.StringIO()
    write_series_jsonl(series, buf)
    return [json.loads(line) for line in buf.getvalue().splitlines()]


def _annotated():
    series = _series()
    series.annotate(1.5, "fault.core_down", core=2)
    return series


class TestSeriesLoaderErrors:
    """A damaged series file fails with a ValueError naming the file,
    the line and the field, never another exception."""

    RECORDS = _records(_annotated())

    @staticmethod
    def _load(path, records):
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return read_series_jsonl(str(path))

    @pytest.mark.parametrize("field,value", [
        ("clock_hz", [1]), ("clock_hz", 0), ("clock_hz", float("nan")),
        ("interval_cycles", "x"), ("interval_cycles", -1.0),
        ("capacity", 1.5), ("capacity", 0), ("capacity", True),
        ("capacity", 10 ** 400), ("dropped", -1), ("dropped", None),
        ("samples", "2"), ("events", []), ("version", True),
        ("version", 1.0)])
    def test_ill_typed_header_field_named(self, tmp_path, field, value):
        path = tmp_path / "series.jsonl"
        header = swapped(self.RECORDS[0], (field,), value)
        with pytest.raises(ValueError) as info:
            self._load(path, [header] + self.RECORDS[1:])
        assert str(info.value).startswith(
            f"{path}: line 1: field {field!r} must be ")

    def test_missing_capacity_named(self, tmp_path):
        path = tmp_path / "series.jsonl"
        header = dropped(self.RECORDS[0], ("capacity",))
        with pytest.raises(ValueError, match="'capacity'"):
            self._load(path, [header] + self.RECORDS[1:])

    @pytest.mark.parametrize("line,field", [
        (2, "t_cycles"), (2, "values"), (4, "t_cycles"), (4, "name"),
        (4, "attrs")])
    def test_missing_record_field_named(self, tmp_path, line, field):
        path = tmp_path / "series.jsonl"
        records = list(self.RECORDS)
        records[line - 1] = dropped(records[line - 1], (field,))
        with pytest.raises(ValueError) as info:
            self._load(path, records)
        assert str(info.value) == (
            f"{path}: line {line}: missing field {field!r}")

    @pytest.mark.parametrize("line,path_in_record", [
        (2, ("t_cycles",)), (3, ("values",)), (3, ("values", "a")),
        (4, ("t_cycles",)), (4, ("name",)), (4, ("attrs",))])
    def test_ill_typed_record_field_named(self, tmp_path, line,
                                          path_in_record):
        path = tmp_path / "series.jsonl"
        records = list(self.RECORDS)
        records[line - 1] = swapped(records[line - 1], path_in_record,
                                    [1])
        with pytest.raises(ValueError) as info:
            self._load(path, records)
        assert str(info.value).startswith(
            f"{path}: line {line}: field {path_in_record[0]!r} must be ")

    def test_invalid_json_names_the_line(self, tmp_path):
        path = tmp_path / "series.jsonl"
        text = "".join(json.dumps(r) + "\n" for r in self.RECORDS)
        path.write_text(text.replace('"kind": "event"', '"kind": '))
        with pytest.raises(ValueError) as info:
            read_series_jsonl(str(path))
        assert str(info.value).startswith(f"{path}: line 4: invalid JSON (")

    def test_event_attributes_named_like_parameters_load(self, tmp_path):
        path = tmp_path / "series.jsonl"
        records = list(self.RECORDS)
        attrs = {"name": "x", "t_cycles": 2}
        records[3] = swapped(records[3], ("attrs",), attrs)
        series = self._load(path, records)
        merged = MetricsTimeSeries(clock_hz=1.0, interval_cycles=1.0)
        merged.merge(series, offset_cycles=10.0)
        assert [(e.t_cycles, e.name, e.attrs) for e in merged.events] == [
            (11.5, "fault.core_down", attrs)]

    @settings(max_examples=300)
    @given(text=mutated_lines(RECORDS))
    def test_mutation_loads_or_raises_value_error(self, tmp_path_factory,
                                                  text):
        path = tmp_path_factory.mktemp("series") / "series.jsonl"
        path.write_text(text)
        try:
            series = read_series_jsonl(str(path))
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            assert all(math.isfinite(s.t_cycles) for s in series.samples)
            write_series_jsonl(series, io.StringIO())

    def test_cli_reports_bad_header_without_traceback(self, tmp_path,
                                                      capsys):
        from repro.cli import main
        path = tmp_path / "series.jsonl"
        header = swapped(self.RECORDS[0], ("clock_hz",), [1])
        path.write_text("".join(json.dumps(r) + "\n"
                                for r in [header] + self.RECORDS[1:]))
        assert main(["timeseries", "--series", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read series {path}: {path}: "
                              "line 1: field 'clock_hz' must be ")
        assert "Traceback" not in err


class TestRendering:
    def test_sparkline_spikes_survive_downsampling(self):
        values = [1.0] * 100
        values[50] = 9.0
        line = sparkline(values, width=10)
        assert len(line) == 10
        assert "█" in line

    def test_sparkline_flat_and_empty(self):
        assert sparkline([]) == ""
        flat = sparkline([2.0, 2.0, 2.0])
        assert len(flat) == 3 and len(set(flat)) == 1

    def test_render_series_lists_keys_and_events(self):
        series = _series()
        series.annotate(1.5, "fault.core_down", core=2)
        text = render_series(series)
        assert "a" in text
        assert "fault.core_down" in text
        assert "min=1 max=3 last=3" in text

    def test_dashboard_html_is_self_contained(self):
        series = _series()
        series.annotate(1.5, "slo.alert", window=0)
        html = render_dashboard_html(series)
        assert html.startswith("<!DOCTYPE html>")
        assert "slo.alert" in html
        assert "<svg" in html
        assert "http" not in html          # no external assets
        assert render_dashboard_html(series) == html


class TestPrometheusExport:
    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", path='a\\b"c\nd').inc()
        text = render_metrics(registry, format="prometheus")
        assert 'path="a\\\\b\\"c\\nd"' in text
        assert "\n\n" not in text           # the newline was escaped

    def test_timestamps_stamp_every_sample_line(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(1.0)
        text = render_metrics(registry, format="prometheus",
                              timestamp_ms=1500)
        for line in text.splitlines():
            if not line.startswith("#"):
                assert line.endswith(" 1500")

    def test_timestamp_requires_prometheus(self):
        with pytest.raises(ValueError, match="timestamp_ms"):
            render_metrics(MetricsRegistry(), format="text",
                           timestamp_ms=1)


class TestFarmSeries:
    @staticmethod
    def _config(**kwargs):
        return FarmConfig(
            specs=tuple(build_farm(4, BASE_COSTS, OPT_COSTS, 0.5)),
            profile=TrafficProfile(arrival_rate=60.0),
            n_requests=150, seed=1, **kwargs)

    @staticmethod
    def _export(series) -> str:
        buf = io.StringIO()
        write_series_jsonl(series, buf)
        return buf.getvalue()

    def test_no_series_by_default(self):
        assert run_farm(self._config()).series is None

    def test_series_has_interval_gauges_and_counters(self):
        run = run_farm(self._config(series_interval_seconds=0.1))
        series = run.series
        keys = series.keys()
        tag = "{scheduler=preferential}"
        assert f"farm.requests.completed{tag}" in keys
        assert f"farm.interval.p99_ms{tag}" in keys
        assert f"farm.utilization{tag}" in keys
        # The cumulative completion counter ends at the request count.
        assert series.samples[-1].values[
            f"farm.requests.completed{tag}"] == 150.0
        assert series.samples[-1].t_cycles == run.result.makespan_cycles

    def test_series_of_replays_in_canonical_order(self):
        # series_of sorts by (finish_cycle, seq), so the order a result
        # lists its completions in (e.g. after a merge) is irrelevant.
        run = run_farm(self._config(series_interval_seconds=0.1))
        result = run.result
        result.completions.reverse()
        assert self._export(series_of(result, interval_seconds=0.1)) == \
            self._export(run.series)

    def test_sharded_series_independent_of_jobs(self):
        from repro.parallel import ThreadExecutor
        config = self._config(series_interval_seconds=0.1, shards=2)
        serial = self._export(run_farm(config).series)
        with ThreadExecutor(2) as pool:
            parallel = self._export(
                run_farm(config, executor=pool).series)
        assert serial == parallel

    def test_fault_and_slo_events_annotated(self):
        from repro.obs.slo import SloTarget
        clock = DEFAULT_CLOCK_HZ
        plan = FaultPlan(events=(
            FaultEvent(cycle=0.5 * clock, kind="core_down", core=1),
            FaultEvent(cycle=1.5 * clock, kind="core_up", core=1),
        ), degraded_costs=BASE_COSTS)
        run = run_farm(self._config(
            faults=plan, slo=SloTarget(p99_ms=0.001),
            series_interval_seconds=0.1))
        names = [e.name for e in run.series.events]
        assert "fault.core_down" in names
        assert "slo.alert" in names
        down = next(e for e in run.series.events
                    if e.name == "fault.core_down")
        assert down.t_cycles == 0.5 * clock
        assert down.attrs == {"core": 1}

    def test_autoscale_report_carries_series(self):
        from repro.farm import AutoscalePolicy, run_autoscale
        config = FarmConfig(
            specs=tuple(build_farm(6, BASE_COSTS, OPT_COSTS, 0.5)),
            profile=TrafficProfile(arrival_rate=40.0), seed=1)
        report = run_autoscale(config, policy=AutoscalePolicy(
            min_cores=2, max_cores=6), n_epochs=4, epoch_seconds=1.0)
        series = report.series
        assert len(series.samples) == 4
        assert [s.t_cycles / config.clock_hz
                for s in series.samples] == [1.0, 2.0, 3.0, 4.0]
        assert "autoscale.active_cores" in series.keys()
        # The series mirrors the epoch rows exactly.
        for sample, epoch in zip(series.samples, report.epochs):
            assert sample.values["autoscale.p99_ms"] == epoch.p99_ms
            assert sample.values["autoscale.active_cores"] == \
                float(epoch.active_cores)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="series_interval_seconds"):
            self._config(series_interval_seconds=0.0)
        with pytest.raises(ValueError, match="series_capacity"):
            self._config(series_capacity=0)


class TestTimeseriesCli:
    def test_render_and_html(self, tmp_path, capsys):
        from repro.cli import main
        series = _series()
        series.annotate(1.5, "fault.core_down", core=2)
        path = tmp_path / "series.jsonl"
        write_series_jsonl(series, str(path))
        html = tmp_path / "dash.html"
        assert main(["timeseries", "--series", str(path),
                     "--html", str(html)]) == 0
        out = capsys.readouterr().out
        assert "fault.core_down" in out
        assert html.read_text().startswith("<!DOCTYPE html>")

    def test_json_and_key_filter(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "series.jsonl"
        write_series_jsonl(_series(), str(path))
        assert main(["timeseries", "--series", str(path),
                     "--key", "a", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["samples"][0]["values"] == {"a": 1.0}

    def test_unknown_key_is_an_error(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "series.jsonl"
        write_series_jsonl(_series(), str(path))
        assert main(["timeseries", "--series", str(path),
                     "--key", "nope"]) == 2
        assert "unknown series key" in capsys.readouterr().err

    def test_unreadable_series_is_an_error(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["timeseries", "--series",
                     str(tmp_path / "missing.jsonl")]) == 2
        assert "cannot read series" in capsys.readouterr().err
