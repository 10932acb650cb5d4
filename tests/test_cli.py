"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        ["characterize"],
        ["characterize", "--ext", "-o", "out.json"],
        ["characterize", "--json", "--no-cache"],
        ["explore", "--stride", "45", "--top", "3"],
        ["explore", "--json", "--cache-dir", "/tmp/store"],
        ["speedups"],
        ["speedups", "--json", "--no-cache"],
        ["ssl", "--sizes", "1,32"],
        ["ssl", "--json"],
        ["ssl", "--cache-dir", "/tmp/store"],
        ["farm", "--no-cache"],
        ["farm", "--trace-out", "trace.jsonl", "--metrics"],
        ["ssl", "--metrics"],
        ["characterize", "--trace-out", "trace.jsonl"],
        ["callgraph", "--bits", "128"],
        ["farm"],
        ["farm", "--cores", "8", "--requests", "100", "--seed", "2",
         "--rate", "40", "--resumption", "0.5",
         "--extended-fraction", "0.25", "--json"],
        ["explore", "--metrics", "--trace-out", "t.jsonl"],
        ["explore", "--profile", "prof.json"],
        ["speedups", "--trace-out", "t.jsonl", "--metrics"],
        ["speedups", "--profile", "prof.json", "--json"],
        ["farm", "--profile", "prof.json"],
        ["profile", "--trace", "t.jsonl"],
        ["profile", "--trace", "t.jsonl", "--top", "5", "--group-by",
         "scheduler,core", "--folded", "out.folded", "--json"],
        ["bench"],
        ["bench", "--json", "--dir", "/tmp/baselines"],
        ["bench", "--check", "--scenario", "farm_mixed", "--scenario",
         "characterize", "--report", "report.json", "--verbose"],
        ["farm", "--shards", "4", "--jobs", "2"],
        ["farm", "--replay", "trace.jsonl"],
        ["farm", "--list-protocols"],
        ["farm", "--mix", "tls13=0.7,wep=0.3", "--json"],
        ["farm", "--export-workload", "w.jsonl", "--shards", "2",
         "--json"],
        ["capacity"],
        ["capacity", "--users", "50000", "--per-user-kbps", "128"],
        ["capacity", "--autoscale", "--curve", "bursty", "--epochs",
         "8", "--max-cores", "8", "--json"],
        ["farm", "--faults", "7", "--fault-episodes", "2",
         "--slo", "p99_ms=5", "--slo-window", "0.5"],
        ["farm", "--faults", "plan.json", "--json"],
        ["capacity", "--autoscale", "--faults", "3",
         "--fault-episodes", "4"],
        ["farm", "--series-out", "s.jsonl", "--series-interval",
         "0.1", "--scheduler", "least-loaded"],
        ["farm", "--serve", "--port", "0", "--max-epochs", "3",
         "--epoch-seconds", "1.0", "--serve-grace", "0.5"],
        ["farm", "--metrics-out", "m.prom", "--metrics-format",
         "prometheus"],
        ["capacity", "--autoscale", "--series-out", "s.jsonl"],
        ["timeseries", "--series", "s.jsonl", "--key", "a",
         "--key", "b", "--html", "d.html", "--width", "40"],
        ["timeseries", "--series", "s.jsonl", "--json"],
    ])
    def test_valid_invocations_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.func)

    def test_explore_bits_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explore", "--bits", "2048"])

    def test_profile_requires_trace(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile"])


class TestExecution:
    def test_characterize_saves_models(self, tmp_path, capsys):
        out = tmp_path / "models.json"
        assert main(["characterize", "-o", str(out)]) == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "mpn_add_n" in captured

    def test_callgraph_runs(self, capsys):
        assert main(["callgraph", "--bits", "128"]) == 0
        captured = capsys.readouterr().out
        assert "mont_mul" in captured

    def test_farm_json_runs(self, capsys):
        import json
        assert main(["farm", "--cores", "2", "--requests", "40",
                     "--seed", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "farm"
        assert payload["params"]["cores"] == 2
        assert payload["params"]["requests"] == 40
        results = payload["results"]
        assert {m["scheduler"] for m in results["schedulers"]} == \
            {"round-robin", "least-loaded", "preferential"}
        assert len(results["cores"]) == 2
        assert results["capacity"]

    def test_farm_list_protocols(self, capsys):
        import json
        assert main(["farm", "--list-protocols", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [p["name"] for p in payload["results"]["protocols"]]
        assert names[:4] == ["ssl", "wtls", "esp", "wep"]
        assert "tls13" in names and "kasumi" in names
        assert main(["farm", "--list-protocols"]) == 0
        assert "tls13" in capsys.readouterr().out

    def test_farm_mix_selects_protocols(self, capsys):
        import json
        assert main(["farm", "--cores", "2", "--requests", "40",
                     "--mix", "tls13=0.7,kasumi=0.3", "--seed", "1",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["mix"] == "tls13=0.7,kasumi=0.3"
        rows = payload["results"]["schedulers"]
        # The resumable half of the mix shows up in the per-protocol
        # session-cache report; the link-layer half cannot.
        assert all(set(m["session_cache"]) <= {"tls13"} for m in rows)

    def test_farm_mix_unknown_protocol_exits_2(self, capsys):
        assert main(["farm", "--mix", "bogus=1.0"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "registered" in err and "tls13" in err

    def test_farm_mix_malformed_exits_2(self, capsys):
        assert main(["farm", "--mix", "ssl"]) == 2
        assert "NAME=WEIGHT" in capsys.readouterr().err
        assert main(["farm", "--mix", "ssl=lots"]) == 2

    @pytest.mark.parametrize("entry", ["ssl=abc", "ssl=nan", "ssl=inf",
                                       "ssl=-inf", "ssl="])
    def test_farm_mix_bad_weight_names_flag_and_entry(self, capsys, entry):
        assert main(["farm", "--mix", f"{entry},esp=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --mix ")
        assert repr(entry) in err
        assert "Traceback" not in err

    def test_explore_with_saved_models(self, tmp_path, capsys):
        out = tmp_path / "models.json"
        main(["characterize", "-o", str(out)])
        capsys.readouterr()
        assert main(["explore", "--models", str(out), "--stride", "150",
                     "--top", "2"]) == 0
        captured = capsys.readouterr().out
        assert "M  " in captured  # cycle column present

    def test_characterize_json(self, capsys):
        import json
        assert main(["characterize", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "characterize"
        assert payload["params"]["ext"] is False
        assert payload["results"]["platform"] == "base"
        assert "mpn_addmul_1" in payload["results"]["models"]

    def test_explore_json(self, tmp_path, capsys):
        import json
        out = tmp_path / "models.json"
        main(["characterize", "-o", str(out)])
        capsys.readouterr()
        assert main(["explore", "--models", str(out), "--stride", "150",
                     "--top", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "explore"
        results = payload["results"]
        assert results["bits"] == 512
        assert results["candidates_evaluated"] == 3
        assert len(results["top"]) == 2
        top = results["top"][0]
        assert top["correct"] and top["estimated_cycles"] > 0

    def test_speedups_json(self, capsys):
        import json
        assert main(["speedups", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "speedups"
        results = payload["results"]
        assert results["base"]["name"] == "base"
        assert results["optimized"]["ecdh_cycles"] > 0
        for algo in ("des", "3des", "aes", "rsa_public", "rsa_private"):
            assert results["speedups"][algo] > 1.0

    def test_ssl_uses_cache_dir(self, tmp_path, capsys):
        import json
        import os
        assert main(["ssl", "--sizes", "1", "--json",
                     "--cache-dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["rows"][0]["speedup"] > 1.0
        stored = [f for f in os.listdir(tmp_path)
                  if f.startswith("models-") and f.endswith(".json")]
        assert len(stored) == 2    # base + extended platform entries

    def test_every_json_payload_uses_the_envelope(self, capsys):
        """The schema contract: every --json subcommand emits exactly
        {"command", "params", "results"} at the top level."""
        import json
        for argv in (["characterize", "--json"],
                     ["speedups", "--json"],
                     ["ssl", "--sizes", "1", "--json"],
                     ["farm", "--cores", "2", "--requests", "20",
                      "--json"]):
            assert main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            assert sorted(payload) == ["command", "params", "results"]
            assert payload["command"] == argv[0]

    def test_farm_trace_out_writes_jsonl(self, tmp_path, capsys):
        import json
        trace = tmp_path / "trace.jsonl"
        assert main(["farm", "--cores", "2", "--requests", "30",
                     "--seed", "3", "--trace-out", str(trace),
                     "--metrics", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        metrics = payload["results"]["metrics"]
        assert metrics["farm.requests.completed"
                       "{scheduler=preferential}"]["value"] == 30
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        spans = [r for r in records
                 if r["kind"] == "span" and r["name"] == "farm.request"]
        # One span per request per scheduler run.
        assert len(spans) == 3 * 30
        assert {s["attrs"]["scheduler"] for s in spans} == \
            {"round-robin", "least-loaded", "preferential"}
        depth_events = [r for r in records
                        if r["kind"] == "event"
                        and r["name"] == "farm.core.queue_depth"]
        assert depth_events

    def test_characterize_metrics_reports_cache_and_fit(self, capsys):
        import json
        assert main(["characterize", "--json", "--metrics"]) == 0
        payload = json.loads(capsys.readouterr().out)
        metrics = payload["results"]["metrics"]
        cache_keys = [k for k in metrics if k.startswith("costs.cache.")]
        assert cache_keys
        total = sum(metrics[k]["value"] for k in cache_keys)
        assert total >= 1   # hit or characterization, depending on state

    def test_farm_profile_writes_attribution_json(self, tmp_path,
                                                  capsys):
        import json
        prof = tmp_path / "prof.json"
        assert main(["farm", "--cores", "2", "--requests", "30",
                     "--seed", "3", "--profile", str(prof)]) == 0
        out = capsys.readouterr().out
        assert "cycle attribution" in out
        payload = json.loads(prof.read_text())
        roots = {r["name"] for r in payload["roots"]}
        assert "farm.run" in roots
        # Conservation holds in the exported profile too.
        assert payload["total_cycles"] == payload["total_self_cycles"]

    def test_speedups_obs_flags_trace_and_metrics(self, tmp_path,
                                                  capsys):
        import json
        trace = tmp_path / "trace.jsonl"
        prof = tmp_path / "prof.json"
        assert main(["speedups", "--json", "--metrics",
                     "--trace-out", str(trace),
                     "--profile", str(prof)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["command", "params", "results"]
        metrics = payload["results"]["metrics"]
        speedup_keys = [k for k in metrics
                        if k.startswith("speedups.speedup")]
        assert speedup_keys
        spans = [json.loads(line)
                 for line in trace.read_text().splitlines()]
        names = {r["name"] for r in spans if r["kind"] == "span"}
        assert {"speedups.measure", "speedups.cipher"} <= names
        assert prof.exists()

    def test_explore_metrics_counts_candidates(self, tmp_path, capsys):
        import json
        models = tmp_path / "models.json"
        main(["characterize", "-o", str(models)])
        capsys.readouterr()
        assert main(["explore", "--models", str(models), "--stride",
                     "150", "--top", "2", "--json", "--metrics"]) == 0
        payload = json.loads(capsys.readouterr().out)
        metrics = payload["results"]["metrics"]
        assert metrics["explore.candidates"]["value"] == 3
        assert metrics["explore.best_cycles"]["value"] > 0

    def _write_sample_trace(self, path):
        from repro.obs import Tracer, write_events_jsonl
        tracer = Tracer()
        with tracer.span("main"):
            with tracer.span("rsa", scheduler="rr"):
                pass
            with tracer.span("rsa", scheduler="ll"):
                pass
        write_events_jsonl(tracer, str(path))

    def test_profile_subcommand_analyses_a_trace(self, tmp_path,
                                                 capsys):
        import json
        trace = tmp_path / "trace.jsonl"
        folded = tmp_path / "out.folded"
        self._write_sample_trace(trace)
        assert main(["profile", "--trace", str(trace),
                     "--folded", str(folded)]) == 0
        out = capsys.readouterr().out
        assert "cycles attributed" in out and "main;rsa" in out
        assert any(line.startswith("main ")
                   for line in folded.read_text().splitlines())
        # JSON mode keeps the envelope and honours --group-by.
        assert main(["profile", "--trace", str(trace), "--json",
                     "--group-by", "scheduler"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["command", "params", "results"]
        main_root = payload["results"]["roots"][0]
        children = {c["name"] for c in main_root["children"]}
        assert children == {"rsa{scheduler=ll}", "rsa{scheduler=rr}"}

    def test_profile_missing_trace_exits_2(self, tmp_path, capsys):
        assert main(["profile", "--trace",
                     str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_bench_cli_record_then_gate_then_regress(self, tmp_path,
                                                     capsys):
        import json
        from repro.obs import bench
        from repro.obs.bench import Gate, Scenario
        metrics = {"cycles": 100.0}
        bench.register_scenario(Scenario(
            name="clistub", description="cli stub",
            run=lambda: dict(metrics),
            gates={"cycles": Gate(tolerance=0.10, direction="lower")}))
        try:
            assert main(["bench", "--dir", str(tmp_path),
                         "--scenario", "clistub"]) == 0
            assert "recorded clistub" in capsys.readouterr().out
            assert (tmp_path / "BENCH_clistub.json").exists()
            assert main(["bench", "--check", "--dir", str(tmp_path),
                         "--scenario", "clistub"]) == 0
            assert "bench gate: ok" in capsys.readouterr().out
            # Inject a +20% cycle regression: the gate must fail.
            metrics["cycles"] = 120.0
            report = tmp_path / "report.json"
            assert main(["bench", "--check", "--dir", str(tmp_path),
                         "--scenario", "clistub",
                         "--report", str(report)]) == 1
            out = capsys.readouterr().out
            assert "REGRESSIONS DETECTED" in out
            payload = json.loads(report.read_text())
            assert payload["ok"] is False
            assert payload["scenarios"][0]["scenario"] == "clistub"
        finally:
            del bench._SCENARIOS["clistub"]

    def test_bench_json_carries_gated_truth_only(self, tmp_path, capsys):
        import json
        from repro.obs import bench
        from repro.obs.bench import Gate, Scenario
        bench.register_scenario(Scenario(
            name="clistub", description="cli stub",
            run=lambda: {"cycles": 100.0},
            gates={"cycles": Gate(tolerance=0.0, direction="lower")}))
        try:
            assert main(["bench", "--json", "--dir", str(tmp_path),
                         "--scenario", "clistub"]) == 0
            recorded = json.loads(capsys.readouterr().out)["results"]
            assert set(recorded) == {"clistub"}
            assert set(recorded["clistub"]) == {"path", "metrics"}
            assert main(["bench", "--check", "--json", "--dir",
                         str(tmp_path), "--scenario", "clistub"]) == 0
            checked = json.loads(capsys.readouterr().out)["results"]
            assert set(checked) == {"ok", "scenarios"}
            assert checked["ok"] is True
        finally:
            del bench._SCENARIOS["clistub"]

    def test_bench_unknown_scenario_exits_2(self, capsys):
        assert main(["bench", "--scenario", "nope"]) == 2
        assert "unknown bench scenario" in capsys.readouterr().err

    def test_bench_record_without_dir_exits_2(self, capsys, monkeypatch):
        from repro.obs import bench

        def forbidden(*args, **kwargs):
            raise AssertionError("bench recorded without --dir")

        monkeypatch.setattr(bench, "run_scenario", forbidden)
        monkeypatch.setattr(bench, "write_baseline", forbidden)
        assert main(["bench", "--scenario", "farm_mixed"]) == 2
        assert "error: recording baselines needs --dir" in \
            capsys.readouterr().err

    def test_farm_json_surfaces_parallel_speedup(self, capsys):
        import json
        assert main(["farm", "--cores", "2", "--requests", "30",
                     "--seed", "1", "--json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        # Same envelope keys the explore command reports.
        assert results["parallel_speedup"] > 0
        assert results["jobs"] == 1
        assert results["executor"] == "serial"
        sharding = results["sharding"]
        assert sharding["shards"] == 1

    def test_farm_sharded_json(self, capsys):
        import json
        assert main(["farm", "--cores", "4", "--requests", "40",
                     "--seed", "2", "--shards", "2", "--jobs", "1",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["shards"] == 2
        results = payload["results"]
        assert len(results["schedulers"]) == 3
        assert sorted(results["sharding"]) == [
            "executor", "jobs", "parallel_speedup", "shards"]
        assert results["sharding"]["shards"] == 2

    def test_farm_sharded_matches_unsharded_metrics(self, capsys):
        import json

        def run(extra):
            assert main(["farm", "--cores", "4", "--requests", "60",
                         "--seed", "5", "--json"] + extra) == 0
            results = json.loads(capsys.readouterr().out)["results"]
            return {m["scheduler"]: m["completed"]
                    for m in results["schedulers"]}
        # Sharding repartitions work but conserves every request.
        assert run([]) == run(["--shards", "2"])

    def test_farm_rejects_bad_shard_args(self, capsys):
        assert main(["farm", "--cores", "2", "--shards", "4"]) == 2
        assert "--shards cannot exceed --cores" in \
            capsys.readouterr().err
        # The event queue is not selectable: --queue is unknown.
        with pytest.raises(SystemExit):
            main(["farm", "--queue", "heap"])
        assert "unrecognized arguments: --queue" in \
            capsys.readouterr().err

    def test_farm_export_then_replay_round_trip(self, tmp_path,
                                                capsys):
        import json
        trace = tmp_path / "workload.jsonl"
        argv = ["farm", "--cores", "2", "--requests", "30",
                "--seed", "7", "--json"]
        assert main(argv + ["--export-workload", str(trace)]) == 0
        exported = json.loads(capsys.readouterr().out)["results"]
        header = json.loads(trace.read_text().splitlines()[0])
        assert header["format"] == "repro.farm.workload"
        assert header["count"] == 30
        assert main(["farm", "--cores", "2", "--json",
                     "--replay", str(trace)]) == 0
        replayed = json.loads(capsys.readouterr().out)["results"]
        assert replayed["schedulers"] == exported["schedulers"]

    def test_farm_replay_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["farm", "--replay",
                     str(tmp_path / "absent.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_capacity_json_envelope(self, capsys):
        import json
        assert main(["capacity", "--users", "50000",
                     "--per-user-kbps", "128", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["command", "params", "results"]
        assert payload["command"] == "capacity"
        assert payload["params"]["users"] == 50000
        results = payload["results"]
        assert results["plan"]["cores"] >= 1
        assert results["table"]
        assert "autoscale" not in results

    def test_capacity_plan_round_trips_through_envelope(self, capsys):
        import json
        from repro.farm import CapacityPlan
        assert main(["capacity", "--json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        plan = CapacityPlan.from_dict(results["plan"])
        assert plan.as_dict() == results["plan"]

    def test_capacity_autoscale_reports_epochs(self, capsys):
        import json
        assert main(["capacity", "--autoscale", "--curve", "bursty",
                     "--epochs", "8", "--max-cores", "8",
                     "--rate", "400", "--json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        report = results["autoscale"]
        assert report["curve"] == "bursty"
        assert len(report["epochs"]) == 8
        assert report["peak_cores"] <= 8
        assert report["policy"]["max_cores"] == 8

    def test_capacity_text_mode_prints_plan(self, capsys):
        assert main(["capacity", "--users", "50000",
                     "--per-user-kbps", "128"]) == 0
        out = capsys.readouterr().out
        assert "cheapest plan for 50,000 users" in out
        assert "farm Mgates" in out

    def test_capacity_rejects_bad_args(self, capsys):
        assert main(["capacity", "--users", "0"]) == 2
        assert "--users" in capsys.readouterr().err
        assert main(["capacity", "--curve", "square"]) == 2
        assert "--curve must be one of" in capsys.readouterr().err


class TestChaosCli:
    def test_farm_faults_json_blocks(self, capsys):
        import json
        assert main(["farm", "--cores", "4", "--requests", "80",
                     "--seed", "1", "--rate", "150", "--faults", "7",
                     "--slo", "p99_ms=5,secure_mbps=1",
                     "--slo-window", "0.5", "--json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        faults = results["faults"]
        assert faults["plan"]["events"]
        assert set(faults["by_scheduler"]) == \
            {m["scheduler"] for m in results["schedulers"]}
        for report in faults["by_scheduler"].values():
            assert report["events_injected"] >= 1
            assert sum(report["by_kind"].values()) == \
                report["events_injected"]
        slo = results["slo"]
        assert slo["target"]["p99_ms"] == 5.0
        assert slo["window_seconds"] == 0.5
        for report in slo["by_scheduler"].values():
            assert report["windows_evaluated"] >= 1
            assert 0.0 <= report["attainment"] <= 1.0

    def test_farm_without_faults_omits_blocks(self, capsys):
        import json
        assert main(["farm", "--cores", "2", "--requests", "30",
                     "--seed", "1", "--json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert "faults" not in results
        assert "slo" not in results

    def test_farm_fault_plan_file_round_trip(self, tmp_path, capsys):
        import json
        from repro.farm import generate_fault_plan
        plan = generate_fault_plan(9, 4, 2e9, episodes=2)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.as_dict()))
        assert main(["farm", "--cores", "4", "--requests", "60",
                     "--seed", "1", "--faults", str(path),
                     "--json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["faults"]["plan"]["events"] == \
            plan.as_dict()["events"]

    def test_farm_text_mode_prints_chaos_and_slo_tables(self, capsys):
        assert main(["farm", "--cores", "4", "--requests", "60",
                     "--seed", "1", "--rate", "150", "--faults", "7",
                     "--slo", "p99_ms=5"]) == 0
        out = capsys.readouterr().out
        assert "chaos:" in out
        assert "slo (p99_ms=5" in out

    def test_farm_rejects_bad_chaos_args(self, capsys):
        assert main(["farm", "--faults", "not-a-seed.txt"]) == 2
        assert "--faults" in capsys.readouterr().err
        assert main(["farm", "--slo", "latency=5"]) == 2
        assert "unknown SLO metric" in capsys.readouterr().err
        assert main(["farm", "--slo-window", "0",
                     "--slo", "p99_ms=5"]) == 2
        assert "--slo-window" in capsys.readouterr().err
        assert main(["farm", "--fault-episodes", "-1",
                     "--faults", "1"]) == 2
        assert "--fault-episodes" in capsys.readouterr().err

    @pytest.mark.parametrize("event, named", [
        ({"cycle": 1.0, "core": 0}, "missing field 'kind'"),
        ({"cycle": "nan", "kind": "core_down", "core": 0},
         "field 'cycle' must be"),
        ({"cycle": 1.0, "kind": "core_down", "core": "x"},
         "field 'core' must be"),
        ({"cycle": 1.0, "kind": "core_down", "core": 99},
         "strikes core 99"),
        ({"cycle": 1.0, "kind": "core_down", "core": 0, "coer": 1},
         "events[0]: unknown field 'coer'"),
        ({"cycle": 1.0, "kind": "meteor", "core": 0},
         "field 'kind' must be one of"),
    ])
    @pytest.mark.parametrize("argv", [
        ["farm", "--cores", "4"],
        ["capacity", "--autoscale", "--max-cores", "4"],
    ])
    def test_bad_fault_plan_file_fails_before_characterization(
            self, tmp_path, capsys, monkeypatch, argv, event, named):
        import json

        import repro.cli as cli

        def forbidden(*args, **kwargs):
            raise AssertionError("characterized before validating")

        monkeypatch.setattr(cli, "_measured_cost_pair", forbidden)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"events": [event]}))
        assert main(argv + ["--faults", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: fault plan")
        assert named in err

    @pytest.mark.parametrize("document, named", [
        ('{"evnts": []}', "fault plan: unknown field 'evnts'"),
        ("[1]", "not a JSON object, got list"),
        ("{not json", "invalid JSON"),
    ])
    @pytest.mark.parametrize("argv", [
        ["farm", "--cores", "4"],
        ["capacity", "--autoscale", "--max-cores", "4"],
    ])
    def test_bad_fault_plan_document_fails_before_characterization(
            self, tmp_path, capsys, monkeypatch, argv, document, named):
        import repro.cli as cli

        def forbidden(*args, **kwargs):
            raise AssertionError("characterized before validating")

        monkeypatch.setattr(cli, "_measured_cost_pair", forbidden)
        path = tmp_path / "plan.json"
        path.write_text(document)
        assert main(argv + ["--faults", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("flags, named", [
        pytest.param(["--slo", "p99_ms=nan"], "SLO target: field 'p99_ms'",
                     id="flags0-SLO target p99_ms"),
        pytest.param(["--slo", "p99_ms=-1"], "SLO target: field 'p99_ms'",
                     id="flags1-SLO target p99_ms"),
        pytest.param(["--slo", "secure_mbps=inf"],
                     "SLO target: field 'secure_mbps'",
                     id="flags2-SLO target secure_mbps"),
        pytest.param(["--replay", "LIST"], "line 1: not a JSON object",
                     id="flags3-header is not a JSON object"),
    ])
    def test_bad_slo_or_trace_fails_before_characterization(
            self, tmp_path, capsys, monkeypatch, flags, named):
        import repro.cli as cli

        def forbidden(*args, **kwargs):
            raise AssertionError("characterized before validating")

        monkeypatch.setattr(cli, "_measured_cost_pair", forbidden)
        trace = tmp_path / "list.jsonl"
        trace.write_text("[1, 2]\n")
        flags = [str(trace) if flag == "LIST" else flag for flag in flags]
        assert main(["farm", "--requests", "50", "--json"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert named in captured.err

    @pytest.mark.parametrize("argv, flag", [
        *((["farm", "--cores", "4", "--requests", "20", "--seed", "1"],
           flag)
          for flag in ("--trace-out", "--metrics-out", "--profile",
                       "--series-out", "--export-workload")),
        (["capacity", "--autoscale", "--max-cores", "4"], "--series-out"),
        (["speedups"], "--profile"),
    ])
    def test_missing_output_directory_fails_before_the_run(
            self, tmp_path, capsys, monkeypatch, argv, flag):
        import repro.cli as cli

        def forbidden(*args, **kwargs):
            raise AssertionError("started the run before validating")

        monkeypatch.setattr(cli, "_measured_cost_pair", forbidden)
        monkeypatch.setattr(cli, "_setup_obs", forbidden)
        missing = tmp_path / "absent"
        assert main(argv + [flag, str(missing / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {flag}: directory "
                                f"{str(missing)!r} does not exist\n")
        assert not missing.exists()

    def test_output_in_the_working_directory_is_accepted(
            self, tmp_path, monkeypatch):
        from repro.cli import _check_output_paths
        monkeypatch.chdir(tmp_path)
        _check_output_paths(build_parser().parse_args(
            ["farm", "--trace-out", "t.jsonl", "--profile",
             str(tmp_path / "p.json")]))

    def test_json_output_is_strict(self):
        import argparse

        from repro.cli import _print_json
        args = argparse.Namespace(command="farm")
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                _print_json(args, {"p99_ms": bad})

    def test_capacity_autoscale_reports_chaos_columns(self, capsys):
        import json
        argv = ["capacity", "--autoscale", "--curve", "constant",
                "--epochs", "6", "--max-cores", "8", "--rate", "300",
                "--faults", "3", "--json"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)["results"][
            "autoscale"]
        for epoch in report["epochs"]:
            assert "slo_violations" in epoch
            assert "failed_cores" in epoch
        assert main(argv[:-1]) == 0   # text mode
        out = capsys.readouterr().out
        assert "viol" in out and "fail" in out
        assert "core failures" in out


class TestSeriesCli:
    def test_farm_series_out_round_trips(self, tmp_path, capsys):
        from repro.obs import read_series_jsonl
        path = tmp_path / "series.jsonl"
        assert main(["farm", "--cores", "4", "--requests", "80",
                     "--seed", "1", "--rate", "150", "--faults", "7",
                     "--slo", "p99_ms=5",
                     "--series-out", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out
        series = read_series_jsonl(str(path))
        assert series.samples
        tag = "{scheduler=preferential}"
        assert f"farm.requests.completed{tag}" in series.keys()
        names = {e.name for e in series.events}
        assert any(n.startswith("fault.") for n in names)

    def test_farm_slo_json_reports_per_window_attainment(self, capsys):
        import json
        assert main(["farm", "--cores", "2", "--requests", "40",
                     "--seed", "1", "--rate", "150",
                     "--slo", "p99_ms=0.001", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        slo = payload["results"]["slo"]["by_scheduler"]["preferential"]
        assert slo["windows"], "expected per-window entries"
        for window in slo["windows"]:
            assert 0.0 <= window["attainment"] <= 1.0
        assert slo["windows"][-1]["attainment"] == \
            pytest.approx(slo["attainment"])

    def test_metrics_out_writes_prometheus(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        assert main(["farm", "--cores", "2", "--requests", "40",
                     "--seed", "1", "--metrics-out", str(path),
                     "--metrics-format", "prometheus"]) == 0
        assert "wrote prometheus metrics" in capsys.readouterr().out
        text = path.read_text()
        assert "# TYPE farm_requests_completed counter" in text
        assert 'scheduler="preferential"' in text

    def test_serve_smoke_bounded_epochs(self, tmp_path, capsys):
        path = tmp_path / "soak.jsonl"
        assert main(["farm", "--cores", "2", "--rate", "40",
                     "--seed", "3", "--serve", "--port", "0",
                     "--max-epochs", "2", "--epoch-seconds", "0.5",
                     "--series-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "soak: listening on port" in out
        assert "soak: served 2 epochs, 1.0s virtual" in out
        assert path.exists()

    def test_capacity_series_out_needs_autoscale(self, tmp_path,
                                                 capsys):
        assert main(["capacity", "--series-out", "s.jsonl"]) == 2
        assert "--autoscale" in capsys.readouterr().err

    def test_capacity_autoscale_series_out(self, tmp_path, capsys):
        from repro.obs import read_series_jsonl
        path = tmp_path / "autoscale.jsonl"
        assert main(["capacity", "--autoscale", "--curve", "constant",
                     "--epochs", "4", "--max-cores", "8",
                     "--series-out", str(path)]) == 0
        series = read_series_jsonl(str(path))
        assert len(series.samples) == 4
        assert "autoscale.active_cores" in series.keys()

    def test_farm_rejects_bad_series_args(self, capsys):
        assert main(["farm", "--scheduler", "fifo"]) == 2
        assert "--scheduler" in capsys.readouterr().err
        assert main(["farm", "--series-out", "s.jsonl",
                     "--series-interval", "0"]) == 2
        assert "--series-interval" in capsys.readouterr().err
        assert main(["farm", "--serve", "--replay", "t.jsonl"]) == 2
        assert "--serve" in capsys.readouterr().err
        assert main(["farm", "--serve", "--max-epochs", "0"]) == 2
        assert "--max-epochs" in capsys.readouterr().err


class TestSharedFarmFlags:
    @pytest.mark.parametrize("flags, named", [
        (["--scheduler", "fifo"], "--scheduler"),
        (["--extended-fraction", "2"], "--extended-fraction"),
        (["--epoch-seconds", "0"], "--epoch-seconds"),
        (["--fault-episodes", "-1", "--faults", "1"], "--fault-episodes"),
    ])
    @pytest.mark.parametrize("argv", [["farm"], ["capacity", "--autoscale"]])
    def test_bad_shared_flag_fails_before_characterization(
            self, capsys, monkeypatch, argv, flags, named):
        import repro.cli as cli

        def forbidden(*args, **kwargs):
            raise AssertionError("characterized before validating")

        monkeypatch.setattr(cli, "_measured_cost_pair", forbidden)
        assert main(argv + flags) == 2
        assert capsys.readouterr().err.startswith(f"error: {named}")

    @pytest.mark.parametrize("flags", [
        ["--faults", "3"],
        ["--faults", "no-such-plan.json"],
        ["--fault-episodes", "5"],
        ["--scheduler", "round-robin"],
        ["--epoch-seconds", "7"],
        ["--extended-fraction", "0.25"],
    ])
    def test_static_capacity_rejects_simulation_flags(
            self, capsys, monkeypatch, flags):
        """Without --autoscale, capacity simulates no farm: each flag
        that only describes one is refused before characterization,
        and a --faults file is never opened."""
        import repro.cli as cli

        def forbidden(*args, **kwargs):
            raise AssertionError("characterized before validating")

        monkeypatch.setattr(cli, "_measured_cost_pair", forbidden)
        assert main(["capacity"] + flags) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {flags[0]} needs --autoscale")

    def test_rate_default_stays_per_subcommand(self):
        # The shared flags are one argparse parent whose Actions both
        # subcommands hold; --rate is not among them, so each keeps
        # its own default.
        parser = build_parser()
        assert parser.parse_args(["farm"]).rate == 60.0
        assert parser.parse_args(["capacity"]).rate == 400.0
        assert parser.parse_args(["farm"]).rate == 60.0
