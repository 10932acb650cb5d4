"""Tests for repro.obs.profile: span-tree reconstruction, merge-by-path
attribution, exact conservation on a traced farm run, call-graph
profiles, and the folded/JSON exports."""

import io
import json

import pytest
from hypothesis import given, settings

from repro.costs import PlatformCosts
from repro.farm import (FarmSimulator, PreferentialScheduler,
                        TrafficProfile, build_farm, generate_requests)
from repro.isa.machine import Profile as IssProfile
from repro.obs import (CycleProfile, Tracer, read_events_jsonl,
                       write_events_jsonl)
from repro.tie.callgraph import CallGraph
from tests.mutation import dropped, mutated_lines

BASE_COSTS = PlatformCosts(
    name="base", rsa_public_cycles=631103.0,
    rsa_private_cycles=61433705.5, cipher_cycles_per_byte=703.5,
    hash_cycles_per_byte=50.84375, ecdh_cycles=4451571.0)
OPT_COSTS = PlatformCosts(
    name="optimized", rsa_public_cycles=124890.5,
    rsa_private_cycles=2139136.0, cipher_cycles_per_byte=21.375,
    hash_cycles_per_byte=50.84375, ecdh_cycles=2903293.8)


def _traced_farm_run(n_requests=120, seed=7):
    tracer = Tracer()
    requests = generate_requests(TrafficProfile(arrival_rate=80.0),
                                 n_requests, seed=seed)
    sim = FarmSimulator(build_farm(4, BASE_COSTS, OPT_COSTS, 0.5),
                        PreferentialScheduler(), tracer=tracer)
    return tracer, sim.run(requests)


def _sequential_tracer():
    """A logical-clock trace: strictly nested, no concurrency."""
    tracer = Tracer()
    with tracer.span("main"):
        for _ in range(3):
            with tracer.span("handshake"):
                with tracer.span("rsa"):
                    pass
                with tracer.span("hash"):
                    pass
        with tracer.span("bulk"):
            pass
    return tracer


class TestSpanTreeMerging:
    def test_merges_repeated_paths_with_counts(self):
        profile = CycleProfile.from_tracer(_sequential_tracer())
        main = profile.roots["main"]
        assert main.count == 1
        handshake = main.children["handshake"]
        assert handshake.count == 3
        assert handshake.children["rsa"].count == 3
        assert main.children["bulk"].count == 1
        assert handshake.path == ("main", "handshake")

    def test_unparented_spans_become_roots(self):
        tracer = Tracer()
        tracer.record("a", start=0.0, end=10.0)
        tracer.record("b", start=0.0, end=5.0, parent_id=999)  # orphan
        profile = CycleProfile.from_tracer(tracer)
        assert sorted(profile.roots) == ["a", "b"]

    def test_unfinished_spans_are_skipped(self):
        tracer = Tracer()
        open_span = tracer.open_virtual("never.closed", 0.0)
        tracer.record("child", start=1.0, end=2.0,
                      parent_id=open_span.span_id)
        profile = CycleProfile.from_tracer(tracer)
        assert sorted(profile.roots) == ["child"]

    def test_group_by_attr_splits_paths(self):
        tracer = Tracer()
        tracer.record("req", start=0.0, end=4.0, protocol="ssl")
        tracer.record("req", start=0.0, end=2.0, protocol="wep")
        tracer.record("req", start=4.0, end=10.0, protocol="ssl")
        profile = CycleProfile.from_tracer(tracer,
                                           group_by=("protocol",))
        assert sorted(profile.roots) == ["req{protocol=ssl}",
                                        "req{protocol=wep}"]
        assert profile.roots["req{protocol=ssl}"].count == 2
        assert profile.roots["req{protocol=ssl}"].cum_cycles == 10.0


class TestInvariants:
    """On sequential traces: 0 <= self <= cum, child cum <= parent cum."""

    def test_self_within_cumulative_everywhere(self):
        profile = CycleProfile.from_tracer(_sequential_tracer())
        for node in profile.nodes():
            assert 0.0 <= node.self_cycles <= node.cum_cycles

    def test_children_cumulative_bounded_by_parent(self):
        profile = CycleProfile.from_tracer(_sequential_tracer())
        for node in profile.nodes():
            child_total = sum(c.cum_cycles
                              for c in node.children.values())
            assert child_total <= node.cum_cycles
            for child in node.children.values():
                assert child.cum_cycles <= node.cum_cycles

    def test_self_le_cum_even_on_concurrent_farm_tree(self):
        tracer, _ = _traced_farm_run(n_requests=60)
        profile = CycleProfile.from_tracer(tracer)
        for node in profile.nodes():
            assert node.self_cycles <= node.cum_cycles

    def test_conservation_on_sequential_trace(self):
        profile = CycleProfile.from_tracer(_sequential_tracer())
        assert profile.total_self() == profile.total_cycles()


class TestFarmConservation:
    """Acceptance: every simulated cycle is attributed exactly once."""

    def test_root_cumulative_equals_total_simulated_cycles(self):
        tracer, result = _traced_farm_run()
        profile = CycleProfile.from_tracer(tracer)
        root = profile.roots["farm.run"]
        assert root.cum_cycles == result.makespan_cycles  # exact

    def test_summed_self_equals_root_cumulative(self):
        tracer, result = _traced_farm_run()
        profile = CycleProfile.from_tracer(tracer)
        root = profile.roots["farm.run"]
        assert profile.total_self() == root.cum_cycles  # exact
        assert profile.total_self() == profile.total_cycles()

    def test_wait_and_service_tile_each_request_exactly(self):
        tracer, result = _traced_farm_run()
        profile = CycleProfile.from_tracer(tracer)
        request = profile.roots["farm.run"].children["farm.request"]
        assert sorted(request.children) == ["farm.service", "farm.wait"]
        # Children cover the request span exactly: zero self residue.
        assert request.self_cycles == 0.0
        assert request.count == len(result.completions)
        # Service cycles match the cores' busy accounting.
        service = request.children["farm.service"]
        busy = sum(core.busy_cycles for core in result.cores)
        assert service.cum_cycles == pytest.approx(busy)

    def test_profile_is_deterministic_across_runs(self):
        dumps = []
        for _ in range(2):
            tracer, _ = _traced_farm_run()
            profile = CycleProfile.from_tracer(tracer)
            dumps.append(json.dumps(profile.as_dict(), sort_keys=True))
        assert dumps[0] == dumps[1]


class TestCallGraphProfiles:
    def _graph(self):
        graph = CallGraph("modexp")
        graph.add_edge("modexp", "mont_mul", 4)
        graph.add_edge("mont_mul", "mpn_addmul_1", 8)
        graph.add_edge("modexp", "mpn_add_n", 2)
        graph.set_local_cycles("modexp", 100.0)
        graph.set_local_cycles("mont_mul", 50.0)
        graph.set_local_cycles("mpn_addmul_1", 30.0)
        graph.set_local_cycles("mpn_add_n", 10.0)
        return graph

    def test_root_cum_matches_callgraph_total(self):
        graph = self._graph()
        profile = CycleProfile.from_callgraph(graph)
        root = profile.roots["modexp"]
        assert root.cum_cycles == pytest.approx(graph.total_cycles())
        assert profile.total_self() == profile.total_cycles()

    def test_counts_multiply_along_call_edges(self):
        profile = CycleProfile.from_callgraph(self._graph())
        mont = profile.roots["modexp"].children["mont_mul"]
        assert mont.count == 4
        assert mont.children["mpn_addmul_1"].count == 32
        assert mont.children["mpn_addmul_1"].self_cycles == 32 * 30.0

    def test_from_iss_profile_reuses_callgraph_names(self):
        iss = IssProfile(
            local_cycles={"modexp": 100, "mont_mul": 400,
                          "mpn_addmul_1": 960},
            call_edges={("<entry>", "modexp"): 1,
                        ("modexp", "mont_mul"): 4,
                        ("mont_mul", "mpn_addmul_1"): 32},
            call_counts={"modexp": 1, "mont_mul": 4,
                         "mpn_addmul_1": 32})
        profile = CycleProfile.from_iss_profile(iss, "modexp")
        graph = CallGraph.from_profile(iss, "modexp")
        assert set(profile.roots) == {"modexp"}
        node = profile.find(("modexp", "mont_mul", "mpn_addmul_1"))
        assert node is not None and node.name in graph.nodes
        assert profile.roots["modexp"].cum_cycles == pytest.approx(
            graph.total_cycles())


class TestExports:
    def test_folded_lines_format(self):
        profile = CycleProfile.from_tracer(_sequential_tracer())
        lines = profile.folded()
        assert lines
        for line in lines:
            stack, _, cycles = line.rpartition(" ")
            assert stack and int(cycles) > 0
        assert any(line.startswith("main;handshake;rsa ")
                   for line in lines)

    def test_top_sorted_by_self_then_path(self):
        tracer, _ = _traced_farm_run(n_requests=60)
        profile = CycleProfile.from_tracer(tracer)
        top = profile.top(3)
        selfs = [n.self_cycles for n in top]
        assert selfs == sorted(selfs, reverse=True)
        with pytest.raises(ValueError):
            profile.top(3, key="bogus")

    def test_render_top_mentions_hot_paths(self):
        tracer, _ = _traced_farm_run(n_requests=60)
        rendered = CycleProfile.from_tracer(tracer).render_top(5)
        assert "farm.run;farm.request;farm.service" in rendered

    def test_as_dict_round_trips_through_json(self):
        profile = CycleProfile.from_tracer(_sequential_tracer())
        payload = json.loads(json.dumps(profile.as_dict()))
        assert payload["total_cycles"] == payload["total_self_cycles"]
        assert payload["roots"][0]["name"] == "main"

    def test_profile_from_jsonl_round_trip_matches_live(self):
        tracer, _ = _traced_farm_run(n_requests=40)
        live = CycleProfile.from_tracer(tracer)
        buf = io.StringIO()
        write_events_jsonl(tracer, buf)
        buf.seek(0)
        replayed = CycleProfile.from_tracer(read_events_jsonl(buf))
        assert (json.dumps(replayed.as_dict(), sort_keys=True)
                == json.dumps(live.as_dict(), sort_keys=True))

    def test_find_returns_none_for_unknown_paths(self):
        profile = CycleProfile.from_tracer(_sequential_tracer())
        assert profile.find(()) is None
        assert profile.find(("main", "nope")) is None
        assert profile.find(("main", "bulk")).name == "bulk"


def _small_trace_records():
    tracer = Tracer()
    with tracer.span("main", core=1):
        tracer.event("tick", phase="a")
        with tracer.span("leaf"):
            pass
    return [record.as_dict() for record in tracer.records()]


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "trace.jsonl"


class TestMutatedTraces:
    """Every damaged trace loads or fails with a ``ValueError`` naming
    the file and line, so ``profile --trace`` exits 2, never with a
    traceback."""

    RECORDS = _small_trace_records()

    def test_valid_trace_round_trips(self, trace_path):
        trace_path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                      for r in self.RECORDS))
        buf = io.StringIO()
        write_events_jsonl(read_events_jsonl(str(trace_path)), buf)
        assert buf.getvalue() == trace_path.read_text()

    @settings(max_examples=300)
    @given(text=mutated_lines(RECORDS))
    def test_mutation_loads_or_raises_value_error(self, trace_path, text):
        trace_path.write_text(text)
        try:
            read_events_jsonl(str(trace_path))
        except ValueError as exc:
            assert str(exc).startswith(f"{trace_path}: line ")

    @pytest.mark.parametrize("index,field", [
        (index, field) for index, record in enumerate(RECORDS)
        for field in record])
    def test_missing_field_is_named(self, trace_path, index, field):
        records = list(self.RECORDS)
        records[index] = dropped(records[index], (field,))
        trace_path.write_text("".join(json.dumps(r) + "\n"
                                      for r in records))
        with pytest.raises(ValueError) as info:
            read_events_jsonl(str(trace_path))
        assert str(info.value).startswith(
            f"{trace_path}: line {index + 1}: ")
        assert f"'{field}'" in str(info.value)

    @pytest.mark.parametrize("line,named", [
        ("[1]", "a record is a JSON object, got list"),
        ("{}", "field 'kind' must be 'span' or 'event', got None"),
        ('{"kind": ["span"]}', "field 'kind'"),
        ("{not json", "invalid JSON"),
    ])
    def test_cli_rejects_a_bad_line(self, tmp_path, capsys, line, named):
        from repro.cli import main
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(self.RECORDS[0]) + "\n" + line + "\n")
        assert main(["profile", "--trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"{path}: line 2: {named}" in err
