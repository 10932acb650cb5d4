"""Tests for sharded farm simulation and trace replay.

Same frozen measured unit costs as ``test_farm.py`` -- the shard layer
is a pure function of these numbers, so no ISS characterization runs.
"""

import json
import math

import pytest
from hypothesis import given, settings

from repro.costs import PlatformCosts
from repro.farm import (FarmConfig, FarmSimulator, TrafficProfile,
                        build_farm, export_workload, generate_requests,
                        import_workload, make_scheduler, merge_results,
                        run_farm, shard_workload, summarize)
from repro.farm.shard import partition_requests
from repro.mp import DeterministicPrng
from repro.parallel import SerialExecutor, ThreadExecutor
from tests.mutation import mutated_lines

BASE_COSTS = PlatformCosts(
    name="base", rsa_public_cycles=631103.0,
    rsa_private_cycles=61433705.5, cipher_cycles_per_byte=703.5,
    hash_cycles_per_byte=50.84375, ecdh_cycles=4451571.0)
OPT_COSTS = PlatformCosts(
    name="optimized", rsa_public_cycles=124890.5,
    rsa_private_cycles=2139136.0, cipher_cycles_per_byte=21.375,
    hash_cycles_per_byte=50.84375, ecdh_cycles=2903293.8)


def _farm(n_cores=8, fraction=0.5):
    return build_farm(n_cores, BASE_COSTS, OPT_COSTS, fraction)


def _sharded(specs, scheduler, profile=None, n_requests=None,
             executor=None, **kwargs):
    """One :func:`run_farm` call, returning its :class:`ShardedRun`."""
    config = FarmConfig(specs=tuple(specs), scheduler=scheduler,
                        profile=profile, n_requests=n_requests, **kwargs)
    return run_farm(config, executor=executor).sharded


class TestForkHygiene:
    def test_distinct_shard_labels_are_independent(self):
        root = DeterministicPrng(11)
        streams = {label: root.fork(label)
                   for label in ("shard[1]", "shard[10]", "shard[0]")}
        draws = {label: [prng.next_u64() for _ in range(32)]
                 for label, prng in streams.items()}
        values = list(draws.values())
        assert values[0] != values[1]
        assert values[0] != values[2]
        assert values[1] != values[2]

    def test_nested_forks_are_independent(self):
        root = DeterministicPrng(11)
        inner_a = root.fork("shard[1]").fork("epoch[0]")
        inner_b = root.fork("shard[1]").fork("epoch[1]")
        outer = root.fork("epoch[0]")
        a = [inner_a.next_u64() for _ in range(16)]
        b = [inner_b.next_u64() for _ in range(16)]
        c = [outer.next_u64() for _ in range(16)]
        assert a != b and a != c

    def test_fork_ignores_draw_position(self):
        fresh = DeterministicPrng(11).fork("shard[3]")
        consumed = DeterministicPrng(11)
        for _ in range(100):
            consumed.next_u64()
        late_fork = consumed.fork("shard[3]")
        assert ([fresh.next_u64() for _ in range(8)]
                == [late_fork.next_u64() for _ in range(8)])


class TestShardWorkload:
    def test_one_shard_is_the_plain_stream(self):
        profile = TrafficProfile(arrival_rate=80.0)
        assert shard_workload(profile, 120, 1, seed=5) == \
            [generate_requests(profile, 120, seed=5)]

    def test_shards_are_disjoint_and_complete(self):
        profile = TrafficProfile(arrival_rate=80.0, clients=64)
        workloads = shard_workload(profile, 100, 4, seed=5)
        assert len(workloads) == 4
        assert sum(len(w) for w in workloads) == 100
        seqs = [r.seq for shard in workloads for r in shard]
        assert sorted(seqs) == list(range(100))
        for i, shard in enumerate(workloads):
            assert all(r.seq % 4 == i for r in shard)
            assert all(r.client_id % 4 == i for r in shard)
            assert all(r.client_id < profile.clients for r in shard)

    def test_sharded_workload_is_deterministic(self):
        profile = TrafficProfile(arrival_rate=80.0)
        assert shard_workload(profile, 100, 4, seed=5) == \
            shard_workload(profile, 100, 4, seed=5)

    def test_validation(self):
        profile = TrafficProfile(clients=4)
        with pytest.raises(ValueError):
            shard_workload(profile, 10, 0)
        with pytest.raises(ValueError):
            shard_workload(profile, 10, 8)    # more shards than clients
        with pytest.raises(ValueError):
            shard_workload(profile, -1, 2)

    def test_partition_requests_recovers_generated_shards(self):
        profile = TrafficProfile(arrival_rate=80.0)
        workloads = shard_workload(profile, 100, 4, seed=5)
        flat = sorted((r for shard in workloads for r in shard),
                      key=lambda r: r.seq)
        assert partition_requests(flat, 4) == workloads
        assert partition_requests(flat, 1) == [flat]


class TestShardedRun:
    def test_shards1_bit_identical_to_simulator(self):
        profile = TrafficProfile(arrival_rate=80.0)
        requests = generate_requests(profile, 150, seed=3)
        specs = _farm()
        plain = FarmSimulator(specs,
                              make_scheduler("preferential")).run(requests)
        run = _sharded(specs, "preferential", profile, 150, shards=1,
                       seed=3)
        assert run.result.completions == plain.completions
        assert run.result.makespan_cycles == plain.makespan_cycles
        assert run.result.offered == plain.offered
        assert run.result.events_processed == plain.events_processed
        assert run.shards == 1 and run.executor == "serial"

    def test_merged_metrics_independent_of_executor(self):
        profile = TrafficProfile(arrival_rate=200.0, clients=128)
        specs = _farm(16)
        rows = []
        for executor in (SerialExecutor(), ThreadExecutor(4)):
            with executor:
                run = _sharded(specs, "preferential", profile, 160,
                               shards=8, seed=3, executor=executor)
            assert run.result.offered == 160
            rows.append(summarize(run.result).as_dict())
        assert rows[0] == rows[1]

    def test_repeated_runs_reproduce(self):
        profile = TrafficProfile(arrival_rate=200.0, clients=128)
        specs = _farm(16)
        a = _sharded(specs, "preferential", profile, 120, shards=8,
                     seed=9)
        b = _sharded(specs, "preferential", profile, 120, shards=8,
                     seed=9)
        assert summarize(a.result).as_dict() == \
            summarize(b.result).as_dict()
        assert a.result.events_processed == b.result.events_processed

    def test_merge_order_does_not_change_metrics(self):
        profile = TrafficProfile(arrival_rate=200.0, clients=128)
        specs = _farm(8)
        workloads = shard_workload(profile, 120, 4, seed=9)

        def shard_results(order):
            results = []
            for i in order:
                sim = FarmSimulator(list(specs[i::4]),
                                    make_scheduler("preferential"))
                results.append(sim.run(workloads[i]))
            return results

        forward = summarize(
            merge_results(shard_results([0, 1, 2, 3]))).as_dict()
        reversed_ = summarize(
            merge_results(shard_results([3, 2, 1, 0]))).as_dict()
        # Scalar metrics are permutation-invariant; the per-core
        # utilization vector is only defined up to shard order.
        forward_util = sorted(forward.pop("core_utilization"))
        reversed_util = sorted(reversed_.pop("core_utilization"))
        assert forward == reversed_
        assert forward_util == reversed_util

    def test_merged_core_indices_are_consistent(self):
        profile = TrafficProfile(arrival_rate=200.0, clients=128)
        run = _sharded(_farm(8), "least-loaded", profile, 100,
                       shards=4, seed=2)
        result = run.result
        assert len(result.cores) == 8
        assert [core.index for core in result.cores] == list(range(8))
        for completion in result.completions:
            assert result.cores[completion.core_index].index == \
                completion.core_index
        finishes = [c.finish_cycle for c in result.completions]
        assert finishes == sorted(finishes)

    def test_more_shards_than_cores_rejected(self):
        with pytest.raises(ValueError, match="cores"):
            _sharded(_farm(4), "preferential",
                     TrafficProfile(clients=64), 50, shards=8)

    def test_requires_workload_or_profile(self):
        with pytest.raises(ValueError, match="requests"):
            _sharded(_farm(4), "preferential")

    def test_replay_partition_equals_generated(self):
        profile = TrafficProfile(arrival_rate=200.0, clients=128)
        specs = _farm(8)
        generated = _sharded(specs, "preferential", profile, 120,
                             shards=4, seed=9)
        flat = sorted((r for shard in
                       shard_workload(profile, 120, 4, seed=9)
                       for r in shard), key=lambda r: r.seq)
        replayed = _sharded(specs, "preferential", shards=4,
                            requests=flat)
        assert summarize(generated.result).as_dict() == \
            summarize(replayed.result).as_dict()


class TestReplay:
    def test_round_trip_is_exact(self, tmp_path):
        profile = TrafficProfile(arrival_rate=80.0)
        requests = generate_requests(profile, 120, seed=3)
        path = tmp_path / "trace.jsonl"
        assert export_workload(path, requests, seed=3,
                               profile="default") == 120
        trace = import_workload(path)
        assert trace.requests == requests
        assert trace.meta == {"seed": 3, "profile": "default"}

    def test_replayed_run_is_identical(self, tmp_path):
        profile = TrafficProfile(arrival_rate=80.0)
        requests = generate_requests(profile, 120, seed=3)
        path = tmp_path / "trace.jsonl"
        export_workload(path, requests)
        specs = _farm()
        original = FarmSimulator(
            specs, make_scheduler("preferential")).run(requests)
        replayed = FarmSimulator(
            specs, make_scheduler("preferential")).run(
                import_workload(path).requests)
        assert replayed.completions == original.completions
        assert replayed.makespan_cycles == original.makespan_cycles

    def test_rejects_foreign_and_truncated_files(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError, match="not a"):
            import_workload(bad)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            import_workload(empty)
        requests = generate_requests(TrafficProfile(), 10, seed=1)
        full = tmp_path / "full.jsonl"
        export_workload(full, requests)
        lines = full.read_text().splitlines()
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            import_workload(truncated)

    @pytest.mark.parametrize("header, named", [
        pytest.param("[1, 2]", "line 1: not a JSON object, got list",
                     id="[1, 2]-line 1: header is not a JSON object"),
        pytest.param('"repro.farm.workload"',
                     "line 1: not a JSON object, got str",
                     id='"repro.farm.workload"-line 1: header is not a '
                        'JSON object'),
        ("{not json", "line 1: invalid JSON"),
        pytest.param({"count": "10"}, "line 1: field 'count' must be an "
                                      "int >= 0, got '10'",
                     id="header3-header field 'count' must be a "
                        "non-negative int, got '10'"),
        ({"count": -1}, "field 'count'"),
        ({"count": True}, "field 'count'"),
        pytest.param({"clock_hz": "fast"}, "line 1: field 'clock_hz' must "
                                           "be a positive finite number, "
                                           "got 'fast'",
                     id="header6-header field 'clock_hz' must be a "
                        "positive finite number"),
        ({"clock_hz": 0}, "field 'clock_hz'"),
        ({"clock_hz": float("nan")}, "field 'clock_hz'"),
        pytest.param({"meta": [1]}, "line 1: field 'meta' must be a JSON "
                                    "object, got [1]",
                     id="header9-header field 'meta' must be a JSON "
                        "object"),
        ({"version": True}, "line 1: field 'version' must be an int, "
                            "got True"),
        ({"version": 1.0}, "line 1: field 'version' must be an int, "
                           "got 1.0"),
    ])
    def test_rejects_malformed_headers(self, tmp_path, header, named):
        path = tmp_path / "header.jsonl"
        export_workload(path, generate_requests(TrafficProfile(), 3,
                                                seed=1))
        lines = path.read_text().splitlines()
        if isinstance(header, dict):
            edited = json.loads(lines[0])
            edited.update(header)
            header = json.dumps(edited)
        lines[0] = header
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            import_workload(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ")
        assert named in message

    def _edited_trace(self, tmp_path, edit):
        """Export a 10-request trace, then apply ``edit`` to the record
        on line 4 (the third request)."""
        path = tmp_path / "edited.jsonl"
        export_workload(path, generate_requests(TrafficProfile(), 10,
                                                seed=1))
        lines = path.read_text().splitlines()
        record = json.loads(lines[3])
        edit(record)
        lines[3] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_rejects_record_missing_a_field(self, tmp_path):
        path = self._edited_trace(
            tmp_path, lambda record: record.pop("client_id"))
        with pytest.raises(ValueError) as info:
            import_workload(path)
        message = str(info.value)
        assert str(path) in message
        assert "line 4" in message
        assert "missing field 'client_id'" in message

    def test_rejects_record_field_of_wrong_type(self, tmp_path):
        path = self._edited_trace(
            tmp_path, lambda record: record.update(resumed="false"))
        with pytest.raises(ValueError) as info:
            import_workload(path)
        message = str(info.value)
        assert str(path) in message
        assert "line 4" in message
        assert "field 'resumed' must be a bool, got 'false'" in message
        seq_path = self._edited_trace(
            tmp_path, lambda record: record.update(seq=2.5))
        with pytest.raises(ValueError,
                           match="field 'seq' must be an int, got 2.5"):
            import_workload(seq_path)

    def test_rejects_malformed_record_lines(self, tmp_path):
        requests = generate_requests(TrafficProfile(), 3, seed=1)
        path = tmp_path / "malformed.jsonl"
        export_workload(path, requests)
        lines = path.read_text().splitlines()
        for bad, expected in (("{not json", "line 3: invalid JSON"),
                              ("42", "line 3: not a JSON object, "
                                     "got int")):
            lines[2] = bad
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError, match=expected):
                import_workload(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0,
                                       10 ** 400],
                             ids=["nan", "inf", "negative", "huge"])
    def test_rejects_a_non_finite_arrival(self, tmp_path, value):
        path = self._edited_trace(
            tmp_path, lambda record: record.update(arrival_cycle=value))
        with pytest.raises(ValueError, match="line 4: field "
                                             "'arrival_cycle' must be a "
                                             "finite non-negative"):
            import_workload(path)

    def test_rejects_a_clock_beyond_the_float_range(self, tmp_path):
        path = tmp_path / "clock.jsonl"
        export_workload(path, [], clock_hz=10 ** 400)
        with pytest.raises(ValueError, match="field 'clock_hz'"):
            import_workload(path)

    def test_replayed_duplicate_seq_rejected(self, tmp_path):
        path = self._edited_trace(
            tmp_path, lambda record: record.update(seq=0))
        requests = import_workload(path).requests
        with pytest.raises(ValueError, match="duplicate request seq 0"):
            FarmConfig(specs=tuple(_farm()), requests=requests)


def _trace_records():
    """The header and records of a small exported trace, as objects."""
    header = {"format": "repro.farm.workload", "version": 1, "count": 4,
              "clock_hz": 200e6, "meta": {"seed": 1}}
    requests = generate_requests(TrafficProfile(), 4, seed=1)
    return [header] + [request._asdict() for request in requests]


@pytest.fixture(scope="module")
def replay_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "trace.jsonl"


class TestMutatedReplay:
    """Every damaged workload trace replays or fails with a
    ``ValueError`` naming the file, so ``farm --replay`` exits 2, never
    with a traceback."""

    RECORDS = _trace_records()

    def test_valid_trace_replays(self, replay_path):
        replay_path.write_text("".join(json.dumps(r) + "\n"
                                       for r in self.RECORDS))
        trace = import_workload(replay_path)
        assert [r._asdict() for r in trace.requests] == self.RECORDS[1:]
        assert trace.clock_hz == 200e6 and trace.meta == {"seed": 1}

    @settings(max_examples=300)
    @given(text=mutated_lines(RECORDS))
    def test_mutation_loads_or_raises_value_error(self, replay_path,
                                                  text):
        replay_path.write_text(text)
        try:
            trace = import_workload(replay_path)
        except ValueError as exc:
            assert str(exc).startswith(f"{replay_path}: ")
        else:
            assert all(math.isfinite(r.arrival_cycle) and r.arrival_cycle >= 0
                       for r in trace.requests)
