"""Deterministic fault injection: plans, failure-aware scheduling,
sharded chaos identity, and the FarmConfig/run_farm facade.

Same frozen measured unit costs as ``test_farm.py`` -- fault handling
is a pure function of these numbers, so no ISS characterization runs.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.costs import PlatformCosts
from repro.farm import (AutoscalePolicy, FarmConfig, FarmSimulator,
                        FaultEvent, FaultPlan, TrafficProfile,
                        build_farm, cost_of, generate_fault_plan,
                        generate_requests, make_scheduler,
                        run_autoscale, run_farm)
from repro.farm.faults import summarize_faults
from repro.farm.scheduler import PreferentialScheduler
from repro.farm.workload import SessionRequest
from repro.obs.slo import SloTarget
from repro.parallel import ThreadExecutor
from repro.ssl.throughput import DEFAULT_CLOCK_HZ
from tests.mutation import mutated

BASE_COSTS = PlatformCosts(
    name="base", rsa_public_cycles=631103.0,
    rsa_private_cycles=61433705.5, cipher_cycles_per_byte=703.5,
    hash_cycles_per_byte=50.84375, ecdh_cycles=4451571.0)
OPT_COSTS = PlatformCosts(
    name="optimized", rsa_public_cycles=124890.5,
    rsa_private_cycles=2139136.0, cipher_cycles_per_byte=21.375,
    hash_cycles_per_byte=50.84375, ecdh_cycles=2903293.8)

#: Comfortably longer than any single handshake at these costs.
GAP = 100e6


def _farm(n_cores=8, fraction=0.5):
    return build_farm(n_cores, BASE_COSTS, OPT_COSTS, fraction)


def _req(seq, arrival, client=0, resumed=False, protocol="ssl"):
    return SessionRequest(seq=seq, arrival_cycle=arrival,
                          protocol=protocol, size_bytes=1024,
                          resumed=resumed, client_id=client)


def _run_with_plan(specs, scheduler, requests, plan):
    sim = FarmSimulator(list(specs), make_scheduler(scheduler),
                        faults=plan)
    return sim.run(list(requests))


class TestFaultEvents:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(cycle=0.0, kind="meteor", core=0)

    @pytest.mark.parametrize("kwargs", [
        dict(cycle=-1.0, kind="core_down", core=0),
        dict(cycle=0.0, kind="core_down", core=-1),
    ])
    def test_negative_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultEvent(**kwargs)

    def test_round_trip(self):
        event = FaultEvent(cycle=12.5, kind="cache_flush", core=3)
        assert FaultEvent.from_dict(event.as_dict()) == event

    @pytest.mark.parametrize("missing", ["cycle", "kind", "core"])
    def test_from_dict_names_a_missing_field(self, missing):
        payload = {"cycle": 1.0, "kind": "core_down", "core": 0}
        del payload[missing]
        with pytest.raises(ValueError, match=f"missing field '{missing}'"):
            FaultEvent.from_dict(payload)

    @pytest.mark.parametrize("field, value", [
        ("cycle", "nan"), ("cycle", "12"), ("cycle", None),
        ("cycle", True), ("kind", 3), ("core", "x"), ("core", 1.0),
        ("core", False),
    ])
    def test_from_dict_names_an_ill_typed_field(self, field, value):
        payload = {"cycle": 1.0, "kind": "core_down", "core": 0}
        payload[field] = value
        with pytest.raises(ValueError, match=f"field '{field}' must be"):
            FaultEvent.from_dict(payload)

    @pytest.mark.parametrize("cycle", [float("nan"), float("inf"),
                                       10 ** 400])
    def test_non_finite_cycle_rejected(self, cycle):
        payload = {"cycle": cycle, "kind": "core_down", "core": 0}
        with pytest.raises(ValueError, match="cycle"):
            FaultEvent.from_dict(payload)
        if isinstance(cycle, float):
            with pytest.raises(ValueError, match="cycle"):
                FaultEvent(cycle=cycle, kind="core_down", core=0)


class TestFaultPlan:
    def test_events_sorted_with_declaration_tiebreak(self):
        plan = FaultPlan(events=(
            FaultEvent(cycle=5.0, kind="core_up", core=1),
            FaultEvent(cycle=1.0, kind="core_down", core=1),
            FaultEvent(cycle=5.0, kind="cache_flush", core=0),
        ))
        assert [e.cycle for e in plan.events] == [1.0, 5.0, 5.0]
        # Same-cycle events keep declaration order.
        assert plan.events[1].kind == "core_up"
        assert plan.events[2].kind == "cache_flush"

    def test_bool_and_penalty_validation(self):
        assert not FaultPlan()
        assert FaultPlan(events=(
            FaultEvent(cycle=0.0, kind="core_down", core=0),))
        with pytest.raises(ValueError, match="penalty"):
            FaultPlan(redispatch_penalty_cycles=-1.0)

    def test_subplan_strided_partitions_events(self):
        plan = generate_fault_plan(3, 8, 1e9, episodes=6)
        shards = 4
        recovered = []
        for shard in range(shards):
            sub = plan.subplan_strided(shards, shard)
            assert sub.redispatch_penalty_cycles == \
                plan.redispatch_penalty_cycles
            for event in sub.events:
                # Local core g//shards on shard g%shards is global
                # core g under the specs[i::shards] ownership.
                recovered.append(replace(
                    event, core=event.core * shards + shard))
        key = lambda e: (e.cycle, e.kind, e.core)
        assert sorted(recovered, key=key) == \
            sorted(plan.events, key=key)

    def test_subplan_validation_and_identity(self):
        plan = FaultPlan(events=(
            FaultEvent(cycle=1.0, kind="core_down", core=2),))
        assert plan.subplan_strided(1, 0) is plan
        with pytest.raises(ValueError):
            plan.subplan_strided(0, 0)
        with pytest.raises(ValueError):
            plan.subplan_strided(2, 2)

    def test_window_filters_and_rebases(self):
        plan = FaultPlan(events=(
            FaultEvent(cycle=10.0, kind="core_down", core=0),
            FaultEvent(cycle=25.0, kind="core_up", core=0),
            FaultEvent(cycle=40.0, kind="cache_flush", core=1),
        ))
        window = plan.window(20.0, 40.0)
        assert [(e.cycle, e.kind) for e in window.events] == \
            [(5.0, "core_up")]
        with pytest.raises(ValueError):
            plan.window(10.0, 5.0)

    @pytest.mark.parametrize("payload, match", [
        ({"events": [{"cycle": 1.0, "core": 0}]},
         r"events\[0\]: missing field 'kind'"),
        ({"events": [{"cycle": 1.0, "kind": "core_down", "core": 0},
                     {"cycle": "nan", "kind": "core_up", "core": 0}]},
         r"events\[1\]: field 'cycle' must be"),
        pytest.param({"events": [7]}, r"events\[0\]: not a JSON object, "
                                      r"got int",
                     id=r"payload2-events\[0\]: fault event is not"),
        pytest.param({"events": {"cycle": 1.0}},
                     "field 'events' must be a list",
                     id="payload3-field 'events' must be list"),
        ({"redispatch_penalty_cycles": float("nan")},
         "redispatch_penalty_cycles"),
        ({"redispatch_penalty_cycles": float("inf")},
         "redispatch_penalty_cycles"),
        ({"redispatch_penalty_cycles": "2000"},
         "field 'redispatch_penalty_cycles' must be"),
        ([], "not a JSON object"),
        ({"evnts": []}, "unknown field 'evnts'"),
        ({"events": [], "redispatch_penalty": 10.0},
         "unknown field 'redispatch_penalty'"),
        ({"events": [{"cycle": 1.0, "kind": "core_down", "core": 0,
                      "cores": 1}]}, r"events\[0\]: unknown field 'cores'"),
    ])
    def test_from_dict_names_the_bad_field(self, payload, match):
        with pytest.raises(ValueError, match=match) as caught:
            FaultPlan.from_dict(payload)
        assert str(caught.value).startswith("fault plan: ")

    def test_on_cores_drops_events_above(self):
        plan = FaultPlan(events=(
            FaultEvent(cycle=1.0, kind="core_down", core=0),
            FaultEvent(cycle=2.0, kind="core_down", core=5),))
        assert [e.core for e in plan.on_cores(5).events] == [0]
        assert plan.on_cores(6) == plan

    def test_round_trip(self):
        plan = generate_fault_plan(9, 4, 1e8, episodes=2,
                                   degraded_costs=BASE_COSTS)
        rebuilt = FaultPlan.from_dict(plan.as_dict(),
                                      degraded_costs=BASE_COSTS)
        assert rebuilt.events == plan.events
        assert rebuilt.redispatch_penalty_cycles == \
            plan.redispatch_penalty_cycles
        assert rebuilt.degraded_costs is BASE_COSTS


class TestMutatedPlans:
    """Every damaged fault plan loads or fails with a ``ValueError``
    naming the plan, so ``farm --faults`` exits 2, never with a
    traceback."""

    VALID = {"events": [{"cycle": 1.0, "kind": "core_down", "core": 1},
                        {"cycle": 5, "kind": "core_up", "core": 1}],
             "redispatch_penalty_cycles": 2000.0,
             "degraded_costs": "base"}

    @settings(max_examples=300)
    @given(payload=mutated(VALID))
    def test_from_dict_loads_or_raises_value_error(self, payload):
        try:
            plan = FaultPlan.from_dict(payload)
        except ValueError as exc:
            assert str(exc).startswith("fault plan: ")
            return
        assert all(math.isfinite(e.cycle) and e.cycle >= 0 and e.core >= 0
                   for e in plan.events)
        assert FaultPlan.from_dict(plan.as_dict()) == plan


class TestGenerateFaultPlan:
    def test_deterministic(self):
        a = generate_fault_plan(7, 8, 1e9, episodes=5)
        b = generate_fault_plan(7, 8, 1e9, episodes=5)
        assert a.events == b.events

    def test_seed_changes_schedule(self):
        a = generate_fault_plan(7, 8, 1e9, episodes=5)
        b = generate_fault_plan(8, 8, 1e9, episodes=5)
        assert a.events != b.events

    def test_events_target_known_cores_within_horizon(self):
        plan = generate_fault_plan(1, 4, 1e9, episodes=10)
        assert plan.events
        for event in plan.events:
            assert 0 <= event.core < 4
            assert event.cycle >= 0.0
            assert event.kind in ("core_down", "core_up",
                                  "cache_flush", "degrade")

    @pytest.mark.parametrize("kwargs", [
        dict(seed=1, n_cores=0, horizon_cycles=1e9),
        dict(seed=1, n_cores=4, horizon_cycles=0.0),
        dict(seed=1, n_cores=4, horizon_cycles=1e9, episodes=-1),
        dict(seed=1, n_cores=4, horizon_cycles=1e9,
             mean_outage_fraction=0.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            generate_fault_plan(**kwargs)


class TestSimulatorUnderFaults:
    def test_no_dispatch_to_dead_core(self):
        # Kill core 0 before traffic; everything must land on core 1.
        specs = _farm(2, 0.0)
        plan = FaultPlan(events=(
            FaultEvent(cycle=0.0, kind="core_down", core=0),))
        requests = [_req(i, (i + 1) * GAP, client=i) for i in range(6)]
        result = _run_with_plan(specs, "round-robin", requests, plan)
        assert len(result.completions) == 6
        assert all(c.core_index == 1 for c in result.completions)

    def test_no_dispatch_during_downtime_window(self):
        specs = _farm(4, 0.5)
        down, up = 2 * GAP, 6 * GAP
        plan = FaultPlan(events=(
            FaultEvent(cycle=down, kind="core_down", core=1),
            FaultEvent(cycle=up, kind="core_up", core=1),))
        requests = generate_requests(
            TrafficProfile(arrival_rate=60.0), 200, seed=3)
        result = _run_with_plan(specs, "least-loaded", requests, plan)
        assert len(result.completions) == 200
        for c in result.completions:
            if c.core_index == 1:
                assert c.start_cycle < down or c.start_cycle >= up

    def test_in_flight_request_redispatched_with_penalty(self):
        specs = _farm(2, 0.0)
        # seq 0 starts on core 0 at cycle 0; the core dies mid-service.
        plan = FaultPlan(events=(
            FaultEvent(cycle=1000.0, kind="core_down", core=0),))
        requests = [_req(0, 0.0)]
        result = _run_with_plan(specs, "round-robin", requests, plan)
        assert result.redispatches == 1
        (completion,) = result.completions
        assert completion.core_index == 1
        # Re-arrival at crash + penalty, so latency covers both.
        assert completion.start_cycle >= \
            1000.0 + plan.redispatch_penalty_cycles

    def test_queued_requests_displaced_too(self):
        specs = _farm(1, 0.0)
        # Three arrivals stack on the only core; it dies mid-first,
        # recovers later, and every request still completes.
        plan = FaultPlan(events=(
            FaultEvent(cycle=1000.0, kind="core_down", core=0),
            FaultEvent(cycle=5 * GAP, kind="core_up", core=0),))
        requests = [_req(i, float(i)) for i in range(3)]
        result = _run_with_plan(specs, "round-robin", requests, plan)
        assert len(result.completions) == 3
        assert result.redispatches == 3
        assert all(c.start_cycle >= 5 * GAP for c in result.completions)

    def test_farm_wide_outage_stalls_arrivals(self):
        specs = _farm(1, 0.0)
        plan = FaultPlan(events=(
            FaultEvent(cycle=0.0, kind="core_down", core=0),
            FaultEvent(cycle=3 * GAP, kind="core_up", core=0),))
        requests = [_req(0, GAP)]
        result = _run_with_plan(specs, "round-robin", requests, plan)
        (completion,) = result.completions
        # Arrival stamp is unchanged; the outage shows up as latency.
        assert completion.start_cycle >= 3 * GAP
        assert completion.latency_cycles >= 2 * GAP
        assert result.cores[0].down_cycles == pytest.approx(3 * GAP)

    def test_same_cycle_order_fault_arrival_completion(self):
        """At one cycle the simulator applies the fault first, then the
        arrivals in seq order, then the completion."""
        specs = _farm(1, 1.0)
        first = _req(0, 0.0)
        finish = cost_of(first, OPT_COSTS).cycles
        plan = FaultPlan(events=(
            FaultEvent(cycle=finish, kind="degrade", core=0),),
            degraded_costs=BASE_COSTS)
        seen = []

        class Probe:
            name = "probe"

            def select(self, request, cores, now):
                core = cores[0]
                seen.append((request.seq, now, core.degraded,
                             core.current is not None))
                return 0

        requests = [first, _req(2, finish, client=2),
                    _req(1, finish, client=1)]
        result = FarmSimulator(specs, Probe(), faults=plan).run(requests)
        # Both same-cycle arrivals see the degrade already applied and
        # request 0 still in service (its completion pops last).
        assert seen == [(0, 0.0, False, False), (1, finish, True, True),
                        (2, finish, True, True)]
        assert [c.request.seq for c in result.completions] == [0, 1, 2]
        assert result.completions[1].start_cycle == finish
        second = result.completions[1]
        assert second.service_cycles == \
            cost_of(second.request, BASE_COSTS).cycles

    def test_cache_flush_forces_rehandshake(self):
        specs = _farm(2, 0.0)
        requests = [_req(0, 0.0, client=1),
                    _req(1, GAP, client=1, resumed=True),
                    _req(2, 2 * GAP, client=1, resumed=True)]
        flush = FaultPlan(events=(
            FaultEvent(cycle=1.5 * GAP, kind="cache_flush", core=0),))
        warm = _run_with_plan(specs, "preferential", requests, None)
        flushed = _run_with_plan(specs, "preferential", requests, flush)
        by_seq = lambda result: {c.request.seq: c
                                 for c in result.completions}
        assert by_seq(warm)[1].cache_hit and by_seq(warm)[2].cache_hit
        assert by_seq(flushed)[1].cache_hit
        assert not by_seq(flushed)[2].cache_hit
        assert flushed.cores[0].sessions_flushed == 1

    def test_degrade_reprices_extended_core(self):
        specs = _farm(1, 1.0)
        requests = [_req(0, 0.0)]
        degrade = FaultPlan(events=(
            FaultEvent(cycle=0.0, kind="degrade", core=0),),
            degraded_costs=BASE_COSTS)
        healthy = _run_with_plan(specs, "round-robin", requests, None)
        degraded = _run_with_plan(specs, "round-robin", requests,
                                  degrade)
        assert degraded.completions[0].service_cycles > \
            healthy.completions[0].service_cycles
        # Without a degraded cost table the event is recorded but the
        # pricing is untouched.
        recorded = _run_with_plan(
            specs, "round-robin", requests,
            FaultPlan(events=degrade.events))
        assert recorded.completions[0].service_cycles == \
            healthy.completions[0].service_cycles
        assert recorded.fault_events == 1

    def test_queued_requests_priced_on_the_table_they_start_under(self):
        """Estimates queued before a cost-table change are priced
        afresh when service starts; only an estimate made on the
        active table is reused."""
        specs = _farm(1, 1.0)
        plan = FaultPlan(events=(
            FaultEvent(cycle=1.0, kind="degrade", core=0),
            FaultEvent(cycle=20e6, kind="core_up", core=0),),
            degraded_costs=BASE_COSTS)
        # r0 runs healthy; r1 and r2 queue behind it on the healthy
        # table; r3 queues while degraded.  r1 starts degraded, r2 and
        # r3 after the recovery that lands during r1.
        requests = [_req(0, 0.0), _req(1, 0.0, client=1),
                    _req(2, 0.0, client=2), _req(3, 10e6, client=3)]
        result = _run_with_plan(specs, "round-robin", requests, plan)
        by_seq = {c.request.seq: c for c in result.completions}
        assert by_seq[1].start_cycle < 20e6 < by_seq[2].start_cycle
        tables = [OPT_COSTS, BASE_COSTS, OPT_COSTS, OPT_COSTS]
        assert [by_seq[k].service_cycles for k in range(4)] == [
            cost_of(requests[k], table).cycles
            for k, table in enumerate(tables)]

    def test_degrade_recovers_on_core_up(self):
        specs = _farm(1, 1.0)
        plan = FaultPlan(events=(
            FaultEvent(cycle=0.0, kind="degrade", core=0),
            FaultEvent(cycle=GAP, kind="core_up", core=0),),
            degraded_costs=BASE_COSTS)
        requests = [_req(0, 0.0), _req(1, 2 * GAP)]
        result = _run_with_plan(specs, "round-robin", requests, plan)
        by_seq = {c.request.seq: c for c in result.completions}
        assert by_seq[0].service_cycles > by_seq[1].service_cycles

    def test_prices_follow_the_active_table(self):
        """The run prices each (protocol, size, resumed-and-hit) once
        per cost table: identical requests before a degrade, under it
        and after the core_up are each served at the price of the
        table active when they start."""
        specs = _farm(1, 1.0)
        plan = FaultPlan(events=(
            FaultEvent(cycle=GAP, kind="degrade", core=0),
            FaultEvent(cycle=3 * GAP, kind="core_up", core=0),),
            degraded_costs=BASE_COSTS)
        # Per phase: a full handshake, then its client resuming.
        requests = []
        for phase, arrival in enumerate((0.0, 1.5 * GAP, 4 * GAP)):
            requests += [_req(2 * phase, arrival, client=phase),
                         _req(2 * phase + 1, arrival + GAP / 4,
                              client=phase, resumed=True)]
        result = _run_with_plan(specs, "round-robin", requests, plan)
        assert len(result.completions) == len(requests)
        served = []
        for c in result.completions:
            degraded = GAP <= c.start_cycle < 3 * GAP
            table = BASE_COSTS if degraded else OPT_COSTS
            assert c.service_cycles == cost_of(
                c.request, table, cache_hit=c.cache_hit).cycles
            served.append((degraded, c.cache_hit))
        assert served == [(False, False), (False, True),
                          (True, False), (True, True),
                          (False, False), (False, True)]

    def test_preferential_affinity_falls_back_and_rewarms(self):
        specs = _farm(4, 0.5)
        requests = [_req(0, 0.0, client=1),
                    _req(1, GAP, client=1, resumed=True),
                    _req(2, 3 * GAP, client=1, resumed=True),
                    _req(3, 5 * GAP, client=1, resumed=True)]
        warm = _run_with_plan(specs, "preferential", requests, None)
        home = {c.request.seq: c.core_index
                for c in warm.completions}[1]
        plan = FaultPlan(events=(
            FaultEvent(cycle=2 * GAP, kind="core_down", core=home),
            FaultEvent(cycle=4 * GAP, kind="core_up", core=home),))
        result = _run_with_plan(specs, "preferential", requests, plan)
        by_seq = {c.request.seq: c for c in result.completions}
        # While the affine core is down, resumption falls back to a
        # live core and misses (the cache died with the core).
        assert by_seq[2].core_index != home
        assert not by_seq[2].cache_hit
        # The fallback core's cache re-warmed: the next resumed
        # request is affine to it and hits.
        assert by_seq[3].core_index == by_seq[2].core_index
        assert by_seq[3].cache_hit

    def test_cached_backlog_matches_fresh_sum_under_faults(self):
        """Every dispatch sees each live core's cached backlog equal to
        a from-scratch re-sum of its queue, bit for bit, across core
        loss, cache flush, degradation and recovery."""
        checks = []

        class Checking(PreferentialScheduler):
            def select(self, request, cores, now):
                for core in cores:
                    if core.up:
                        fresh = (max(0.0, core.busy_until - now)
                                 + sum(est for _, est in core.queue))
                        assert core.backlog_cycles(now) == fresh
                        checks.append(len(core.queue))
                return super().select(request, cores, now)

        specs = _farm(4, 0.5)
        plan = FaultPlan(events=(
            FaultEvent(cycle=0.2 * GAP, kind="core_down", core=0),
            FaultEvent(cycle=0.3 * GAP, kind="cache_flush", core=1),
            FaultEvent(cycle=0.4 * GAP, kind="degrade", core=2),
            FaultEvent(cycle=0.6 * GAP, kind="core_up", core=0),
            FaultEvent(cycle=0.7 * GAP, kind="core_up", core=2),),
            degraded_costs=BASE_COSTS)
        requests = generate_requests(
            TrafficProfile(arrival_rate=400.0, resumption_ratio=0.5,
                           clients=16), 300, seed=5)
        checked = FarmSimulator(specs, Checking(), faults=plan).run(
            requests)
        plain = _run_with_plan(specs, "preferential", requests, plan)
        assert checked.fault_events == 5 and checked.redispatches > 0
        assert max(checks) > 1          # queues really were non-trivial
        assert ([(c.request.seq, c.core_index, c.finish_cycle)
                 for c in checked.completions]
                == [(c.request.seq, c.core_index, c.finish_cycle)
                    for c in plain.completions])

    def test_double_down_and_double_up_are_noops(self):
        specs = _farm(2, 0.0)
        plan = FaultPlan(events=(
            FaultEvent(cycle=0.0, kind="core_down", core=0),
            FaultEvent(cycle=1.0, kind="core_down", core=0),
            FaultEvent(cycle=2.0, kind="cache_flush", core=0),
            FaultEvent(cycle=GAP, kind="core_up", core=0),
            FaultEvent(cycle=GAP + 1, kind="core_up", core=0),))
        requests = [_req(0, 2 * GAP)]
        result = _run_with_plan(specs, "round-robin", requests, plan)
        # down, up: the duplicates and the flush-while-dead don't count.
        assert result.fault_events == 2
        assert result.cores[0].fault_kinds == ["core_down", "core_up"]

    def test_fault_metrics_summary(self):
        specs = _farm(4, 0.5)
        plan = generate_fault_plan(5, 4, 2e9, episodes=3)
        requests = generate_requests(
            TrafficProfile(arrival_rate=100.0), 150, seed=2)
        result = _run_with_plan(specs, "preferential", requests, plan)
        report = summarize_faults(result, plan)
        assert report.events_injected == result.fault_events
        assert report.redispatches == result.redispatches
        assert report.as_dict()["by_kind"] == report.by_kind
        assert sum(report.by_kind.values()) == report.events_injected


class TestFaultFreeIdentity:
    def test_empty_plan_bit_identical_to_no_plan(self):
        specs = _farm(4, 0.5)
        requests = generate_requests(
            TrafficProfile(arrival_rate=60.0), 200, seed=1)
        bare = _run_with_plan(specs, "preferential", requests, None)
        empty = _run_with_plan(specs, "preferential", requests,
                               FaultPlan())
        assert bare.completions == empty.completions
        assert bare.makespan_cycles == empty.makespan_cycles
        assert bare.events_processed == empty.events_processed

    def test_run_farm_without_faults_matches_plain_simulator(self):
        specs = _farm(4, 0.5)
        requests = generate_requests(
            TrafficProfile(arrival_rate=60.0), 200, seed=1)
        plain = FarmSimulator(
            list(specs), make_scheduler("preferential")).run(
            list(requests))
        run = run_farm(FarmConfig(specs=tuple(specs),
                                  requests=tuple(requests)))
        assert run.result.completions == plain.completions
        assert run.result.makespan_cycles == plain.makespan_cycles
        assert run.faults is None and run.slo is None


class TestShardedChaosIdentity:
    def test_shards1_matches_plain_simulator_with_plan(self):
        specs = _farm(8, 0.5)
        plan = generate_fault_plan(11, 8, 2e9, episodes=4)
        requests = generate_requests(
            TrafficProfile(arrival_rate=120.0, clients=64), 300,
            seed=1)
        plain = FarmSimulator(list(specs),
                              make_scheduler("preferential"),
                              faults=plan).run(list(requests))
        run = run_farm(FarmConfig(specs=tuple(specs),
                                  requests=tuple(requests),
                                  faults=plan))
        assert run.result.completions == plain.completions
        assert run.result.fault_events == plain.fault_events
        assert run.result.redispatches == plain.redispatches

    def test_sharded_chaos_repeatable_and_executor_independent(self):
        config = FarmConfig(
            specs=tuple(_farm(8, 0.5)),
            profile=TrafficProfile(arrival_rate=120.0, clients=64),
            n_requests=300, shards=4, seed=1,
            faults=generate_fault_plan(11, 8, 2e9, episodes=4))
        serial = run_farm(config)
        again = run_farm(config)
        with ThreadExecutor(2) as pool:
            threaded = run_farm(config, executor=pool)
        assert serial.result.completions == again.result.completions
        assert serial.result.completions == \
            threaded.result.completions
        assert serial.result.fault_events == \
            threaded.result.fault_events
        assert serial.faults.as_dict() == threaded.faults.as_dict()


class TestFarmConfig:
    def test_validation(self):
        specs = tuple(_farm(4, 0.5))
        profile = TrafficProfile()
        with pytest.raises(ValueError, match="at least one core"):
            FarmConfig(specs=(), profile=profile)
        with pytest.raises(ValueError, match="unknown scheduler"):
            FarmConfig(specs=specs, profile=profile, scheduler="fifo")
        with pytest.raises(ValueError, match="requests= or profile="):
            FarmConfig(specs=specs)
        with pytest.raises(ValueError, match="shards"):
            FarmConfig(specs=specs, profile=profile, shards=5)
        with pytest.raises(ValueError, match="slo_window_seconds"):
            FarmConfig(specs=specs, profile=profile,
                       slo_window_seconds=0.0)

    def test_fault_core_out_of_range_rejected(self):
        # A plan striking a core the farm lacks used to be dropped
        # silently (0 events injected); it is a config error now.
        plan = FaultPlan(events=(
            FaultEvent(cycle=1.0, kind="core_down", core=99),))
        for shards in (1, 2):
            with pytest.raises(ValueError, match="core 99.*4 cores"):
                FarmConfig(specs=tuple(_farm(4, 0.5)),
                           profile=TrafficProfile(), shards=shards,
                           faults=plan)
        edge = FaultPlan(events=(
            FaultEvent(cycle=1.0, kind="core_down", core=3),))
        assert FarmConfig(specs=tuple(_farm(4, 0.5)),
                          profile=TrafficProfile(), faults=edge)

    def test_simulator_rejects_fault_core_out_of_range(self):
        # Direct callers bypass FarmConfig; the engine checks too,
        # instead of dropping the event silently.
        plan = FaultPlan(events=(
            FaultEvent(cycle=1.0, kind="core_down", core=99),))
        with pytest.raises(ValueError, match="core 99.*4 cores"):
            FarmSimulator(_farm(4), make_scheduler("round-robin"),
                          faults=plan)

    def test_duplicate_seq_rejected(self):
        # The simulator keys requests by seq: a repeated seq would
        # serve one request twice and never serve the other.
        requests = [_req(0, 0.0), _req(7, GAP), _req(7, 2 * GAP)]
        with pytest.raises(ValueError, match="duplicate request seq 7"):
            FarmConfig(specs=tuple(_farm(2)), requests=requests)

    def test_simulator_rejects_duplicate_seq(self):
        # Direct callers bypass FarmConfig; the engine checks too.
        requests = [_req(i, i * GAP, client=i) for i in range(5)]
        requests.append(_req(0, 6 * GAP, client=9))
        sim = FarmSimulator(_farm(2), make_scheduler("round-robin"))
        with pytest.raises(ValueError, match="duplicate request seq 0"):
            sim.run(requests)

    @pytest.mark.parametrize("field, value", [
        ("jobs", 0), ("jobs", -2), ("jobs", 1.5), ("jobs", True),
        ("jobs", "2"), ("n_requests", -1), ("n_requests", 2.5),
        ("n_requests", True), ("n_requests", "10"),
    ])
    def test_jobs_and_n_requests_validated(self, field, value):
        kwargs = dict(specs=tuple(_farm(4, 0.5)),
                      profile=TrafficProfile(), n_requests=10)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            FarmConfig(**kwargs)
        # Sharded configs fail at construction too, not in the pool.
        with pytest.raises(ValueError, match=field):
            FarmConfig(shards=2, **kwargs)

    def test_jobs_and_n_requests_accept_valid_values(self):
        specs = tuple(_farm(4, 0.5))
        for jobs in (None, 1, 3):
            for n_requests in (None, 0, 10):
                config = FarmConfig(specs=specs, profile=TrafficProfile(),
                                    jobs=jobs, n_requests=n_requests)
                assert (config.jobs, config.n_requests) == \
                    (jobs, n_requests)

    def test_build_and_with_scheduler(self):
        config = FarmConfig.build(4, BASE_COSTS, OPT_COSTS,
                                  profile=TrafficProfile())
        assert len(config.specs) == 4
        assert config.scheduler == "preferential"
        swept = config.with_scheduler("round-robin")
        assert swept.scheduler == "round-robin"
        assert swept.specs == config.specs

    def test_run_farm_slo_report(self):
        config = FarmConfig(
            specs=tuple(_farm(4, 0.5)),
            profile=TrafficProfile(arrival_rate=60.0),
            n_requests=150, seed=1,
            slo=SloTarget(p99_ms=1e-6))   # unmeetably tight
        run = run_farm(config)
        assert run.slo is not None
        assert run.slo.windows_violated > 0
        assert run.slo.attainment < 1.0


class TestAutoscaleUnderFaults:
    def test_failures_consume_capacity(self):
        second = DEFAULT_CLOCK_HZ
        # Kill two pool cores early, permanently: the active set
        # shrinks and the policy has to scale the capacity back.
        plan = FaultPlan(events=(
            FaultEvent(cycle=0.5 * second, kind="core_down", core=0),
            FaultEvent(cycle=2.5 * second, kind="core_down", core=1),))
        config = FarmConfig(
            specs=tuple(_farm(8, 0.5)),
            profile=TrafficProfile(arrival_rate=150.0), seed=1,
            faults=plan, slo=SloTarget(p99_ms=100.0))
        policy = AutoscalePolicy(min_cores=4, max_cores=8,
                                 warmup_epochs=1)
        report = run_autoscale(config, policy=policy, n_epochs=8,
                               epoch_seconds=1.0, curve="constant")
        assert report.core_failures == 2
        assert any(e.failed_cores for e in report.epochs)
        healthy = run_autoscale(replace(config, faults=None),
                                policy=policy, n_epochs=8,
                                epoch_seconds=1.0, curve="constant")
        assert healthy.core_failures == 0
        # Deterministic: the same config reproduces the same report.
        assert run_autoscale(config, policy=policy, n_epochs=8,
                             epoch_seconds=1.0,
                             curve="constant").as_dict() == \
            report.as_dict()

    def test_faults_on_inactive_pool_cores_validate(self):
        # Each epoch runs a config over the active prefix of the pool;
        # a plan striking a pool core not yet active still validates
        # and that event is dropped, as it always was.
        second = DEFAULT_CLOCK_HZ
        plan = FaultPlan(events=(
            FaultEvent(cycle=0.5 * second, kind="core_down", core=7),))
        config = FarmConfig(
            specs=tuple(_farm(8, 0.5)),
            profile=TrafficProfile(arrival_rate=50.0), seed=1,
            faults=plan)
        policy = AutoscalePolicy(min_cores=2, max_cores=8)
        report = run_autoscale(config, policy=policy, n_epochs=3,
                               epoch_seconds=1.0, curve="constant")
        healthy = run_autoscale(replace(config, faults=None),
                                policy=policy, n_epochs=3,
                                epoch_seconds=1.0, curve="constant")
        assert report.core_failures == 0
        assert report.as_dict() == healthy.as_dict()

    def test_epoch_reports_carry_violation_counts(self):
        config = FarmConfig(
            specs=tuple(_farm(4, 0.5)),
            profile=TrafficProfile(arrival_rate=200.0), seed=1,
            slo=SloTarget(p99_ms=1e-6))   # every epoch violates
        report = run_autoscale(config, n_epochs=4, epoch_seconds=1.0,
                               curve="constant")
        assert all(e.slo_violations >= 1 for e in report.epochs)
        assert all(not e.slo_met for e in report.epochs)
        payload = report.as_dict()
        assert all("slo_violations" in e and "failed_cores" in e
                   for e in payload["epochs"])
