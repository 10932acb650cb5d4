"""Tests for the multi-core security-processor farm.

Uses canned :class:`PlatformCosts` (the measured base/optimized unit
costs, frozen) so no ISS characterization runs -- the farm layer is a
pure function of these numbers.
"""

import pytest

from repro.farm import (FarmSimulator, LeastLoadedScheduler,
                        PreferentialScheduler, RoundRobinScheduler,
                        SCHEDULERS, SessionRequest, TrafficProfile,
                        build_farm, capacity_table, cores_for_rate,
                        cost_of, farm_rate_targets, generate_requests,
                        is_public_key_heavy, make_scheduler, percentile,
                        plan_farm, session_id_for_client,
                        specs_as_configs, summarize)
from repro.farm.simulator import BASE_CORE_GATES, extension_gates
from repro.ssl.throughput import DEFAULT_CLOCK_HZ
from repro.costs import PlatformCosts

#: Frozen measured unit costs (same figures the benches reproduce);
#: the ECDH figures are what PlatformCosts.measure computes through
#: the macro-model backend for the stock configurations.
BASE_COSTS = PlatformCosts(
    name="base", rsa_public_cycles=631103.0,
    rsa_private_cycles=61433705.5, cipher_cycles_per_byte=703.5,
    hash_cycles_per_byte=50.84375, ecdh_cycles=4451571.0)
OPT_COSTS = PlatformCosts(
    name="optimized", rsa_public_cycles=124890.5,
    rsa_private_cycles=2139136.0, cipher_cycles_per_byte=21.375,
    hash_cycles_per_byte=50.84375, ecdh_cycles=2903293.8)

EXT_GATES = BASE_CORE_GATES + extension_gates()


def _farm(n_cores=4, fraction=0.5):
    return build_farm(n_cores, BASE_COSTS, OPT_COSTS, fraction)


def _run(scheduler, n_cores=4, n_requests=200, rate=60.0,
         resumption=0.4, seed=1, fraction=0.5):
    profile = TrafficProfile(arrival_rate=rate,
                             resumption_ratio=resumption)
    requests = generate_requests(profile, n_requests, seed=seed)
    sim = FarmSimulator(_farm(n_cores, fraction), scheduler)
    return sim.run(requests)


class TestWorkload:
    def test_generation_is_deterministic(self):
        profile = TrafficProfile()
        a = generate_requests(profile, 100, seed=7)
        b = generate_requests(profile, 100, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        profile = TrafficProfile()
        a = generate_requests(profile, 100, seed=7)
        b = generate_requests(profile, 100, seed=8)
        assert a != b

    def test_arrivals_monotone_and_sequenced(self):
        requests = generate_requests(TrafficProfile(), 200, seed=3)
        for prev, cur in zip(requests, requests[1:]):
            assert cur.arrival_cycle >= prev.arrival_cycle
            assert cur.seq == prev.seq + 1

    def test_resumption_is_causal(self):
        """A resumed request's client issued a full handshake before."""
        requests = generate_requests(
            TrafficProfile(resumption_ratio=0.9), 300, seed=5)
        seen = set()
        resumed = 0
        for request in requests:
            if request.protocol != "ssl":
                continue
            if request.resumed:
                resumed += 1
                assert request.client_id in seen
            else:
                seen.add(request.client_id)
        assert resumed > 0

    def test_mix_respected(self):
        profile = TrafficProfile(mix={"esp": 1.0})
        requests = generate_requests(profile, 50, seed=1)
        assert {r.protocol for r in requests} == {"esp"}

    @pytest.mark.parametrize("kwargs", [
        {"arrival_rate": 0.0},
        {"arrival_rate": -1.0},
        {"resumption_ratio": 1.5},
        {"clients": 0},
        {"mix": {"quic": 1.0}},
        {"mix": {}},
        {"sizes_kb": (1, 2), "size_weights": (1,)},
    ])
    def test_profile_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrafficProfile(**kwargs)

    def test_cost_resumed_hit_cheaper_than_miss(self):
        request = SessionRequest(seq=0, arrival_cycle=0.0,
                                 protocol="ssl", size_bytes=4096,
                                 resumed=True, client_id=1)
        hit = cost_of(request, BASE_COSTS, cache_hit=True)
        miss = cost_of(request, BASE_COSTS, cache_hit=False)
        assert hit.cycles < miss.cycles
        assert hit.public_key_cycles == 0.0
        assert miss.public_key_cycles > 0.0

    def test_cost_all_protocols_positive(self):
        for protocol in ("ssl", "wtls", "esp", "wep"):
            request = SessionRequest(seq=0, arrival_cycle=0.0,
                                     protocol=protocol, size_bytes=2048,
                                     resumed=False, client_id=0)
            cost = cost_of(request, OPT_COSTS)
            assert cost.cycles > 0
            assert cost.payload_bytes == 2048

    def test_unknown_protocol_raises(self):
        request = SessionRequest(seq=0, arrival_cycle=0.0,
                                 protocol="quic", size_bytes=1024,
                                 resumed=False, client_id=0)
        with pytest.raises(ValueError):
            cost_of(request, BASE_COSTS)

    def test_public_key_heavy_classification(self):
        def req(protocol, resumed=False):
            return SessionRequest(seq=0, arrival_cycle=0.0,
                                  protocol=protocol, size_bytes=1024,
                                  resumed=resumed, client_id=0)
        assert is_public_key_heavy(req("ssl"))
        assert is_public_key_heavy(req("wtls"))
        assert not is_public_key_heavy(req("ssl", resumed=True))
        assert not is_public_key_heavy(req("esp"))
        assert not is_public_key_heavy(req("wep"))


class TestSimulator:
    def test_event_ordering_determinism(self):
        """Two identical runs produce byte-identical completions."""
        a = _run(make_scheduler("preferential"))
        b = _run(make_scheduler("preferential"))
        assert [(c.request.seq, c.core_index, c.start_cycle,
                 c.finish_cycle) for c in a.completions] == \
               [(c.request.seq, c.core_index, c.start_cycle,
                 c.finish_cycle) for c in b.completions]
        assert summarize(a).as_dict() == summarize(b).as_dict()

    def test_all_requests_served_once(self):
        result = _run(make_scheduler("round-robin"), n_requests=150)
        assert len(result.completions) == 150
        assert len({c.request.seq for c in result.completions}) == 150

    def test_timing_invariants(self):
        result = _run(make_scheduler("least-loaded"))
        for c in result.completions:
            assert c.start_cycle >= c.request.arrival_cycle
            assert c.finish_cycle == pytest.approx(
                c.start_cycle + c.service_cycles)
            assert c.latency_cycles >= c.service_cycles * (1 - 1e-12)

    def test_cores_never_overlap_service(self):
        """Per-core service intervals must not overlap (one request in
        flight per core at a time)."""
        result = _run(make_scheduler("round-robin"))
        per_core = {}
        for c in sorted(result.completions,
                        key=lambda c: (c.core_index, c.start_cycle)):
            last_end = per_core.get(c.core_index, 0.0)
            assert c.start_cycle >= last_end - 1e-6
            per_core[c.core_index] = c.finish_cycle

    def test_utilization_bounded(self):
        metrics = summarize(_run(make_scheduler("least-loaded")))
        assert all(0.0 <= u <= 1.0 + 1e-9
                   for u in metrics.core_utilization)

    def test_build_farm_composition(self):
        specs = build_farm(4, BASE_COSTS, OPT_COSTS, 0.5)
        assert [s.extended for s in specs] == [True, True, False, False]
        assert specs[0].gates == EXT_GATES
        assert specs[3].gates == BASE_CORE_GATES
        assert all(s.extended for s in build_farm(3, BASE_COSTS,
                                                  OPT_COSTS, 1.0))
        assert not any(s.extended for s in build_farm(3, BASE_COSTS,
                                                      OPT_COSTS, 0.0))

    def test_build_farm_validation(self):
        with pytest.raises(ValueError):
            build_farm(0, BASE_COSTS, OPT_COSTS)
        with pytest.raises(ValueError):
            build_farm(2, BASE_COSTS, OPT_COSTS, extended_fraction=1.5)


class TestSchedulers:
    def test_registry_and_factory(self):
        assert set(SCHEDULERS) == {"round-robin", "least-loaded",
                                   "preferential"}
        assert isinstance(make_scheduler("round-robin"),
                          RoundRobinScheduler)
        assert isinstance(make_scheduler("least-loaded"),
                          LeastLoadedScheduler)
        assert isinstance(make_scheduler("preferential"),
                          PreferentialScheduler)
        with pytest.raises(ValueError):
            make_scheduler("fifo")

    def test_round_robin_rotates(self):
        result = _run(make_scheduler("round-robin"), n_cores=4,
                      n_requests=8, rate=1.0)
        order = [c.core_index for c in
                 sorted(result.completions,
                        key=lambda c: c.request.seq)]
        assert order == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_preferential_routes_by_class(self):
        """Under light load, pk-heavy work lands on extended cores and
        bulk work on base cores."""
        result = _run(make_scheduler("preferential"), rate=5.0,
                      n_requests=120, resumption=0.0)
        ext = {c.index for c in result.cores if c.spec.extended}
        for c in result.completions:
            if is_public_key_heavy(c.request):
                assert c.core_index in ext
            else:
                assert c.core_index not in ext

    def test_preferential_homogeneous_fallback(self):
        """With no base cores, bulk work still finds a core."""
        result = _run(make_scheduler("preferential"), fraction=1.0)
        assert len(result.completions) == 200

    def test_session_cache_affinity_hits(self):
        """Under resumption traffic the preferential scheduler realizes
        abbreviated handshakes: farm-wide hit rate is positive and
        resumed requests are served where their session lives."""
        result = _run(make_scheduler("preferential"), resumption=0.6)
        metrics = summarize(result)
        assert metrics.cache_hit_rate > 0.0
        hits = [c for c in result.completions
                if c.request.resumed and c.cache_hit]
        assert hits
        for c in hits:
            sid = session_id_for_client(c.request.client_id)
            assert sid in result.cores[c.core_index].cache_for("ssl")

    def test_affinity_can_be_disabled(self):
        result = _run(PreferentialScheduler(affinity=False),
                      resumption=0.6)
        with_affinity = _run(PreferentialScheduler(affinity=True),
                             resumption=0.6)
        assert summarize(with_affinity).cache_hit_rate >= \
            summarize(result).cache_hit_rate

    def test_preferential_beats_round_robin_heterogeneous(self):
        pref = summarize(_run(make_scheduler("preferential")))
        rr = summarize(_run(make_scheduler("round-robin")))
        assert pref.sessions_per_s >= rr.sessions_per_s


class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50) == 20.0
        assert percentile(values, 100) == 40.0
        assert percentile(values, 1) == 10.0
        assert percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 0)

    def test_percentiles_ordered(self):
        metrics = summarize(_run(make_scheduler("least-loaded")))
        assert metrics.p50_ms <= metrics.p95_ms <= metrics.p99_ms
        assert metrics.sessions_per_s > 0
        assert metrics.secure_mbps > 0
        assert metrics.total_gates == 2 * EXT_GATES + 2 * BASE_CORE_GATES


class TestCapacity:
    def test_more_cores_more_throughput(self):
        """Capacity planner monotonicity, checked by simulation: at a
        fixed (overload) offered rate, adding cores of one
        configuration never lowers served sessions/s (matching the
        planner's per-configuration sizing claim)."""
        rates = []
        for n_cores in (1, 2, 4, 8):
            metrics = summarize(_run(make_scheduler("preferential"),
                                     n_cores=n_cores, rate=400.0,
                                     n_requests=300, fraction=1.0))
            rates.append(metrics.sessions_per_s)
        assert all(b >= a * 0.999 for a, b in zip(rates, rates[1:]))

    def test_cores_for_rate_monotone(self):
        targets = [1e6, 1e7, 1e8]
        needs = [cores_for_rate(OPT_COSTS, t) for t in targets]
        assert needs == sorted(needs)
        assert needs[0] >= 1
        assert cores_for_rate(OPT_COSTS, 0.0) == 0
        with pytest.raises(ValueError):
            cores_for_rate(OPT_COSTS, -1.0)

    def test_optimized_needs_fewer_cores(self):
        target = 50e6
        assert cores_for_rate(OPT_COSTS, target) < \
            cores_for_rate(BASE_COSTS, target)

    def test_farm_rate_targets_scale_with_population(self):
        targets = farm_rate_targets(populations=(1_000, 100_000))
        assert targets["100,000 users x 3G low (384 kbps)"] == \
            pytest.approx(100 * targets["1,000 users x 3G low (384 kbps)"])
        with pytest.raises(ValueError):
            farm_rate_targets(activity_factor=0.0)

    def test_capacity_table_covers_all_pairs(self):
        configs = specs_as_configs(_farm())
        targets = farm_rate_targets(populations=(1_000,))
        plans = capacity_table(configs, targets)
        assert len(plans) == len(configs) * len(targets)
        for plan in plans:
            assert plan.cores >= 1
            assert plan.farm_gates == plan.cores * dict(
                (n, g) for n, _, g in configs)[plan.config_name]

    def test_plan_farm_picks_cheapest(self):
        configs = specs_as_configs(_farm())
        best = plan_farm(1_000_000, 384e3, configs)
        # The extended core's ~13x rate advantage dwarfs its ~2.8x
        # area overhead, so the optimized configuration always wins.
        assert best.config_name == "optimized"
        assert best.cores >= 1
        with pytest.raises(ValueError):
            plan_farm(0, 384e3, configs)
