"""Tests for the multi-core security-processor farm.

Uses canned :class:`PlatformCosts` (the measured base/optimized unit
costs, frozen) so no ISS characterization runs -- the farm layer is a
pure function of these numbers.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.farm import (FarmSimulator, FaultEvent, FaultPlan,
                        LeastLoadedScheduler,
                        PreferentialScheduler, RoundRobinScheduler,
                        SCHEDULERS, SessionRequest, TrafficProfile,
                        build_farm, capacity_table, cores_for_rate,
                        cost_of, farm_rate_targets, generate_requests,
                        is_public_key_heavy, make_scheduler, percentile,
                        plan_farm, session_id_for_client,
                        specs_as_configs, summarize)
from repro.farm.faults import FAULT_KINDS
from repro.farm.metrics import percentiles
from repro.farm.scheduler import Scheduler
from repro.farm.simulator import BASE_CORE_GATES, Core, extension_gates
from repro.farm.workload import _generate_stream
from repro.mp import DeterministicPrng
from repro.protocols import (ProtocolModel, RequestCost, get_protocol,
                             register_protocol, unregister_protocol)
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

    def test_request_is_an_immutable_record(self):
        import pickle
        request = SessionRequest(seq=3, arrival_cycle=1.5, protocol="ssl",
                                 size_bytes=2048, resumed=True,
                                 client_id=9)
        assert (request.seq, request.client_id) == (3, 9)
        assert pickle.loads(pickle.dumps(request)) == request
        assert hash(request) == hash(SessionRequest(3, 1.5, "ssl", 2048,
                                                    True, 9))
        with pytest.raises(AttributeError):
            request.resumed = False

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
        {"sizes_kb": (), "size_weights": ()},
        {"mix": {"ssl": 2.0, "esp": -1.0}},
        {"mix": {"ssl": 1.0, "wep": math.nan}},
        {"mix": {"ssl": math.inf}},
        {"sizes_kb": (1, 2), "size_weights": (3, -1)},
        {"sizes_kb": (1, 2), "size_weights": (1, math.nan)},
    ])
    def test_profile_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrafficProfile(**kwargs)

    def test_bad_weights_are_named(self):
        with pytest.raises(ValueError, match="mix weight for 'esp'"):
            TrafficProfile(mix={"ssl": 2.0, "esp": -1.0})
        with pytest.raises(ValueError, match="size weight for 2 KB"):
            TrafficProfile(sizes_kb=(1, 2), size_weights=(1, math.nan))

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


def _legacy_stream(profile, n_requests, prng, arrival_rate, clock_hz,
                   seq_base=0, seq_stride=1, client_base=0,
                   client_stride=1, client_space=None):
    """The request draw loop as first written, one helper call per
    uniform and weighted draw: the oracle ``_generate_stream`` must
    reproduce request for request."""

    def uniform():
        return (prng.next_u64() + 1) / 2.0 ** 64

    def weighted_choice(items, weights):
        total = float(sum(weights))
        u = uniform() * total
        acc = 0.0
        for item, w in zip(items, weights):
            acc += w
            if u <= acc:
                return item
        return items[-1]

    if client_space is None:
        client_space = profile.clients
    protocols = tuple(profile.mix)
    weights = tuple(profile.mix[p] for p in protocols)
    handshaken = {name: set() for name in protocols
                  if get_protocol(name).resumable}
    requests = []
    arrival_s = 0.0
    for k in range(n_requests):
        arrival_s += -math.log(uniform()) / arrival_rate
        protocol = weighted_choice(protocols, weights)
        size_kb = weighted_choice(profile.sizes_kb, profile.size_weights)
        client = client_base + client_stride * (prng.next_u64()
                                                % client_space)
        resumed = False
        history = handshaken.get(protocol)
        if history is not None:
            if client in history and uniform() <= profile.resumption_ratio:
                resumed = True
            else:
                history.add(client)
        requests.append(SessionRequest(
            seq=seq_base + seq_stride * k,
            arrival_cycle=arrival_s * clock_hz, protocol=protocol,
            size_bytes=size_kb * 1024, resumed=resumed,
            client_id=client))
    return requests


#: Profiles whose draws the generator must keep: the stock mix, zero
#: weights first, inside and last, fractional weights whose running
#: sums round, a resumable protocol added after the legacy four, and
#: certain or impossible resumption.
COMPAT_PROFILES = [
    TrafficProfile(),
    TrafficProfile(mix={"wep": 0.0, "ssl": 3.0, "esp": 0.0, "wtls": 1.0},
                   resumption_ratio=0.7, clients=8),
    TrafficProfile(mix={"ssl": 0.1, "wtls": 0.2, "esp": 0.3, "wep": 0.7,
                        "tls13": 0.1},
                   sizes_kb=(1, 4, 16, 64), size_weights=(0.0, 0.1, 0.2, 0.3),
                   resumption_ratio=1.0, clients=3),
    TrafficProfile(mix={"esp": 1.0, "ssl": 0.0}, resumption_ratio=0.0,
                   sizes_kb=(2, 8), size_weights=(1, 0)),
]


class TestGeneratorCompatibility:
    """``_generate_stream`` draws exactly what the helper-call loop it
    replaced drew: same PRNG calls, same float comparisons, and the
    stream left where that loop left it."""

    @pytest.mark.parametrize("seed", [1, 7, 2 ** 63 + 5])
    @pytest.mark.parametrize("profile", COMPAT_PROFILES,
                             ids=["stock", "zeros", "fractions",
                                  "bulk-only"])
    def test_matches_legacy_loop(self, profile, seed):
        stream = DeterministicPrng(seed)
        legacy = DeterministicPrng(seed)
        got = _generate_stream(profile, 400, stream,
                               profile.arrival_rate, DEFAULT_CLOCK_HZ)
        want = _legacy_stream(profile, 400, legacy,
                              profile.arrival_rate, DEFAULT_CLOCK_HZ)
        assert got == want
        assert got == generate_requests(profile, 400, seed=seed)
        assert stream.next_u64() == legacy.next_u64()

    @pytest.mark.parametrize("n_requests", [0, 1, 2, 5, 37])
    @pytest.mark.parametrize("profile", COMPAT_PROFILES,
                             ids=["stock", "zeros", "fractions",
                                  "bulk-only"])
    def test_short_streams_leave_the_prng_exact(self, profile,
                                                n_requests):
        """Streams whose last requests draw for resumption end on
        the buffer's edge, where no block may overshoot."""
        stream = DeterministicPrng(11)
        legacy = DeterministicPrng(11)
        got = _generate_stream(profile, n_requests, stream, 50.0,
                               DEFAULT_CLOCK_HZ)
        want = _legacy_stream(profile, n_requests, legacy, 50.0,
                              DEFAULT_CLOCK_HZ)
        assert got == want
        assert stream.next_u64() == legacy.next_u64()

    @pytest.mark.parametrize("shard, shards", [(0, 2), (1, 3), (4, 5)])
    def test_matches_legacy_loop_sharded(self, shard, shards):
        profile = TrafficProfile(resumption_ratio=0.6, clients=40)
        # Clients in residue class ``shard``, as shard_workload maps them.
        space = (profile.clients - shard + shards - 1) // shards
        stream = DeterministicPrng(3).fork(f"shard[{shard}]")
        legacy = DeterministicPrng(3).fork(f"shard[{shard}]")
        mapping = dict(seq_base=shard, seq_stride=shards,
                       client_base=shard, client_stride=shards,
                       client_space=space)
        got = _generate_stream(profile, 300, stream, 90.0,
                               DEFAULT_CLOCK_HZ, **mapping)
        want = _legacy_stream(profile, 300, legacy, 90.0,
                              DEFAULT_CLOCK_HZ, **mapping)
        assert got == want
        assert stream.next_u64() == legacy.next_u64()
        assert {r.client_id % shards for r in got} == {shard}
        assert any(r.resumed for r in got)


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

    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_every_core_down_is_a_named_error(self, name):
        cores = [Core(i, spec) for i, spec in enumerate(_farm())]
        for core in cores:
            core.up = False
        request = SessionRequest(seq=0, arrival_cycle=0.0,
                                 protocol="ssl", size_bytes=1024,
                                 resumed=False, client_id=0)
        with pytest.raises(RuntimeError,
                           match="no live core to dispatch to"):
            make_scheduler(name).select(request, cores, 0.0)

    @pytest.mark.parametrize("name", ["least-loaded", "preferential"])
    def test_core_finishing_now_counts_as_idle(self, free_protocol,
                                               name):
        """A core whose ``busy_until`` equals the arrival cycle has a
        backlog of exactly 0.0 while its request is still in flight
        (arrivals sort before same-cycle completions), so it wins over
        a higher-index core with nothing in flight."""
        requests = [_free_req(0, 0.0), _free_req(1, 0.0)]
        result = FarmSimulator(_farm(3, 0.0), make_scheduler(name)).run(
            requests)
        assert [c.core_index for c in result.completions] == [0, 0]


#: Arrival and fault spacing of the dispatch property test: coarse
#: enough that handshakes queue, exact in binary floating point.
GRID = 1e6


class FreeProtocolModel(ProtocolModel):
    """Prices every request at zero cycles: the core serving one stays
    busy until the very cycle it started."""

    name = "free"
    default_mix_weight = 0.0

    def request_cost(self, request, costs, cache_hit=False):
        return RequestCost(cycles=0.0, public_key_cycles=0.0,
                           payload_bytes=request.size_bytes)

    def public_key_heavy(self, request):
        return not request.resumed


class GridProtocolModel(FreeProtocolModel):
    """Prices every request at exactly one :data:`GRID` step."""

    name = "grid"

    def request_cost(self, request, costs, cache_hit=False):
        return RequestCost(cycles=GRID, public_key_cycles=0.0,
                           payload_bytes=request.size_bytes)


@pytest.fixture(scope="module")
def free_protocol():
    register_protocol(FreeProtocolModel())
    register_protocol(GridProtocolModel())
    yield
    unregister_protocol("free")
    unregister_protocol("grid")


def _req(seq, arrival, protocol):
    return SessionRequest(seq=seq, arrival_cycle=arrival,
                          protocol=protocol, size_bytes=64,
                          resumed=False, client_id=seq)


def _free_req(seq, arrival):
    return _req(seq, arrival, "free")


def _scan(cores, now, indices):
    """The full-scan least-loaded pick the production scan reproduces."""
    live = [i for i in indices if cores[i].up]
    return min(live, key=lambda i: (cores[i].backlog_cycles(now), i))


class ScanLeastLoaded(Scheduler):
    def select(self, request, cores, now):
        return _scan(cores, now, range(len(cores)))


def _scan_affine(request, cores):
    """The lowest-index live core whose cache holds the request's
    session, found by probing every core."""
    model = get_protocol(request.protocol)
    if not (request.resumed and model.resumable):
        return None
    key = model.cache_key(request.client_id)
    for core in cores:
        if core.up and core.knows_session(key, request.protocol):
            return core.index
    return None


class ScanPreferential(Scheduler):
    """Pools rebuilt and every candidate probed on each dispatch."""

    def select(self, request, cores, now):
        affine = _scan_affine(request, cores)
        if affine is not None:
            return affine
        extended = [c.index for c in cores
                    if c.up and c.spec.extended and not c.degraded]
        base = [c.index for c in cores
                if c.up and not (c.spec.extended and not c.degraded)]
        preferred = extended if is_public_key_heavy(request) else base
        return _scan(cores, now, preferred or base or extended)


#: Each production least-loaded policy with its full-scan reference.
REFERENCES = {"least-loaded": ScanLeastLoaded,
              "preferential": ScanPreferential}


def _timeline(result):
    return [(c.request.seq, c.core_index, c.start_cycle, c.finish_cycle)
            for c in result.completions]


def _ssl(seq, arrival, client, resumed=False, size=1024):
    return SessionRequest(seq=seq, arrival_cycle=arrival, protocol="ssl",
                          size_bytes=size, resumed=resumed,
                          client_id=client)


def _checked_run(specs, name, requests):
    """Run ``name`` over ``requests`` and check it against the full-scan
    reference; returns ``seq -> completion``."""
    got = FarmSimulator(specs, make_scheduler(name)).run(requests)
    want = FarmSimulator(specs, REFERENCES[name]()).run(requests)
    assert _timeline(got) == _timeline(want)
    return {c.request.seq: c for c in got.completions}


class TestDispatchExactness:
    """Idle-first dispatch over cached pools picks exactly the core the
    full ``(backlog, index)`` scan picks, faults and reuse included."""

    @settings(max_examples=60)
    @given(n_cores=st.integers(1, 12),
           fraction=st.floats(0.0, 1.0),
           draws=st.lists(st.tuples(
               st.integers(0, 3),      # grid steps since the last arrival
               st.sampled_from(["ssl", "wtls", "esp", "wep", "free"]),
               st.sampled_from([64, 1024, 8192]),
               st.booleans(),          # resumed
               st.integers(0, 5)),     # client
               min_size=1, max_size=40),
           faults=st.lists(st.tuples(st.integers(0, 60),
                                     st.sampled_from(FAULT_KINDS),
                                     st.integers(0, 11)), max_size=8),
           penalty=st.sampled_from([0.0, GRID, 2000.0]),
           degrade=st.booleans())
    def test_matches_full_scan(self, free_protocol, n_cores, fraction,
                               draws, faults, penalty, degrade):
        specs = _farm(n_cores, fraction)
        requests, arrival = [], 0.0
        for seq, (steps, protocol, size, resumed, client) in enumerate(
                draws):
            arrival += steps * GRID
            requests.append(SessionRequest(
                seq=seq, arrival_cycle=arrival, protocol=protocol,
                size_bytes=size, resumed=resumed, client_id=client))
        plan = FaultPlan(
            events=tuple(FaultEvent(cycle=steps * GRID, kind=kind,
                                    core=core % n_cores)
                         for steps, kind, core in faults),
            redispatch_penalty_cycles=penalty,
            degraded_costs=BASE_COSTS if degrade else None)
        for name, reference in (("least-loaded", ScanLeastLoaded),
                                ("preferential", ScanPreferential)):
            scheduler = make_scheduler(name)
            # One instance for both runs: the second must not reuse
            # pools the first run's faults left behind.
            for run_plan in (plan, None):
                got = FarmSimulator(specs, scheduler,
                                    faults=run_plan).run(requests)
                want = FarmSimulator(specs, reference(),
                                     faults=run_plan).run(requests)
                assert _timeline(got) == _timeline(want)


    @pytest.mark.parametrize("name", ["least-loaded", "preferential"])
    def test_core_waking_at_now_counts_as_idle(self, free_protocol,
                                               name):
        """A core seen busy at an earlier pick, whose work ends exactly
        at the arrival cycle, is idle again at that cycle."""
        requests = [SessionRequest(seq=k, arrival_cycle=arrival,
                                   protocol="grid", size_bytes=64,
                                   resumed=False, client_id=k)
                    for k, arrival in enumerate((0.0, GRID / 2, GRID))]
        by_seq = _checked_run(_farm(3, 0.0), name, requests)
        assert [by_seq[k].core_index for k in range(3)] == [0, 1, 0]

    @pytest.mark.parametrize("name", ["least-loaded", "preferential"])
    def test_busy_pool_falls_back_to_scan(self, name):
        """With every core of the pool busy, the pick is the smallest
        backlog, not the lowest index."""
        # Three ESP bursts of falling size occupy the three base cores
        # at cycle 0; the fourth request waits least on core 2.
        requests = [SessionRequest(seq=k, arrival_cycle=0.0,
                                   protocol="esp", size_bytes=size,
                                   resumed=False, client_id=k)
                    for k, size in enumerate((8192, 4096, 1024, 64))]
        by_seq = _checked_run(_farm(3, 0.0), name, requests)
        assert [by_seq[k].core_index for k in range(4)] == [0, 1, 2, 2]

    def test_each_request_served_at_its_price(self):
        """A miss is served at the dispatch-time estimate, a cache hit
        at the abbreviated-handshake price."""
        requests = [_ssl(0, 0.0, 7), _ssl(1, 1e9, 7, resumed=True),
                    _ssl(2, 2e9, 8, resumed=True)]
        result = FarmSimulator(_farm(2, 0.0),
                               make_scheduler("preferential")).run(requests)
        by_seq = {c.request.seq: c for c in result.completions}
        assert [by_seq[k].cache_hit for k in range(3)] == [False, True,
                                                           False]
        for k in range(3):
            assert by_seq[k].service_cycles == cost_of(
                requests[k], BASE_COSTS,
                cache_hit=by_seq[k].cache_hit).cycles

    def test_busy_preferred_pool_falls_back_within_pool(self):
        """Full handshakes fill both extended cores; the next one joins
        the shorter extended queue rather than an idle base core."""
        requests = [_ssl(0, 0.0, 0, size=8192), _ssl(1, 0.0, 1, size=64),
                    _ssl(2, 0.0, 2)]
        by_seq = _checked_run(_farm(4, 0.5), "preferential", requests)
        assert [by_seq[k].core_index for k in range(3)] == [0, 1, 1]

    def test_affinity_pick_leaves_idle_index(self):
        """A resumed request sent to its idle affine core makes that
        core busy: the next least-loaded picks pass it over."""
        gap = 1e9       # far longer than a full handshake on a base core
        requests = [_ssl(0, 0.0, 0), _ssl(1, 0.0, 1),
                    # Client 1's session lives on core 1, which is idle
                    # but not the lowest-index idle core.
                    _ssl(2, gap, 1, resumed=True),
                    _ssl(3, gap, 2), _ssl(4, gap, 3)]
        by_seq = _checked_run(_farm(3, 0.0), "preferential", requests)
        assert [by_seq[k].core_index for k in range(5)] == [0, 1, 1, 0, 2]
        assert by_seq[2].cache_hit

    @pytest.mark.parametrize("later_sessions, evicted", [(127, False),
                                                         (128, True)])
    def test_evicted_session_is_not_routed_to(self, later_sessions,
                                              evicted):
        """Core 0 stores client 1000's session, then ``later_sessions``
        more; the 128-entry LRU cache evicts it at the 128th.  A
        resumed request then follows its session to a busy core 0 only
        while the session is still cached there."""
        gap = 1e9
        requests = [_ssl(0, 0.0, 1000)]
        requests += [_ssl(1 + k, (1 + k) * gap, k)
                     for k in range(later_sessions)]
        t = (later_sessions + 2) * gap
        n = len(requests)
        # An ESP burst keeps core 0 busy at t without storing a session.
        requests += [SessionRequest(seq=n, arrival_cycle=t, protocol="esp",
                                    size_bytes=8192, resumed=False,
                                    client_id=999),
                     _ssl(n + 1, t, 1000, resumed=True)]
        by_seq = _checked_run(_farm(2, 0.0), "preferential", requests)
        assert all(by_seq[k].core_index == 0 for k in range(n + 1))
        resumed = by_seq[n + 1]
        assert resumed.core_index == (1 if evicted else 0)
        assert resumed.cache_hit is not evicted

    @pytest.mark.parametrize("name", ["least-loaded", "preferential"])
    def test_scheduler_reused_across_farms(self, name):
        """One scheduler serves farms of different sizes in turn; each
        run matches a fresh full-scan reference."""
        requests = generate_requests(
            TrafficProfile(arrival_rate=400.0, resumption_ratio=0.5,
                           clients=16), 300, seed=5)
        scheduler = make_scheduler(name)
        for n_cores, fraction in ((6, 0.5), (3, 0.34), (8, 0.25),
                                  (6, 0.5)):
            specs = _farm(n_cores, fraction)
            got = FarmSimulator(specs, scheduler).run(requests)
            want = FarmSimulator(specs, REFERENCES[name]()).run(requests)
            assert _timeline(got) == _timeline(want)


class TestInlineIdleTest:
    """Edge cases of the idle test dispatch makes without probing
    backlogs, each checked against the full-scan reference."""

    @pytest.mark.parametrize("name", ["least-loaded", "preferential"])
    def test_zero_cycle_queue_behind_work_ending_now_is_idle(
            self, free_protocol, name):
        """A core whose work ends at the arrival cycle, with only
        zero-cycle requests queued behind it, has a backlog of exactly
        0.0: it is idle, and beats a higher-index core that is idle
        with an empty queue."""
        requests = [_req(0, 0.0, "grid"), _req(1, 0.0, "grid"),
                    _req(2, 0.0, "grid"), _req(3, 0.0, "grid"),
                    _req(4, GRID / 2, "free"), _req(5, GRID / 2, "free"),
                    _req(6, GRID, "grid")]
        by_seq = _checked_run(_farm(3, 0.0), name, requests)
        # Core 0 holds a queued grid step at GRID; core 1 queued the
        # two free requests; core 2 finished at GRID with none.
        assert [by_seq[k].core_index for k in range(7)] == [
            0, 1, 2, 0, 1, 1, 1]

    @pytest.mark.parametrize("name", ["least-loaded", "preferential"])
    def test_core_busy_one_ulp_past_now_is_busy(self, free_protocol,
                                                name):
        """A core busy until one ulp after the arrival cycle is not
        idle; at the cycle its work ends, it is."""
        requests = [_req(0, 0.0, "grid"),
                    _req(1, math.nextafter(GRID, 0.0), "grid"),
                    _req(2, GRID, "grid")]
        by_seq = _checked_run(_farm(3, 0.0), name, requests)
        assert [by_seq[k].core_index for k in range(3)] == [0, 1, 0]

    @pytest.mark.parametrize("name", ["least-loaded", "preferential"])
    def test_every_core_busy_scans_backlogs(self, free_protocol, name,
                                            monkeypatch):
        """With every core busy no idle entry exists, so each pick is
        the fallback scan's: smallest backlog, lowest index on a tie,
        zero-cycle requests adding nothing."""
        requests = ([_req(k, 0.0, "grid") for k in range(3)]
                    + [_req(3, GRID / 2, "free"),
                       _req(4, GRID / 2, "grid"),
                       _req(5, GRID / 2, "free"),
                       _req(6, GRID / 2, "grid"),
                       _req(7, GRID / 2, "grid")])
        by_seq = _checked_run(_farm(3, 0.0), name, requests)
        assert [by_seq[k].core_index for k in range(8)] == [
            0, 1, 2, 0, 0, 1, 1, 2]
        probes = []
        backlog = Core.backlog_cycles
        monkeypatch.setattr(Core, "backlog_cycles",
                            lambda core, now: probes.append(now)
                            or backlog(core, now))
        FarmSimulator(_farm(3, 0.0), make_scheduler(name)).run(requests)
        # The scan probes all three cores at each of the five picks.
        assert probes.count(GRID / 2) == 15


class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50) == 20.0
        assert percentile(values, 100) == 40.0
        assert percentile(values, 1) == 10.0
        assert percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 0)

    @settings(max_examples=200)
    @given(values=st.lists(st.floats(allow_nan=False), max_size=60),
           pcts=st.lists(st.floats(0.0, 100.0, exclude_min=True),
                         min_size=1, max_size=5))
    def test_percentiles_match_percentile(self, values, pcts):
        assert percentiles(values, pcts) == [percentile(values, pct)
                                             for pct in pcts]

    def test_summary_percentiles_match_percentile(self):
        result = _run(make_scheduler("preferential"), n_requests=300)
        metrics = summarize(result)
        latencies = [c.latency_cycles / result.clock_hz * 1e3
                     for c in result.completions]
        assert (metrics.p50_ms, metrics.p95_ms, metrics.p99_ms) == tuple(
            percentile(latencies, pct) for pct in (50, 95, 99))

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
