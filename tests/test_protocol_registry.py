"""The pluggable protocol registry and its consumers.

The toy-protocol test is the seam's proof: a protocol registered by a
*test* (no edits to the workload generator, simulator, or scheduler)
flows through generation, simulation, scheduling affinity, shard
merge, and trace replay exactly like the built-ins.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.costs import PlatformCosts
from repro.farm import (FarmConfig, FarmSimulator, TrafficProfile,
                        build_farm, export_workload, generate_requests,
                        import_workload, make_scheduler, run_farm,
                        summarize)
from repro.farm.workload import SessionRequest, cost_of, is_public_key_heavy
from repro.protocols import (ProtocolModel, RequestCost,
                             UnknownProtocolError, default_mix,
                             get_protocol, protocol_names,
                             register_protocol, unregister_protocol)

BASE_COSTS = PlatformCosts(
    name="base", rsa_public_cycles=631103.0,
    rsa_private_cycles=61433705.5, cipher_cycles_per_byte=703.5,
    hash_cycles_per_byte=50.84375, ecdh_cycles=4451571.0)
OPT_COSTS = PlatformCosts(
    name="optimized", rsa_public_cycles=124890.5,
    rsa_private_cycles=2139136.0, cipher_cycles_per_byte=21.375,
    hash_cycles_per_byte=50.84375, ecdh_cycles=2903293.8)


# -- the registry itself -----------------------------------------------------

def test_builtin_registration_order():
    names = protocol_names()
    # The legacy four first (their order IS the PRNG draw order that
    # keeps seeded streams and committed baselines byte-identical),
    # then the pure-registration additions.
    assert names[:4] == ("ssl", "wtls", "esp", "wep")
    assert "tls13" in names and "kasumi" in names


def test_default_mix_excludes_zero_weight():
    mix = default_mix()
    assert mix == {"ssl": 0.5, "wtls": 0.2, "esp": 0.2, "wep": 0.1}
    assert "tls13" not in mix and "kasumi" not in mix


def test_get_protocol_unknown_names_choices():
    with pytest.raises(UnknownProtocolError) as err:
        get_protocol("quic")
    assert "quic" in str(err.value)
    assert "ssl" in str(err.value)


def test_profile_rejects_unknown_mix():
    with pytest.raises(UnknownProtocolError) as err:
        TrafficProfile(mix={"ssl": 0.5, "bogus": 0.5})
    message = str(err.value)
    assert "bogus" in message and "registered" in message
    assert "tls13" in message      # the error lists what IS available


def test_abstract_model_rejects_registration():
    with pytest.raises(ValueError):
        register_protocol(ProtocolModel())


# -- the registered TLS-1.3 and KASUMI models --------------------------------

def test_tls13_resumption_skips_public_key():
    full = SessionRequest(seq=0, arrival_cycle=0.0, protocol="tls13",
                          size_bytes=2048, resumed=False, client_id=7)
    resumed = SessionRequest(seq=1, arrival_cycle=0.0, protocol="tls13",
                             size_bytes=2048, resumed=True, client_id=7)
    full_cost = cost_of(full, BASE_COSTS)
    hit = cost_of(resumed, BASE_COSTS, cache_hit=True)
    miss = cost_of(resumed, BASE_COSTS, cache_hit=False)
    assert full_cost.public_key_cycles > 0
    assert hit.public_key_cycles == 0
    assert miss.public_key_cycles == full_cost.public_key_cycles
    assert hit.cycles < full_cost.cycles
    assert is_public_key_heavy(full) and not is_public_key_heavy(resumed)


def test_kasumi_cost_uses_measured_overhead():
    request = SessionRequest(seq=0, arrival_cycle=0.0, protocol="kasumi",
                             size_bytes=3000, resumed=False, client_id=1)
    fallback = cost_of(request, BASE_COSTS)
    measured = PlatformCosts(
        name="m", rsa_public_cycles=1.0, rsa_private_cycles=1.0,
        cipher_cycles_per_byte=1.0, hash_cycles_per_byte=1.0,
        protocol_overheads={"kasumi_cycles_per_byte": 10.0})
    cheap = cost_of(request, measured)
    assert fallback.public_key_cycles == 0
    assert cheap.cycles < fallback.cycles
    assert not is_public_key_heavy(request)


# -- the price contract the farm's price table relies on ---------------------

_IDENTITY = st.tuples(st.integers(min_value=0, max_value=2 ** 40),
                      st.floats(min_value=0.0, max_value=1e12),
                      st.integers(min_value=0, max_value=2 ** 20))


@given(protocol=st.sampled_from(protocol_names()),
       size_bytes=st.integers(min_value=1, max_value=1 << 20),
       resumed=st.booleans(), cache_hit=st.booleans(),
       costs=st.sampled_from([BASE_COSTS, OPT_COSTS]),
       one=_IDENTITY, two=_IDENTITY)
def test_price_is_a_function_of_the_contract_key(
        protocol, size_bytes, resumed, cache_hit, costs, one, two):
    """Requests that differ only in seq, arrival and client cost the
    same: a farm run prices each (cost table, protocol, size,
    resumed-and-hit) once and reuses the price."""
    def request(identity):
        seq, arrival, client = identity
        return SessionRequest(seq=seq, arrival_cycle=arrival,
                              protocol=protocol, size_bytes=size_bytes,
                              resumed=resumed, client_id=client)
    model = get_protocol(protocol)
    assert (model.request_cost(request(one), costs, cache_hit=cache_hit)
            == model.request_cost(request(two), costs,
                                  cache_hit=cache_hit))


# -- the toy protocol: the zero-core-edit proof ------------------------------

class ToyProtocolModel(ProtocolModel):
    """A resumable out-of-tree protocol: flat per-byte rate, one RSA
    public op per full handshake, tuple cache keys."""

    name = "toy"
    default_mix_weight = 0.0
    resumable = True

    def request_cost(self, request, costs, cache_hit=False):
        public_key = (0.0 if request.resumed and cache_hit
                      else costs.rsa_public_cycles)
        return RequestCost(
            cycles=public_key + 12.0 * request.size_bytes,
            public_key_cycles=public_key,
            payload_bytes=request.size_bytes)

    def public_key_heavy(self, request):
        return not request.resumed

    def cache_key(self, client_id):
        return ("toy", client_id)


@pytest.fixture
def toy_protocol():
    model = ToyProtocolModel()
    register_protocol(model)
    yield model
    unregister_protocol("toy")


def test_toy_protocol_end_to_end(toy_protocol, tmp_path):
    profile = TrafficProfile(arrival_rate=80.0, resumption_ratio=0.6,
                             mix={"toy": 0.7, "wep": 0.3})
    specs = build_farm(4, BASE_COSTS, OPT_COSTS, 0.5)
    requests = generate_requests(profile, 80, seed=3)
    by_protocol = {r.protocol for r in requests}
    assert by_protocol <= {"toy", "wep"}
    assert any(r.protocol == "toy" and r.resumed for r in requests)

    # Plain simulation: toy sessions populate per-protocol caches and
    # resumed toy requests hit them.
    sim = FarmSimulator(specs, make_scheduler("preferential"))
    result = sim.run(requests)
    assert result.completions
    toy_hits = sum(core.caches["toy"].hits for core in result.cores
                   if "toy" in core.caches)
    assert toy_hits > 0
    metrics = summarize(result)
    assert metrics.session_cache["toy"]["hits"] == float(toy_hits)

    # Preferential affinity routes a resumed toy request to the core
    # holding its session, so it beats blind round-robin on hits.
    rr_hits = sum(
        core.caches["toy"].hits
        for core in FarmSimulator(
            specs, make_scheduler("round-robin")).run(requests).cores
        if "toy" in core.caches)
    assert toy_hits >= rr_hits

    # Shard merge: the sharded runner prices and merges toy traffic.
    sharded = run_farm(FarmConfig(specs=tuple(specs), shards=2,
                                  requests=requests))
    assert sharded.metrics.completed > 0

    # Replay round-trip: export -> import preserves every request.
    trace_path = tmp_path / "toy.jsonl"
    export_workload(trace_path, requests, seed=3)
    trace = import_workload(trace_path)
    assert trace.requests == list(requests)


def test_replay_rejects_unregistered_protocol(toy_protocol, tmp_path):
    profile = TrafficProfile(mix={"toy": 1.0}, resumption_ratio=0.0)
    requests = generate_requests(profile, 5, seed=1)
    trace_path = tmp_path / "toy.jsonl"
    export_workload(trace_path, requests, seed=1)
    unregister_protocol("toy")
    try:
        with pytest.raises(ValueError) as err:
            import_workload(trace_path)
        assert "toy" in str(err.value) and "registered" in str(err.value)
    finally:
        register_protocol(toy_protocol)   # fixture teardown unregisters


def test_unregister_is_idempotent():
    assert not unregister_protocol("never-registered")


# -- the run-scoped session-key memo -----------------------------------------

class CountingToyModel(ToyProtocolModel):
    """The toy protocol, counting every key derivation per client."""

    name = "toy-counting"

    def __init__(self):
        self.derived = {}

    def cache_key(self, client_id):
        self.derived[client_id] = self.derived.get(client_id, 0) + 1
        return super().cache_key(client_id)


def test_cache_key_derived_once_per_client_per_run():
    model = register_protocol(CountingToyModel())
    try:
        profile = TrafficProfile(arrival_rate=80.0, resumption_ratio=0.6,
                                 clients=12,
                                 mix={"toy-counting": 0.8, "wep": 0.2})
        requests = generate_requests(profile, 120, seed=4)
        toy = [r for r in requests if r.protocol == "toy-counting"]
        # Every served toy request either resumes (lookup + affinity)
        # or stores its session: each client's key is needed.
        keyed = {r.client_id for r in toy}
        assert any(r.resumed for r in toy) and len(keyed) > 1
        specs = build_farm(4, BASE_COSTS, OPT_COSTS, 0.5)
        scheduler = make_scheduler("preferential")
        sim = FarmSimulator(specs, scheduler)
        first = sim.run(requests)
        assert model.derived == {client: 1 for client in keyed}
        # The memo is run-scoped: a second run derives every key again
        # and reproduces the first run exactly.
        second = sim.run(requests)
        assert model.derived == {client: 2 for client in keyed}
        assert ([(c.request.seq, c.core_index, c.cache_hit)
                 for c in first.completions]
                == [(c.request.seq, c.core_index, c.cache_hit)
                    for c in second.completions])
        assert any(c.cache_hit for c in first.completions)
    finally:
        unregister_protocol("toy-counting")
