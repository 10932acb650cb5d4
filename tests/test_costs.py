"""Tests for the unified cost-estimation layer (repro.costs).

Covers the characterization cache (memo + disk store), the pluggable
backends and their cross-validation, the extended PlatformCosts
vocabulary (ECDH + per-protocol overheads), and the backward-compat
re-exports from repro.ssl.
"""

import json

import pytest

from repro.costs import (CharacterizationCache, CharacterizationKey,
                         ECDH_RSA_PUBLIC_EQUIV, IssBackend,
                         MacroModelBackend, MPN_LEAF_ROUTINES,
                         PlatformCosts, cross_validate, reset_cache)
from repro.costs import cache as cache_mod
from repro.crypto.modexp import ModExpConfig
from repro.platform import SecurityPlatform
from repro.ssl import fixtures

#: Small characterization domain so cache tests stay fast.
SMALL = dict(sizes=(1, 2, 4, 8), reps=1, modmul_overhead=False)


@pytest.fixture
def counted_characterize(monkeypatch):
    """Count real characterization passes behind the cache layer."""
    calls = []
    real = cache_mod.characterize_platform

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(cache_mod, "characterize_platform", counting)
    return calls


class TestCompatReexports:
    def test_platformcosts_import_paths_are_one_class(self):
        from repro.costs import PlatformCosts as from_costs
        from repro.costs.model import PlatformCosts as from_model
        from repro.farm.workload import PlatformCosts as from_workload
        assert from_costs is from_model is from_workload

    def test_ssl_modules_do_not_reexport_costs(self):
        import repro.ssl
        import repro.ssl.transaction
        for module in (repro.ssl, repro.ssl.transaction):
            for name in ("PlatformCosts", "PROTOCOL_CYCLES_PER_BYTE",
                         "PROTOCOL_FIXED_CYCLES"):
                assert not hasattr(module, name), (module, name)

    def test_workload_constants_still_importable(self):
        from repro.costs import CRC32_CYCLES_PER_BYTE, RC4_CYCLES_PER_BYTE
        assert RC4_CYCLES_PER_BYTE > CRC32_CYCLES_PER_BYTE > 0


class TestCharacterizationKey:
    def test_digest_is_stable(self):
        a = CharacterizationKey(add_width=8, mac_width=8)
        b = CharacterizationKey(add_width=8, mac_width=8)
        assert a == b and a.digest() == b.digest()

    def test_digest_differs_per_configuration(self):
        keys = [CharacterizationKey(),
                CharacterizationKey(add_width=8, mac_width=8),
                CharacterizationKey(add_width=8, mac_width=8, reps=3),
                CharacterizationKey(seed=1),
                CharacterizationKey(des_sbox_units=4)]
        digests = {k.digest() for k in keys}
        assert len(digests) == len(keys)


class TestCacheMemo:
    def test_memoizes_per_key(self, counted_characterize):
        cache = CharacterizationCache()
        key = CharacterizationKey(**SMALL)
        first = cache.models_for(key)
        second = cache.models_for(key)
        assert first is second
        assert len(counted_characterize) == 1
        assert cache.stats.characterizations == 1
        assert cache.stats.memo_hits == 1

    def test_distinct_keys_characterize_separately(self,
                                                   counted_characterize):
        cache = CharacterizationCache()
        cache.models_for(CharacterizationKey(**SMALL))
        cache.models_for(CharacterizationKey(add_width=8, mac_width=4,
                                             **SMALL))
        assert len(counted_characterize) == 2

    def test_disabled_cache_always_characterizes(self,
                                                 counted_characterize):
        cache = CharacterizationCache(enabled=False)
        key = CharacterizationKey(**SMALL)
        cache.models_for(key)
        cache.models_for(key)
        assert len(counted_characterize) == 2


class TestCacheDisk:
    def test_warm_store_characterizes_zero_times(self, tmp_path,
                                                 counted_characterize):
        key = CharacterizationKey(**SMALL)
        writer = CharacterizationCache(cache_dir=str(tmp_path))
        models = writer.models_for(key)
        assert len(counted_characterize) == 1
        # A fresh cache (a new process) reads the store instead.
        reader = CharacterizationCache(cache_dir=str(tmp_path))
        restored = reader.models_for(key)
        assert len(counted_characterize) == 1
        assert reader.stats.disk_hits == 1
        assert restored.platform == models.platform
        for routine in models.routines():
            for n in (1, 4, 8):
                assert restored.predict(routine, n) == \
                    pytest.approx(models.predict(routine, n))

    def test_store_is_keyed_json_built_on_persist(self, tmp_path):
        key = CharacterizationKey(**SMALL)
        cache = CharacterizationCache(cache_dir=str(tmp_path))
        cache.models_for(key)
        entry = json.loads((tmp_path / f"models-{key.digest()}.json")
                           .read_text())
        assert entry["key"] == key.as_dict()
        from repro.macromodel.persist import modelset_from_dict
        assert modelset_from_dict(entry["models"]).routines()

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path,
                                                  counted_characterize):
        key = CharacterizationKey(**SMALL)
        cache = CharacterizationCache(cache_dir=str(tmp_path))
        path = cache.path_for(key)
        cache.models_for(key)
        documents = ("{not json", "[1]", '"x"', "null")
        for count, document in enumerate(documents, start=2):
            with open(path, "w") as fh:
                fh.write(document)
            fresh = CharacterizationCache(cache_dir=str(tmp_path))
            fresh.models_for(key)
            assert len(counted_characterize) == count
            assert fresh.stats.disk_stale == 1
            # ... and the entry was rewritten cleanly.
            assert json.loads(open(path).read())["key"] == key.as_dict()

    def test_invalid_model_entry_is_a_miss(self, tmp_path,
                                           counted_characterize):
        key = CharacterizationKey(**SMALL)
        cache = CharacterizationCache(cache_dir=str(tmp_path))
        cache.models_for(key)
        path = cache.path_for(key)
        entry = json.loads(open(path).read())
        entry["models"]["models"]["mpn_add_n"]["width"] = 0
        with open(path, "w") as fh:
            json.dump(entry, fh)
        fresh = CharacterizationCache(cache_dir=str(tmp_path))
        fresh.models_for(key)
        assert len(counted_characterize) == 2
        assert fresh.stats.disk_stale == 1
        entry = json.loads(open(path).read())
        assert entry["models"]["models"]["mpn_add_n"]["width"] == 1

    def test_mismatched_schema_is_a_miss(self, tmp_path,
                                         counted_characterize):
        key = CharacterizationKey(**SMALL)
        cache = CharacterizationCache(cache_dir=str(tmp_path))
        cache.models_for(key)
        path = cache.path_for(key)
        entry = json.loads(open(path).read())
        entry["schema"] = 99
        with open(path, "w") as fh:
            json.dump(entry, fh)
        fresh = CharacterizationCache(cache_dir=str(tmp_path))
        fresh.models_for(key)
        assert len(counted_characterize) == 2


class TestSharedCostBuild:
    """The acceptance regression: one characterization per config."""

    def test_measure_twice_characterizes_once(self, counted_characterize,
                                              monkeypatch):
        monkeypatch.delenv(cache_mod.CACHE_DIR_ENV, raising=False)
        reset_cache()
        first = PlatformCosts.measure(SecurityPlatform.base(),
                                      fixtures.SERVER_512)
        second = PlatformCosts.measure(SecurityPlatform.base(),
                                       fixtures.SERVER_512)
        assert len(counted_characterize) == 1
        assert first.rsa_public_cycles == second.rsa_public_cycles
        assert first.ecdh_cycles == pytest.approx(second.ecdh_cycles)

    def test_cli_ssl_warm_cache_zero_characterizations(
            self, tmp_path, capsys, counted_characterize, monkeypatch):
        from repro.cli import main
        monkeypatch.delenv(cache_mod.CACHE_DIR_ENV, raising=False)
        reset_cache()
        assert main(["ssl", "--sizes", "1", "--json",
                     "--cache-dir", str(tmp_path)]) == 0
        cold = len(counted_characterize)
        assert cold == 2        # base + extended, exactly once each
        assert json.loads(capsys.readouterr().out)["results"]["rows"]
        # Simulate a new process against the warm store.
        reset_cache()
        assert main(["ssl", "--sizes", "1", "--json",
                     "--cache-dir", str(tmp_path)]) == 0
        assert len(counted_characterize) == cold   # zero new passes
        assert json.loads(capsys.readouterr().out)["results"]["rows"]


class TestPlatformCostsVocabulary:
    def test_measured_costs_include_ecdh(self):
        base = PlatformCosts.measure(SecurityPlatform.base(),
                                     fixtures.SERVER_512)
        opt = PlatformCosts.measure(SecurityPlatform.optimized(),
                                    fixtures.SERVER_512)
        assert base.ecdh_cycles and opt.ecdh_cycles
        # TIE extensions help EC far less than RSA: the ECDH gain is
        # well under the RSA-private gain.
        ecdh_gain = base.ecdh_cycles / opt.ecdh_cycles
        rsa_gain = base.rsa_private_cycles / opt.rsa_private_cycles
        assert 1.0 < ecdh_gain < rsa_gain

    def test_ecdh_fallback_documented_equivalence(self):
        costs = PlatformCosts(name="hand-built", rsa_public_cycles=1e6,
                              rsa_private_cycles=1e7,
                              cipher_cycles_per_byte=100.0,
                              hash_cycles_per_byte=50.0)
        assert costs.ecdh_handshake_cycles() == \
            pytest.approx(ECDH_RSA_PUBLIC_EQUIV * 1e6)

    def test_workload_prices_wtls_through_costs(self):
        from repro.farm.workload import SessionRequest, cost_of
        measured = PlatformCosts(name="m", rsa_public_cycles=1e6,
                                 rsa_private_cycles=1e7,
                                 cipher_cycles_per_byte=100.0,
                                 hash_cycles_per_byte=50.0,
                                 ecdh_cycles=3e6)
        assert measured.ecdh_handshake_cycles() == 3e6
        request = SessionRequest(seq=0, arrival_cycle=0.0,
                                 protocol="wtls", size_bytes=1024,
                                 resumed=False, client_id=0)
        assert cost_of(request, measured).public_key_cycles == 3e6

    def test_per_protocol_overheads_are_fields(self):
        from repro.farm.workload import SessionRequest, cost_of
        cheap = PlatformCosts(name="c", rsa_public_cycles=1e6,
                              rsa_private_cycles=1e7,
                              cipher_cycles_per_byte=100.0,
                              hash_cycles_per_byte=50.0,
                              rc4_cycles_per_byte=1.0,
                              wep_frame_fixed_cycles=0.0)
        dear = PlatformCosts(name="d", rsa_public_cycles=1e6,
                             rsa_private_cycles=1e7,
                             cipher_cycles_per_byte=100.0,
                             hash_cycles_per_byte=50.0,
                             rc4_cycles_per_byte=100.0,
                             wep_frame_fixed_cycles=5000.0)
        request = SessionRequest(seq=0, arrival_cycle=0.0,
                                 protocol="wep", size_bytes=2048,
                                 resumed=False, client_id=0)
        assert cost_of(request, cheap).cycles < \
            cost_of(request, dear).cycles

    def test_platform_costs_convenience(self):
        costs = SecurityPlatform.base().costs(fixtures.SERVER_512)
        assert isinstance(costs, PlatformCosts)
        assert costs.name == "base"


class TestBackends:
    def test_macro_vs_iss_agree_on_matched_modexp(self):
        """Operation-level check: on a platform whose software config
        matches the ISS kernel's algorithm (Montgomery, binary, no
        CRT), the two backends price an RSA public op within the
        validated band."""
        platform = SecurityPlatform(
            "iss-match",
            ModExpConfig(modmul="montgomery", window=1, crt="none"))
        macro = MacroModelBackend().rsa_public_cycles(
            platform, fixtures.SERVER_512)
        iss = IssBackend().rsa_public_cycles(platform, fixtures.SERVER_512)
        assert abs(macro - iss) / iss < 0.25

    def test_iss_backend_declines_ecdh(self):
        with pytest.raises(NotImplementedError):
            IssBackend().ecdh_cycles(SecurityPlatform.base())

    def test_iss_leaf_cycles_deterministic(self):
        a = IssBackend().leaf_cycles("mpn_addmul_1", 8)
        b = IssBackend().leaf_cycles("mpn_addmul_1", 8)
        assert a == b > 0

    def test_iss_leaf_cycles_pinned(self):
        # Mean of the default two seeded 8-limb stimuli per routine;
        # mpn_rshift is measured on the mpn_lshift kernel.
        pinned = {"mpn_add_n": 140.0, "mpn_sub_n": 140.0,
                  "mpn_mul_1": 132.0, "mpn_addmul_1": 172.0,
                  "mpn_submul_1": 172.0, "mpn_lshift": 102.0,
                  "mpn_rshift": 102.0}
        assert set(pinned) == set(MPN_LEAF_ROUTINES) | {"mpn_rshift"}
        backend = IssBackend()
        assert {r: backend.leaf_cycles(r, 8) for r in pinned} == pinned
        with pytest.raises(NotImplementedError, match="mpn_divrem"):
            backend.leaf_cycles("mpn_divrem", 8)


class TestCrossValidation:
    def test_reports_mpn_leaf_error(self):
        report = cross_validate(sizes=(2, 4, 8, 16), reps=1)
        assert {r.routine for r in report.rows} == set(MPN_LEAF_ROUTINES)
        assert 0.0 <= report.mean_abs_pct_error < 25.0
        payload = report.as_dict()
        assert payload["platform"] == "base"
        assert len(payload["routines"]) == len(MPN_LEAF_ROUTINES)

    def test_extended_platform_validates_too(self):
        report = cross_validate(add_width=8, mac_width=8,
                                routines=("mpn_add_n", "mpn_addmul_1"),
                                sizes=(4, 8, 16), reps=1)
        assert report.platform == "ext(add8,mac8)"
        assert report.mean_abs_pct_error < 25.0

    def test_empty_report_raises(self):
        from repro.costs import CrossValidation
        with pytest.raises(ValueError):
            CrossValidation(platform="x").mean_abs_pct_error
