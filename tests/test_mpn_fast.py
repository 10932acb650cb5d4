"""Equivalence suite for the flat mpn fast path.

:mod:`repro.mp.mpn_fast` must match the reference loops on **values**
and on **trace sequences** (names, order, size parameters) -- the
latter is what keeps macro-model cycle estimates, and therefore every
recorded baseline, byte-identical under the fast backend.

The reference side of every comparison runs inside
``mpn_backend("reference")``, so the oracle stays the reference loops
even when ``$REPRO_MPN_BACKEND=fast`` makes the flat path the default.
"""

import os
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.mp import MPN_BACKEND_ENV, Mpz, active_backend, mpn_backend
from repro.mp import mpn, mpn_fast
from repro.mp.hooks import traced
from repro.mp.limb import RADIX16, RADIX32

RADICES = (RADIX32, RADIX16)

limb32 = st.integers(0, RADIX32.mask)
nonneg = st.integers(min_value=0, max_value=(1 << 512) - 1)
positive = st.integers(min_value=1, max_value=(1 << 512) - 1)


def traced_call(fn, *args, **kwargs):
    """Run ``fn`` capturing (result, [(trace name, params), ...])."""
    calls = []
    with traced(lambda name, params: calls.append(
            (name, tuple(sorted(params.items()))))):
        result = fn(*args, **kwargs)
    return result, calls


def reference_call(fn, *args, **kwargs):
    """:func:`traced_call` pinned to the reference loops."""
    with mpn_backend("reference"):
        return traced_call(fn, *args, **kwargs)


def assert_equivalent(reference, fast, *args, radix=RADIX32):
    ref = reference_call(reference, *args, radix)
    got = traced_call(fast, *args, radix)
    assert ref == got


def vec_strategy(radix, min_size=1, max_size=12):
    return st.lists(st.integers(0, radix.mask),
                    min_size=min_size, max_size=max_size)


# ---------------------------------------------------------------------------
# Per-function parity (values + traces), both radices
# ---------------------------------------------------------------------------

class TestLeafParity:
    @pytest.mark.parametrize("radix", RADICES, ids=("r32", "r16"))
    @given(data=st.data())
    @settings(max_examples=60)
    def test_addmul_1(self, radix, data):
        n = data.draw(st.integers(1, 10))
        rp = data.draw(vec_strategy(radix, n, n))
        up = data.draw(vec_strategy(radix, n, n))
        v = data.draw(st.integers(0, radix.mask))
        assert_equivalent(mpn.addmul_1, mpn_fast.addmul_1, rp, up, v,
                          radix=radix)

    def test_addmul_1_length_mismatch(self):
        with pytest.raises(ValueError):
            mpn_fast.addmul_1([1, 2], [1], 3)

    @pytest.mark.parametrize("radix", RADICES, ids=("r32", "r16"))
    @given(data=st.data())
    @settings(max_examples=60)
    def test_addmul_1_into(self, radix, data):
        n = data.draw(st.integers(1, 8))
        offset = data.draw(st.integers(0, 3))
        rp = data.draw(vec_strategy(radix, offset + n, offset + n + 4))
        up = data.draw(vec_strategy(radix, n, n))
        v = data.draw(st.integers(0, radix.mask))
        ref_rp, fast_rp = list(rp), list(rp)
        ref = reference_call(mpn._addmul_1_into, ref_rp, offset, up, v,
                             radix)
        got = traced_call(mpn_fast._addmul_1_into, fast_rp, offset, up, v,
                          radix)
        assert ref == got and ref_rp == fast_rp

    @pytest.mark.parametrize("radix", RADICES, ids=("r32", "r16"))
    @given(data=st.data())
    @settings(max_examples=60)
    def test_mul_basecase(self, radix, data):
        up = data.draw(vec_strategy(radix))
        vp = data.draw(vec_strategy(radix))
        assert_equivalent(mpn.mul_basecase, mpn_fast.mul_basecase,
                          up, vp, radix=radix)

    @pytest.mark.parametrize("radix", RADICES, ids=("r32", "r16"))
    @given(data=st.data())
    @settings(max_examples=40)
    def test_sqr(self, radix, data):
        # Sizes straddle KARATSUBA_THRESHOLD to cover both the flat
        # base case and the delegated Karatsuba path.
        up = data.draw(vec_strategy(radix, 1,
                                    2 * mpn.KARATSUBA_THRESHOLD + 4))
        assert_equivalent(mpn.sqr, mpn_fast.sqr, up, radix=radix)

    @pytest.mark.parametrize("radix", RADICES, ids=("r32", "r16"))
    @given(data=st.data())
    @settings(max_examples=60)
    def test_divrem_1(self, radix, data):
        up = data.draw(vec_strategy(radix))
        v = data.draw(st.integers(1, radix.mask))
        assert_equivalent(mpn.divrem_1, mpn_fast.divrem_1, up, v,
                          radix=radix)

    def test_divrem_1_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            mpn_fast.divrem_1([1], 0)

    @pytest.mark.parametrize("radix", RADICES, ids=("r32", "r16"))
    @given(data=st.data())
    @settings(max_examples=80)
    def test_divrem(self, radix, data):
        up = data.draw(vec_strategy(radix, 1, 14))
        vp = data.draw(vec_strategy(radix, 1, 8))
        if mpn.normalize(vp) == [0]:
            vp[-1] = data.draw(st.integers(1, radix.mask))
        assert_equivalent(mpn.divrem, mpn_fast.divrem, up, vp,
                          radix=radix)

    def test_divrem_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            mpn_fast.divrem([1, 2], [0, 0])

    @given(nonneg, positive)
    @settings(max_examples=60)
    def test_divrem_matches_int(self, a, b):
        q, r = mpn_fast.divrem(mpn.from_int(a), mpn.from_int(b))
        assert mpn.to_int(q) == a // b
        assert mpn.to_int(r) == a % b


class TestAddbackPath:
    """The crafted Algorithm D add-back trigger (from test_mpn.py,
    generalized per radix): the divisor's zero middle limb blinds the
    3-limb qhat check, D4 underflows, and the rare D6 correction runs.
    The fast path must take it on the same iteration with the same
    ``mpn_add_n`` trace."""

    @staticmethod
    def trigger(radix):
        half = radix.base // 2
        u = [0, 0, half, half - 1]
        v = [radix.mask, 0, half]
        return u, v

    @pytest.mark.parametrize("radix", RADICES, ids=("r32", "r16"))
    def test_addback_fires_identically(self, radix):
        u, v = self.trigger(radix)
        ref = reference_call(mpn.divrem, u, v, radix)
        got = traced_call(mpn_fast.divrem, u, v, radix)
        assert ref == got
        addbacks = [c for c in got[1] if c[0] == "mpn_add_n"]
        assert len(addbacks) == 1
        assert addbacks[0][1] == (("n", len(v)),)
        a, b = mpn.to_int(u, radix), mpn.to_int(v, radix)
        q, r = got[0]
        assert mpn.to_int(q, radix) == a // b
        assert mpn.to_int(r, radix) == a % b


# ---------------------------------------------------------------------------
# Backend selection and integration
# ---------------------------------------------------------------------------

def env_default() -> str:
    """The backend ``$REPRO_MPN_BACKEND`` makes the process default."""
    return os.environ.get(MPN_BACKEND_ENV, "") or "reference"


class TestBackendSelection:
    def test_default_follows_environment(self):
        # reference unless the suite itself runs under
        # $REPRO_MPN_BACKEND=fast (CI's fast-path job).
        assert active_backend() == env_default()

    def test_select_and_restore(self, monkeypatch):
        calls = []
        monkeypatch.setattr(mpn_fast, "divrem",
                            lambda *a: calls.append(a) or ([0], [0]))
        with mpn_backend("fast"):
            assert active_backend() == "fast"
            mpn.divrem([5, 1], [3, 1])
            with mpn_backend("reference"):
                assert active_backend() == "reference"
                assert mpn.divrem([5, 1], [3, 1]) == ([1], [2])
            assert active_backend() == "fast"
        assert len(calls) == 1
        assert active_backend() == env_default()

    def test_env_sets_process_default(self):
        def run(value):
            src = os.path.dirname(os.path.dirname(repro.__file__))
            env = dict(os.environ, PYTHONPATH=src)
            env[MPN_BACKEND_ENV] = value
            return subprocess.run(
                [sys.executable, "-c",
                 "from repro.mp import active_backend; "
                 "print(active_backend())"],
                env=env, capture_output=True, text=True)

        assert run("fast").stdout.strip() == "fast"
        assert run("").stdout.strip() == "reference"
        bad = run("turbo")
        assert bad.returncode != 0
        assert "ValueError" in bad.stderr and MPN_BACKEND_ENV in bad.stderr

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            with mpn_backend("turbo"):
                pass
        assert active_backend() == env_default()

    def test_scope_restores(self):
        with mpn_backend("fast"):
            assert active_backend() == "fast"
        assert active_backend() == env_default()
        with pytest.raises(RuntimeError):
            with mpn_backend("fast"):
                raise RuntimeError
        assert active_backend() == env_default()

    def test_scopes_are_per_thread(self, monkeypatch):
        """A enters fast, B enters reference, A leaves, B leaves: each
        thread runs its own backend throughout, concurrent estimates
        match the serial one exactly, and nothing leaks to the main
        thread."""
        from repro.costs.cache import characterize_cached
        from repro.crypto.modexp import ModExpEngine
        from repro.macromodel import estimate_cycles
        models = characterize_cached(0, 0)
        modulus = (1 << 256) - 189     # odd

        def estimate():
            # Fresh engine: its Montgomery setup cache is not shared.
            engine = ModExpEngine()
            est = estimate_cycles(
                models, lambda: engine.powm(0x12345, 0x10001, modulus))
            counts = {routine: count
                      for routine, (count, _) in est.breakdown.items()}
            return int(est.result), est.cycles, counts, dict(est.unmodeled)

        serial = estimate()
        flat_calls = {"A": 0, "B": 0, "MainThread": 0}
        flat_mul = mpn_fast.mul_basecase

        def counting(*args):
            flat_calls[threading.current_thread().name] += 1
            return flat_mul(*args)

        monkeypatch.setattr(mpn_fast, "mul_basecase", counting)
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        seen, results, errors = {}, {}, []

        def thread_a():
            with mpn_backend("fast"):
                a_in.set()
                assert b_in.wait(60)
                seen["A"] = active_backend()
                results["A"] = estimate()
                seen["A after"] = active_backend()
            a_out.set()

        def thread_b():
            assert a_in.wait(60)
            with mpn_backend("reference"):
                b_in.set()
                results["B"] = estimate()
                assert a_out.wait(60)
                seen["B"] = active_backend()

        def guarded(body):
            def run():
                try:
                    body()
                except Exception as exc:  # surfaced below
                    errors.append(exc)
                    for event in (a_in, b_in, a_out):
                        event.set()
            return run

        threads = [threading.Thread(target=guarded(body), name=name)
                   for name, body in (("A", thread_a), ("B", thread_b))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            assert not thread.is_alive()
        assert not errors, errors
        assert seen == {"A": "fast", "A after": "fast", "B": "reference"}
        assert flat_calls["A"] > 0
        assert flat_calls["B"] == flat_calls["MainThread"] == 0
        assert active_backend() == env_default()
        assert results == {"A": serial, "B": serial}


class TestIntegration:
    @given(nonneg, nonneg)
    @settings(max_examples=25)
    def test_mpz_mul_under_fast_backend(self, a, b):
        with mpn_backend("fast"):
            assert int(Mpz(a) * Mpz(b)) == a * b

    @given(nonneg, positive)
    @settings(max_examples=25)
    def test_mpz_divmod_under_fast_backend(self, a, b):
        with mpn_backend("fast"):
            q, r = divmod(Mpz(a), Mpz(b))
            assert (int(q), int(r)) == divmod(a, b)

    def test_powm_value_and_estimate_identical(self):
        """A full Montgomery powm must produce the same value AND the
        same macro-model cycle estimate under either backend (trace
        identity end to end)."""
        from repro.costs.cache import characterize_cached
        from repro.crypto.modexp import ModExpEngine
        from repro.macromodel import estimate_cycles
        models = characterize_cached(0, 0)
        modulus = (1 << 256) - 189     # odd
        results = {}
        for backend in ("reference", "fast"):
            # Fresh engine per backend: the per-modulus Montgomery
            # setup cache would otherwise hide setup traces from the
            # second run regardless of backend.
            engine = ModExpEngine()
            op = lambda: engine.powm(0x12345, 0x10001, modulus)
            with mpn_backend(backend):
                est = estimate_cycles(models, op)
                results[backend] = (int(op()), est.cycles)
        assert results["reference"] == results["fast"]
