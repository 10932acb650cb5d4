"""Tests for performance characterization and macro-model estimation."""

import sys

import numpy as np
import pytest

from repro.costs import characterize_cached
from repro.crypto.modexp import ModExpConfig, ModExpEngine
from repro.isa.kernels.modexp_kernel import ModExpKernel
from repro.macromodel import characterize_platform, estimate_cycles
from repro.macromodel.estimator import ledger
from repro.macromodel.model import MacroModel, MacroModelSet
from repro.macromodel.persist import modelset_from_dict, modelset_to_dict
from repro.macromodel.regression import (ARITY, FORMS, FitResult, fit_form,
                                         r_squared, select_model)
from repro.mp import Mpz
from repro.parallel import ThreadExecutor


class TestRegression:
    def test_affine_exact_fit(self):
        samples = [(n, 4 + 17 * n) for n in (1, 2, 4, 8, 16)]
        fit = fit_form(samples, "affine")
        assert fit.mean_abs_pct_error < 1e-6
        assert abs(fit.coeffs[0] - 4) < 1e-6
        assert abs(fit.coeffs[1] - 17) < 1e-6

    def test_quadratic_fit(self):
        samples = [(n, 2 + 3 * n + 5 * n * n) for n in (1, 2, 3, 5, 8)]
        fit = fit_form(samples, "quadratic")
        assert fit.mean_abs_pct_error < 1e-6

    def test_constant_fit(self):
        fit = fit_form([(1, 100), (1, 102), (1, 98)], "constant")
        assert abs(fit.coeffs[0] - 100) < 1e-6

    def test_step_affine_fit(self):
        samples = [(n, 10 * -(-n // 8) + 2 * n) for n in (1, 4, 8, 9, 16, 24)]
        fit = fit_form(samples, "step_affine", width=8)
        assert fit.mean_abs_pct_error < 1e-6

    def test_selection_prefers_parsimony(self):
        # Perfectly affine data: quadratic would also fit, affine chosen.
        samples = [(n, 5 + 2 * n) for n in (1, 2, 4, 8, 16)]
        assert select_model(samples).form == "affine"

    def test_selection_picks_quadratic_when_needed(self):
        samples = [(n, n * n) for n in (1, 2, 4, 8, 16, 32)]
        assert select_model(samples).form == "quadratic"

    def test_selection_constant_for_flat_data(self):
        assert select_model([(1, 7), (2, 7), (4, 7)]).form == "constant"

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_form([], "affine")

    def test_not_enough_sizes_rejected(self):
        with pytest.raises(ValueError):
            select_model([(1, 5)], forms=("affine",))

    def test_arity_covers_every_form(self):
        assert set(ARITY) == set(FORMS)
        for form, arity in ARITY.items():
            assert FORMS[form](np.arange(1.0, 5.0), 4).shape == (4, arity)

    def test_selection_accepts_any_known_form(self):
        samples = [(n, 5 + 2 * n) for n in (1, 2, 4, 8, 16)]
        fit = select_model(samples, forms=("affine", "step_affine"))
        assert fit.form in ("affine", "step_affine")

    def test_selection_names_unknown_form(self):
        with pytest.raises(ValueError, match="'cubic'"):
            select_model([(1, 5), (2, 7)], forms=("affine", "cubic"))

    def test_r_squared_perfect(self):
        samples = [(n, 3 * n) for n in (1, 2, 3)]
        fit = fit_form(samples, "affine")
        assert r_squared(samples, fit) > 0.9999

    def test_predict(self):
        fit = FitResult(form="affine", coeffs=(4.0, 17.0), width=1,
                        mean_abs_pct_error=0, max_abs_pct_error=0)
        assert fit.predict(10) == pytest.approx(174.0)


def _numpy_predict(fit: FitResult, n) -> float:
    """A fresh, unmemoized evaluation of the fit's numpy expression."""
    basis = FORMS[fit.form](np.array([float(n)]), fit.width)
    return float((basis @ np.array(fit.coeffs))[0])


def _assert_memo_exact(fit: FitResult) -> None:
    """Every size, asked as int then float then int again (a miss and
    two hits), returns the numpy value bit for bit."""
    for n in range(1, 65):
        want = _numpy_predict(fit, n).hex()
        for asked in (n, float(n), n):
            assert fit.predict(asked).hex() == want, (fit.form, asked)


class TestPredictMemo:
    """``FitResult.predict`` memoizes the exact numpy result per size."""

    @pytest.mark.parametrize("widths", [(0, 0), (8, 8)],
                             ids=["base", "ext8x8"])
    def test_characterized_sets_bit_exact(self, widths):
        models = modelset_from_dict(modelset_to_dict(
            characterize_cached(*widths)))
        for model in models:
            assert not model.fit._memo
            _assert_memo_exact(model.fit)

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_every_form_bit_exact(self, form):
        coeffs = (0.1, 1 / 3, 2.0 ** -20 + 7.7)[:ARITY[form]]
        _assert_memo_exact(FitResult(form=form, coeffs=coeffs, width=7,
                                     mean_abs_pct_error=0.0,
                                     max_abs_pct_error=0.0))

    def test_fits_do_not_share_a_memo(self):
        a = FitResult("affine", (1.0, 2.0), 1, 0.0, 0.0)
        b = FitResult("affine", (3.0, 4.0), 1, 0.0, 0.0)
        assert a.predict(5) == 11.0
        assert b.predict(5) == 23.0
        assert a.predict(5) == 11.0
        assert a._memo is not b._memo

    def test_memo_is_invisible_to_eq_repr_and_persistence(self):
        models = modelset_from_dict(modelset_to_dict(characterize_cached()))
        twin = modelset_from_dict(modelset_to_dict(models))
        before = ([repr(m.fit) for m in models], modelset_to_dict(models))
        for model in models:
            for n in range(1, 33):
                model.predict(n)
            assert model.fit._memo
        assert [repr(m.fit) for m in models] == before[0]
        assert modelset_to_dict(models) == before[1]
        for model in models:
            assert model.fit == twin.get(model.routine).fit
            assert not twin.get(model.routine).fit._memo

    def test_concurrent_estimates_match_serial(self):
        """Threads sharing one cold model set charge exactly what a
        serial run charges: a racing memo fill stores the same float."""
        configs = [ModExpConfig(modmul=modmul, window=window, crt="none")
                   for modmul in ("montgomery", "barrett")
                   for window in (1, 2, 4)]
        modulus, base, exp = (1 << 192) + 0x169, 0xC0FFEE1234567, 0xBEEF

        def run(models):
            def one(config):
                est = estimate_cycles(models, ModExpEngine(config).powm,
                                      base, exp, modulus)
                return est.cycles, est.breakdown, est.unmodeled
            return one

        source = modelset_to_dict(characterize_cached())
        serial = [run(modelset_from_dict(source))(c) for c in configs]
        shared = modelset_from_dict(source)
        assert not any(model.fit._memo for model in shared)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)      # interleave the memo fills
        try:
            with ThreadExecutor(4) as pool:
                threaded = pool.map(run(shared), configs)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


@pytest.fixture(scope="module")
def base_models():
    return characterize_platform(reps=1, sizes=(1, 2, 4, 8, 16),
                                 modmul_overhead=True)


@pytest.fixture(scope="module")
def ext_models():
    return characterize_platform(add_width=8, mac_width=4, reps=1,
                                 sizes=(1, 2, 4, 8, 16),
                                 modmul_overhead=True)


class TestCharacterization:
    def test_covers_the_mpn_leaves(self, base_models):
        for routine in ("mpn_add_n", "mpn_sub_n", "mpn_mul_1",
                        "mpn_addmul_1", "mpn_submul_1", "mpn_lshift",
                        "mpn_rshift", "mpn_divrem_qest", "sha1_compress"):
            assert routine in base_models, routine

    def test_base_addn_is_affine(self, base_models):
        model = base_models.get("mpn_add_n")
        assert model.form == "affine"
        assert model.fit.mean_abs_pct_error < 5.0

    def test_predictions_monotone_in_n(self, base_models):
        model = base_models.get("mpn_addmul_1")
        assert model.predict(32) > model.predict(16) > model.predict(4)

    def test_ext_faster_than_base(self, base_models, ext_models):
        for routine in ("mpn_add_n", "mpn_addmul_1"):
            assert ext_models.predict(routine, 16) < \
                base_models.predict(routine, 16)

    def test_alias_shares_fit(self, base_models):
        assert base_models.predict("mpn_rshift", 8) == \
            base_models.predict("mpn_lshift", 8)

    def test_unknown_routine_raises(self, base_models):
        with pytest.raises(KeyError):
            base_models.predict("mpn_frobnicate", 4)

    def test_modmul_overhead_model_present(self, base_models):
        assert "mont_redc" in base_models


class TestEstimator:
    def test_charges_traced_calls(self, base_models):
        est = estimate_cycles(base_models, lambda: Mpz(1 << 200) + Mpz(1))
        assert est.cycles > 0
        assert est.calls("mpn_add_n") >= 1

    def test_result_passthrough(self, base_models):
        est = estimate_cycles(base_models, lambda: 42)
        assert est.result == 42
        assert est.cycles == 0

    def test_unmodeled_counted_not_charged(self):
        models = MacroModelSet("empty")
        est = estimate_cycles(models, lambda: Mpz(10) * Mpz(20))
        assert est.cycles == 0
        assert sum(est.unmodeled.values()) >= 1

    def test_ledger_context_restores_tracer(self, base_models):
        from repro.mp.hooks import get_tracer
        with ledger(base_models):
            pass
        assert get_tracer() is None

    def test_breakdown_sums_to_total(self, base_models):
        eng = ModExpEngine(ModExpConfig(modmul="montgomery", window=2,
                                        crt="none"))
        est = estimate_cycles(base_models, eng.powm, 12345, 0x3039,
                              (1 << 128) + 51)
        assert est.cycles == pytest.approx(
            sum(c for _, c in est.breakdown.values()))


class TestAccuracyAgainstIss:
    """The Section 4.3 claim: estimates track ISS ground truth."""

    @pytest.mark.parametrize("bits,max_err_pct", [(128, 20), (256, 15)])
    def test_estimate_within_band(self, base_models, bits, max_err_pct):
        modulus = (1 << bits) + 0x169
        base, exp = 0xDEADBEEFCAFE12345, 0x1F3
        iss = ModExpKernel()
        got, iss_cycles, _ = iss.powm(base, exp, modulus)
        assert got == pow(base, exp, modulus)
        eng = ModExpEngine(ModExpConfig(modmul="montgomery", window=1,
                                        crt="none"))
        est = estimate_cycles(base_models, eng.powm, base, exp, modulus)
        err = abs(est.cycles - iss_cycles) / iss_cycles * 100
        assert err < max_err_pct

    def test_native_estimation_faster_than_iss(self, base_models):
        import time
        modulus = (1 << 256) + 0x169
        base, exp = 0xABCDEF123456789, 0xF731
        iss = ModExpKernel()
        t0 = time.perf_counter()
        iss.powm(base, exp, modulus)
        iss_wall = time.perf_counter() - t0
        eng = ModExpEngine(ModExpConfig(modmul="montgomery", window=1,
                                        crt="none"))
        est = estimate_cycles(base_models, eng.powm, base, exp, modulus)
        assert est.wall_seconds < iss_wall
