"""Tests for macro-model persistence."""

import json

import pytest

from repro.macromodel import characterize_platform
from repro.macromodel.persist import (load_modelset, modelset_from_dict,
                                      modelset_to_dict, save_modelset)


@pytest.fixture(scope="module")
def models():
    return characterize_platform(reps=1, sizes=(1, 2, 4, 8),
                                 modmul_overhead=False)


class TestPersistence:
    def test_dict_roundtrip(self, models):
        restored = modelset_from_dict(modelset_to_dict(models))
        assert restored.platform == models.platform
        assert restored.routines() == models.routines()
        for routine in models.routines():
            for n in (1, 4, 16):
                assert restored.predict(routine, n) == \
                    pytest.approx(models.predict(routine, n))

    def test_file_roundtrip(self, models, tmp_path):
        path = tmp_path / "models.json"
        save_modelset(models, str(path))
        restored = load_modelset(str(path))
        assert restored.predict("mpn_add_n", 8) == \
            pytest.approx(models.predict("mpn_add_n", 8))

    def test_json_is_stable(self, models, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_modelset(models, str(p1))
        save_modelset(models, str(p2))
        assert p1.read_text() == p2.read_text()

    def test_bad_schema_rejected(self, models):
        data = modelset_to_dict(models)
        data["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            modelset_from_dict(data)

    def test_bad_schema_file_rejected(self, models, tmp_path):
        path = tmp_path / "models.json"
        save_modelset(models, str(path))
        data = json.loads(path.read_text())
        data["schema"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema"):
            load_modelset(str(path))

    def test_restored_models_usable_by_estimator(self, models):
        from repro.macromodel import estimate_cycles
        from repro.mp import Mpz
        restored = modelset_from_dict(modelset_to_dict(models))
        est = estimate_cycles(restored, lambda: Mpz(1 << 100) * Mpz(3))
        assert est.cycles > 0


class TestLoadValidation:
    """A saved fit that could not predict is rejected at load, naming
    the routine and the field."""

    @pytest.mark.parametrize("field,value,why", [
        ("form", "cubic", "unknown model form 'cubic'"),
        ("coeffs", [1.0], "has 1 values"),
        ("coeffs", [1.0, 2.0, 3.0], "has 3 values"),
        ("width", 0, "integer >= 1"),
        ("width", -8, "integer >= 1"),
        ("width", 2.5, "integer >= 1"),
        ("coeffs", [1.0, float("nan")], "finite"),
        ("coeffs", [float("inf"), 2.0], "finite"),
        ("coeffs", ["1.0", 2.0], "finite"),
        ("coeffs", [10 ** 400, 2.0], "finite"),
        ("mean_abs_pct_error", float("nan"), "finite"),
        ("max_abs_pct_error", float("-inf"), "finite"),
    ])
    def test_bad_field_rejected(self, models, field, value, why):
        data = modelset_to_dict(models)
        spec = data["models"]["mpn_add_n"]
        assert spec["form"] == "affine"
        spec[field] = value
        with pytest.raises(ValueError, match=f"'mpn_add_n': {field} ") \
                as info:
            modelset_from_dict(data)
        assert why in str(info.value)

    def test_bad_file_rejected_at_load(self, models, tmp_path):
        path = tmp_path / "models.json"
        save_modelset(models, str(path))
        data = json.loads(path.read_text())
        data["models"]["mpn_add_n"]["form"] = "chunk_affine"
        data["models"]["mpn_add_n"]["width"] = 0
        data["models"]["mpn_add_n"]["coeffs"] = [1.0, 2.0, 3.0]
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="'mpn_add_n': width"):
            load_modelset(str(path))

    def test_cli_explore_reports_bad_models(self, models, tmp_path, capsys):
        from repro.cli import main
        data = modelset_to_dict(models)
        data["models"]["mpn_mul_1"]["form"] = "cubic"
        path = tmp_path / "models.json"
        path.write_text(json.dumps(data))
        assert main(["explore", "--models", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'mpn_mul_1': form" in err
