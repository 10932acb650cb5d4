"""Tests for macro-model persistence."""

import json

import pytest
from hypothesis import given, settings

from repro.macromodel import characterize_platform
from repro.macromodel.persist import (load_modelset, modelset_from_dict,
                                      modelset_to_dict, save_modelset)
from tests.mutation import dropped, mutated, paths, swapped


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
        pytest.param("form", "cubic", "got 'cubic'",
                     id="form-cubic-unknown model form 'cubic'"),
        pytest.param("coeffs", [1.0],
                     "2 finite numbers for form 'affine', got [1.0]",
                     id="coeffs-value1-has 1 values"),
        pytest.param("coeffs", [1.0, 2.0, 3.0],
                     "2 finite numbers for form 'affine', got [1.0, 2.0, "
                     "3.0]", id="coeffs-value2-has 3 values"),
        pytest.param("width", 0, "an int >= 1, got 0",
                     id="width-0-integer >= 1"),
        pytest.param("width", -8, "an int >= 1, got -8",
                     id="width--8-integer >= 1"),
        pytest.param("width", 2.5, "an int >= 1, got 2.5",
                     id="width-2.5-integer >= 1"),
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
        with pytest.raises(ValueError,
                           match=f"'mpn_add_n': field '{field}' must be ") \
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
        with pytest.raises(ValueError, match="'mpn_add_n': field 'width'"):
            load_modelset(str(path))

    def test_cli_explore_reports_bad_models(self, models, tmp_path, capsys):
        from repro.cli import main
        data = modelset_to_dict(models)
        data["models"]["mpn_mul_1"]["form"] = "cubic"
        path = tmp_path / "models.json"
        path.write_text(json.dumps(data))
        assert main(["explore", "--models", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'mpn_mul_1': field 'form'" in err

    @pytest.mark.parametrize("document", ["[1]", "3", '"models"', "null"])
    def test_non_object_document_rejected(self, tmp_path, capsys,
                                          document):
        from repro.cli import main
        path = tmp_path / "models.json"
        path.write_text(document)
        with pytest.raises(ValueError, match="JSON object") as info:
            load_modelset(str(path))
        assert str(path) in str(info.value)
        assert main(["explore", "--models", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("models_field", [[1], "x"])
    def test_non_object_models_rejected(self, models, models_field):
        data = modelset_to_dict(models)
        data["models"] = models_field
        with pytest.raises(ValueError,
                           match="field 'models' must be a JSON object"):
            modelset_from_dict(data)
        data["models"] = {"mpn_add_n": models_field}
        with pytest.raises(ValueError,
                           match="model 'mpn_add_n': not a JSON object"):
            modelset_from_dict(data)


#: A small valid model-set document, one routine per coefficient count.
VALID = {"schema": 1, "platform": "base", "models": {
    "mpn_add_n": {"form": "affine", "coeffs": [12.0, 7.5], "width": 1,
                  "mean_abs_pct_error": 0.5, "max_abs_pct_error": 1.25},
    "mpn_mul_1": {"form": "chunk_affine", "coeffs": [3, 4.0, 9.0],
                  "width": 4, "mean_abs_pct_error": 0,
                  "max_abs_pct_error": 0.0}}}
def _value_at(document, path):
    for key in path:
        document = document[key]
    return document


def _field_of(path):
    """The named field a path ends in (a coefficient's is ``coeffs``)."""
    return next(key for key in reversed(path) if isinstance(key, str))


#: Every value the loader requires: all but a whole routine entry.
REQUIRED = [path for path in paths(VALID) if len(path) != 2]


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "models.json"


class TestMutatedDocuments:
    """Every damaged model file loads or fails with a named
    ``ValueError``, so ``explore --models`` exits 2, never with a
    traceback."""

    def test_valid_document_round_trips(self, doc_path):
        doc_path.write_text(json.dumps(VALID))
        assert modelset_to_dict(load_modelset(str(doc_path))) == VALID

    @settings(max_examples=300)
    @given(document=mutated(VALID))
    def test_mutation_loads_or_raises_value_error(self, doc_path,
                                                  document):
        doc_path.write_text(json.dumps(document))
        try:
            models = load_modelset(str(doc_path))
        except ValueError as exc:
            assert str(exc).startswith(f"{doc_path}: ")
        else:
            assert modelset_from_dict(modelset_to_dict(models)) \
                .routines() == models.routines()

    @pytest.mark.parametrize("path", REQUIRED, ids=str)
    def test_missing_field_is_named(self, path):
        with pytest.raises(ValueError, match=_field_of(path)):
            modelset_from_dict(dropped(VALID, path))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       10 ** 400, "1.0", None],
                             ids=["nan", "inf", "huge", "str", "null"])
    @pytest.mark.parametrize("path", [
        path for path in REQUIRED
        if isinstance(_value_at(VALID, path), (int, float))
        and path[-1] not in ("schema", "width")], ids=str)
    def test_non_finite_number_is_named(self, path, value):
        with pytest.raises(ValueError,
                           match=f"'{path[1]}': field "
                                 f"'{_field_of(path)}' must be "):
            modelset_from_dict(swapped(VALID, path, value))

    def test_cli_reports_a_missing_platform(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "models.json"
        path.write_text('{"schema": 1}')
        assert main(["explore", "--models", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: missing field 'platform'\n"
