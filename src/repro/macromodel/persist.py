"""Macro-model persistence.

Characterization is a one-time per-platform cost (the paper stresses
this); persisting the fitted models lets downstream tools (exploration
sweeps, CI) skip re-running the ISS stimulus programs.
"""

import json

from repro.obs import validate
from repro.macromodel.model import MacroModel, MacroModelSet
from repro.macromodel.regression import ARITY, FitResult

_SCHEMA_VERSION = 1


def modelset_to_dict(models: MacroModelSet) -> dict:
    return {
        "schema": _SCHEMA_VERSION,
        "platform": models.platform,
        "models": {
            m.routine: {
                "form": m.fit.form,
                "coeffs": list(m.fit.coeffs),
                "width": m.fit.width,
                "mean_abs_pct_error": m.fit.mean_abs_pct_error,
                "max_abs_pct_error": m.fit.max_abs_pct_error,
            }
            for m in models
        },
    }


def modelset_from_dict(data: dict) -> MacroModelSet:
    """Rebuild a model set, rejecting a missing or ill-typed field with
    a :class:`ValueError` that names it."""
    return _modelset_from(data, "macro-model document")


def _modelset_from(data: dict, where: str) -> MacroModelSet:
    data = validate.as_object(data, where)
    schema = data.get("schema")
    if isinstance(schema, bool) or schema != _SCHEMA_VERSION:
        raise ValueError(f"{where}: unsupported macro-model schema "
                         f"{schema!r}")
    models = MacroModelSet(validate.field(data, "platform", validate.STRING,
                                          where))
    specs = validate.field(data, "models", validate.OBJECT, where)
    for routine, spec in specs.items():
        fit = _fit_from_spec(spec, f"{where}: model {routine!r}")
        models.add(MacroModel(routine=routine, fit=fit))
    return models


#: The fields of one saved fit, each with its kind.
_FIT_FIELDS = {"form": validate.STRING, "coeffs": validate.LIST,
               "width": validate.integer(1),
               "mean_abs_pct_error": validate.NUMBER,
               "max_abs_pct_error": validate.NUMBER}


def _fit_from_spec(spec, where: str) -> FitResult:
    """One saved fit, rejected with the field named if it could not
    predict a finite cycle count."""
    spec = validate.as_object(spec, where)
    values = {name: validate.field(spec, name, kind, where)
              for name, kind in _FIT_FIELDS.items()}
    form, coeffs = values["form"], values["coeffs"]
    arity = ARITY.get(form)
    if arity is None:
        raise validate.invalid(where, "form", f"one of {sorted(ARITY)}",
                               form)
    if (len(coeffs) != arity
            or not all(map(validate.is_finite_number, coeffs))):
        raise validate.invalid(where, "coeffs", f"a list of {arity} "
                               f"finite numbers for form {form!r}", coeffs)
    values["coeffs"] = tuple(coeffs)
    return FitResult(**values)


def save_modelset(models: MacroModelSet, path: str) -> None:
    """Write a model set as JSON."""
    with open(path, "w") as fh:
        json.dump(modelset_to_dict(models), fh, indent=2, sort_keys=True)


def load_modelset(path: str) -> MacroModelSet:
    """Read a model set saved by :func:`save_modelset`.  A document
    that is not a JSON object, or a missing or ill-typed field, is
    rejected with a :class:`ValueError` naming ``path`` and the
    field."""
    return _modelset_from(validate.read_json(path), path)
