"""Macro-model persistence.

Characterization is a one-time per-platform cost (the paper stresses
this); persisting the fitted models lets downstream tools (exploration
sweeps, CI) skip re-running the ISS stimulus programs.
"""

import json

from repro.obs.validate import is_finite_number
from repro.macromodel.model import MacroModel, MacroModelSet
from repro.macromodel.regression import FitResult, form_arity

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
    if not isinstance(data, dict):
        raise ValueError(f"a macro-model document is a JSON object, got "
                         f"{type(data).__name__}")
    schema = data.get("schema")
    if isinstance(schema, bool) or schema != _SCHEMA_VERSION:
        raise ValueError(f"unsupported macro-model schema {schema!r}")
    platform = _field(data, "platform", "macro-model document:")
    if not isinstance(platform, str):
        raise ValueError(f"macro-model 'platform' must be a string, got "
                         f"{platform!r}")
    specs = _field(data, "models", "macro-model document:")
    if not isinstance(specs, dict):
        raise ValueError(f"macro-model 'models' must be an object, got "
                         f"{type(specs).__name__}")
    models = MacroModelSet(platform)
    for routine, spec in specs.items():
        if not isinstance(spec, dict):
            raise ValueError(f"macro-model {routine!r} must be an object, "
                             f"got {type(spec).__name__}")
        fit = _fit_from_spec(routine, spec)
        models.add(MacroModel(routine=routine, fit=fit))
    return models


def _field(mapping: dict, name: str, where: str):
    if name not in mapping:
        raise ValueError(f"{where} {name} is missing")
    return mapping[name]


def _fit_from_spec(routine: str, spec: dict) -> FitResult:
    """One saved fit, rejected with the routine and field named if it
    could not predict a finite cycle count."""
    def bad(field: str, why: str) -> ValueError:
        return ValueError(f"macro-model {routine!r}: {field} {why}")

    where = f"macro-model {routine!r}:"
    form = _field(spec, "form", where)
    if not isinstance(form, str):
        raise bad("form", f"must be a string, got {form!r}")
    try:
        arity = form_arity(form)
    except ValueError as exc:
        raise bad("form", str(exc)) from None
    coeffs = _field(spec, "coeffs", where)
    if not isinstance(coeffs, (list, tuple)):
        raise bad("coeffs", f"must be a list of numbers, got {coeffs!r}")
    if len(coeffs) != arity:
        raise bad("coeffs", f"has {len(coeffs)} values; form "
                            f"{form!r} takes {arity}")
    width = _field(spec, "width", where)
    if isinstance(width, bool) or not isinstance(width, int) or width < 1:
        raise bad("width", f"must be an integer >= 1, got {width!r}")
    if not all(is_finite_number(v) for v in coeffs):
        raise bad("coeffs", f"must be finite numbers, got {coeffs!r}")
    errors = {}
    for name in ("mean_abs_pct_error", "max_abs_pct_error"):
        value = errors[name] = _field(spec, name, where)
        if not is_finite_number(value):
            raise bad(name, f"must be a finite number, got {value!r}")
    return FitResult(form=form, coeffs=tuple(coeffs), width=width,
                     **errors)


def save_modelset(models: MacroModelSet, path: str) -> None:
    """Write a model set as JSON."""
    with open(path, "w") as fh:
        json.dump(modelset_to_dict(models), fh, indent=2, sort_keys=True)


def load_modelset(path: str) -> MacroModelSet:
    """Read a model set saved by :func:`save_modelset`.  A document
    that is not a JSON object, or a missing or ill-typed field, is
    rejected with a :class:`ValueError` naming ``path`` and the
    field."""
    with open(path) as fh:
        text = fh.read()
    try:
        return modelset_from_dict(json.loads(text))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
