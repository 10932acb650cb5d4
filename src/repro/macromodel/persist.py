"""Macro-model persistence.

Characterization is a one-time per-platform cost (the paper stresses
this); persisting the fitted models lets downstream tools (exploration
sweeps, CI) skip re-running the ISS stimulus programs.
"""

import json
import math

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
    if data.get("schema") != _SCHEMA_VERSION:
        raise ValueError(f"unsupported macro-model schema {data.get('schema')!r}")
    models = MacroModelSet(data["platform"])
    for routine, spec in data["models"].items():
        fit = _fit_from_spec(routine, spec)
        models.add(MacroModel(routine=routine, fit=fit))
    return models


def _fit_from_spec(routine: str, spec: dict) -> FitResult:
    """One saved fit, rejected with the routine and field named if it
    could not predict a finite cycle count."""
    def bad(field: str, why: str) -> ValueError:
        return ValueError(f"macro-model {routine!r}: {field} {why}")

    try:
        arity = form_arity(spec["form"])
    except ValueError as exc:
        raise bad("form", str(exc)) from None
    coeffs = tuple(spec["coeffs"])
    if len(coeffs) != arity:
        raise bad("coeffs", f"has {len(coeffs)} values; form "
                            f"{spec['form']!r} takes {arity}")
    width = spec["width"]
    if isinstance(width, bool) or not isinstance(width, int) or width < 1:
        raise bad("width", f"must be an integer >= 1, got {width!r}")
    finite = {"coeffs": coeffs,
              "mean_abs_pct_error": (spec["mean_abs_pct_error"],),
              "max_abs_pct_error": (spec["max_abs_pct_error"],)}
    for field, values in finite.items():
        if not all(_is_finite(v) for v in values):
            raise bad(field, f"must be finite numbers, got {spec[field]!r}")
    return FitResult(form=spec["form"], coeffs=coeffs, width=width,
                     mean_abs_pct_error=spec["mean_abs_pct_error"],
                     max_abs_pct_error=spec["max_abs_pct_error"])


def _is_finite(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:        # an int beyond the float range
        return False


def save_modelset(models: MacroModelSet, path: str) -> None:
    """Write a model set as JSON."""
    with open(path, "w") as fh:
        json.dump(modelset_to_dict(models), fh, indent=2, sort_keys=True)


def load_modelset(path: str) -> MacroModelSet:
    """Read a model set saved by :func:`save_modelset`."""
    with open(path) as fh:
        return modelset_from_dict(json.load(fh))
