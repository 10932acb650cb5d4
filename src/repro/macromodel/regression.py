"""Statistical regression for performance macro-models.

The paper used S-Plus; we use ordinary least squares on numpy, which
is imported inside the functions that fit and predict, so loading the
macro-model layer (e.g. a persisted model set) does not load it.  The
performance profiles of the mpn routines are "regular (piecewise
linear, quadratic, etc.) over input bit-width subspaces", so a small
family of model forms suffices:

- ``constant``  : c
- ``affine``    : c0 + c1*n
- ``quadratic`` : c0 + c1*n + c2*n^2
- ``step_affine``: c0 + c1*n + c2*ceil(n/w) for a fixed chunk width w
  (captures the chunked extended-ISA kernels, whose cost steps at
  multiples of the vector width)
- ``chunk_affine``: c0 + c1*floor(n/w) + c2*(n mod w), a w-wide
  vector kernel with a scalar tail loop

Model selection minimizes leave-one-out-style validation error with a
small parsimony penalty.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

#: Basis functions per form: name -> builder of the (n, width) design
#: matrix, both numpy arrays.
FORMS: Dict[str, Callable] = {}


def _basis_constant(n, width: int):
    import numpy as np
    return np.column_stack([np.ones_like(n)])


def _basis_affine(n, width: int):
    import numpy as np
    return np.column_stack([np.ones_like(n), n])


def _basis_quadratic(n, width: int):
    import numpy as np
    return np.column_stack([np.ones_like(n), n, n * n])


def _basis_step_affine(n, width: int):
    import numpy as np
    return np.column_stack([np.ones_like(n), n, np.ceil(n / width)])


def _basis_chunk_affine(n, width: int):
    import numpy as np
    # Exact form of a w-wide vector kernel with a scalar tail loop:
    # c0 + c1*floor(n/w) + c2*(n mod w).
    return np.column_stack([np.ones_like(n), np.floor(n / width),
                            np.mod(n, width)])


FORMS["constant"] = _basis_constant
FORMS["affine"] = _basis_affine
FORMS["quadratic"] = _basis_quadratic
FORMS["step_affine"] = _basis_step_affine
FORMS["chunk_affine"] = _basis_chunk_affine

#: Coefficient count (basis columns) of each form in :data:`FORMS`.
ARITY: Dict[str, int] = {"constant": 1, "affine": 2, "quadratic": 3,
                         "step_affine": 3, "chunk_affine": 3}


def form_arity(form: str) -> int:
    """Number of coefficients of ``form``; unknown forms are rejected."""
    try:
        return ARITY[form]
    except KeyError:
        raise ValueError(f"unknown model form {form!r}; "
                         f"expected one of {sorted(FORMS)}") from None


@dataclass
class FitResult:
    """One fitted model form with its quality metrics."""

    form: str
    coeffs: Tuple[float, ...]
    width: int                     # chunk width (step/chunk_affine; else 1)
    mean_abs_pct_error: float      # on the training data
    max_abs_pct_error: float
    #: n -> predict(n).  An estimation run asks for a handful of sizes
    #: ~10^5 times; the memo holds the numpy result itself because a
    #: pure-Python ``c0 + c1*n`` can differ from it in the last bit.
    _memo: Dict[float, float] = field(default_factory=dict, init=False,
                                      repr=False, compare=False)

    def predict(self, n: float) -> float:
        value = self._memo.get(n)
        if value is None:
            import numpy as np
            basis = FORMS[self.form](np.array([float(n)]), self.width)
            value = self._memo[n] = float((basis @ np.array(self.coeffs))[0])
        return value


def fit_form(samples: Sequence[Tuple[float, float]], form: str,
             width: int = 1) -> FitResult:
    """Least-squares fit of one model form to (n, cycles) samples."""
    import numpy as np
    if not samples:
        raise ValueError("no samples to fit")
    n = np.array([s[0] for s in samples], dtype=float)
    y = np.array([s[1] for s in samples], dtype=float)
    basis = FORMS[form](n, width)
    coeffs, *_ = np.linalg.lstsq(basis, y, rcond=None)
    pred = basis @ coeffs
    denom = np.maximum(np.abs(y), 1.0)
    pct = np.abs(pred - y) / denom * 100.0
    return FitResult(form=form, coeffs=tuple(float(c) for c in coeffs),
                     width=width,
                     mean_abs_pct_error=float(np.mean(pct)),
                     max_abs_pct_error=float(np.max(pct)))


def select_model(samples: Sequence[Tuple[float, float]],
                 forms: Sequence[str] = ("constant", "affine", "quadratic"),
                 step_width: int = 0) -> FitResult:
    """Fit candidate forms and pick the best one.

    Selection is by mean absolute percentage error with a +0.5 %/coeff
    parsimony penalty, so a quadratic only wins when it genuinely
    explains the data better than the affine model.
    """
    candidates: List[FitResult] = []
    distinct_n = len({s[0] for s in samples})
    for form in forms:
        if distinct_n >= form_arity(form):
            candidates.append(fit_form(samples, form))
    if step_width > 1 and distinct_n >= 3:
        candidates.append(fit_form(samples, "step_affine", step_width))
        candidates.append(fit_form(samples, "chunk_affine", step_width))
    if not candidates:
        raise ValueError("not enough distinct sizes to fit any form")

    def score(fit: FitResult) -> float:
        return fit.mean_abs_pct_error + 0.5 * len(fit.coeffs)

    return min(candidates, key=score)


def r_squared(samples: Sequence[Tuple[float, float]], fit: FitResult) -> float:
    """Coefficient of determination of a fit on the given samples."""
    import numpy as np
    y = np.array([s[1] for s in samples], dtype=float)
    pred = np.array([fit.predict(s[0]) for s in samples])
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if math.isclose(ss_res, 0.0, abs_tol=1e-9) else 0.0
    return 1.0 - ss_res / ss_tot
