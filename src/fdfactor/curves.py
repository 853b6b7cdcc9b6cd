"""Linear interpolation turning fitted grid values into full curves.

The factor fit recovers signals only at the sampling points; joining
them by straight lines already gives a uniformly convergent estimate of
the whole curve, so nothing fancier is needed downstream.  Outside
[s_1, s_p] the nearest knot value is extended as a constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, OrderError
from .factor import FactorFit
from .panel import SampleGrid, _readonly


@dataclass(frozen=True)
class PiecewiseLinearCurve:
    """Continuous function on [0, 1] interpolating values at grid knots."""

    grid: SampleGrid
    knot_values: np.ndarray

    def __post_init__(self):
        vals = _readonly(np.atleast_1d(self.knot_values))
        if vals.size != self.grid.p:
            raise DimensionError(
                f"{vals.size} knot values for a grid of {self.grid.p} points"
            )
        object.__setattr__(self, "knot_values", vals)

    def __call__(self, s):
        return evaluate(self, s)


def interpolate(fit_result: FactorFit, t: int) -> PiecewiseLinearCurve:
    """Piecewise-linear curve through the fitted values of curve t (1-based)."""
    if not 1 <= t <= fit_result.T:
        raise OrderError(f"curve index {t} out of range 1..{fit_result.T}")
    return PiecewiseLinearCurve(fit_result.grid, fit_result.signals[t - 1])


def evaluate(curve: PiecewiseLinearCurve, s):
    """Evaluate the interpolant at s in [0, 1] (scalar or array).

    This is ``np.interp``, the rule :func:`~fdfactor.panel.impute_missing`
    fills gaps with: exact knot hits return the stored knot value, and the
    boundary knot value extends constantly over [0, s_1] and [s_p, 1].
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0.0) or np.any(s_arr > 1.0):
        raise DomainError("evaluation points must lie in [0, 1]")
    out = np.interp(s_arr, curve.grid.points, curve.knot_values)
    return float(out) if s_arr.ndim == 0 else out


def dense_trace(curve: PiecewiseLinearCurve, n: int = 1000) -> np.ndarray:
    """(n, 2) array of (s, value) pairs on a uniform evaluation mesh."""
    if n < 2:
        raise DimensionError("a trace needs at least two points")
    s = np.linspace(0.0, 1.0, n)
    return np.column_stack([s, evaluate(curve, s)])
