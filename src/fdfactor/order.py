"""Choosing the number of factors: eigenvalue scree and test-statistic scree.

The classic scree plots the Gram eigenvalues in descending order and
looks for an elbow.  The alternative plots the iid-noise statistic
lambda_inf of the residuals against the number of fitted factors: with
too few factors the residuals keep common structure and the statistic is
huge; once the true order is reached it collapses to a stable baseline.
A small automation of that visual plateau rule is provided.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .diagnostics import FrequencySelection, _noise_statistics, _retained_dft, _second_differences
from .errors import DimensionError, DomainError, OrderError
from .factor import _fit_spectrum, _max_order
from .panel import ObservationPanel, _is_count, _is_number, _readonly
from .spectral import EigenSystem, _CenteredSpectrum, _centered_eigh

_KINDS = ("eigenvalue", "test-statistic")


@dataclass(frozen=True)
class ScreeCurve:
    """Values v_l against candidate factor orders l = 1..l_max.

    ``suggested_L`` (with ``suggestion_method``) can be attached once an
    order has been chosen, e.g. via :func:`annotate_suggestion`.
    """

    orders: np.ndarray
    values: np.ndarray
    kind: str
    suggested_L: Optional[int] = None
    suggestion_method: Optional[str] = None

    def __post_init__(self):
        orders = np.array(self.orders, dtype=int)
        orders.setflags(write=False)
        values = _readonly(self.values)
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if orders.size != values.size:
            raise DimensionError("orders and values must have equal length")
        if np.any(np.diff(orders) <= 0):
            raise DimensionError("orders must be strictly increasing")
        if self.kind == "eigenvalue" and np.any(
            np.diff(values) > 1e-12 * max(abs(values[0]), 1.0)
        ):
            raise DimensionError("eigenvalue scree values must be non-increasing")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "values", values)

    @property
    def l_max(self) -> int:
        return int(self.orders[-1])


class PlateauSuggestion(NamedTuple):
    L: int
    plateau_found: bool


def classic_scree(system: EigenSystem, l_max: int) -> ScreeCurve:
    """Descending Gram eigenvalues gamma_1 >= ... >= gamma_{l_max}."""
    if not (_is_count(l_max) and 1 <= l_max <= system.count):
        raise OrderError(f"l_max must lie in 1..{system.count}, got {l_max}")
    return ScreeCurve(np.arange(1, l_max + 1), system.gram_eigenvalues[:l_max], "eigenvalue")


def lambda_scree(panel: ObservationPanel, l_max: int, sel: FrequencySelection) -> ScreeCurve:
    """lambda_inf of the residuals after fitting l factors, for l = 1..l_max.

    One eigendecomposition and one transform of the centered panel serve
    all orders: its retained DFT coefficients and second differences are
    linear in each row, so one projection onto the l_max leading
    eigendirections gives every order's residual energy.  This agrees with
    per-l fits and :func:`iid_noise_test` to rounding.
    """
    return _scree_spectrum(_centered_eigh(panel.values), l_max, sel)


def _scree_spectrum(spectrum: _CenteredSpectrum, l_max: int, sel: FrequencySelection) -> ScreeCurve:
    """:func:`lambda_scree` with the centered eigensystem already computed.

    Each block B (retained DFT as real and imaginary columns; second differences) is
    projected once on the l_max leading T-side vectors E: A = E'B, R = B - EA.  After
    order l, column j keeps ||R_j||^2 + sum_{k>l} A_kj^2, a sum of nonnegative terms.
    """
    T, p = spectrum.centered.shape
    if not (_is_count(l_max) and 1 <= l_max <= _max_order(T, p)):
        raise OrderError(f"l_max must lie in 1..min(T-1, p) = {_max_order(T, p)}, got {l_max}")
    E = spectrum.leading_vectors(l_max, "t")
    C = np.ascontiguousarray(_retained_dft(spectrum.centered, sel)).view(float)
    energy = []  # per block, row l - 1: each column's residual energy after order l
    with np.errstate(over="ignore", invalid="ignore"):  # _noise_statistics names any overflow
        for B in (C, _second_differences(spectrum.centered)):
            A = E.T @ B
            tail = np.cumsum(np.vstack([np.zeros_like(A[:1]), A[:0:-1] ** 2]), axis=0)[::-1]
            R = E @ A  # B - EA and its square are formed in place
            energy.append(np.sum(np.square(np.subtract(B, R, out=R), out=R), axis=0) + tail)
        xi = energy[0].reshape(l_max, sel.f, 2).sum(axis=2) / (p * T)
        sigma2 = energy[1].sum(axis=1) / (6.0 * (p - 2) * T)
    stats = [_noise_statistics(x, s2, T, sel.f)[2] for x, s2 in zip(xi, sigma2.tolist())]
    return ScreeCurve(np.arange(1, l_max + 1), stats, "test-statistic")


def suggest_plateau_L(curve: ScreeCurve, rel_tol: float = 0.1) -> PlateauSuggestion:
    """Automate the visual plateau rule on a test-statistic scree.

    The curve is examined on a log scale of elevations above its minimum,
    g_l = log(v_l - min v + rel_tol^2 * range); the floor keeps the log
    finite and damps baseline noise.  The suggested order is the smallest
    l whose next up-to-three steps |g_{l+1} - g_l| all stay within
    rel_tol of the total log-scale range; working with log elevations
    keeps the rule scale-free even when the first value dwarfs the rest.
    If no order qualifies, l_max is returned with ``plateau_found=False``.
    """
    if curve.kind != "test-statistic":
        raise DomainError("the plateau rule applies to test-statistic screes")
    if not (_is_number(rel_tol) and 0.0 < rel_tol < 1.0):
        raise DomainError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    v = curve.values
    l_max = curve.l_max
    if l_max < 4:
        raise DimensionError(f"the plateau rule needs l_max >= 4, got {l_max}")
    elev = v - v.min()
    rng = float(elev.max())
    if rng == 0.0:
        return PlateauSuggestion(1, True)
    g = np.log(elev + rel_tol**2 * rng)
    steps = np.abs(np.diff(g))
    threshold = rel_tol * (g.max() - g.min())
    for l in range(1, l_max):
        if np.all(steps[l - 1 : l + 2] <= threshold):  # up to three steps: the slice stops at the last
            return PlateauSuggestion(l, True)
    return PlateauSuggestion(l_max, False)


def plateau_fit(panel: ObservationPanel, l_max: int, sel: FrequencySelection) -> tuple:
    """lambda_scree, suggest_plateau_L and fit at the suggested L, from one eigendecomposition."""
    spectrum = _centered_eigh(panel.values)
    curve = _scree_spectrum(spectrum, l_max, sel)
    suggestion = suggest_plateau_L(curve)
    return curve, suggestion, _fit_spectrum(panel, spectrum, suggestion.L)


def annotate_suggestion(curve: ScreeCurve, rel_tol: float = 0.1) -> ScreeCurve:
    """Return a copy of the curve carrying its plateau suggestion."""
    suggestion = suggest_plateau_L(curve, rel_tol)
    method = "plateau" if suggestion.plateau_found else "plateau(no-plateau-fallback)"
    return replace(curve, suggested_L=suggestion.L, suggestion_method=method)
