"""Eigenvalues and eigenfunctions of the signal covariance, without smoothing.

The p x p second-moment matrix of the raw panel already carries the
spectral information of the underlying curves: its eigenvalues divided
by p estimate the covariance-kernel eigenvalues, and its eigenvectors,
blown up by sqrt(p) and read as step functions, estimate the
eigenfunctions.  No presmoothing of the data or of the covariance is
involved anywhere.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NumericalError, OrderError
from .panel import ObservationPanel, SampleGrid, _readonly, _require_finite, _write_rows


def eigh_descending(matrix: np.ndarray):
    """Symmetric eigendecomposition, eigenvalues descending, fixed signs.

    Each eigenvector is flipped so that its entry of largest absolute
    value is positive (ties broken by the lowest index), which pins the
    otherwise arbitrary sign across platforms.  Eigenvalues of
    positive-semidefinite input that come out as tiny negatives are
    clamped to zero.
    """
    try:
        vals, vecs = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "eigendecomposition failed to converge "
            f"(n={matrix.shape[0]}, fro-norm={np.linalg.norm(matrix):.3e}): {exc}"
        ) from exc
    vals = vals[::-1]
    return np.where(vals < 0, 0.0, vals), apply_sign_convention(vecs[:, ::-1])


def apply_sign_convention(vecs: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of every column positive."""
    vecs = np.asarray(vecs)
    lead = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[lead, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs


class _CenteredSpectrum(NamedTuple):
    """A (column-centered) panel Z and the eigensystem of its smaller Gram matrix."""

    mean: np.ndarray
    centered: np.ndarray
    gram_eigenvalues: np.ndarray
    eigvecs: np.ndarray

    def leading_vectors(self, k: int, side: str) -> np.ndarray:
        """k leading orthonormal eigenvectors of (1/T) ZZ' (side "t") or (1/T) Z'Z (side "p").

        The decomposed side is T x T when T <= p; the other is mapped by Z or Z'
        and orthonormalized by Householder QR, which fills exact-null directions.
        """
        T, p = self.centered.shape
        if (side == "t") == (T <= p):
            return self.eigvecs[:, :k]
        Z = self.centered if side == "t" else self.centered.T
        E, _ = np.linalg.qr(Z @ self.eigvecs[:, :k])
        return apply_sign_convention(E)


def _centered_eigh(values: np.ndarray, center: bool = True) -> _CenteredSpectrum:
    """Optionally center the columns, then eigendecompose the smaller of (1/T) ZZ' and (1/T) Z'Z."""
    T, p = values.shape
    with np.errstate(over="ignore", invalid="ignore"):
        mu = values.mean(axis=0) if center else np.zeros(p)
        Z = values - mu
        G = Z @ Z.T / T if T <= p else Z.T @ Z / T
    _require_finite(G, "Gram matrix of the panel", "the panel is")
    vals, vecs = eigh_descending(G)
    return _CenteredSpectrum(mu, Z, vals, vecs)


@dataclass(frozen=True)
class EigenSystem:
    """Spectral summary of a panel's p x p second-moment matrix.

    ``gram_eigenvalues`` are the descending eigenvalues of (1/T) Y'Y,
    truncated to min(T, p); ``kernel_eigenvalues`` are the same values
    divided by p, estimating the covariance-kernel spectrum; ``eigvecs``
    holds the matching unit-norm eigenvectors as columns.
    """

    gram_eigenvalues: np.ndarray
    kernel_eigenvalues: np.ndarray
    eigvecs: np.ndarray
    grid: SampleGrid

    def __post_init__(self):
        for name in ("gram_eigenvalues", "kernel_eigenvalues", "eigvecs"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def count(self) -> int:
        return self.gram_eigenvalues.size


def empirical_eigensystem(panel: ObservationPanel, center: bool = True) -> EigenSystem:
    """Eigenvalues and eigenvectors of the p x p matrix (1/T) Y'Y of a (centered) panel.

    The leading min(T, p) eigenvalues are kept; they coincide with those
    of the T x T companion matrix (1/T) YY'.  Only the smaller matrix is
    decomposed; T x T eigenvectors U are mapped to the p side as Y'U and
    orthonormalized by Householder QR, which also fills null directions.
    Centering is on by default, matching the fitting pipeline; disable it
    for processes known to have zero mean.
    """
    spectrum = _centered_eigh(panel.values, center)
    vals = spectrum.gram_eigenvalues  # min(T, p) values: the smaller side was decomposed
    return EigenSystem(
        gram_eigenvalues=vals,
        kernel_eigenvalues=vals / panel.p,
        eigvecs=spectrum.leading_vectors(vals.size, "p"),
        grid=panel.grid,
    )


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function on [0, 1] attached to a grid.

    Level i applies on [s_i, s_{i+1}); the last level extends through
    s = 1 and the first extends down to 0.  For an equidistant grid with
    s_1 = 0 and spacing 1/p the cells tile [0, 1] with equal widths, in
    which case sqrt(p)-scaled unit eigenvectors integrate to exactly one;
    other equidistant layouts (e.g. midpoints) are off by O(1/p) at the
    boundary cells.
    """

    grid: SampleGrid
    levels: np.ndarray

    def __post_init__(self):
        lev = _readonly(np.atleast_1d(self.levels))
        if lev.size != self.grid.p:
            raise DimensionError(
                f"{lev.size} levels for a grid of {self.grid.p} points"
            )
        object.__setattr__(self, "levels", lev)

    def cell_edges(self) -> np.ndarray:
        """Breakpoints 0 = c_0 < c_1 < ... < c_p = 1 of the p cells."""
        return np.concatenate(([0.0], self.grid.points[1:], [1.0]))

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        idx = np.searchsorted(self.grid.points, s, side="right") - 1
        idx = np.clip(idx, 0, self.grid.p - 1)
        return self.levels[idx]


def eigenfunction_estimate(system: EigenSystem, ell: int) -> StepFunction:
    """Step-function eigenfunction estimate sqrt(p) * psi_ell (1-based ell).

    The sqrt(p) scaling normalizes the L2 norm on equidistant grids; on
    non-equidistant grids the estimate is still returned but only
    approximately normalized, and a warning is emitted.
    """
    if not 1 <= ell <= system.eigvecs.shape[1]:
        raise OrderError(
            f"eigenfunction index {ell} out of range 1..{system.eigvecs.shape[1]}"
        )
    if not system.grid.is_equidistant():
        warnings.warn(
            "eigenfunction estimate on a non-equidistant grid: sqrt(p) scaling "
            "only approximately normalizes",
            stacklevel=2,
        )
    p = system.grid.p
    return StepFunction(system.grid, np.sqrt(p) * system.eigvecs[:, ell - 1])


def _merged_cells(f: StepFunction, g: StepFunction):
    edges = np.union1d(f.cell_edges(), g.cell_edges())
    widths = np.diff(edges)
    mids = (edges[:-1] + edges[1:]) / 2.0
    return f(mids), g(mids), widths


def inner_product(f: StepFunction, g: StepFunction) -> float:
    """Exact integral of f*g over [0, 1] (both piecewise constant)."""
    fv, gv, w = _merged_cells(f, g)
    return float(np.sum(fv * gv * w))


def l2_distance(f: StepFunction, g: StepFunction) -> float:
    """L2([0,1]) distance between two step functions, integrated exactly."""
    fv, gv, w = _merged_cells(f, g)
    return float(np.sqrt(np.sum((fv - gv) ** 2 * w)))


def l2_norm(f: StepFunction) -> float:
    fv, _, w = _merged_cells(f, f)
    return float(np.sqrt(np.sum(fv**2 * w)))


def export_eigensystem_csv(system: EigenSystem, path) -> None:
    """Write eigenvectors as columns under a header row of Gram eigenvalues."""
    _write_rows(path, system.eigvecs, system.gram_eigenvalues)


def align_sign(f: StepFunction, reference: StepFunction) -> StepFunction:
    """Return f or -f, whichever has nonnegative inner product with reference.

    A zero inner product keeps the input sign.  Both functions must live
    on the same grid.
    """
    if not np.array_equal(f.grid.points, reference.grid.points):
        raise DimensionError("sign alignment requires a common grid")
    if inner_product(f, reference) < 0:
        return StepFunction(f.grid, -f.levels)
    return f
