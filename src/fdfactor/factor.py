"""PCA-based factor fitting: separates common components from noise.

A discretized curve panel Y (T x p, rows = curves) is modeled as a mean
curve plus a rank-L common component plus idiosyncratic noise.  Fitting
centers the panel, eigendecomposes the smaller of its two Gram matrices,
and projects onto the span of the L leading eigenvectors:

    mu_hat  = column mean of Y
    E_hat   = leading L orthonormal eigenvectors of (1/T) Z Z'   (Z centered)
    F_hat   = sqrt(T) E_hat             (scores,   F'F/T = I_L)
    B_hat   = (1/T) Z' F_hat            (loadings)
    X_hat   = 1 mu_hat' + E_hat E_hat' Z
    U_hat   = Y - X_hat                 (residuals)

Only the projector matters for the reconstruction, so the usual rotation
ambiguity of factor models never enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import DimensionError, OrderError
from .panel import MeanVector, ObservationPanel, SampleGrid, _frozen, _is_count, _readonly, _write_files, load_panel
from .spectral import _CenteredSpectrum, _centered_eigh

#: relative eigengap below which a fit gets a degeneracy warning attached
DEGENERATE_GAP = 1e-10


@dataclass(frozen=True)
class FactorFit:
    """Immutable result of a rank-L factor fit.

    Attributes
    ----------
    order : int
        Number of factors L.
    eigvecs : ndarray, shape (T, L)
        Orthonormal eigenvectors of the T x T Gram matrix of the
        centered panel (mapped from the p x p side when that one was
        decomposed).
    scores : ndarray, shape (T, L)
        F_hat = sqrt(T) * eigvecs, so F'F/T = I_L.
    loadings : ndarray, shape (p, L)
    gram_eigenvalues : ndarray, shape (L,)
        Leading eigenvalues of the T x T Gram matrix, descending.
    signals : ndarray, shape (T, p)
        Fitted common components plus the mean curve.
    residuals : ndarray, shape (T, p)
        Y - signals, computed directly from the observed panel.
    mean : MeanVector
    grid : SampleGrid
    warnings : tuple of str
        Diagnostics attached by the fitting routine (e.g. a degenerate
        eigengap at the truncation point).
    """

    order: int
    eigvecs: np.ndarray
    scores: np.ndarray
    loadings: np.ndarray
    gram_eigenvalues: np.ndarray
    signals: np.ndarray
    residuals: np.ndarray
    mean: MeanVector
    grid: SampleGrid
    warnings: tuple = ()

    def __post_init__(self):
        for name in ("eigvecs", "scores", "loadings", "gram_eigenvalues",
                     "signals", "residuals"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def T(self) -> int:
        return self.signals.shape[0]

    @property
    def p(self) -> int:
        return self.signals.shape[1]


def fit(panel: ObservationPanel, L: int) -> FactorFit:
    """Fit an L-factor model by principal components.

    Parameters
    ----------
    panel : ObservationPanel
    L : int
        Number of factors, 1 <= L <= min(T - 1, p).

    Returns
    -------
    FactorFit

    Raises
    ------
    OrderError
        L outside the admissible range.
    NumericalError
        Eigensolver failure (with matrix diagnostics in the message), or a
        Gram matrix that overflows the float range.

    Notes
    -----
    The eigendecomposition runs on whichever Gram matrix is smaller
    (T x T or p x p); both give the identical reconstruction.  When the
    p x p side is used, the T-side eigenvectors are recovered by
    orthonormalizing the mapped columns Z V_L.
    """
    bound = _max_order(panel.T, panel.p)
    if not (_is_count(L) and 1 <= L <= bound):
        raise OrderError(f"factor order must satisfy 1 <= L <= min(T-1, p) = {bound}, got {L}")
    return _fit_spectrum(panel, _centered_eigh(panel.values), L)


def _max_order(T: int, p: int) -> int:
    """The largest factor order of a centered T x p panel: its rank, min(T - 1, p)."""
    return min(T - 1, p)


def _fit_spectrum(panel: ObservationPanel, spectrum: _CenteredSpectrum, L: int) -> FactorFit:
    """:func:`fit` with the centered eigensystem of ``panel`` already computed."""
    T = panel.T
    vals, Z = spectrum.gram_eigenvalues, spectrum.centered
    E = spectrum.leading_vectors(L, "t")

    fit_warnings = []
    if L < min(T, panel.p) and (vals[L - 1] - vals[L]) < DEGENERATE_GAP * vals[0]:
        fit_warnings.append(
            f"eigengap between kept and dropped eigenvalues is below "
            f"{DEGENERATE_GAP:g} * gamma_1; the L-dimensional projector is "
            "still well defined but the factor split is not unique"
        )

    F = _frozen(np.sqrt(T) * E)
    B = _frozen(Z.T @ F / T)
    signals = _frozen(spectrum.mean + E @ (E.T @ Z))
    residuals = _frozen(panel.values - signals)
    return FactorFit(
        order=L,
        eigvecs=E,
        scores=F,
        loadings=B,
        gram_eigenvalues=vals[:L],
        signals=signals,
        residuals=residuals,
        mean=MeanVector(_frozen(spectrum.mean)),
        grid=panel.grid,
        warnings=tuple(fit_warnings),
    )


def residual_panel(fit_result: FactorFit) -> ObservationPanel:
    """Residuals U_hat = Y - X_hat as a panel on the original grid."""
    return ObservationPanel(fit_result.residuals, fit_result.grid)


def signal_panel(fit_result: FactorFit) -> ObservationPanel:
    """Fitted signals X_hat as a panel on the original grid."""
    return ObservationPanel(fit_result.signals, fit_result.grid)


# ---------------------------------------------------------------------------
# fit artifact directory

def _fit_files(fit_result: FactorFit) -> dict:
    """The files of a fit artifact directory, name -> (rows, header) or a JSON object."""
    return {
        "signals.csv": (fit_result.signals, fit_result.grid.points),
        "residuals.csv": (fit_result.residuals, fit_result.grid.points),
        "muhat.csv": ([fit_result.mean.values], fit_result.grid.points),
        "loadings.csv": (fit_result.loadings, None),
        "scores.csv": (fit_result.scores, None),
        "eigenvalues.csv": (fit_result.gram_eigenvalues.reshape(-1, 1), None),
        "fit.json": {
            "l": fit_result.order,
            "t": fit_result.T,
            "p": fit_result.p,
            "grid_sha256": fit_result.grid.digest(),
            "version": __version__,
            "warnings": list(fit_result.warnings),
        },
    }


def save_fit(fit_result: FactorFit, out_dir) -> None:
    """Serialize a fit to a directory of CSV files plus fit.json.

    Files: muhat.csv (grid header + mean row), loadings.csv, scores.csv,
    signals.csv / residuals.csv (grid header + one curve per row, loadable
    with ``load_panel(header=True)``) and eigenvalues.csv.
    """
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    _write_files(_fit_files(fit_result), out_dir)


def load_fit_residuals(fit_dir) -> ObservationPanel:
    """Load the residual panel back from a fit artifact directory."""
    path = Path(fit_dir) / "residuals.csv"
    if not path.exists():
        raise DimensionError(f"no residuals.csv under {fit_dir}")
    return load_panel(path, header=True)
