"""Residual diagnostics and the flat-spectrum test of iid errors.

Under iid errors the periodogram of each residual row is flat in
expectation across Fourier frequencies, so the empirical variance of the
row-averaged periodogram over a retained frequency set measures departure
from whiteness.  Two scalings of that variance are reported: lambda_fin,
asymptotically chi-square with f-1 degrees of freedom at a fixed number
f of frequencies, and lambda_inf, asymptotically standard normal when f
grows.  Low frequencies are damped by the fitting step itself, so a
cutoff removes them, and thinning keeps f/T small.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVarianceError,
    DimensionError,
    DomainError,
    SelectionError,
)
from .panel import ObservationPanel, _is_count, _is_number, _readonly, _require_finite


def _as_values(residuals) -> np.ndarray:
    """A panel's values, or the residuals as a 2-d (T, p) float array; DimensionError for any other shape."""
    if isinstance(residuals, ObservationPanel):
        return residuals.values
    values = np.asarray(residuals, dtype=float)
    if values.ndim != 2:
        raise DimensionError(f"residuals must be a 2-d (T, p) array, got {values.ndim}-d")
    return values


# ---------------------------------------------------------------------------
# periodogram

def periodogram(z, theta: float) -> float:
    """I_z(theta) = (1/p) |sum_k z_k exp(-i k theta)|^2, k = 1..p.

    theta must lie in (0, pi].  At any Fourier frequency 2*pi*l/p with
    1 <= l <= p-1 a constant input gives exactly zero.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size < 2:
        raise DimensionError("periodogram input must be 1-d with at least 2 entries")
    if not 0.0 < theta <= np.pi:
        raise DomainError(f"frequency must lie in (0, pi], got {theta}")
    k = np.arange(1, z.size + 1)
    return float(np.abs(np.sum(z * np.exp(-1j * k * theta))) ** 2 / z.size)


# ---------------------------------------------------------------------------
# frequency selection

@dataclass(frozen=True)
class FrequencySelection:
    """Retained Fourier frequencies theta_l = 2*pi*l/p, l in a subset of 1..q.

    The retained index set drops everything at or below ceil(cutoff * q)
    and then keeps every m-th index of what remains.
    """

    p: int
    cutoff: float
    thinning: int
    indices: np.ndarray

    def __post_init__(self):
        idx = np.array(self.indices, dtype=int)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @property
    def q(self) -> int:
        return self.p // 2

    @property
    def f(self) -> int:
        return self.indices.size

    @property
    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * self.indices / self.p


def select_frequencies(p: int, cutoff: float = 0.1, thinning: int = 1) -> FrequencySelection:
    """Build the retained frequency set for a length-p series.

    Parameters
    ----------
    p : int
        Series length, at least 6.
    cutoff : float in [0, 1)
        Fraction of the q = floor(p/2) fundamental indices to drop at the
        low end; index l is kept only if l > ceil(cutoff * q).
    thinning : int
        Keep every m-th retained index, starting at the first one.

    Raises
    ------
    SelectionError
        If fewer than two frequencies survive.
    """
    if not (_is_count(p) and p >= 6):
        raise DimensionError(f"frequency selection needs an integer p >= 6, got {p}")
    _check_selection(cutoff, thinning)
    q = p // 2
    idx = np.arange(int(np.ceil(cutoff * q)) + 1, q + 1, thinning)
    if idx.size < 2:
        raise SelectionError(
            f"only {idx.size} frequencies retained (p={p}, cutoff={cutoff}, "
            f"thinning={thinning}); lower the cutoff or the thinning"
        )
    return FrequencySelection(p=p, cutoff=cutoff, thinning=thinning, indices=idx)


def _check_selection(cutoff: float, thinning) -> None:
    """Raise DomainError unless cutoff is in [0, 1) and thinning an integer >= 1."""
    if not (_is_number(cutoff) and 0.0 <= cutoff < 1.0):
        raise DomainError(f"cutoff must lie in [0, 1), got {cutoff}")
    if not (_is_count(thinning) and thinning >= 1):
        raise DomainError(f"thinning must be a positive integer, got {thinning}")


def auto_thinning(p: int, T: int, cutoff: float = 0.1, max_ratio: float = 0.3) -> int:
    """Smallest thinning m for which the retained count satisfies f/T <= max_ratio."""
    if not (_is_count(T) and T >= 1):
        raise DimensionError(f"automatic thinning needs an integer T >= 1, got {T}")
    for m in itertools.count(1):  # by m = p // 2 at most one frequency is left
        try:
            sel = select_frequencies(p, cutoff, m)
        except SelectionError:
            break
        if sel.f / T <= max_ratio:
            return m
    raise SelectionError(
        f"no thinning achieves f/T <= {max_ratio} with at least two "
        f"frequencies (p={p}, T={T}, cutoff={cutoff})"
    )


def _selection(p: int, T: int, cutoff: float, thinning=None) -> FrequencySelection:
    """:func:`select_frequencies`, with :func:`auto_thinning` when thinning is None."""
    m = auto_thinning(p, T, cutoff) if thinning is None else thinning
    return select_frequencies(p, cutoff, m)


def averaged_periodogram(residuals, sel: FrequencySelection) -> np.ndarray:
    """Row-averaged periodogram xi over the retained frequencies, length f.

    The retained thetas are Fourier frequencies 2*pi*l/p, so each row's
    periodogram is |rfft(row)[l]|^2 / p; the FFT's k = 0..p-1 offset is a
    unit-modulus phase and leaves the modulus of :func:`periodogram` as is.
    """
    coef = _retained_dft(_as_values(residuals), sel)
    return (np.abs(coef) ** 2 / sel.p).mean(axis=0)


def _retained_dft(values: np.ndarray, sel: FrequencySelection) -> np.ndarray:
    """T x f rfft coefficients of the rows at the retained indices; linear in the rows."""
    if values.shape[1] != sel.p:
        raise DimensionError(f"panel has {values.shape[1]} columns but the selection is for p={sel.p}")
    return np.fft.rfft(values, axis=1)[:, sel.indices]


# ---------------------------------------------------------------------------
# variance estimation and the test

def gasser_variance(residuals) -> float:
    """Difference-based noise-variance estimate of Gasser et al. (1986).

    Averages squared second differences along each row,

        (1/T) sum_t [6(p-2)]^{-1} sum_{j=2}^{p-1} (u_{t,j+1} + u_{t,j-1} - 2 u_{t,j})^2,

    which is exactly zero for rows that are affine in the column index.
    """
    values = _as_values(residuals)
    if values.shape[1] < 3:
        raise DimensionError("the second-difference estimator needs p >= 3")
    d2 = _second_differences(values)
    return float(np.mean(np.sum(d2**2, axis=1) / (6.0 * d2.shape[1])))


def _second_differences(values: np.ndarray) -> np.ndarray:
    return values[:, 2:] + values[:, :-2] - 2.0 * values[:, 1:-1]


@dataclass(frozen=True)
class NoiseTestReport:
    """Outcome of the flat-spectrum iid-noise test."""

    sigma2_hat: float
    xi: np.ndarray
    s2_xi: float
    lambda_fin: float
    lambda_inf: float
    p_fin: float
    p_inf: float
    f: int
    T: int

    def __post_init__(self):
        object.__setattr__(self, "xi", _readonly(self.xi))

    def to_dict(self) -> dict:
        return {
            "sigma2_hat": self.sigma2_hat,
            "f": self.f,
            "lambda_fin": self.lambda_fin,
            "p_fin": self.p_fin,
            "lambda_inf": self.lambda_inf,
            "p_inf": self.p_inf,
        }


def iid_noise_test(residuals, sel: FrequencySelection, sigma2: float | None = None) -> NoiseTestReport:
    """Test whether residual rows behave like iid noise.

    Parameters
    ----------
    residuals : ObservationPanel or (T, p) array
    sel : FrequencySelection
    sigma2 : float, optional
        Noise-variance override; by default the Gasser second-difference
        estimate of the residual panel is used.

    Returns
    -------
    NoiseTestReport
        With lambda_fin = (f-1) T S^2_xi / sigma^4 (upper-tail p-value
        from chi-square with f-1 degrees of freedom) and
        lambda_inf = (T S^2_xi / sigma^4 - 1) sqrt((f-1)/2) (upper-tail
        p-value from the standard normal).

    Raises
    ------
    DegenerateVarianceError
        When the noise variance is estimated (or given) as <= 0, e.g.
        for an all-zero residual panel after a saturated fit, or when its
        square under- or overflows the float range.
    NumericalError
        When a periodogram ordinate xi, or a statistic, overflows the float range.
    """
    values = _as_values(residuals)
    T, f = values.shape[0], sel.f
    with np.errstate(over="ignore", invalid="ignore"):
        xi = averaged_periodogram(values, sel)
        if sigma2 is None:
            sigma2 = gasser_variance(values)
    s2_xi, lam_fin, lam_inf = _noise_statistics(xi, sigma2, T, f)
    return NoiseTestReport(
        sigma2_hat=float(sigma2), xi=xi, s2_xi=s2_xi, lambda_fin=lam_fin, lambda_inf=lam_inf,
        p_fin=chi2_upper_tail(lam_fin, f - 1), p_inf=normal_upper_tail(lam_inf), f=f, T=T,
    )


def _noise_statistics(xi: np.ndarray, sigma2: float, T: int, f: int) -> tuple:
    """(S^2_xi, lambda_fin, lambda_inf) of :func:`iid_noise_test`, after its finiteness checks."""
    with np.errstate(over="ignore", invalid="ignore"):
        s2_xi = float(np.sum((xi - xi.mean()) ** 2) / (f - 1))
        _require_finite(xi, "residual periodogram xi", "the residuals are")
        if not (sigma2 > 0.0 and 0.0 < sigma2 * sigma2 < np.inf):
            raise DegenerateVarianceError(f"noise variance is {sigma2}; residuals are degenerate "
                                          "or beyond the float range")
        lam_fin = (f - 1) * T * s2_xi / sigma2**2
        lam_inf = (T * s2_xi / sigma2**2 - 1.0) * np.sqrt((f - 1) / 2.0)
    _require_finite((lam_fin, lam_inf), "noise-test statistic", "S^2_xi / sigma^4 is")
    return s2_xi, float(lam_fin), float(lam_inf)


# ---------------------------------------------------------------------------
# residual summaries

def residual_acf(u, h_max: int):
    """Row autocovariance gamma(h) = (1/p) sum_i (u_{i+h}-ubar)(u_i-ubar).

    Returns ``(acvf, acf)`` with lags 0..h_max; ``acf`` is the
    gamma(h)/gamma(0) normalization, or None when gamma(0) = 0 (constant
    input), in which case the autocovariances are all zero anyway.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise DimensionError("acf input must be a single residual row")
    p = u.size
    if not (_is_count(h_max) and 0 <= h_max <= p - 1):
        raise DimensionError(f"h_max must lie in [0, {p - 1}], got {h_max}")
    d = u - u.mean()
    acvf = np.array([np.dot(d[h:], d[: p - h]) / p for h in range(h_max + 1)])
    if acvf[0] > 0:
        return acvf, acvf / acvf[0]
    return acvf, None


def residual_covariance(residuals) -> np.ndarray:
    """Cross-sectional covariance (1/T) sum_t (U_t - Ubar)(U_t - Ubar)'."""
    values = _as_values(residuals)
    if values.shape[0] < 2:
        raise DimensionError("covariance needs at least two residual rows")
    Z = values - values.mean(axis=0)
    return Z.T @ Z / values.shape[0]


def residual_correlation(residuals):
    """Correlation version of :func:`residual_covariance`.

    Returns ``(corr, degenerate)`` where ``degenerate`` flags columns of
    zero variance; their correlation entries are set to NaN.
    """
    C = residual_covariance(residuals)
    return np.fromiter(_correlation_rows(C), (float, len(C)), len(C)), np.diag(C) == 0.0


def _correlation_rows(C):
    """Rows of C / outer(d, d), d = sqrt(diag C), one at a time; the diagonal 1, or NaN where d = 0."""
    d = np.sqrt(np.diag(C))
    scale = np.where(d == 0.0, np.nan, d)
    for i, row in enumerate(C):
        with np.errstate(over="ignore", invalid="ignore"):
            row = row / (scale[i] * scale)
        row[i] = np.nan if d[i] == 0.0 else 1.0
        yield row


def ar1_spectral_density(theta_coef: float, sigma: float, theta: float) -> float:
    """Spectral density sigma^2 / |1 - theta_coef e^{i theta}|^2 of an AR(1).

    The normalization omits the 1/(2 pi) factor so that an iid sequence
    (theta_coef = 0) has the constant density sigma^2, matching the
    expected periodogram level.
    """
    _check_ar1("AR(1) coefficient", theta_coef)
    if not (_is_number(sigma) and sigma > 0.0):
        raise DomainError(f"innovation scale must be positive, got {sigma}")
    return float(sigma**2 / (1.0 - 2.0 * theta_coef * np.cos(theta) + theta_coef**2))


def _check_ar1(name: str, theta: float, smooth: bool = False) -> None:
    """Raise DomainError unless |theta| < 1, which keeps an AR(1) stationary; the smooth DGP takes [0, 1)."""
    if not (_is_number(theta) and (0.0 <= theta < 1.0 if smooth else abs(theta) < 1.0)):
        raise DomainError(f"{name} must lie in {'[0, 1) for the smooth DGP' if smooth else '(-1, 1)'}, got {theta}")


# ---------------------------------------------------------------------------
# distribution tails

def _log_poisson_term(i: float, y: float) -> float:
    """log(y^i exp(-y) / Gamma(i+1)) for i >= 0 and y > 0.

    From i = 15 on, i log y and lgamma(i+1) are large and nearly cancel near
    the mode i ~ y, which would leave an error of order i * 1e-16.  There the
    term takes Loader's (2000) form i log(y/i) - y + i - log(2 pi i)/2 - s(i),
    with s(i) = lgamma(i+1) - (i+1/2) log i + i - log sqrt(2 pi) from five
    terms of Stirling's series (exact to 3e-16 at i >= 15).
    """
    if i < 15.0:
        return i * math.log(y) - y - math.lgamma(i + 1.0)
    n2 = i * i
    s = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / n2) / n2) / n2) / n2) / i
    return -i * math.log(i / y) - y + i - 0.5 * math.log(2.0 * math.pi * i) - s


def chi2_upper_tail(x: float, dof: int) -> float:
    """P(chi^2_dof >= x), in closed form at integer dof (Abramowitz & Stegun 26.4.4-26.4.5).

    With y = x/2 the tail is the finite sum of y^i exp(-y) / Gamma(i+1) over
    i = 0, 1, ..., dof/2 - 1 for even dof, and erfc(sqrt(y)) plus the same sum
    over i = 1/2, 3/2, ..., (dof-2)/2 for odd dof.  Each term is taken in log
    space, so none under- or overflows at large x or dof.
    """
    if not (_is_count(dof) and dof >= 1):
        raise DomainError(f"degrees of freedom must be a positive integer, got {dof}")
    y = x / 2.0
    if y <= 0.0:  # also an x so small that its half rounds to zero
        return 1.0
    if y == math.inf:
        return 0.0
    half = (dof % 2) / 2.0
    terms = [math.erfc(math.sqrt(y)) if half else 0.0]
    terms += [math.exp(_log_poisson_term(half + k, y)) for k in range(dof // 2)]
    return math.fsum(terms)


def normal_upper_tail(z: float) -> float:
    """P(N(0,1) >= z) = erfc(z / sqrt(2)) / 2."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))
