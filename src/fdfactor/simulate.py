"""Synthetic data generators, baselines, metrics and the Monte Carlo harness.

Two signal families are provided.  The rough family mixes three fixed
components -- a jump indicator, a folded tent with a kink, and a cosine
-- with independent Gaussian scores, producing curves that are
deliberately non-smooth.  The smooth family draws random coefficients on
a cubic B-spline basis, with geometrically decaying coefficient
variances rescaled to a target overall signal variance.  Noise rows are
independent stationary AR(1) paths (iid Gaussian when the coefficient
is zero).

Every randomized routine takes an explicit generator or seed, and the
harness derives one independent stream per (setting, replication) pair,
so results are reproducible bit for bit regardless of scheduling.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .diagnostics import _check_ar1, _check_selection, _selection, iid_noise_test
from .errors import DimensionError, DomainError, InputError, NumericalError
from .factor import _max_order, fit
from .order import plateau_fit
from .panel import ObservationPanel, SampleGrid, _frozen, _is_count, _is_number, _require_finite, _write_rows
from .spectral import _one_blas_thread

#: pinned random-number recipe, recorded in manifests so that
#: reimplementations can document divergence
RNG_ALGORITHM = "numpy PCG64 + SeedSequence(seed, spawn_key=(setting, replication)), ziggurat normals"

#: standard deviations of the three rough-signal scores
ROUGH_SCORE_SCALES = (1.0, 0.5, 0.25)

#: test levels of the rejection-rate columns of ``summary.csv``
_LEVELS = (0.01, 0.05, 0.10)

#: errors that count a replication as failed; any other exception propagates
REPLICATION_ERRORS = (InputError, NumericalError)


def _check_scale(name: str, value: float) -> None:
    """Raise DomainError unless a variance or a standard deviation is finite and nonnegative."""
    if not (_is_number(value) and 0 <= value < np.inf):
        raise DomainError(f"{name} must be finite and nonnegative, got {value}")


def _check_count(name: str, n, least: int, optional: bool = False) -> None:
    """Raise DomainError unless ``n`` is an integer >= least, or None where it is optional."""
    if not (optional and n is None or _is_count(n) and n >= least):
        raise DomainError(f"{name} must be {f'>= {least}' if least else 'nonnegative'}, got {n}")


def _rng(seed_or_rng) -> np.random.Generator:
    """``np.random.default_rng`` of a Generator, BitGenerator or SeedSequence, or of a seed None or >= 0."""
    if not isinstance(seed_or_rng, (np.random.Generator, np.random.BitGenerator, np.random.SeedSequence)):
        _check_count("seed", seed_or_rng, 0, optional=True)
    return np.random.default_rng(seed_or_rng)


def replication_rng(seed: int, setting_index: int, replication_index: int) -> np.random.Generator:
    """Independent stream for one (setting, replication) cell of a study."""
    ss = np.random.SeedSequence(seed, spawn_key=(setting_index, replication_index))
    return np.random.Generator(np.random.PCG64(ss))


# ---------------------------------------------------------------------------
# rough signals

def rough_components(s) -> np.ndarray:
    """The three rough basis curves evaluated at s, shape (3, len(s)).

    Component 1 jumps from 0 to 1 at s = 1/3; component 2 is a tent on
    [1/3, 2/3] peaking at 0.8 in s = 1/2 with its right half flipped to
    negative values; component 3 is cos(6 pi s).
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    jump = (s > 1.0 / 3.0).astype(float)
    flip = np.where((s > 0.5) & (s <= 2.0 / 3.0), -1.0, 1.0)
    tent = np.where(
        (s >= 1.0 / 3.0) & (s <= 2.0 / 3.0),
        flip * 4.0 * (0.2 - np.abs(s - 0.5)),
        0.0,
    )
    cosine = np.cos(6.0 * np.pi * s)
    return np.stack([jump, tent, cosine])


@dataclass(frozen=True)
class RoughDgpConfig:
    """Rough-signal study cell: grid size, sample size, noise variance, seed."""

    p: int
    T: int
    sigma2: float
    seed: Optional[int] = None

    def __post_init__(self):
        if not (_is_count(self.p) and self.p >= 3):
            raise DimensionError(f"rough DGP needs p >= 3, got {self.p}")
        if not (_is_count(self.T) and self.T >= 2):
            raise DimensionError(f"rough DGP needs T >= 2, got {self.T}")
        _check_scale("sigma2", self.sigma2)
        _check_count("seed", self.seed, 0, optional=True)


def gen_rough_signals(cfg: RoughDgpConfig, rng: Optional[np.random.Generator] = None):
    """Noiseless rough signals on the midpoint grid.

    Returns ``(panel, scores)`` where ``scores`` has shape (T, 3); the
    scores are independent centered Gaussians with standard deviations
    ``ROUGH_SCORE_SCALES``.
    """
    return _rough_signals(cfg.p, _rng(cfg.seed if rng is None else rng).standard_normal((cfg.T, 3)))


def _rough_signals(p: int, normals: np.ndarray):
    """:func:`gen_rough_signals` on p midpoints from its (T, 3) standard normals; reads p and the normals only."""
    grid, basis = _midpoint_design(p)
    scores = normals * np.asarray(ROUGH_SCORE_SCALES)
    return ObservationPanel(_frozen(scores @ basis), grid), scores


@lru_cache(maxsize=16)
def _midpoint_design(p: int):
    """The midpoint grid of p points and the read-only rough basis on it, shape (3, p)."""
    grid = SampleGrid.midpoints(p)
    return grid, _frozen(rough_components(grid.points))


# ---------------------------------------------------------------------------
# B-spline machinery and smooth signals

def _clamped_knots(K: int) -> np.ndarray:
    inner = np.linspace(0.0, 1.0, K - 2)[1:-1]
    return np.concatenate([np.zeros(4), inner, np.ones(4)])


def bspline_basis(K: int, s):
    """Clamped cubic B-spline basis on [0, 1], evaluated by Cox-de Boor.

    Returns shape (K,) for scalar input and (n, K) for an array of n
    points.  The K functions are nonnegative and sum to one everywhere;
    at s = 0 (and s = 1) a single function equals one.
    """
    if not (_is_count(K) and K >= 4):
        raise DimensionError(f"cubic B-splines need K >= 4 basis functions, got {K}")
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr < 0.0) or np.any(s_arr > 1.0):
        raise DomainError("B-spline evaluation points must lie in [0, 1]")
    t = _clamped_knots(K)
    x = s_arr[:, None]
    left, right = t[:-1], t[1:]
    B = ((left <= x) & (x < right)) | ((x == 1.0) & (right == 1.0) & (left < 1.0))
    B = B.astype(float)
    for d in range(1, 4):
        nb = B.shape[1] - 1
        out = np.zeros((x.shape[0], nb))
        for j in range(nb):
            acc = 0.0
            if t[j + d] > t[j]:
                acc = (s_arr - t[j]) / (t[j + d] - t[j]) * B[:, j]
            if t[j + d + 1] > t[j + 1]:
                acc = acc + (t[j + d + 1] - s_arr) / (t[j + d + 1] - t[j + 1]) * B[:, j + 1]
            out[:, j] = acc
        B = out
    return B[0] if np.ndim(s) == 0 else B


@dataclass(frozen=True)
class SmoothDgpConfig:
    """Smooth-signal study cell built on a K-dimensional cubic spline space.

    Coefficient k has variance proportional to 2^{-(k-1)/2}; the common
    scale is fixed so that the signal variance averaged over [0, 1]
    equals ``signal_variance``.  Noise is AR(1) with coefficient
    ``theta_ar`` and innovation standard deviation ``sigma``.
    """

    p: int
    T: int
    sigma: float
    theta_ar: float = 0.0
    K: int = 21
    signal_variance: float = 25.0
    seed: Optional[int] = None

    def __post_init__(self):
        if not (_is_count(self.K) and self.K >= 4):
            raise DimensionError(f"spline basis needs K >= 4, got {self.K}")
        _check_ar1("AR coefficient", self.theta_ar, smooth=True)
        if not (_is_count(self.p) and _is_count(self.T) and self.p >= 2 and self.T >= 2):
            raise DimensionError("smooth DGP needs p >= 2 and T >= 2")
        _check_scale("sigma", self.sigma)
        _check_scale("signal_variance", self.signal_variance)
        if float(self.signal_variance) / _quadrature_variance(self.K) == np.inf:  # Python floats: no warning
            raise DomainError(f"signal_variance must keep the K={self.K} coefficient variances "
                              f"within the float range, got {self.signal_variance}")
        _check_count("seed", self.seed, 0, optional=True)


def coefficient_variances(K: int, signal_variance: float) -> np.ndarray:
    """Geometrically decaying coefficient variances, rescaled to the target.

    The rescaling uses a fixed 4001-point midpoint quadrature of
    sum_k v_k B_k(s)^2 over [0, 1], so it is deterministic and does not
    depend on the evaluation grid of any particular study.  The
    quadrature runs once per K and is cached; every call returns a
    fresh array.
    """
    decay = 2.0 ** (-np.arange(K) / 2.0)
    if signal_variance == 0.0:
        return np.zeros(K)
    return signal_variance / _quadrature_variance(K) * decay


@lru_cache(maxsize=16)
def _quadrature_variance(K: int) -> float:
    """Average over [0, 1] of sum_k 2^{-k/2} B_k(s)^2 by the fixed quadrature."""
    decay = 2.0 ** (-np.arange(K) / 2.0)
    squad = (np.arange(4001) + 0.5) / 4001
    B = bspline_basis(K, squad)
    return float(np.mean(B**2 @ decay))


def gen_spline_signals(cfg: SmoothDgpConfig, rng: Optional[np.random.Generator] = None) -> ObservationPanel:
    """Smooth signals X_t(s_i) = sum_k c_{tk} B_k(s_i) on the midpoint grid."""
    normals = _rng(cfg.seed if rng is None else rng).standard_normal((cfg.T, cfg.K))
    return _spline_signals(cfg.p, cfg.K, cfg.signal_variance, normals)


def _spline_signals(p: int, K: int, signal_variance: float, normals: np.ndarray) -> ObservationPanel:
    """:func:`gen_spline_signals` from its (T, K) standard normals; reads p, K, signal_variance and the normals only."""
    grid = _midpoint_design(p)[0]
    B = _spline_design(K, grid.points.tobytes())
    sd = np.sqrt(coefficient_variances(K, signal_variance))
    coef = normals * sd
    return ObservationPanel(_frozen(coef @ B.T), grid)


# ---------------------------------------------------------------------------
# noise, addition, metric

def gen_ar1_noise(p: int, T: int, theta_ar: float, sigma: float, seed_or_rng=None) -> np.ndarray:
    """T independent stationary AR(1) rows of length p.

    The first entry of each row is drawn from the stationary law
    N(0, sigma^2 / (1 - theta^2)) and the recursion
    u_j = theta u_{j-1} + sigma xi_j runs along the row.

    All normals come from one (p, T) draw, in the order a column-by-column
    loop draws them, so the output is bit-identical to that loop.
    """
    if not (_is_count(p) and _is_count(T) and p >= 1 and T >= 1):
        raise DimensionError(f"AR(1) noise needs p >= 1 and T >= 1, got p={p}, T={T}")
    _check_ar1("AR coefficient", theta_ar)
    _check_scale("sigma", sigma)
    return _ar1_rows(_rng(seed_or_rng).standard_normal((p, T)), theta_ar, sigma)


def _ar1_rows(W: np.ndarray, theta_ar: float, sigma: float) -> np.ndarray:
    """``gen_ar1_noise`` on its (p, T) draw W of standard normals, which it updates in place."""
    W[0] *= sigma / np.sqrt(1.0 - theta_ar**2)
    W[1:] *= sigma
    if theta_ar != 0.0:
        rows = list(W)  # row views: the same updates in the same order, without indexing W each step
        for prev, row in zip(rows, rows[1:]):
            row += theta_ar * prev
    return W.T.copy()


def add_noise(signals: ObservationPanel, noise) -> ObservationPanel:
    """Entrywise sum of a signal panel and a noise array of equal shape."""
    noise = np.asarray(getattr(noise, "values", noise), dtype=float)
    if noise.shape != signals.values.shape:
        raise DimensionError(f"noise shape {noise.shape} does not match signals {signals.values.shape}")
    return ObservationPanel(_frozen(signals.values + noise), signals.grid)


def sse_appr(truth, estimate) -> float:
    """Mean squared error (1/pT) sum_{t,i} (X_{ti} - Xhat_{ti})^2; NumericalError if it overflows."""
    a = np.asarray(getattr(truth, "values", truth), dtype=float)
    b = np.asarray(getattr(estimate, "values", estimate), dtype=float)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        err = float(np.mean((a - b) ** 2))
    _require_finite(err, "approximation error", "the signals or the estimate are")
    return err


def bspline_ls_fit(panel: ObservationPanel, K: int) -> ObservationPanel:
    """Per-curve least-squares projection onto K cubic B-splines.

    The classic smoothing baseline.  The design B and the projector
    P = (B'B)^{-1} B', from two triangular solves with the numpy.linalg
    Cholesky factor of B'B, depend only on K and the grid; they are cached
    read-only per (K, grid) pair, and each call applies B (P Y').  A
    rank-deficient design raises NumericalError on every call.
    """
    if K > panel.p:
        raise DimensionError(f"K = {K} exceeds the number of grid points {panel.p}")
    B, P = _spline_projector(K, panel.grid.points.tobytes())
    return ObservationPanel(_frozen((B @ (P @ panel.values.T)).T), panel.grid)


@lru_cache(maxsize=16)
def _spline_design(K: int, grid_bytes: bytes) -> np.ndarray:
    """Read-only design B (p, K) of the K cubic B-splines on a grid, given by its point bytes."""
    return _frozen(bspline_basis(K, np.frombuffer(grid_bytes)))


@lru_cache(maxsize=16)
def _spline_projector(K: int, grid_bytes: bytes):
    """Read-only design B (p, K) and projector (B'B)^{-1} B' (K, p) on a grid."""
    B = _spline_design(K, grid_bytes)
    G = B.T @ B
    try:
        C = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"rank-deficient spline design (K={K}, p={B.shape[0]}): {exc}") from exc
    return B, _frozen(np.linalg.solve(C.T, np.linalg.solve(C, B.T)))


# ---------------------------------------------------------------------------
# Monte Carlo harness

@dataclass(frozen=True)
class SimSetting:
    """One cell of a study grid.  ``sigma2`` is the innovation variance."""

    p: int
    T: int
    sigma2: float
    theta_ar: float = 0.0

    def __post_init__(self):
        if not (_is_count(self.p) and _is_count(self.T) and self.p >= 2 and self.T >= 2):
            raise DimensionError(f"a setting needs p >= 2 and T >= 2, got p={self.p}, T={self.T}")
        _check_scale("sigma2", self.sigma2)


@dataclass(frozen=True)
class SimulationSpec:
    """Complete, self-contained description of a Monte Carlo study.

    ``kind='sse'`` generates signal-plus-noise panels, fits each method
    and scores signal recovery; ``kind='noise-test'`` generates pure
    noise panels and records the iid-noise test outcomes.
    """

    dgp: str                                  # 'rough' | 'smooth'
    kind: str                                 # 'sse' | 'noise-test'
    settings: Sequence[SimSetting]
    replications: int
    seed: int
    methods: Sequence[str] = ("pca",)
    l_policy: str = "fixed"                   # 'fixed' | 'plateau'
    l_fixed: int = 3
    scree_l_max: int = 8
    cutoff: float = 0.1
    thinning: Optional[int] = None            # None -> smallest m with f/T <= 0.3
    levels: Sequence[float] = _LEVELS
    smooth_K: int = 21
    signal_variance: float = 25.0

    def __post_init__(self):
        if self.dgp not in ("rough", "smooth"):
            raise DomainError(f"unknown dgp {self.dgp!r}")
        if self.kind not in ("sse", "noise-test"):
            raise DomainError(f"unknown study kind {self.kind!r}")
        if self.l_policy not in ("fixed", "plateau"):
            raise DomainError(f"unknown L policy {self.l_policy!r}")
        if empty := [k for k in ("settings", "methods") if not getattr(self, k)]:
            raise DomainError(f"{empty[0]} must list at least one entry")
        if unknown := set(self.methods) - {"pca", "bspline"}:
            raise DomainError(f"unknown methods {sorted(unknown)}")
        if repeated := [m for i, m in enumerate(self.methods) if m in self.methods[:i]]:
            raise DomainError(f"method {repeated[0]!r} is listed more than once")
        if not (_is_count(self.replications) and self.replications >= 1):
            raise DomainError("replications must be >= 1")
        _check_count("seed", self.seed, 0)
        _check_selection(self.cutoff, 1 if self.thinning is None else self.thinning)  # None: automatic
        _check_count("l_fixed (spec key 'l')", self.l_fixed, 1)
        _check_count("scree_l_max", self.scree_l_max, 4)
        if self.kind == "sse" and self.dgp == "smooth" and not (_is_count(self.smooth_K) and self.smooth_K >= 4):
            raise DimensionError(f"smooth_K must be >= 4 for the cubic spline basis, got {self.smooth_K}")
        if tuple(self.levels) != _LEVELS:
            raise DomainError(f"levels must be {_LEVELS}, got {tuple(self.levels)}")
        for i, s in enumerate(self.settings):
            try:
                _check_ar1("theta_ar", s.theta_ar, smooth=self.dgp == "smooth")
                if self.kind == "sse":  # only an sse study draws signals, and building their config checks them
                    (RoughDgpConfig(s.p, s.T, s.sigma2) if self.dgp == "rough" else
                     SmoothDgpConfig(s.p, s.T, float(np.sqrt(s.sigma2)), s.theta_ar, self.smooth_K, self.signal_variance))
            except InputError as exc:
                raise type(exc)(f"settings[{i}]: {exc}") from None
        for name in ("settings", "methods", "levels"):
            object.__setattr__(self, name, tuple(getattr(self, name)))


@dataclass(frozen=True)
class SettingResult:
    """Aggregated outcome of one setting x method cell."""

    dgp: str
    kind: str
    p: int
    T: int
    sigma2: float
    theta_ar: float
    method: str
    l_policy: str
    replications: int
    failures: int
    l_median: Optional[float] = None
    sse_median: Optional[float] = None
    sse_mean: Optional[float] = None
    rej_fin: Optional[dict] = None
    rej_inf: Optional[dict] = None
    lambda_fin_median: Optional[float] = None
    lambda_inf_median: Optional[float] = None
    failure_causes: Optional[dict] = None       # REPLICATION_ERRORS class name -> count


@dataclass(frozen=True)
class SimulationSummary:
    spec: SimulationSpec
    results: tuple
    rng_algorithm: str = RNG_ALGORITHM
    blas_threads_per_worker: Optional[int] = None  # None: the BLAS kept its own thread count


def _normals(spec: SimulationSpec, si: int, ri: int):
    """A replication's stream and empty arrays, on the calling thread's heap, for its normals in draw order."""
    setting = spec.settings[si]
    signal = [(setting.T, 3 if spec.dgp == "rough" else spec.smooth_K)] if spec.kind == "sse" else []
    return replication_rng(spec.seed, si, ri), [np.empty(s) for s in [*signal, (setting.p, setting.T)]]


def _fill(rng: np.random.Generator, arrays: list) -> list:  # on a draw thread, with no BLAS call
    for out in arrays:
        rng.standard_normal(out=out)
    return arrays


def _run_sse_rep(spec, setting, normals):  # each array popped as it is used, and no name keeps the noise
    signals = (_rough_signals(setting.p, normals.pop(0))[0] if spec.dgp == "rough"
               else _spline_signals(setting.p, spec.smooth_K, spec.signal_variance, normals.pop(0)))
    observed = add_noise(signals, _ar1_rows(normals.pop(), setting.theta_ar, float(np.sqrt(setting.sigma2))))
    out = {}
    for method in spec.methods:
        try:
            if method == "bspline":
                K = max(4, setting.p // 3)
                out[method] = (sse_appr(signals, bspline_ls_fit(observed, K)), float(K))
            elif spec.l_policy == "fixed":
                L = spec.l_fixed
                out[method] = (sse_appr(signals, fit(observed, L).signals), float(L))
            else:
                sel = _selection(setting.p, setting.T, spec.cutoff, spec.thinning)
                l_max = min(spec.scree_l_max, _max_order(setting.T, setting.p))
                _, suggestion, result = plateau_fit(observed, l_max, sel)
                out[method] = (sse_appr(signals, result.signals), float(suggestion.L))
        except REPLICATION_ERRORS as exc:
            out[method] = type(exc).__name__
    return out


def _run_test_rep(spec, setting, normals):
    noise = _ar1_rows(normals.pop(), setting.theta_ar, float(np.sqrt(setting.sigma2)))
    try:
        rep = iid_noise_test(noise, _selection(setting.p, setting.T, spec.cutoff, spec.thinning))
        return {"noise-test": (rep.lambda_fin, rep.lambda_inf, rep.p_fin, rep.p_inf)}
    except REPLICATION_ERRORS as exc:
        return {"noise-test": type(exc).__name__}


def _aggregate(kind: str, good: np.ndarray) -> dict:
    """SettingResult statistics of the (n, k) records of a cell's successful replications."""
    m0, m1 = np.median(good[:, :2], axis=0).tolist()
    if kind == "sse":  # records (sse, L)
        return dict(sse_median=m0, l_median=m1, sse_mean=float(np.mean(good[:, 0])))
    return dict(  # records (lambda_fin, lambda_inf, p_fin, p_inf)
        rej_fin={lv: float(np.mean(good[:, 2] < lv)) for lv in _LEVELS},
        rej_inf={lv: float(np.mean(good[:, 3] < lv)) for lv in _LEVELS},
        lambda_fin_median=m0, lambda_inf_median=m1)


def run_monte_carlo(spec: SimulationSpec, workers: Optional[int] = None) -> SimulationSummary:
    """Run a full study grid; deterministic for a given spec regardless of workers.

    Each (setting, replication) pair draws from its own derived stream, and
    results are aggregated in replication order, so scheduling cannot affect
    the output.  ``workers`` (None for 1) must be an integer >= 1, else
    DomainError before any replication runs.  A setting runs in ``workers``
    chunks: the caller runs the first in a fresh context, ``workers - 1`` pool
    threads the rest, and ``workers`` draw threads fill each chunk's next arrays
    with normals.  The next setting waits for this one's chunks, and the study
    holds ``_one_blas_thread``.  A replication raising one of
    ``REPLICATION_ERRORS`` counts as failed, by its exception's class name, and
    is excluded; any other propagates.
    """
    from concurrent.futures import ThreadPoolExecutor  # here, so that other commands never load it

    _check_count("workers", workers, 1, optional=True)
    workers = workers or 1
    runner = _run_sse_rep if spec.kind == "sse" else _run_test_rep
    R = spec.replications
    firsts = range(0, R, -(-R // workers))  # one contiguous chunk of each setting per worker

    def run_chunk(si, first):
        reps, out = range(R)[first:first + firsts.step], []
        ahead = draws.submit(_fill, *_normals(spec, si, reps[0]))
        for ri in reps:  # replication ri computes while a draw thread fills ri + 1
            normals = ahead.result()
            ahead = draws.submit(_fill, *_normals(spec, si, ri + 1)) if ri + 1 in reps else None
            out.append(runner(spec, spec.settings[si], normals))
        return out

    results = []
    with (_one_blas_thread() as blas_threads, ThreadPoolExecutor(workers, "fdfactor-draws") as draws,
          ThreadPoolExecutor(max(1, workers - 1)) as pool):  # closed first, while its chunks can still draw
        for si, setting in enumerate(spec.settings):
            rest = [pool.submit(run_chunk, si, first) for first in firsts[1:]]
            with np.errstate(all="warn", under="ignore"):  # numpy's defaults: numpy 1.x keeps them per thread
                cells = contextvars.Context().run(run_chunk, si, 0) + [c for f in rest for c in f.result()]
            for method in cells[0]:  # spec.methods in order, or "noise-test"
                good = [c[method] for c in cells if not isinstance(c[method], str)]
                failed = [c[method] for c in cells if isinstance(c[method], str)]
                results.append(SettingResult(
                    dgp=spec.dgp, kind=spec.kind, p=setting.p, T=setting.T,
                    sigma2=setting.sigma2, theta_ar=setting.theta_ar, method=method,
                    l_policy=spec.l_policy, replications=R, failures=len(failed),
                    **(_aggregate(spec.kind, np.array(good)) if good else {}),
                    failure_causes={c: failed.count(c) for c in sorted(set(failed))},
                ))
    return SimulationSummary(spec, tuple(results), blas_threads_per_worker=blas_threads)


SUMMARY_COLUMNS = (
    "dgp", "kind", "p", "T", "sigma2", "theta_ar", "method", "l_policy",
    "replications", "failures", "l_median", "sse_median", "sse_mean",
    "rej_fin_1", "rej_fin_5", "rej_fin_10",
    "rej_inf_1", "rej_inf_5", "rej_inf_10",
    "lambda_fin_median", "lambda_inf_median",
)


def summary_rows(summary: SimulationSummary):
    """Flatten a summary into CSV rows following ``SUMMARY_COLUMNS``."""
    return [[r.dgp, r.kind, r.p, r.T, r.sigma2, r.theta_ar, r.method, r.l_policy,
             r.replications, r.failures, r.l_median, r.sse_median, r.sse_mean,
             *map((r.rej_fin or {}).get, _LEVELS), *map((r.rej_inf or {}).get, _LEVELS),
             r.lambda_fin_median, r.lambda_inf_median] for r in summary.results]


def write_summary_csv(summary: SimulationSummary, path) -> None:
    _write_rows(path, summary_rows(summary), SUMMARY_COLUMNS)
