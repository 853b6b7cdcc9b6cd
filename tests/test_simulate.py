import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import BSpline

import fdfactor
from fdfactor import (
    DimensionError,
    DomainError,
    NumericalError,
    ObservationPanel,
    RoughDgpConfig,
    SampleGrid,
    SimSetting,
    SimulationSpec,
    SmoothDgpConfig,
    add_noise,
    auto_thinning,
    bspline_basis,
    bspline_ls_fit,
    fit,
    gen_ar1_noise,
    gen_rough_signals,
    gen_spline_signals,
    iid_noise_test,
    lambda_scree,
    plateau_fit,
    residual_acf,
    rough_components,
    run_monte_carlo,
    select_frequencies,
    sse_appr,
    suggest_plateau_L,
)
from fdfactor.diagnostics import _selection
from fdfactor.simulate import (
    _quadrature_variance,
    _spline_projector,
    coefficient_variances,
    replication_rng,
    summary_rows,
)


def ar1_column_loop(p, T, theta_ar, sigma, rng):
    """Column-by-column AR(1) recursion, drawing T innovations per column."""
    U = np.empty((T, p))
    U[:, 0] = rng.standard_normal(T) * (sigma / np.sqrt(1.0 - theta_ar**2))
    for j in range(1, p):
        U[:, j] = theta_ar * U[:, j - 1] + sigma * rng.standard_normal(T)
    return U


class TestRoughComponents:
    def test_supports(self):
        s = np.array([0.1, 0.2, 0.3])
        comps = rough_components(s)
        assert np.array_equal(comps[0], np.zeros(3))
        assert np.array_equal(comps[1], np.zeros(3))

    def test_tent_values_and_sign_flip(self):
        comps = rough_components(np.array([0.5, 0.55]))
        assert comps[1, 0] == pytest.approx(0.8, abs=1e-15)
        assert comps[1, 1] == pytest.approx(-0.6, abs=1e-15)

    def test_tent_edges(self):
        comps = rough_components(np.array([1 / 3, 2 / 3]))
        assert comps[1, 0] == pytest.approx(4 * (0.2 - 1 / 6), abs=1e-12)
        assert comps[1, 1] == pytest.approx(-4 * (0.2 - 1 / 6), abs=1e-12)

    def test_left_region_is_pure_cosine(self):
        cfg = RoughDgpConfig(p=60, T=50, sigma2=0.0, seed=11)
        rng = np.random.default_rng(cfg.seed)
        signals, scores = gen_rough_signals(cfg, rng)
        s = signals.grid.points
        region = s < 1 / 3
        expected = np.outer(scores[:, 2], np.cos(6 * np.pi * s[region]))
        assert np.array_equal(signals.values[:, region], expected)

    def test_variance_at_right_endpoint(self):
        # at s = 1: jump = 1, tent = 0, cosine = 1, so the variance is
        # Var(score1) + Var(score3) = 1 + 1/16
        rng = np.random.default_rng(12)
        scores = rng.standard_normal((100_000, 3)) * np.array([1.0, 0.5, 0.25])
        x_at_one = scores @ rough_components(np.array([1.0]))[:, 0]
        assert np.var(x_at_one) == pytest.approx(1.0 + 1.0 / 16.0, rel=0.02)


class TestRoughConfig:
    def test_validation(self):
        with pytest.raises(DimensionError):
            RoughDgpConfig(p=2, T=10, sigma2=0.1)
        with pytest.raises(DomainError):
            RoughDgpConfig(p=10, T=10, sigma2=-0.1)

    def test_seed_determinism(self):
        a, _ = gen_rough_signals(RoughDgpConfig(p=20, T=15, sigma2=0.1, seed=5))
        b, _ = gen_rough_signals(RoughDgpConfig(p=20, T=15, sigma2=0.1, seed=5))
        assert np.array_equal(a.values, b.values)


class TestBsplineBasis:
    def test_partition_of_unity(self):
        s = np.linspace(0, 1, 501)
        for K in (4, 7, 21):
            B = bspline_basis(K, s)
            assert B.shape == (501, K)
            assert np.max(np.abs(B.sum(axis=1) - 1.0)) < 1e-12
            assert B.min() >= 0.0

    def test_clamped_ends(self):
        B0 = bspline_basis(21, 0.0)
        B1 = bspline_basis(21, 1.0)
        assert B0[0] == 1.0 and np.max(np.abs(B0[1:])) == 0.0
        assert B1[-1] == 1.0 and np.max(np.abs(B1[:-1])) == 0.0

    def test_matches_scipy_design_matrix(self):
        s = np.linspace(0, 1, 101)
        for K in (5, 12, 21):
            inner = np.linspace(0, 1, K - 2)[1:-1]
            knots = np.concatenate([np.zeros(4), inner, np.ones(4)])
            reference = BSpline.design_matrix(s, knots, 3, extrapolate=False).toarray()
            assert np.max(np.abs(bspline_basis(K, s) - reference)) < 1e-12

    def test_domain_and_size(self):
        with pytest.raises(DomainError):
            bspline_basis(8, 1.2)
        with pytest.raises(DimensionError):
            bspline_basis(3, 0.5)


class TestSmoothDgp:
    def test_zero_signal_variance(self):
        cfg = SmoothDgpConfig(p=24, T=10, sigma=1.0, signal_variance=0.0, seed=1)
        signals = gen_spline_signals(cfg)
        assert np.array_equal(signals.values, np.zeros((10, 24)))

    def test_signals_lie_in_spline_span(self):
        cfg = SmoothDgpConfig(p=48, T=12, sigma=0.0, seed=2)
        signals = gen_spline_signals(cfg)
        refit = bspline_ls_fit(signals, 21)
        scale = np.abs(signals.values).max()
        assert np.max(np.abs(refit.values - signals.values)) < 1e-8 * scale

    def test_seed_determinism(self):
        cfg = SmoothDgpConfig(p=24, T=9, sigma=2.0, seed=3)
        assert np.array_equal(
            gen_spline_signals(cfg).values, gen_spline_signals(cfg).values
        )

    def test_overall_variance_calibration(self):
        cfg = SmoothDgpConfig(p=96, T=40_000, sigma=0.0, seed=4)
        signals = gen_spline_signals(cfg)
        avg_var = np.mean(np.var(signals.values, axis=0))
        assert avg_var == pytest.approx(25.0, rel=0.05)

    def test_noise_left_in_true_span_is_sigma2_K_over_p(self):
        # the error floor of any rank-K fit on smooth data: the noise that
        # projects onto the K-dimensional spline span, sigma^2 K / p per cell
        cfg = SmoothDgpConfig(p=24, T=2000, sigma=4.0, K=21, seed=10)
        rng = np.random.default_rng(cfg.seed)
        signals = gen_spline_signals(cfg, rng)
        observed = add_noise(signals, gen_ar1_noise(cfg.p, cfg.T, 0.0, cfg.sigma, rng))
        Q, _ = np.linalg.qr(bspline_basis(cfg.K, signals.grid.points))
        row_errors = np.mean((observed.values @ Q @ Q.T - signals.values) ** 2, axis=1)
        se = row_errors.std(ddof=1) / np.sqrt(cfg.T)
        floor = cfg.sigma**2 * cfg.K / cfg.p
        assert abs(row_errors.mean() - floor) < 4.0 * se

    def test_coefficient_decay(self):
        v = coefficient_variances(21, 25.0)
        ratios = v[1:] / v[:-1]
        assert np.allclose(ratios, 2 ** (-0.5), atol=1e-12)

    def test_coefficient_variances_return_fresh_arrays(self):
        first = coefficient_variances(21, 25.0).copy()
        coefficient_variances(21, 25.0)[:] = -1.0
        assert np.array_equal(coefficient_variances(21, 25.0), first)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SmoothDgpConfig(p=24, T=10, sigma=1.0, theta_ar=1.0)
        with pytest.raises(DimensionError):
            SmoothDgpConfig(p=24, T=10, sigma=1.0, K=3)

    def test_signal_variance_must_keep_the_coefficient_variances_finite(self):
        # 1e308 / _quadrature_variance(8) overflows: the spline signals were NaN, and the panel rejected them
        with pytest.raises(DomainError, match=r"^signal_variance must keep the K=8 coefficient variances "
                                              r"within the float range, got 1e\+308$"):
            SmoothDgpConfig(p=24, T=10, sigma=1.0, K=8, signal_variance=1e308)
        assert np.all(np.isfinite(gen_spline_signals(SmoothDgpConfig(p=24, T=10, sigma=1.0, K=8,
                                                                     signal_variance=1e300, seed=1)).values))

    @pytest.mark.parametrize("field", ["sigma", "signal_variance"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), -1.0])
    def test_scales_must_be_finite_and_nonnegative(self, field, value):
        with pytest.raises(DomainError, match=rf"^{field} must be finite and nonnegative, got {value}$"):
            SmoothDgpConfig(p=24, T=10, **{"sigma": 1.0, field: value})


class TestAr1Noise:
    def test_iid_case(self):
        rng = np.random.default_rng(5)
        U = gen_ar1_noise(400, 300, 0.0, 2.0, rng)
        assert np.var(U) == pytest.approx(4.0, rel=0.03)

    def test_lag_one_autocorrelation(self):
        rng = np.random.default_rng(6)
        U = gen_ar1_noise(1000, 1000, 0.8, 1.0, rng)
        x, y = U[:, :-1].ravel(), U[:, 1:].ravel()
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r - 0.8) < 0.02

    def test_stationary_marginal_variance(self):
        rng = np.random.default_rng(7)
        theta = 0.8
        U = gen_ar1_noise(1000, 1000, theta, 1.0, rng)
        assert np.var(U) == pytest.approx(1.0 / (1 - theta**2), rel=0.03)

    @pytest.mark.parametrize("theta", [0.0, 0.4, 0.8])
    def test_bit_identical_to_column_loop(self, theta):
        for p, T in ((365, 200), (7, 3), (2, 50)):
            rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
            assert np.array_equal(gen_ar1_noise(p, T, theta, 1.5, rng_a),
                                  ar1_column_loop(p, T, theta, 1.5, rng_b))
            assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_domain(self):
        with pytest.raises(DomainError):
            gen_ar1_noise(10, 5, 1.0, 1.0, 0)
        with pytest.raises(DomainError):
            gen_ar1_noise(10, 5, 0.5, -1.0, 0)


    @pytest.mark.parametrize("p, T", [(0, 3), (3, -1), (-1, 3), (3, 0)])
    def test_sizes_below_one_are_a_dimension_error(self, p, T):
        with pytest.raises(DimensionError, match=rf"^AR\(1\) noise needs p >= 1 and T >= 1, got p={p}, T={T}$"):
            gen_ar1_noise(p, T, 0.0, 1.0, 0)


class TestScaleRule:
    """Every variance and standard deviation the generators read takes one rule and one text."""

    ENTRY_POINTS = {
        "SimSetting.sigma2": ("sigma2", lambda v: SimSetting(p=20, T=30, sigma2=v)),
        "RoughDgpConfig.sigma2": ("sigma2", lambda v: RoughDgpConfig(p=20, T=30, sigma2=v)),
        "SmoothDgpConfig.sigma": ("sigma", lambda v: SmoothDgpConfig(p=24, T=10, sigma=v)),
        "SmoothDgpConfig.signal_variance":
            ("signal_variance", lambda v: SmoothDgpConfig(p=24, T=10, sigma=1.0, signal_variance=v)),
        "gen_ar1_noise.sigma": ("sigma", lambda v: gen_ar1_noise(4, 3, 0.0, v, 0)),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, "x", True])  # "x" was a TypeError, True a scale of 1
    def test_non_finite_or_negative_scale_is_rejected_with_one_text(self, entry, value):
        name, build = self.ENTRY_POINTS[entry]
        with pytest.raises(DomainError, match=rf"^{name} must be finite and nonnegative, got {value}$"):
            build(value)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_zero_scale_is_accepted(self, entry):
        self.ENTRY_POINTS[entry][1](0.0)

    @pytest.mark.parametrize("setting, spec, text", [
        ({"theta_ar": "0.2"}, {}, r"settings\[0\]: theta_ar must lie in \(-1, 1\), got 0.2"),
        ({}, {"cutoff": None}, r"cutoff must lie in \[0, 1\), got None"),
    ], ids=["theta_ar", "cutoff"])
    def test_a_non_number_in_a_spec_is_a_domain_error(self, setting, spec, text):
        # each used to end in a bare TypeError
        with pytest.raises(DomainError, match=f"^{text}$"):
            SimulationSpec(dgp="rough", kind="noise-test", replications=1, seed=1,
                           settings=[SimSetting(p=20, T=30, sigma2=0.1, **setting)], **spec)


class TestSeedRule:
    """Every seed takes one rule and one text: an integer >= 0, or None where a config draws one fresh."""

    ENTRY_POINTS = {
        "RoughDgpConfig": lambda v: RoughDgpConfig(p=20, T=30, sigma2=0.1, seed=v),
        "SmoothDgpConfig": lambda v: SmoothDgpConfig(p=20, T=30, sigma=0.1, seed=v),
        "SimulationSpec": lambda v: SimulationSpec(dgp="rough", kind="sse", replications=1, seed=v,
                                                   settings=[SimSetting(p=20, T=30, sigma2=0.1)]),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("value", [1.5, -3, True, "1"])
    def test_a_seed_that_is_not_a_nonnegative_integer_is_rejected_with_one_text(self, entry, value):
        # a config used to take each, then end in numpy's bare TypeError or ValueError, or (True) draw seed 1
        with pytest.raises(DomainError, match=rf"^seed must be nonnegative, got {value}$"):
            self.ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("value", [None, 0, np.uint32(7)])
    def test_nonnegative_integers_are_seeds_and_only_a_config_takes_none(self, entry, value):
        if value is None and entry == "SimulationSpec":  # a study's streams derive from its seed
            with pytest.raises(DomainError, match="^seed must be nonnegative, got None$"):
                self.ENTRY_POINTS[entry](value)
        else:
            assert self.ENTRY_POINTS[entry](value).seed is value

    GENERATORS = {
        "gen_ar1_noise": lambda v: gen_ar1_noise(6, 4, 0.3, 1.0, v),
        "gen_rough_signals": lambda v: gen_rough_signals(RoughDgpConfig(p=20, T=5, sigma2=0.1), v)[0].values,
        "gen_spline_signals": lambda v: gen_spline_signals(SmoothDgpConfig(p=20, T=5, sigma=0.1, K=6), v).values,
    }

    @pytest.mark.parametrize("entry", GENERATORS)
    @pytest.mark.parametrize("value", [1.5, -3, True])
    def test_a_generator_takes_a_seed_by_the_same_rule(self, entry, value):
        # each used to end in numpy's bare TypeError or ValueError, or (True) draw seed 1
        with pytest.raises(DomainError, match=rf"^seed must be nonnegative, got {value}$"):
            self.GENERATORS[entry](value)

    @pytest.mark.parametrize("entry", GENERATORS)
    def test_a_generator_draws_from_a_stream_as_from_its_seed(self, entry):
        draw = self.GENERATORS[entry]
        expected = draw(7)
        for source in (np.random.default_rng(7), np.random.SeedSequence(7), np.random.PCG64(7), np.uint8(7)):
            assert np.array_equal(draw(source), expected), source


class TestAddNoiseAndMetric:
    def test_add_noise_identities(self):
        cfg = RoughDgpConfig(p=10, T=5, sigma2=0.0, seed=8)
        signals, _ = gen_rough_signals(cfg)
        zero = np.zeros((5, 10))
        assert np.array_equal(add_noise(signals, zero).values, signals.values)
        ones = np.ones((5, 10))
        assert np.array_equal(add_noise(signals, ones).values, signals.values + 1.0)

    def test_add_noise_shape_mismatch(self):
        cfg = RoughDgpConfig(p=10, T=5, sigma2=0.0, seed=9)
        signals, _ = gen_rough_signals(cfg)
        with pytest.raises(DimensionError):
            add_noise(signals, np.zeros((5, 9)))

    def test_sse_values(self):
        assert sse_appr(np.zeros((1, 2)), np.array([[1.0, 3.0]])) == 5.0
        a = np.random.default_rng(10).standard_normal((4, 6))
        assert sse_appr(a, a) == 0.0
        assert sse_appr(a, a + 0.5) == pytest.approx(0.25, abs=1e-12)

    def test_sse_overflow_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="^approximation error is not finite"):
            sse_appr(np.zeros((2, 3)), np.full((2, 3), 1e200))

    def test_sse_shape_mismatch(self):
        with pytest.raises(DimensionError):
            sse_appr(np.zeros((2, 3)), np.zeros((3, 2)))


class TestBsplineBaseline:
    def test_reproduces_span_members(self):
        cfg = SmoothDgpConfig(p=30, T=8, sigma=0.0, K=10, seed=11)
        signals = gen_spline_signals(cfg)
        fitted = bspline_ls_fit(signals, 10)
        assert np.max(np.abs(fitted.values - signals.values)) < 1e-8

    def test_constant_curves_preserved(self):
        from fdfactor import ObservationPanel, SampleGrid

        panel = ObservationPanel(
            np.tile(np.array([[2.0], [3.0], [-1.0]]), (1, 25)), SampleGrid.midpoints(25)
        )
        fitted = bspline_ls_fit(panel, 8)
        assert np.max(np.abs(fitted.values - panel.values)) < 1e-10

    def test_projector_is_cached_and_read_only(self):
        key = SampleGrid.midpoints(40).points.tobytes()
        B, P = _spline_projector(10, key)
        assert not B.flags.writeable and not P.flags.writeable
        with pytest.raises(ValueError):
            P[0, 0] = 1.0
        assert _spline_projector(10, key)[1] is P
        assert np.allclose(P @ B, np.eye(10), atol=1e-10)

    def test_rank_deficient_design_raises_on_every_call(self):
        # every grid point lies left of the first inner knot (0.2), so only
        # four of the eight basis functions are nonzero on the grid
        panel = ObservationPanel(np.ones((3, 10)), SampleGrid(np.linspace(0.01, 0.19, 10)))
        for _ in range(2):
            with pytest.raises(NumericalError):
                bspline_ls_fit(panel, 8)

    @pytest.mark.parametrize("prefix", ["scipy.linalg", "scipy"])
    def test_import_leaves_scipy_linalg_unloaded(self, prefix):
        src = str(Path(fdfactor.__file__).resolve().parents[1])
        code = ("import sys, fdfactor, fdfactor.cli; print(sorted(m for m in sys.modules "
                f"if (m + '.').startswith({prefix + '.'!r})))")
        done = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.strip() == "[]"

    def test_k_bound(self):
        cfg = SmoothDgpConfig(p=6, T=5, sigma=0.0, K=8, seed=12)
        signals = gen_spline_signals(cfg)
        with pytest.raises(DimensionError):
            bspline_ls_fit(signals, 8)

    def test_rough_signals_resist_smoothing(self):
        rng = np.random.default_rng(20240618)
        ratios = []
        for _ in range(20):
            signals, _ = gen_rough_signals(RoughDgpConfig(p=50, T=200, sigma2=0.05), rng)
            observed = add_noise(signals, gen_ar1_noise(50, 200, 0.0, np.sqrt(0.05), rng))
            pca_err = sse_appr(signals, fit(observed, 3).signals)
            spline_err = sse_appr(signals, bspline_ls_fit(observed, 50 // 3))
            ratios.append(spline_err / pca_err)
        assert np.median(ratios) > 3.0


class TestMonteCarloHarness:
    def spec(self, **kw):
        base = dict(
            dgp="rough",
            kind="sse",
            settings=[SimSetting(p=20, T=30, sigma2=0.0)],
            replications=5,
            seed=123,
            methods=("pca",),
            l_policy="fixed",
            l_fixed=3,
        )
        base.update(kw)
        return SimulationSpec(**base)

    def test_noiseless_recovery_every_replication(self):
        summary = run_monte_carlo(self.spec())
        row = summary.results[0]
        assert row.failures == 0
        assert row.sse_median < 1e-10 and row.sse_mean < 1e-10

    def test_reproducible_bit_for_bit(self):
        spec = self.spec(settings=[SimSetting(p=20, T=30, sigma2=0.1)])
        a = run_monte_carlo(spec)
        b = run_monte_carlo(spec)
        assert summary_rows(a) == summary_rows(b)

    @pytest.mark.parametrize("replications, workers", [(8, 4), (8, 3), (2, 3), (7, 8)])
    def test_workers_do_not_change_results(self, replications, workers):
        # chunks that do not divide R, and fewer replications than workers
        spec = self.spec(
            settings=[SimSetting(p=20, T=30, sigma2=0.1), SimSetting(p=15, T=25, sigma2=0.05)],
            replications=replications,
        )
        a = run_monte_carlo(spec, workers=1)
        b = run_monte_carlo(spec, workers=workers)
        assert summary_rows(a) == summary_rows(b)

    @pytest.mark.parametrize("sigma2", [-1.0, float("nan"), float("inf")])
    def test_invalid_sigma2_is_rejected(self, sigma2):
        with pytest.raises(DomainError, match=str(sigma2)):
            SimSetting(p=20, T=30, sigma2=sigma2)

    @pytest.mark.parametrize("p, T", [(1, 30), (20, 0), (0, -1)])
    def test_setting_sizes_below_two_are_rejected(self, p, T):
        with pytest.raises(DimensionError, match=f"p={p}, T={T}"):
            SimSetting(p=p, T=T, sigma2=0.1)

    @pytest.mark.parametrize("dgp, theta_ar", [
        ("rough", 1.5), ("rough", -1.0), ("rough", float("nan")), ("rough", float("inf")),
        ("smooth", -0.5), ("smooth", 1.0), ("smooth", float("nan")),
    ])
    def test_theta_ar_outside_its_domain_is_rejected_naming_the_setting(self, dgp, theta_ar):
        settings = [SimSetting(p=20, T=30, sigma2=0.1),
                    SimSetting(p=20, T=30, sigma2=0.1, theta_ar=theta_ar)]
        with pytest.raises(DomainError, match=rf"^settings\[1\]: theta_ar must .*, got {theta_ar}$"):
            self.spec(dgp=dgp, settings=settings)

    @pytest.mark.parametrize("dgp, theta_ar", [("rough", -0.9), ("rough", 0.9), ("smooth", 0.0)])
    def test_theta_ar_inside_its_domain_is_accepted(self, dgp, theta_ar):
        spec = self.spec(dgp=dgp, settings=[SimSetting(p=20, T=30, sigma2=0.1, theta_ar=theta_ar)])
        assert spec.settings[0].theta_ar == theta_ar

    def test_a_cutoff_of_one_is_a_spec_fault(self):
        # no frequency survives it at any p, so it must not run as failed replications
        with pytest.raises(DomainError, match=r"^cutoff must lie in \[0, 1\), got 1.0$"):
            self.spec(cutoff=1.0)

    def test_thinning_is_an_integer_or_automatic(self):
        assert self.spec(thinning=None).thinning is None
        assert self.spec(thinning=np.int64(2)).thinning == 2
        with pytest.raises(DomainError, match=r"^thinning must be a positive integer, got 2.5$"):
            self.spec(thinning=2.5)

    def test_an_overflowing_error_counts_as_a_numerical_error(self):
        # at sigma2 = 1e308 the bspline error overflowed to inf and was recorded as a success
        spec = self.spec(settings=[SimSetting(p=20, T=30, sigma2=1e308)], methods=("pca", "bspline"), replications=3)
        for row in run_monte_carlo(spec).results:
            assert (row.failures, row.failure_causes, row.sse_median) == (3, {"NumericalError": 3}, None)

    def test_only_the_summary_levels_are_accepted(self):
        assert self.spec(levels=[0.01, 0.05, 0.1]).levels == (0.01, 0.05, 0.10)
        with pytest.raises(DomainError, match=r"\(0\.01, 0\.05, 0\.1\)"):
            self.spec(levels=(0.2,))

    def test_import_leaves_the_thread_pool_unloaded(self):
        """Only run_monte_carlo imports concurrent.futures; the table commands never load it."""
        src = str(Path(fdfactor.__file__).resolve().parents[1])
        code = "import sys, fdfactor.cli; print('concurrent.futures' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.strip() == "False"

    def test_worker_count_comes_from_the_argument_only(self, monkeypatch):
        import concurrent.futures

        pools = []

        class Recorder(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers, thread_name_prefix=""):
                pools.append((thread_name_prefix, max_workers))
                super().__init__(max_workers=max_workers, thread_name_prefix=thread_name_prefix)

        # run_monte_carlo imports the pool when it is called, from concurrent.futures
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
        monkeypatch.setenv("FDFACTOR_WORKERS", "3")
        settings = [SimSetting(p=20, T=30, sigma2=0.1)] * 3
        for workers in (None, 1, 2, 3):
            run_monte_carlo(self.spec(settings=settings, replications=2), workers=workers)
        # two executors per study, whatever its number of settings: one draw thread per worker
        assert [n for prefix, n in pools if prefix == "fdfactor-draws"] == [1, 1, 2, 3]
        # and a chunk pool of workers - 1 threads, at least 1, which starts none at workers 1
        assert [n for prefix, n in pools if prefix != "fdfactor-draws"] == [1, 1, 1, 2]

    @pytest.mark.parametrize("workers", [2.5, "2", 0, -3, True])
    def test_a_worker_count_below_one_or_not_an_integer_is_rejected_before_any_replication(
            self, monkeypatch, workers):
        # 2.5 and "2" used to end in a bare TypeError, and 0, -3 and True ran on one worker
        import fdfactor.simulate as simulate

        calls = []
        monkeypatch.setattr(simulate, "_run_sse_rep", lambda *args: calls.append(args))
        with pytest.raises(DomainError, match=f"^workers must be >= 1, got {workers}$"):
            run_monte_carlo(self.spec(), workers=workers)
        assert calls == []

    def test_a_default_study_starts_only_the_draw_thread_and_leaves_none_behind(self, monkeypatch):
        started, real_start = [], threading.Thread.start

        def start_spy(thread):
            started.append(thread.name)
            return real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_spy)
        before = threading.active_count()
        run_monte_carlo(self.spec(settings=[SimSetting(p=20, T=30, sigma2=0.1)] * 3, replications=4))
        assert len(started) == 1 and started[0].startswith("fdfactor-draws")
        assert threading.active_count() == before

    @pytest.mark.parametrize("kind", ["sse", "noise-test"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_every_replication_runs_on_one_blas_thread_and_the_count_comes_back(
            self, monkeypatch, fake_blas, kind, workers):
        import fdfactor.simulate as simulate

        count, seen = fake_blas, []
        runner = "_run_sse_rep" if kind == "sse" else "_run_test_rep"
        real = getattr(simulate, runner)

        spec = self.spec(kind=kind, settings=[SimSetting(p=20, T=30, sigma2=0.1),
                                              SimSetting(p=15, T=25, sigma2=0.05)], replications=7)
        # a replication is known by its stream's first normal, the first entry of its first array
        cell = {replication_rng(spec.seed, si, ri).standard_normal(): (si, ri) for si in (0, 1) for ri in range(7)}

        def spy(spec, setting, normals):
            seen.append((cell[normals[0].flat[0]], threading.get_ident(), count[0]))
            return real(spec, setting, normals)

        monkeypatch.setattr(simulate, runner, spy)
        summary = run_monte_carlo(spec, workers)
        assert sorted(c for c, _, _ in seen) == sorted(cell.values()) and {n for *_, n in seen} == {1}
        on_caller = {c for c, t, _ in seen if t == threading.get_ident()}
        # workers 1: the caller runs every replication; workers 3: chunks of 3, 3 and 1, the caller's first
        assert on_caller == ({(si, ri) for si in (0, 1) for ri in range(7 if workers == 1 else 3)})
        assert count == [2] and summary.blas_threads_per_worker == 1

    def test_numpy_openblas_count_is_given_back(self):
        from fdfactor.spectral import _blas_thread_setter

        setter = _blas_thread_setter()
        if setter is None:
            pytest.skip("numpy's BLAS has no openblas_set_num_threads_local")
        previous = setter(2)
        try:
            assert run_monte_carlo(self.spec()).blas_threads_per_worker == 1
        finally:
            assert setter(previous) == 2

    @pytest.mark.parametrize("spec", [
        dict(dgp="smooth", settings=[SimSetting(p=40, T=30, sigma2=0.1, theta_ar=0.3)],
             methods=("pca", "bspline"), l_policy="plateau", scree_l_max=6, smooth_K=8),
        dict(kind="noise-test", thinning=2,
             settings=[SimSetting(p=60, T=40, sigma2=1.0), SimSetting(p=60, T=40, sigma2=1.0, theta_ar=0.4)]),
    ], ids=["plateau-smooth", "noise-test"])
    def test_without_a_per_thread_blas_count_the_summary_is_unchanged(self, monkeypatch, spec):
        import fdfactor.spectral as spectral

        spec = self.spec(replications=6, **spec)
        expected = summary_rows(run_monte_carlo(spec))
        monkeypatch.setattr(spectral, "_blas_thread_setter", lambda: None)
        for workers in (1, 2, 4):
            summary = run_monte_carlo(spec, workers=workers)
            assert summary.blas_threads_per_worker is None
            assert summary_rows(summary) == expected

    def test_failed_replications_are_counted(self):
        # L exceeds min(T-1, p) in every replication: all fail, none hide
        spec = self.spec(l_fixed=25)
        summary = run_monte_carlo(spec)
        row = summary.results[0]
        assert row.failures == 5
        assert row.sse_median is None

    @pytest.mark.parametrize("kind, target", [("sse", "fit"), ("noise-test", "iid_noise_test")])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bugs_propagate_instead_of_counting_as_failures(
        self, monkeypatch, fake_blas, kind, target, workers
    ):
        import fdfactor.simulate as simulate

        def broken(*args, **kwargs):
            raise TypeError("a bug, not a failed replication")

        monkeypatch.setattr(simulate, target, broken)
        count = fake_blas
        spec = self.spec(kind=kind, settings=[SimSetting(p=20, T=30, sigma2=0.1)])
        with pytest.raises(TypeError):
            run_monte_carlo(spec, workers=workers)
        assert count == [2]  # the BLAS thread count comes back after a fault too

    def test_shared_caches_under_many_threads(self):
        spec = self.spec(
            dgp="smooth", settings=[SimSetting(p=40, T=30, sigma2=0.1, theta_ar=0.3)],
            methods=("pca", "bspline"), l_policy="plateau", scree_l_max=6,
            replications=12, smooth_K=8,
        )
        expected = summary_rows(run_monte_carlo(spec, workers=1))
        assert [row[9] for row in expected] == [0, 0]  # no failed replications
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for _ in range(3):
                _spline_projector.cache_clear()
                _quadrature_variance.cache_clear()
                assert summary_rows(run_monte_carlo(spec, workers=8)) == expected
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("p, T", [(30, 20), (20, 60)])
    def test_plateau_path_matches_separate_scree_and_fit(self, p, T):
        setting = SimSetting(p=p, T=T, sigma2=0.05)
        spec = self.spec(settings=[setting], l_policy="plateau", scree_l_max=6,
                         replications=4)
        row = run_monte_carlo(spec).results[0]
        sse, ls = [], []
        for ri in range(spec.replications):
            rng = replication_rng(spec.seed, 0, ri)
            signals = gen_rough_signals(RoughDgpConfig(p=p, T=T, sigma2=0.05), rng)[0]
            observed = add_noise(signals, gen_ar1_noise(p, T, 0.0, np.sqrt(0.05), rng))
            sel = select_frequencies(p, spec.cutoff, auto_thinning(p, T, spec.cutoff))
            curve = lambda_scree(observed, min(6, T - 1, p), sel)
            L = suggest_plateau_L(curve).L
            sse.append(sse_appr(signals, fit(observed, L).signals))
            ls.append(float(L))
        assert row.failures == 0
        assert row.sse_median == float(np.median(sse))
        assert row.sse_mean == float(np.mean(sse))
        assert row.l_median == float(np.median(ls))

    def test_sse_decreases_with_sample_size(self):
        spec = self.spec(
            settings=[SimSetting(p=20, T=T, sigma2=0.1) for T in (50, 100, 200, 400)],
            replications=50,
            seed=20240619,
        )
        medians = [row.sse_median for row in run_monte_carlo(spec).results]
        assert all(a > b for a, b in zip(medians, medians[1:]))

    def test_noise_test_study_size(self):
        spec = SimulationSpec(
            dgp="rough",
            kind="noise-test",
            settings=[SimSetting(p=51, T=100, sigma2=4.0)],
            replications=100,
            seed=77,
            thinning=1,
        )
        row = run_monte_carlo(spec).results[0]
        assert row.failures == 0
        assert row.rej_fin[0.05] <= 0.12
        assert 0.0 <= row.rej_inf[0.10] <= 0.2

    def test_plateau_policy_runs(self):
        spec = self.spec(
            settings=[SimSetting(p=20, T=60, sigma2=0.05)],
            l_policy="plateau",
            scree_l_max=6,
            replications=4,
        )
        row = run_monte_carlo(spec).results[0]
        assert row.failures == 0
        assert 1 <= row.l_median <= 6

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            self.spec(dgp="mystery")
        with pytest.raises(DomainError):
            self.spec(methods=("pca", "magic"))
        with pytest.raises(DomainError):
            self.spec(kind="other")

    def test_noise_test_settings_match_an_oracle_of_the_replication_streams(self):
        settings = [SimSetting(p=40, T=60, sigma2=1.0), SimSetting(p=40, T=60, sigma2=2.0, theta_ar=0.5)]
        spec = self.spec(kind="noise-test", settings=settings, replications=10, thinning=2)
        results = run_monte_carlo(spec).results
        assert [row.method for row in results] == ["noise-test", "noise-test"]
        for si, (setting, row) in enumerate(zip(settings, results)):
            reps = []
            for ri in range(spec.replications):
                noise = gen_ar1_noise(setting.p, setting.T, setting.theta_ar, np.sqrt(setting.sigma2),
                                      replication_rng(spec.seed, si, ri))
                reps.append(iid_noise_test(noise, _selection(setting.p, setting.T, spec.cutoff, 2)))
            p_fin = np.array([r.p_fin for r in reps])
            p_inf = np.array([r.p_inf for r in reps])
            assert (row.failures, row.failure_causes) == (0, {})
            assert row.rej_fin == {lv: float(np.mean(p_fin < lv)) for lv in (0.01, 0.05, 0.10)}
            assert row.rej_inf == {lv: float(np.mean(p_inf < lv)) for lv in (0.01, 0.05, 0.10)}
            assert row.lambda_fin_median == float(np.median([r.lambda_fin for r in reps]))
            assert row.lambda_inf_median == float(np.median([r.lambda_inf for r in reps]))
            assert row.l_median is row.sse_median is row.sse_mean is None

    def test_a_method_that_fails_every_replication_keeps_its_row_in_method_order(self):
        # at p=3 the cubic B-spline baseline needs K=4 > p functions; pca fits
        spec = self.spec(settings=[SimSetting(p=3, T=30, sigma2=0.1)], methods=("pca", "bspline"))
        pca, bspline = run_monte_carlo(spec, workers=2).results
        assert (pca.method, bspline.method) == ("pca", "bspline")
        assert (pca.failures, pca.failure_causes) == (0, {})
        assert None not in (pca.l_median, pca.sse_median, pca.sse_mean)
        assert (bspline.failures, bspline.failure_causes) == (5, {"DimensionError": 5})
        assert (bspline.l_median, bspline.sse_median, bspline.sse_mean) == (None, None, None)
        assert (bspline.rej_fin, bspline.lambda_fin_median) == (None, None)

    def test_failures_are_counted_by_cause(self):
        row = run_monte_carlo(self.spec(l_fixed=25)).results[0]  # L > min(T - 1, p)
        assert (row.failures, row.failure_causes) == (5, {"OrderError": 5})

    @pytest.mark.parametrize("fields, error, message", [
        ({"settings": [SimSetting(p=20, T=30, sigma2=0.1), SimSetting(p=2, T=30, sigma2=0.1)]},
         DimensionError, r"^settings\[1\]: rough DGP needs p >= 3, got 2$"),
        ({"methods": ["pca", "bspline", "pca"]}, DomainError, "'pca' is listed more than once"),
        ({"dgp": "smooth", "smooth_K": 3}, DimensionError, r"^smooth_K must be >= 4 .*, got 3$"),
        ({"dgp": "smooth", "signal_variance": float("nan")}, DomainError, r"^settings\[0\]: .*signal_variance"),
    ], ids=["rough-p-2", "repeated-method", "smooth_K-3", "signal_variance-nan"])
    def test_a_signal_the_study_cannot_generate_is_rejected_by_the_spec(self, fields, error, message):
        with pytest.raises(error, match=message):
            self.spec(**fields)

    def test_a_noise_test_study_draws_no_signal_so_signal_keys_are_not_checked(self):
        self.spec(kind="noise-test", dgp="smooth", smooth_K=3, signal_variance=float("nan"))
        spec = self.spec(kind="noise-test", settings=[SimSetting(p=2, T=30, sigma2=0.1)])
        row = run_monte_carlo(spec).results[0]  # the test itself has too few grid points
        assert (row.failures, row.failure_causes) == (5, {"DimensionError": 5})

    @pytest.mark.parametrize("build, error", [
        pytest.param(lambda spec: SimSetting(p=20.5, T=30, sigma2=0.1), DimensionError, id="setting-p"),
        pytest.param(lambda spec: SimSetting(p=20, T=30.0, sigma2=0.1), DimensionError, id="setting-T"),
        pytest.param(lambda spec: RoughDgpConfig(p=20.5, T=30, sigma2=0.1), DimensionError, id="rough-p"),
        pytest.param(lambda spec: SmoothDgpConfig(p=40, T=30, sigma=1.0, K=8.5), DimensionError, id="smooth-K"),
        pytest.param(lambda spec: SmoothDgpConfig(p=40.0, T=30, sigma=1.0), DimensionError, id="smooth-p"),
        pytest.param(lambda spec: gen_ar1_noise(3.5, 4, 0.0, 1.0, 0), DimensionError, id="ar1-p"),
        pytest.param(lambda spec: bspline_basis(5.5, 0.3), DimensionError, id="bspline-K"),
        pytest.param(lambda spec: residual_acf(np.arange(6.0), 2.5), DimensionError, id="acf-h_max"),
        pytest.param(lambda spec: spec(dgp="smooth", smooth_K=8.5), DimensionError, id="spec-smooth_K"),
        pytest.param(lambda spec: spec(replications=2.5), DomainError, id="spec-replications"),
        pytest.param(lambda spec: spec(replications=True), DomainError, id="spec-replications-bool"),
        pytest.param(lambda spec: spec(seed=1.5), DomainError, id="spec-seed"),
        pytest.param(lambda spec: spec(l_fixed=2.5), DomainError, id="spec-l_fixed"),
        pytest.param(lambda spec: spec(scree_l_max=6.5), DomainError, id="spec-scree_l_max"),
    ])
    def test_a_non_integer_count_is_rejected_before_any_replication_runs(self, build, error):
        # each used to end in a bare TypeError, or (l_fixed) in a study of failed replications
        with pytest.raises(error):
            build(self.spec)

    def test_numpy_integers_are_counts(self):
        spec = self.spec(replications=np.int64(2), seed=np.uint32(7), l_fixed=np.int8(2),
                         settings=[SimSetting(p=np.int32(20), T=np.int64(30), sigma2=0.1)])
        assert run_monte_carlo(spec).results[0].failures == 0


class TestDrawnAhead:
    """A draw thread fills replication i + 1's normals while replication i computes on its chunk's thread."""

    SPECS = {
        "rough-sse": dict(dgp="rough", settings=[SimSetting(p=20, T=30, sigma2=0.1, theta_ar=0.3)],
                          methods=("pca", "bspline")),
        "smooth-fixed": dict(dgp="smooth", settings=[SimSetting(p=40, T=30, sigma2=0.1, theta_ar=0.3)],
                             methods=("pca", "bspline"), smooth_K=8),
        "smooth-plateau": dict(dgp="smooth", settings=[SimSetting(p=40, T=30, sigma2=0.1, theta_ar=0.3)],
                               methods=("pca", "bspline"), smooth_K=8, l_policy="plateau", scree_l_max=6),
        "noise-test": dict(dgp="rough", kind="noise-test", thinning=2,
                           settings=[SimSetting(p=60, T=40, sigma2=1.0, theta_ar=0.4)]),
    }

    @staticmethod
    def spec(name, **kw):
        return SimulationSpec(**{"kind": "sse", "replications": 4, "seed": 321, **TestDrawnAhead.SPECS[name], **kw})

    @pytest.mark.parametrize("name", SPECS)
    def test_records_equal_the_replication_run_inline(self, name):
        """The harness's arrays give, through the cores, the public generators' panels, and the same records."""
        import fdfactor.simulate as simulate

        spec = self.spec(name)
        runner = simulate._run_sse_rep if spec.kind == "sse" else simulate._run_test_rep
        setting = spec.settings[0]
        ar1 = (setting.theta_ar, float(np.sqrt(setting.sigma2)))
        sel = _selection(setting.p, setting.T, spec.cutoff, spec.thinning)
        for ri in range(spec.replications):
            arrays = simulate._fill(*simulate._normals(spec, 0, ri))
            rng = replication_rng(spec.seed, 0, ri)  # the same stream, drawn inline by the public generators
            if spec.kind == "sse":
                if spec.dgp == "rough":
                    signals, scores = gen_rough_signals(RoughDgpConfig(p=setting.p, T=setting.T, sigma2=setting.sigma2), rng)
                    core, core_scores = simulate._rough_signals(setting.p, arrays[0].copy())
                    assert np.array_equal(core_scores, scores)
                else:
                    cfg = SmoothDgpConfig(p=setting.p, T=setting.T, sigma=ar1[1], theta_ar=setting.theta_ar,
                                          K=spec.smooth_K, signal_variance=spec.signal_variance)
                    signals = gen_spline_signals(cfg, rng)
                    core = simulate._spline_signals(setting.p, spec.smooth_K, spec.signal_variance, arrays[0].copy())
                assert np.array_equal(core.values, signals.values)
            noise = gen_ar1_noise(setting.p, setting.T, *ar1, rng)
            assert np.array_equal(simulate._ar1_rows(arrays[-1].copy(), *ar1), noise)
            record = runner(spec, setting, arrays)
            assert arrays == []  # every array taken, and none kept
            if spec.kind == "sse":
                observed, K = add_noise(signals, noise), max(4, setting.p // 3)
                if spec.l_policy == "fixed":
                    L, estimate = spec.l_fixed, fit(observed, spec.l_fixed).signals
                else:
                    _, suggestion, result = plateau_fit(observed, min(spec.scree_l_max, setting.T - 1, setting.p), sel)
                    L, estimate = suggestion.L, result.signals
                expected = {"pca": (sse_appr(signals, estimate), float(L)),
                            "bspline": (sse_appr(signals, bspline_ls_fit(observed, K)), float(K))}
            else:
                rep = iid_noise_test(noise, sel)
                expected = {"noise-test": (rep.lambda_fin, rep.lambda_inf, rep.p_fin, rep.p_inf)}
            assert record == expected
            assert not any(isinstance(r, str) for r in record.values())  # no failed method compares vacuously

    def test_draws_run_on_the_helper_and_replications_on_the_chunk_thread(self, monkeypatch):
        import fdfactor.simulate as simulate

        streams, draws, reps = [], [], []
        real_rng, real_fill, real_runner = simulate.replication_rng, simulate._fill, simulate._run_sse_rep

        def rng_spy(*args):  # called where the replication's arrays are allocated
            streams.append((args, threading.current_thread().name))
            return real_rng(*args)

        def fill_spy(rng, arrays):
            draws.append(threading.current_thread().name)
            return real_fill(rng, arrays)

        def runner_spy(*args):
            reps.append(threading.current_thread().name)
            return real_runner(*args)

        monkeypatch.setattr(simulate, "replication_rng", rng_spy)
        monkeypatch.setattr(simulate, "_fill", fill_spy)
        monkeypatch.setattr(simulate, "_run_sse_rep", runner_spy)
        run_monte_carlo(self.spec("rough-sse", replications=7), workers=3)
        # each replication allocated on a chunk thread and drawn once, on a draw thread, none beyond a chunk's end
        assert sorted(args for args, _ in streams) == [(321, 0, ri) for ri in range(7)]
        assert not any(name.startswith("fdfactor-draws") for _, name in streams)
        assert len(draws) == 7 and all(name.startswith("fdfactor-draws") for name in draws)
        assert len(reps) == 7 and not any(name.startswith("fdfactor-draws") for name in reps)
        assert reps.count(threading.current_thread().name) == 3  # the caller runs the first chunk, 0-2

    @pytest.mark.parametrize("exc", [TypeError, KeyboardInterrupt])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_raising_runner_propagates_and_leaves_no_thread_behind(self, monkeypatch, exc, workers):
        import fdfactor.simulate as simulate

        def broken(spec, setting, rng):
            raise exc("raised by the runner")

        monkeypatch.setattr(simulate, "_run_sse_rep", broken)
        before = threading.active_count()
        with pytest.raises(exc, match="raised by the runner"):
            run_monte_carlo(self.spec("rough-sse", replications=6), workers)
        assert threading.active_count() == before

    def test_an_interrupt_stops_the_study_at_the_running_replication(self, monkeypatch, fake_blas):
        import _thread

        import fdfactor.simulate as simulate

        calls, real = [], simulate._run_sse_rep

        def interrupting(*args):
            calls.append(threading.get_ident())
            if len(calls) == 3:
                _thread.interrupt_main()  # as Ctrl-C does
            return real(*args)

        monkeypatch.setattr(simulate, "_run_sse_rep", interrupting)
        count = fake_blas
        before = threading.active_count()
        # interrupt_main does nothing while SIGINT is ignored, as a parent process may leave it
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_monte_carlo(self.spec("rough-sse", replications=40), workers=1)
        finally:
            signal.signal(signal.SIGINT, previous)
        assert len(calls) <= 4
        assert threading.active_count() == before and count == [2]

    def test_a_fault_stops_the_study_before_the_next_setting(self, monkeypatch):
        import fdfactor.simulate as simulate

        calls = []

        def broken(*args):
            calls.append(args)
            if len(calls) == 2:
                raise TypeError("raised by the runner")
            return {"pca": (0.0, 3.0), "bspline": (0.0, 6.0)}

        monkeypatch.setattr(simulate, "_run_sse_rep", broken)
        settings = [SimSetting(p=20, T=30, sigma2=0.1)] * 6
        with pytest.raises(TypeError, match="raised by the runner"):
            run_monte_carlo(self.spec("rough-sse", settings=settings, replications=20))
        assert len(calls) == 2

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_caller_error_state_reaches_no_replication(self, monkeypatch, workers):
        import fdfactor.simulate as simulate

        seen, real, default = [], simulate._run_sse_rep, np.geterr()

        def spy(*args):
            seen.append(np.geterr())
            return real(*args)

        monkeypatch.setattr(simulate, "_run_sse_rep", spy)
        with np.errstate(all="raise"):
            run_monte_carlo(self.spec("rough-sse", replications=6), workers)
            assert np.geterr()["under"] == "raise"  # the caller's own state is left as it was
        assert len(seen) == 6 and all(state == default for state in seen)
