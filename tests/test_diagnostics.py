import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import special

from fdfactor import (
    DegenerateVarianceError,
    DimensionError,
    DomainError,
    ObservationPanel,
    OrderError,
    SampleGrid,
    SelectionError,
    ar1_spectral_density,
    auto_thinning,
    averaged_periodogram,
    chi2_upper_tail,
    fit,
    gasser_variance,
    gen_ar1_noise,
    iid_noise_test,
    normal_upper_tail,
    periodogram,
    residual_acf,
    residual_correlation,
    residual_covariance,
    select_frequencies,
)
from fdfactor.diagnostics import _correlation_rows


def make_panel(values):
    values = np.asarray(values, dtype=float)
    return ObservationPanel(values, SampleGrid.midpoints(values.shape[1]))


def periodogram_oracle(z, theta):
    """Separate real/imaginary accumulation, no complex arithmetic."""
    re = im = 0.0
    for k, zk in enumerate(z, start=1):
        re += zk * math.cos(k * theta)
        im -= zk * math.sin(k * theta)
    return (re * re + im * im) / len(z)


class TestPeriodogram:
    def test_constant_input_vanishes_at_fourier_frequencies(self):
        z = np.full(8, 5.0)
        assert periodogram(z, 2 * np.pi * 2 / 8) == pytest.approx(0.0, abs=1e-10)

    def test_single_impulse(self):
        z = np.zeros(10)
        z[0] = 1.0
        for theta in (0.3, 1.0, np.pi):
            assert periodogram(z, theta) == pytest.approx(1 / 10, abs=1e-14)

    def test_cosine_at_own_frequency(self):
        p, j = 16, 3
        theta = 2 * np.pi * j / p
        z = np.cos(theta * np.arange(1, p + 1))
        value = periodogram(z, theta)
        assert value == pytest.approx(p / 4, abs=1e-10)
        assert value == pytest.approx(periodogram_oracle(z, theta), abs=1e-12)

    def test_domain(self):
        z = np.ones(5)
        for bad in (0.0, -0.5, np.pi + 0.01):
            with pytest.raises(DomainError):
                periodogram(z, bad)
        with pytest.raises(DimensionError):
            periodogram(np.array([1.0]), 1.0)

    @given(st.integers(0, 2**32 - 1))
    def test_matches_independent_accumulation(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 40))
        z = rng.standard_normal(p) * 3
        theta = float(rng.uniform(1e-6, np.pi))
        assert periodogram(z, theta) == pytest.approx(
            periodogram_oracle(z, theta), abs=1e-12 * max(1.0, np.sum(z**2))
        )


class TestFrequencySelection:
    def test_worked_count(self):
        sel = select_frequencies(365, 0.1, 3)
        assert sel.q == 182
        assert sel.f == 55
        assert sel.f / 200 == pytest.approx(0.275)
        # ceil(0.1 * 182) = 19 is excluded, retention starts strictly above
        assert sel.indices[0] == 20 and sel.indices[-1] == 182

    def test_no_filtering(self):
        sel = select_frequencies(10, 0.0, 1)
        assert np.array_equal(sel.indices, [1, 2, 3, 4, 5])
        assert np.allclose(sel.thetas, 2 * np.pi * np.arange(1, 6) / 10)

    def test_too_aggressive_selection(self):
        with pytest.raises(SelectionError):
            select_frequencies(10, 0.9, 5)

    @pytest.mark.parametrize("cutoff", [1.0, -0.1, float("nan"), "0.1", None])  # the last two were a bare TypeError
    def test_cutoff_outside_zero_one_is_a_domain_error(self, cutoff):
        # at cutoff 1 no frequency survives, but the cutoff, not the selection, is at fault
        with pytest.raises(DomainError, match=rf"^cutoff must lie in \[0, 1\), got {cutoff!r}$"):
            select_frequencies(20, cutoff, 1)

    @pytest.mark.parametrize("thinning", [2.5, 2.0, None, 0])
    def test_thinning_must_be_a_positive_integer(self, thinning):
        # a float used to thin by a float modulo (2.5 kept [2, 7]) and None ended in a TypeError
        with pytest.raises(DomainError, match=rf"^thinning must be a positive integer, got {thinning}$"):
            select_frequencies(20, 0.1, thinning)

    def test_numpy_integer_thinning_is_valid(self):
        assert select_frequencies(20, 0.1, np.int64(2)).indices.tolist() == [2, 4, 6, 8, 10]

    def test_cutoff_boundary_is_strict(self):
        # everything at or below ceil(c*q) is dropped
        sel = select_frequencies(20, 0.1, 1)  # q = 10, ceil(1.0) = 1
        assert sel.indices[0] == 2

    def test_auto_thinning_reproduces_reference_choice(self):
        assert auto_thinning(365, 200, 0.1) == 3
        assert auto_thinning(50, 200, 0.1) == 1

    def test_invariant_structure(self):
        sel = select_frequencies(101, 0.25, 4)
        q = 101 // 2
        first = int(np.ceil(0.25 * q)) + 1
        expected = [l for l in range(first, q + 1) if (l - first) % 4 == 0]
        assert np.array_equal(sel.indices, expected)


class TestAveragedPeriodogram:
    def test_identical_rows(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(12)
        panel = make_panel(np.tile(z, (5, 1)))
        sel = select_frequencies(12, 0.0, 1)
        xi = averaged_periodogram(panel, sel)
        expected = [periodogram(z, th) for th in sel.thetas]
        assert np.allclose(xi, expected, atol=1e-12)

    def test_zero_panel(self):
        sel = select_frequencies(10, 0.0, 1)
        xi = averaged_periodogram(make_panel(np.zeros((3, 10))), sel)
        assert np.array_equal(xi, np.zeros(5))

    def test_against_double_loop_oracle(self):
        rng = np.random.default_rng(42)
        values = rng.standard_normal((2, 8))
        sel = select_frequencies(8, 0.0, 1)
        xi = averaged_periodogram(make_panel(values), sel)
        oracle = [
            np.mean([periodogram_oracle(row, th) for row in values])
            for th in sel.thetas
        ]
        assert np.allclose(xi, oracle, atol=1e-12)

    def test_dimension_mismatch(self):
        sel = select_frequencies(10, 0.0, 1)
        with pytest.raises(DimensionError):
            averaged_periodogram(make_panel(np.zeros((3, 8))), sel)

    @given(
        st.integers(3, 200),
        st.booleans(),
        st.sampled_from([0.0, 0.1, 0.25, 0.5]),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_fft_matches_scalar_oracle_at_every_retained_index(
        self, half, odd, cutoff, thinning, seed
    ):
        p = 2 * half + odd
        try:
            sel = select_frequencies(p, cutoff, thinning)
        except SelectionError:
            assume(False)
        values = np.random.default_rng(seed).standard_normal((5, p))
        xi = averaged_periodogram(make_panel(values), sel)
        # 2*pi*l/p can round one ulp above pi at the Nyquist index l = p/2
        thetas = np.minimum(sel.thetas, np.pi)
        oracle = [np.mean([periodogram(row, th) for row in values]) for th in thetas]
        assert xi == pytest.approx(oracle, rel=1e-10)


class TestGasserVariance:
    def test_affine_rows_give_exact_zero(self):
        j = np.arange(12, dtype=float)
        rows = np.stack([1.25 + 0.5 * j, -3.0 + 0.25 * j, 2.0 + 0.0 * j])
        assert gasser_variance(make_panel(rows)) == 0.0

    def test_single_spike_row(self):
        values = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        assert gasser_variance(make_panel(values)) == pytest.approx(4.0 / 6.0, abs=1e-14)

    def test_iid_normal_recovery(self):
        rng = np.random.default_rng(1)
        panel = make_panel(rng.standard_normal((200, 365)) * 2.0)
        assert gasser_variance(panel) == pytest.approx(4.0, rel=0.05)

    def test_needs_three_columns(self):
        with pytest.raises(DimensionError):
            gasser_variance(make_panel(np.zeros((3, 2))))


class TestResidualShape:
    SEL = select_frequencies(6, 0.0, 1)
    ENTRY_POINTS = {
        "residual_covariance": residual_covariance,
        "residual_correlation": residual_correlation,
        "iid_noise_test": lambda u: iid_noise_test(u, TestResidualShape.SEL),
        "averaged_periodogram": lambda u: averaged_periodogram(u, TestResidualShape.SEL),
        "gasser_variance": gasser_variance,
    }

    @pytest.mark.parametrize("shape", [(), (6,), (2, 3, 6)], ids=["0-d", "1-d", "3-d"])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_residuals_that_are_not_2d_are_a_dimension_error(self, entry, shape):
        # a 1-d input gave a 0-d covariance, a TypeError or an IndexError; a 3-d one numpy's matmul error
        values = np.arange(float(np.prod(shape))).reshape(shape)
        with pytest.raises(DimensionError, match=rf"^residuals must be a 2-d \(T, p\) array, got {len(shape)}-d$"):
            self.ENTRY_POINTS[entry](values)


class TestIntegerArguments:
    PANEL = ObservationPanel(np.random.default_rng(3).standard_normal((10, 8)), SampleGrid.midpoints(8))
    CASES = {
        "midpoints-2.5": (lambda: SampleGrid.midpoints(2.5), DimensionError, "a midpoint grid needs an integer"),
        "midpoints-True": (lambda: SampleGrid.midpoints(True), DimensionError, "a midpoint grid needs an integer"),
        "select-p-20.0": (lambda: select_frequencies(20.0, 0.1, 1), DimensionError,
                          "frequency selection needs an integer p >= 6, got 20.0"),
        "select-thinning-True": (lambda: select_frequencies(20, 0.1, True), DomainError,
                                 "thinning must be a positive integer, got True"),
        "fit-L-True": (lambda: fit(TestIntegerArguments.PANEL, True), OrderError,
                       r"factor order must satisfy 1 <= L <= min\(T-1, p\) = 8, got True"),
        "auto-T-0": (lambda: auto_thinning(20, 0), DimensionError, "automatic thinning needs an integer T >= 1, got 0"),
        "auto-T--1": (lambda: auto_thinning(20, -1), DimensionError, "automatic thinning needs an integer T >= 1, got -1"),
        "auto-T-True": (lambda: auto_thinning(20, True), DimensionError, "automatic thinning needs an integer T >= 1"),
        "auto-p-20.0": (lambda: auto_thinning(20.0, 40), DimensionError, "frequency selection needs an integer p"),
        "chi2-dof-True": (lambda: chi2_upper_tail(1.0, True), DomainError, "degrees of freedom must be a positive"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_a_non_integer_or_bool_count_raises_the_neighbouring_error(self, case):
        call, error, message = self.CASES[case]
        with pytest.raises(error, match=f"^{message}"):
            call()

    def test_numpy_integers_are_counts(self):
        assert SampleGrid.midpoints(np.int64(4)).p == 4
        assert select_frequencies(np.int32(20), 0.1, 1).p == 20
        assert auto_thinning(20, np.int64(40)) == auto_thinning(20, 40)
        assert fit(self.PANEL, np.int64(2)).order == 2


def noise_test_formula(values, sel, sigma2=None):
    """The noise-test statistics written out step by step, with their upper-tail p-values."""
    T, f = values.shape[0], sel.f
    xi = averaged_periodogram(values, sel)
    s2_xi = float(np.sum((xi - xi.mean()) ** 2) / (f - 1))
    if sigma2 is None:
        sigma2 = gasser_variance(values)
    lam_fin = (f - 1) * T * s2_xi / sigma2**2
    lam_inf = (T * s2_xi / sigma2**2 - 1.0) * np.sqrt((f - 1) / 2.0)
    return {"sigma2_hat": float(sigma2), "s2_xi": s2_xi, "lambda_fin": float(lam_fin),
            "lambda_inf": float(lam_inf), "p_fin": chi2_upper_tail(lam_fin, f - 1),
            "p_inf": normal_upper_tail(lam_inf), "f": f, "T": T, "xi": xi}


class TestIidNoiseTest:
    @pytest.mark.parametrize("sigma2", [None, 1.7])
    def test_matches_the_formula_exactly(self, sigma2):
        # several fixed panels, so that a reordered rounding step shows on one of them
        for seed in range(8):
            values = gen_ar1_noise(60, 40, 0.3, 1.5, seed)
            sel = select_frequencies(60, 0.1, 2)
            report = iid_noise_test(values, sel, sigma2=sigma2)
            expected = noise_test_formula(values, sel, sigma2)
            assert np.array_equal(report.xi, expected.pop("xi"))
            assert {k: getattr(report, k) for k in expected} == expected

    def test_impulse_rows_give_zero_statistic(self):
        p = 10
        rows = np.zeros((4, p))
        rows[:, 2] = 1.0  # each row a single impulse: flat periodogram 1/p
        sel = select_frequencies(p, 0.0, 1)
        report = iid_noise_test(rows, sel, sigma2=1.0)
        assert report.s2_xi == pytest.approx(0.0, abs=1e-28)
        assert report.lambda_fin == pytest.approx(0.0, abs=1e-24)
        assert report.lambda_inf == pytest.approx(-np.sqrt((sel.f - 1) / 2), abs=1e-12)
        assert np.allclose(report.xi, 1 / p)

    def test_degenerate_residuals_raise(self):
        sel = select_frequencies(12, 0.0, 1)
        with pytest.raises(DegenerateVarianceError):
            iid_noise_test(make_panel(np.zeros((4, 12))), sel)

    @pytest.mark.parametrize("scale", [1e-95, 1e95])
    def test_variance_whose_square_leaves_the_float_range_raises(self, scale):
        # sigma2 ~ 1e-190 or 1e190: sigma2**2 would underflow to 0 or overflow
        values = scale * np.random.default_rng(3).standard_normal((20, 24))
        sel = select_frequencies(24, 0.1, 1)
        with pytest.raises(DegenerateVarianceError):
            iid_noise_test(values, sel)
        with pytest.raises(DegenerateVarianceError):
            iid_noise_test(values, sel, sigma2=scale**2)

    def test_sigma_override_is_used(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((20, 24))
        sel = select_frequencies(24, 0.1, 1)
        r1 = iid_noise_test(values, sel, sigma2=1.0)
        r2 = iid_noise_test(values, sel, sigma2=2.0)
        assert r1.sigma2_hat == 1.0 and r2.sigma2_hat == 2.0
        assert r1.lambda_fin == pytest.approx(r2.lambda_fin * 4.0, rel=1e-12)

    def test_pvalues_within_unit_interval(self):
        rng = np.random.default_rng(3)
        sel = select_frequencies(30, 0.1, 1)
        for _ in range(5):
            rep = iid_noise_test(rng.standard_normal((15, 30)), sel)
            assert 0.0 <= rep.p_fin <= 1.0
            assert 0.0 <= rep.p_inf <= 1.0

    def test_mean_periodogram_matches_noise_variance(self):
        rng = np.random.default_rng(20240612)
        sel = select_frequencies(21, 0.0, 1)
        sigma2 = 2.5
        means = []
        for _ in range(200):
            U = rng.standard_normal((50, 21)) * np.sqrt(sigma2)
            means.append(averaged_periodogram(U, sel).mean())
        assert np.mean(means) == pytest.approx(sigma2, rel=0.03)

    def test_power_grows_with_sample_size(self):
        # under AR(1) errors the finite-f statistic scales like T
        rng = np.random.default_rng(20240613)
        sel = select_frequencies(365, 0.1, 3)
        medians = {}
        for T in (50, 100, 200, 400):
            stats = []
            for _ in range(20):
                U = gen_ar1_noise(365, T, 0.4, 1.0, rng)
                stats.append(iid_noise_test(U, sel).lambda_fin)
            medians[T] = np.median(stats)
        assert medians[100] >= 1.5 * medians[50]
        assert medians[200] >= 1.5 * medians[100]
        assert medians[400] >= 1.5 * medians[200]


class TestResidualAcf:
    def test_constant_sequence(self):
        acvf, acf = residual_acf(np.full(8, 3.0), 3)
        assert np.array_equal(acvf, np.zeros(4))
        assert acf is None

    def test_lag_zero_identity(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(30)
        acvf, acf = residual_acf(u, 5)
        expected = np.mean((u - u.mean()) ** 2)
        assert acvf[0] == pytest.approx(expected, rel=1e-12)
        assert acf[0] == 1.0

    def test_alternating_sequence(self):
        acvf, acf = residual_acf(np.array([1.0, -1.0, 1.0, -1.0]), 1)
        assert acvf[1] == pytest.approx(-3.0 / 4.0, abs=1e-15)
        assert acf[1] == pytest.approx(-3.0 / 4.0, abs=1e-15)

    def test_hmax_range(self):
        with pytest.raises(DimensionError):
            residual_acf(np.ones(5), 5)

    @given(st.integers(0, 2**32 - 1))
    def test_matches_definition(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(3, 20))
        u = rng.standard_normal(p)
        h = int(rng.integers(0, p))
        acvf, _ = residual_acf(u, h)
        ubar = u.mean()
        direct = sum((u[i + h] - ubar) * (u[i] - ubar) for i in range(p - h)) / p
        assert acvf[h] == pytest.approx(direct, abs=1e-12)


class TestResidualCovariance:
    def test_identical_rows_give_zero(self):
        panel = make_panel(np.tile(np.arange(5.0), (4, 1)))
        assert np.array_equal(residual_covariance(panel), np.zeros((5, 5)))

    def test_hand_example(self):
        panel = make_panel([[0.0, 0.0], [2.0, 2.0]])
        assert np.array_equal(residual_covariance(panel), np.ones((2, 2)))

    def test_iid_structure(self):
        rng = np.random.default_rng(5)
        sigma2 = 1.7
        T = 4000
        panel = make_panel(rng.standard_normal((T, 12)) * np.sqrt(sigma2))
        C = residual_covariance(panel)
        off = C - np.diag(np.diag(C))
        assert np.allclose(np.diag(C), sigma2, rtol=0.15)
        assert np.max(np.abs(off)) < 4 * sigma2 / np.sqrt(T)

    def test_psd_and_symmetric(self):
        rng = np.random.default_rng(6)
        C = residual_covariance(make_panel(rng.standard_normal((10, 7))))
        assert np.array_equal(C, C.T)
        assert np.min(np.linalg.eigvalsh(C)) > -1e-10

    @pytest.mark.parametrize("T, p", [(2, 1), (5, 31), (30, 32), (4, 33), (20, 70), (3, 100)])
    def test_equals_the_symmetrised_product_exactly(self, T, p):
        values = np.random.default_rng(p).standard_normal((T, p)) * np.linspace(0.1, 10.0, p)
        Z = values - values.mean(axis=0)
        C = Z.T @ Z / T
        expected = (C + C.T) / 2.0
        assert residual_covariance(values).tobytes() == expected.tobytes()

    def test_peak_memory_is_about_one_matrix(self):
        """Z'Z / T is divided in place and not symmetrised again: no second p x p array."""
        T, p = 30, 400
        values = np.random.default_rng(7).standard_normal((T, p))
        tracemalloc.start()
        try:
            C = residual_covariance(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * C.nbytes

    def test_correlation_holds_one_matrix_beyond_the_covariance(self):
        """Built one row at a time: no p x p outer product of the scales beside the result."""
        C = residual_covariance(np.random.default_rng(8).standard_normal((30, 400)))
        tracemalloc.start()
        try:
            np.fromiter(_correlation_rows(C), (float, len(C)), len(C))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * C.nbytes

    def test_correlation_equals_the_outer_product_formula_exactly(self):
        values = np.random.default_rng(9).standard_normal((12, 9)) * np.linspace(0.5, 40.0, 9)
        values[:, 4] = 3.0  # a zero-variance column
        C = residual_covariance(values)
        d = np.sqrt(np.diag(C))
        degenerate = d == 0.0
        scale = np.where(degenerate, np.nan, d)
        expected = C / np.outer(scale, scale)
        np.fill_diagonal(expected, np.where(degenerate, np.nan, 1.0))
        corr, flags = residual_correlation(values)
        assert corr.tobytes() == expected.tobytes()
        assert flags.tolist() == [j == 4 for j in range(9)]

    def test_correlation_flags_degenerate_columns(self):
        values = np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 1.0], [2.0, 0.0, 3.0]])
        corr, degenerate = residual_correlation(make_panel(values))
        assert degenerate.tolist() == [False, True, False]
        assert np.isnan(corr[1, 1]) and np.isnan(corr[0, 1])
        assert corr[0, 0] == 1.0


class TestAr1SpectralDensity:
    def test_iid_flat(self):
        for theta in (0.0, 1.0, np.pi):
            assert ar1_spectral_density(0.0, 2.0, theta) == pytest.approx(4.0)

    def test_symmetry(self):
        assert ar1_spectral_density(0.6, 1.0, 0.7) == pytest.approx(
            ar1_spectral_density(0.6, 1.0, -0.7)
        )

    def test_closed_form_value(self):
        assert ar1_spectral_density(0.4, 1.0, 0.0) == pytest.approx(1 / 0.36, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            ar1_spectral_density(1.0, 1.0, 0.3)
        with pytest.raises(DomainError):
            ar1_spectral_density(0.5, 0.0, 0.3)

    @pytest.mark.parametrize("args, text", [
        (("0.2", 1.0, 0.5), r"AR\(1\) coefficient must lie in \(-1, 1\), got '0.2'"),
        ((0.2, "1.0", 0.5), "innovation scale must be positive, got 1.0"),
    ], ids=["theta_coef", "sigma"])
    def test_a_non_number_is_a_domain_error(self, args, text):
        # each used to end in a bare TypeError
        with pytest.raises(DomainError, match=f"^{text}$"):
            ar1_spectral_density(*args)

    def test_matches_periodogram_level_for_ar_noise(self):
        rng = np.random.default_rng(20240614)
        sel = select_frequencies(365, 0.1, 3)
        xis = np.mean(
            [averaged_periodogram(gen_ar1_noise(365, 100, 0.4, 1.0, rng), sel) for _ in range(30)],
            axis=0,
        )
        expected = np.array([ar1_spectral_density(0.4, 1.0, th) for th in sel.thetas])
        assert np.max(np.abs(xis - expected) / expected) < 0.15


def chi2_quadrature_oracle(x, dof, upper=400.0, n=400_001):
    """Simpson integration of the chi-square density on [x, upper]."""
    grid = np.linspace(x, upper, n)
    log_density = (
        (dof / 2 - 1) * np.log(np.maximum(grid, 1e-300))
        - grid / 2
        - (dof / 2) * math.log(2.0)
        - math.lgamma(dof / 2)
    )
    density = np.exp(log_density)
    h = grid[1] - grid[0]
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(np.sum(weights * density) * h / 3.0)


def normal_quadrature_oracle(z, upper=40.0, n=400_001):
    grid = np.linspace(z, upper, n)
    density = np.exp(-grid**2 / 2.0) / math.sqrt(2.0 * math.pi)
    h = grid[1] - grid[0]
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(np.sum(weights * density) * h / 3.0)


class TestDistributionTails:
    def test_trivial_anchors(self):
        assert chi2_upper_tail(0.0, 5) == 1.0
        assert normal_upper_tail(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_quantile_values(self):
        assert chi2_upper_tail(3.8415, 1) == pytest.approx(0.05, abs=1e-4)
        assert normal_upper_tail(1.6449) == pytest.approx(0.05, abs=1e-4)

    @pytest.mark.parametrize("x,dof", [(0.5, 1), (3.0, 2), (9.0, 9), (25.0, 9), (80.0, 54), (150.0, 200)])
    def test_chi2_against_quadrature(self, x, dof):
        assert chi2_upper_tail(x, dof) == pytest.approx(
            chi2_quadrature_oracle(x, dof), abs=1e-8
        )

    @pytest.mark.parametrize("z", [-8.0, -2.0, -0.3, 0.7, 1.96, 4.0, 8.0])
    def test_normal_against_quadrature(self, z):
        expected = normal_quadrature_oracle(z) if z > -8.0 else 1.0 - normal_quadrature_oracle(8.0)
        assert normal_upper_tail(z) == pytest.approx(expected, abs=1e-8)

    def test_invalid_dof(self):
        with pytest.raises(DomainError):
            chi2_upper_tail(1.0, 0)

    @pytest.mark.parametrize("dof", [1, 2, 3, 4, 9, 10, 53, 54, 181, 182, 999, 1000, 4999, 5000])
    def test_chi2_against_scipy_oracle(self, dof):
        x = np.concatenate([
            [-1.0, 0.0, 5e-324, 1e-300, 1e-8], np.geomspace(1e-3, 1e6, 300),
            np.linspace(0.25 * dof, 2.5 * dof, 300),
        ])
        expected = np.where(x > 0, special.gammaincc(dof / 2.0, x / 2.0), 1.0)
        got = np.array([chi2_upper_tail(float(v), dof) for v in x])
        assert np.max(np.abs(got - expected)) <= 1e-12
        assert chi2_upper_tail(math.inf, dof) == 0.0
        assert math.isnan(chi2_upper_tail(math.nan, dof))

    def test_normal_against_scipy_oracle(self):
        z = np.concatenate([np.linspace(-40.0, 40.0, 2001), [-np.inf, np.inf]])
        expected = 0.5 * special.erfc(z / np.sqrt(2.0))
        got = np.array([normal_upper_tail(float(v)) for v in z])
        assert np.max(np.abs(got - expected)) <= 1e-14
        assert math.isnan(normal_upper_tail(math.nan))
