import numpy as np
import pytest

from fdfactor import (
    DegenerateVarianceError,
    DimensionError,
    DomainError,
    NumericalError,
    ObservationPanel,
    OrderError,
    RoughDgpConfig,
    SampleGrid,
    ScreeCurve,
    SmoothDgpConfig,
    add_noise,
    classic_scree,
    empirical_eigensystem,
    fit,
    gen_ar1_noise,
    gen_rough_signals,
    gen_spline_signals,
    iid_noise_test,
    lambda_scree,
    plateau_fit,
    residual_panel,
    select_frequencies,
    suggest_plateau_L,
)
from fdfactor.diagnostics import _noise_statistics, _retained_dft, _second_differences
from fdfactor.spectral import _centered_eigh


def make_panel(values):
    values = np.asarray(values, dtype=float)
    return ObservationPanel(values, SampleGrid.midpoints(values.shape[1]))


def rough_observation(p, T, sigma2, rng):
    signals, _ = gen_rough_signals(RoughDgpConfig(p=p, T=T, sigma2=sigma2), rng)
    return add_noise(signals, gen_ar1_noise(p, T, 0.0, np.sqrt(sigma2), rng))


def factor_observation(T, p, noise_sd, rng):
    """Mean curve + 3 factors with random-walk loadings (power above any cutoff) + iid noise."""
    s = (np.arange(p) + 0.5) / p
    white = rng.standard_normal((3, p))
    loadings = 3.0 * np.cumsum(white, axis=1) / np.sqrt(p) + white
    scores = rng.standard_normal((T, 3)) * np.array([3.0, 2.0, 1.2])
    return make_panel(10.0 + np.sin(2 * np.pi * s) + scores @ loadings
                      + noise_sd * rng.standard_normal((T, p)))


def per_order_lambda(panel, orders, sel):
    """lambda_inf of an independent fit at each order, the scree's reference."""
    return [iid_noise_test(residual_panel(fit(panel, l)), sel).lambda_inf for l in orders]


def peeled_scree(panel, l_max, sel):
    """The scree by one rank-1 peel per order off both blocks: the one-projection rule's oracle."""
    spectrum = _centered_eigh(panel.values)
    C, D = _retained_dft(spectrum.centered, sel), _second_differences(spectrum.centered)
    values = []
    for e in spectrum.leading_vectors(l_max, "t").T:
        C, D = C - np.outer(e, e @ C), D - np.outer(e, e @ D)
        xi = (np.abs(C) ** 2 / panel.p).mean(axis=0)
        sigma2 = np.mean(np.sum(D**2, axis=1) / (6.0 * D.shape[1]))
        values.append(_noise_statistics(xi, sigma2, panel.T, sel.f)[2])
    return np.array(values)


def stat_curve(values):
    values = np.asarray(values, dtype=float)
    return ScreeCurve(np.arange(1, values.size + 1), values, "test-statistic")


class TestClassicScree:
    def test_rank_one_panel_collapses_after_first(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(30)
        panel = make_panel(np.outer(f, rng.standard_normal(12)))
        curve = classic_scree(empirical_eigensystem(panel), 6)
        assert curve.values[1] < 1e-10 * curve.values[0]

    def test_values_non_increasing(self):
        rng = np.random.default_rng(1)
        curve = classic_scree(
            empirical_eigensystem(make_panel(rng.standard_normal((15, 10)))), 10
        )
        assert np.all(np.diff(curve.values) <= 1e-12)

    def test_range_error(self):
        rng = np.random.default_rng(2)
        system = empirical_eigensystem(make_panel(rng.standard_normal((6, 4))))
        with pytest.raises(OrderError):
            classic_scree(system, 5)

    def test_visible_gap_after_true_order(self):
        rng = np.random.default_rng(20240615)
        ratios = []
        for _ in range(50):
            panel = rough_observation(50, 200, 0.05, rng)
            curve = classic_scree(empirical_eigensystem(panel), 6)
            ratios.append(curve.values[2] / curve.values[3])
        assert np.median(ratios) > 5.0


class TestLambdaScree:
    def test_matches_independent_per_order_fits(self):
        rng = np.random.default_rng(3)
        panel = rough_observation(30, 60, 0.1, rng)
        sel = select_frequencies(30, 0.1, 1)
        curve = lambda_scree(panel, 5, sel)
        for l in range(1, 6):
            direct = iid_noise_test(residual_panel(fit(panel, l)), sel).lambda_inf
            assert curve.values[l - 1] == pytest.approx(direct, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("noise_sd", [0.5, 0.01, 1e-4])
    @pytest.mark.parametrize("T, p", [(40, 90), (150, 36)], ids=["T<p", "T>p"])
    def test_block_peel_agrees_with_per_order_fits(self, T, p, noise_sd):
        # both the DFT block and the second-difference block must be peeled:
        # either one left whole keeps the factors in xi or in sigma^2
        panel = factor_observation(T, p, noise_sd, np.random.default_rng(T + p))
        sel = select_frequencies(p, 0.1, 1)
        curve = lambda_scree(panel, 6, sel)
        assert curve.values == pytest.approx(per_order_lambda(panel, range(1, 7), sel), rel=1e-8)

    @pytest.mark.parametrize("noise_sd", [0.5, 0.01])
    @pytest.mark.parametrize("T, p", [(40, 90), (150, 36), (200, 365)], ids=["T<p", "T>p", "paper"])
    def test_one_projection_matches_the_peel(self, T, p, noise_sd):
        panel = factor_observation(T, p, noise_sd, np.random.default_rng(T * p))
        sel = select_frequencies(p, 0.1, 1)
        curve = lambda_scree(panel, 8, sel)
        assert curve.values == pytest.approx(peeled_scree(panel, 8, sel), rel=1e-10)

    @pytest.mark.parametrize("T, p", [(12, 40), (60, 20)], ids=["T<p", "T>p"])
    def test_full_order_where_no_direction_is_left(self, T, p):
        # at l_max = min(T-1, p) the tail sum is empty and the centered panel is
        # spent: the last order is rounding noise, finite but not comparable
        panel = factor_observation(T, p, 0.5, np.random.default_rng(T * p))
        sel = select_frequencies(p, 0.1, 1)
        l_max = min(T - 1, p)
        values = lambda_scree(panel, l_max, sel).values
        assert values.size == l_max and np.all(np.isfinite(values))
        assert values[:-1] == pytest.approx(peeled_scree(panel, l_max, sel)[:-1], rel=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        panel = rough_observation(30, 60, 0.1, rng)
        sel = select_frequencies(30, 0.1, 1)
        a = lambda_scree(panel, 5, sel)
        b = lambda_scree(panel, 5, sel)
        assert np.array_equal(a.values, b.values)

    def test_flat_on_pure_noise(self):
        rng = np.random.default_rng(20240616)
        sel = select_frequencies(50, 0.1, 1)
        curves = []
        for _ in range(50):
            panel = make_panel(rng.standard_normal((200, 50)) * 2.0)
            curves.append(np.abs(lambda_scree(panel, 5, sel).values))
        med = np.median(np.array(curves), axis=0)
        assert med.max() / med.min() <= 3.0

    def test_collapse_at_true_order_then_plateau(self):
        # all fundamental frequencies retained: the residual statistic
        # settles at a stable positive baseline once l reaches the truth
        rng = np.random.default_rng(20240617)
        sel = select_frequencies(50, 0.0, 1)
        curves = []
        for _ in range(50):
            panel = rough_observation(50, 200, 0.05, rng)
            curves.append(lambda_scree(panel, 6, sel).values)
        med = np.median(np.array(curves), axis=0)
        assert med[0] > 10.0 * med[2]
        for l in (3, 4, 5):
            assert med[l] <= 2.0 * med[2]
            assert med[l] >= 0.5 * med[2]

    def test_order_bound(self):
        rng = np.random.default_rng(5)
        panel = make_panel(rng.standard_normal((10, 8)))
        sel = select_frequencies(8, 0.0, 1)
        with pytest.raises(OrderError):
            lambda_scree(panel, 9, sel)

    def test_order_bound_at_t_below_p_names_it(self):
        panel = make_panel(np.random.default_rng(5).standard_normal((10, 20)))
        with pytest.raises(OrderError, match=r"min\(T-1, p\) = 9, got 10$"):
            lambda_scree(panel, 10, select_frequencies(20, 0.0, 1))

    def test_large_smooth_example_plateaus_by_twenty(self):
        cfg = SmoothDgpConfig(p=365, T=200, sigma=2.0, seed=99)
        rng = np.random.default_rng(cfg.seed)
        signals = gen_spline_signals(cfg, rng)
        observed = add_noise(signals, gen_ar1_noise(365, 200, 0.0, 2.0, rng))
        sel = select_frequencies(365, 0.1, 3)
        curve = lambda_scree(observed, 25, sel)
        tail = curve.values[19:]
        full_range = curve.values.max() - curve.values.min()
        assert (tail.max() - tail.min()) <= 0.02 * full_range


class TestDegenerateScreeInputs:
    @pytest.mark.parametrize("T, p", [(20, 30), (50, 12)], ids=["T<p", "T>p"])
    def test_constant_rows_have_no_noise_variance(self, T, p):
        panel = make_panel(np.outer(np.random.default_rng(6).standard_normal(T), np.ones(p)))
        with pytest.raises(DegenerateVarianceError, match=r"^noise variance is 0\.0; residuals "
                           "are degenerate or beyond the float range$"):
            lambda_scree(panel, 4, select_frequencies(p, 0.1, 1))

    @pytest.mark.parametrize("T, p", [(20, 30), (60, 12)], ids=["T<p", "T>p"])
    def test_rank_two_panel(self, T, p):
        # from order 2 on the residual is rounding noise: each order is finite
        # or a named numerical fault, never a RuntimeWarning (an error under pytest)
        rng = np.random.default_rng(7)
        panel = make_panel(5.0 + rng.standard_normal((T, 2)) @ rng.standard_normal((2, p)))
        sel = select_frequencies(p, 0.1, 1)
        first = lambda_scree(panel, 1, sel).values
        assert first == pytest.approx(per_order_lambda(panel, [1], sel), rel=1e-8)
        for l_max in range(2, 7):
            try:
                values = lambda_scree(panel, l_max, sel).values
            except NumericalError:
                continue
            assert np.all(np.isfinite(values))


class TestPlateauRule:
    def test_flat_curve(self):
        suggestion = suggest_plateau_L(stat_curve([2.0, 2.0, 2.0, 2.0, 2.0]))
        assert suggestion == (1, True)

    def test_worked_example(self):
        suggestion = suggest_plateau_L(stat_curve([100, 50, 5, 5.1, 4.9, 5.0]))
        assert suggestion == (3, True)

    def test_cascading_scales(self):
        # a plateau must be found even when the first value dwarfs the rest
        suggestion = suggest_plateau_L(
            stat_curve([7170.0, 227.0, 11.0, 11.1, 11.5, 11.4])
        )
        assert suggestion == (3, True)

    def test_no_flattening_returns_lmax_with_flag(self):
        suggestion = suggest_plateau_L(stat_curve([64.0, 32.0, 16.0, 8.0, 4.0, 2.0]))
        assert suggestion == (6, False)

    def test_too_short(self):
        with pytest.raises(DimensionError):
            suggest_plateau_L(stat_curve([3.0, 2.0, 1.0]))

    def test_rejects_eigenvalue_curves(self):
        curve = ScreeCurve(np.arange(1, 6), np.arange(5.0)[::-1], "eigenvalue")
        with pytest.raises(DomainError, match="^the plateau rule applies to test-statistic screes$"):
            suggest_plateau_L(curve)

    def test_rel_tol_domain(self):
        with pytest.raises(DomainError):
            suggest_plateau_L(stat_curve([4.0, 3.0, 1.0, 1.0, 1.0]), rel_tol=0.0)

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_rule_is_scale_free(self, scale):
        # the threshold is rel_tol times the range of the log elevations, which no scale moves
        curve = stat_curve(scale * np.array([100, 50, 5, 5.1, 4.9, 5.0]))
        assert suggest_plateau_L(curve) == (3, True)

    def test_three_flat_steps_make_a_plateau(self):
        # order 3 is followed by three flat steps, then a rise it does not look at
        assert suggest_plateau_L(stat_curve([100, 50, 5, 5.1, 4.9, 5.0, 30, 30, 30, 30])) == (3, True)
        # two flat steps then the rise are not enough: the plateau starts at 6
        assert suggest_plateau_L(stat_curve([100, 50, 5, 5.1, 4.9, 30, 30, 30, 30, 30])) == (6, True)

    def test_a_curve_flat_from_order_one_suggests_one(self):
        assert suggest_plateau_L(stat_curve([3.0, 3.0, 3.0, 3.0, 0.0])) == (1, True)

    def test_rel_tol_of_one_is_outside_the_domain(self):
        with pytest.raises(DomainError, match=r"rel_tol must lie in \(0, 1\), got 1\.0$"):
            suggest_plateau_L(stat_curve([4.0, 3.0, 1.0, 1.0, 1.0]), rel_tol=1.0)

    def test_a_step_equal_to_the_threshold_is_flat(self):
        # v = [x, 0, 0, 0, M]: the first step is log(x + f) - log(f), f = rel_tol^2 M.  Walk x
        # over neighbouring floats until that step, computed as the rule computes it, equals
        # the threshold exactly: the tie counts as flat, so order 1 qualifies
        rel_tol, ties = 0.5, 0
        for M in np.arange(1.0, 41.0):
            f = rel_tol**2 * M
            x0 = f * (np.exp(rel_tol * np.log(1.0 + 1.0 / rel_tol**2)) - 1.0)
            for x in x0 + np.spacing(x0) * np.arange(-8, 9):
                g = np.log(np.array([x, 0.0, 0.0, 0.0, M]) + f)
                if g[0] - g[1] == rel_tol * (g.max() - g.min()):
                    ties += 1
                    assert suggest_plateau_L(stat_curve([x, 0.0, 0.0, 0.0, M]), rel_tol) == (1, True)
        assert ties

    def test_handles_negative_statistics(self):
        # lambda_inf baselines can dip below zero after the true order
        suggestion = suggest_plateau_L(stat_curve([90.0, 40.0, -0.2, 0.1, -0.1, 0.0]))
        assert suggestion.plateau_found
        assert suggestion.L == 3


class TestPlateauFit:
    @pytest.mark.parametrize("p, T", [(40, 30), (20, 60)])
    def test_matches_scree_then_rule_then_fit(self, p, T):
        panel = rough_observation(p, T, 0.05, np.random.default_rng(p * T))
        sel = select_frequencies(p, 0.1, 1)
        curve, suggestion, result = plateau_fit(panel, 6, sel)
        separate = lambda_scree(panel, 6, sel)
        assert np.array_equal(curve.values, separate.values)
        assert suggestion == suggest_plateau_L(separate)
        reference = fit(panel, suggestion.L)
        for name in ("eigvecs", "scores", "loadings", "gram_eigenvalues", "signals",
                     "residuals"):
            assert np.array_equal(getattr(result, name), getattr(reference, name)), name
        assert result.warnings == reference.warnings

    def test_order_bound(self):
        panel = make_panel(np.random.default_rng(5).standard_normal((10, 8)))
        with pytest.raises(OrderError):
            plateau_fit(panel, 9, select_frequencies(8, 0.0, 1))


class TestAnnotateSuggestion:
    def test_attaches_order_and_method(self):
        from fdfactor import annotate_suggestion

        curve = annotate_suggestion(stat_curve([100, 50, 5, 5.1, 4.9, 5.0]))
        assert curve.suggested_L == 3
        assert curve.suggestion_method == "plateau"
        assert np.array_equal(curve.values, [100, 50, 5, 5.1, 4.9, 5.0])

    def test_fallback_is_tagged(self):
        from fdfactor import annotate_suggestion

        curve = annotate_suggestion(stat_curve([64.0, 32.0, 16.0, 8.0, 4.0, 2.0]))
        assert curve.suggested_L == 6
        assert "no-plateau" in curve.suggestion_method


class TestCurveValidation:
    def test_orders_strictly_increasing(self):
        with pytest.raises(DimensionError):
            ScreeCurve(np.array([1, 1, 2]), np.arange(3.0), "test-statistic")

    def test_eigenvalue_kind_requires_monotone(self):
        with pytest.raises(DimensionError):
            ScreeCurve(np.array([1, 2, 3]), np.array([1.0, 2.0, 0.5]), "eigenvalue")

    def test_unknown_kind(self):
        with pytest.raises(DomainError, match=r"^kind must be one of \('eigenvalue', 'test-statistic'\), got 'mystery'$"):
            ScreeCurve(np.array([1, 2]), np.array([1.0, 0.5]), "mystery")


class TestMonotoneResidualEnergy:
    def test_residual_energy_matches_fit_module(self):
        rng = np.random.default_rng(6)
        panel = rough_observation(25, 80, 0.1, rng)
        prev = np.inf
        for l in range(1, 8):
            ssr = float(np.sum(fit(panel, l).residuals ** 2))
            assert ssr <= prev + 1e-10
            prev = ssr
