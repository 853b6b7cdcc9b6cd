import numpy as np
import pytest

from fdfactor import (
    DomainError,
    ObservationPanel,
    OrderError,
    PiecewiseLinearCurve,
    RoughDgpConfig,
    SampleGrid,
    add_noise,
    dense_trace,
    evaluate,
    fit,
    gen_ar1_noise,
    gen_rough_signals,
    impute_missing,
    interpolate,
    rough_components,
)


def two_point_oracle(points, values, s):
    """Direct bracketing formula, written independently of the library."""
    if s <= points[0]:
        return values[0]
    if s >= points[-1]:
        return values[-1]
    j = 0
    while not (points[j] <= s < points[j + 1]):
        j += 1
    w = (s - points[j]) / (points[j + 1] - points[j])
    return values[j] * (1 - w) + values[j + 1] * w


class TestEvaluate:
    def test_knot_values_exact(self):
        rng = np.random.default_rng(0)
        grid = SampleGrid(np.sort(rng.uniform(0, 1, 9)))
        vals = rng.standard_normal(9)
        curve = PiecewiseLinearCurve(grid, vals)
        for s, v in zip(grid.points, vals):
            assert evaluate(curve, s) == v

    def test_midpoint_is_average(self):
        grid = SampleGrid(np.array([0.1, 0.3, 0.9]))
        curve = PiecewiseLinearCurve(grid, np.array([2.0, 4.0, -6.0]))
        assert evaluate(curve, 0.2) == pytest.approx(3.0, abs=1e-15)
        assert evaluate(curve, 0.6) == pytest.approx(-1.0, abs=1e-15)

    def test_hand_values(self):
        curve = PiecewiseLinearCurve(SampleGrid(np.array([0.0, 1.0])), np.array([0.0, 2.0]))
        assert evaluate(curve, 0.25) == pytest.approx(0.5, abs=1e-15)
        curve2 = PiecewiseLinearCurve(
            SampleGrid(np.array([0.25, 0.75])), np.array([1.0, 3.0])
        )
        assert evaluate(curve2, 0.5) == pytest.approx(2.0, abs=1e-15)

    def test_boundary_extension(self):
        curve = PiecewiseLinearCurve(
            SampleGrid(np.array([0.25, 0.75])), np.array([1.0, 3.0])
        )
        assert evaluate(curve, 0.0) == 1.0
        assert evaluate(curve, 0.1) == 1.0
        assert evaluate(curve, 0.75) == 3.0
        assert evaluate(curve, 1.0) == 3.0

    def test_domain_error(self):
        curve = PiecewiseLinearCurve(SampleGrid.midpoints(4), np.ones(4))
        for bad in (-0.1, 1.1):
            with pytest.raises(DomainError):
                evaluate(curve, bad)

    def test_dense_mesh_matches_oracle(self):
        rng = np.random.default_rng(1)
        grid = SampleGrid(np.sort(rng.uniform(0, 1, 12)))
        vals = rng.standard_normal(12)
        curve = PiecewiseLinearCurve(grid, vals)
        mesh = np.linspace(0, 1, 701)
        mine = evaluate(curve, mesh)
        oracle = np.array([two_point_oracle(grid.points, vals, s) for s in mesh])
        assert np.max(np.abs(mine - oracle)) < 1e-12

    def test_vectorized_matches_scalar(self):
        curve = PiecewiseLinearCurve(SampleGrid.midpoints(5), np.arange(5.0))
        mesh = np.linspace(0, 1, 50)
        assert np.array_equal(evaluate(curve, mesh), [evaluate(curve, s) for s in mesh])


class TestSharedWithImpute:
    def test_imputed_gaps_are_the_curve_through_the_observed_cells(self):
        # one interpolation rule: impute fills a gap with evaluate of the row's
        # observed cells, bit for bit, the constant extension at both ends included
        rng = np.random.default_rng(4)
        grid = SampleGrid.midpoints(365)
        row = rng.standard_normal(365)
        gaps = np.zeros(365, dtype=bool)
        gaps[rng.choice(np.arange(1, 364), 28, replace=False)] = True
        gaps[[0, 364]] = True
        filled = impute_missing(np.vstack([np.where(gaps, np.nan, row), row]), grid)[0]
        curve = PiecewiseLinearCurve(SampleGrid(grid.points[~gaps]), row[~gaps])
        assert np.array_equal(filled[gaps], evaluate(curve, grid.points[gaps]))
        assert np.array_equal(filled[~gaps], row[~gaps])


class TestInterpolate:
    def test_curve_passes_through_fitted_values(self):
        rng = np.random.default_rng(2)
        panel = ObservationPanel(rng.standard_normal((6, 8)), SampleGrid.midpoints(8))
        result = fit(panel, 2)
        curve = interpolate(result, 3)
        assert np.array_equal(
            evaluate(curve, panel.grid.points), result.signals[2]
        )

    def test_index_range(self):
        rng = np.random.default_rng(3)
        panel = ObservationPanel(rng.standard_normal((6, 8)), SampleGrid.midpoints(8))
        result = fit(panel, 2)
        for bad in (0, 7):
            with pytest.raises(OrderError):
                interpolate(result, bad)

    def test_dense_trace_shape(self):
        curve = PiecewiseLinearCurve(SampleGrid.midpoints(4), np.arange(4.0))
        trace = dense_trace(curve, 100)
        assert trace.shape == (100, 2)
        assert trace[0, 0] == 0.0 and trace[-1, 0] == 1.0


class TestSupErrorShrinks:
    def window_sup_error(self, p, T, sigma2, rng, lo=0.4, hi=0.45):
        signals, scores = gen_rough_signals(RoughDgpConfig(p=p, T=T, sigma2=sigma2), rng)
        observed = add_noise(signals, gen_ar1_noise(p, T, 0.0, np.sqrt(sigma2), rng))
        result = fit(observed, 3)
        mesh = np.linspace(lo, hi, 201)
        truth = scores @ rough_components(mesh)
        errors = []
        for t in range(T):
            approx = evaluate(interpolate(result, t + 1), mesh)
            errors.append(np.max(np.abs(truth[t] - approx)))
        return float(np.mean(errors))

    def test_jump_free_window_error_drops_with_resolution(self):
        # the window [0.4, 0.45] avoids the jump; errors there should fall
        # substantially from (p, T) = (20, 50) to (70, 400)
        rng = np.random.default_rng(20240611)
        coarse = np.median([self.window_sup_error(20, 50, 0.05, rng) for _ in range(50)])
        fine = np.median([self.window_sup_error(70, 400, 0.05, rng) for _ in range(50)])
        assert fine <= 0.6 * coarse
