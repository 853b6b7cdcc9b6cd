import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdfactor import (
    DimensionError,
    ObservationPanel,
    OrderError,
    SampleGrid,
    StepFunction,
    align_sign,
    eigenfunction_estimate,
    empirical_eigensystem,
    inner_product,
    l2_distance,
    l2_norm,
    rough_components,
)
from fdfactor import spectral

JUMP_EIGENFUNCTION = StepFunction(
    SampleGrid(np.array([0.0, 1.0 / 3.0])), np.array([0.0, np.sqrt(1.5)])
)


def make_panel(values):
    values = np.asarray(values, dtype=float)
    return ObservationPanel(values, SampleGrid.midpoints(values.shape[1]))


def jump_only_panel(p, T, sigma2, rng):
    grid = SampleGrid.midpoints(p)
    jump = rough_components(grid.points)[0]
    scores = rng.standard_normal(T)
    values = np.outer(scores, jump)
    if sigma2 > 0:
        values = values + np.sqrt(sigma2) * rng.standard_normal((T, p))
    return ObservationPanel(values, grid)


def first_eigenfunction_error(panel, center=True):
    system = empirical_eigensystem(panel, center=center)
    est = eigenfunction_estimate(system, 1)
    if inner_product(est, JUMP_EIGENFUNCTION) < 0:
        est = StepFunction(est.grid, -est.levels)
    return l2_distance(est, JUMP_EIGENFUNCTION)


class TestEmpiricalEigensystem:
    def test_zero_panel(self):
        system = empirical_eigensystem(make_panel(np.zeros((4, 3))))
        assert np.array_equal(system.gram_eigenvalues, np.zeros(3))

    def test_dual_gram_agreement(self):
        rng = np.random.default_rng(0)
        panel = make_panel(rng.standard_normal((10, 7)))
        system = empirical_eigensystem(panel)
        Z = panel.values - panel.values.mean(axis=0)
        dual = np.sort(np.linalg.eigvalsh(Z @ Z.T / 10))[::-1][:7]
        keep = dual > 1e-12
        assert np.allclose(
            system.gram_eigenvalues[keep], dual[keep], rtol=1e-8
        )

    def test_identical_rows_uncentered_rank_one(self):
        row = np.array([1.0, 2.0, 2.0])
        panel = make_panel(np.tile(row, (5, 1)))
        system = empirical_eigensystem(panel, center=False)
        assert system.gram_eigenvalues[0] == pytest.approx(np.sum(row**2), rel=1e-12)
        assert np.max(system.gram_eigenvalues[1:]) < 1e-10

    def test_descending_order_and_unit_vectors(self):
        rng = np.random.default_rng(1)
        panel = make_panel(rng.standard_normal((9, 6)))
        system = empirical_eigensystem(panel)
        assert np.all(np.diff(system.gram_eigenvalues) <= 1e-12)
        norms = np.linalg.norm(system.eigvecs, axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_kernel_scaling(self):
        rng = np.random.default_rng(2)
        panel = make_panel(rng.standard_normal((8, 5)))
        system = empirical_eigensystem(panel)
        assert np.allclose(
            system.kernel_eigenvalues, system.gram_eigenvalues / 5
        )


class TestEigenfunctionEstimate:
    def test_constant_curves_give_unit_function(self):
        rng = np.random.default_rng(3)
        xi = rng.standard_normal(40)
        panel = make_panel(np.outer(xi, np.ones(25)))
        system = empirical_eigensystem(panel, center=False)
        est = eigenfunction_estimate(system, 1)
        assert np.max(np.abs(np.abs(est.levels) - 1.0)) < 1e-8
        assert np.max(np.abs(est.levels - est.levels[0])) < 1e-10

    def test_unit_norm_on_left_aligned_grid(self):
        # cells tile [0, 1] exactly when s_1 = 0 and the spacing is 1/p
        rng = np.random.default_rng(4)
        p = 16
        grid = SampleGrid(np.arange(p) / p)
        panel = ObservationPanel(rng.standard_normal((12, p)), grid)
        system = empirical_eigensystem(panel)
        for ell in range(1, 6):
            est = eigenfunction_estimate(system, ell)
            assert l2_norm(est) == pytest.approx(1.0, abs=1e-10)

    def test_index_out_of_range(self):
        rng = np.random.default_rng(5)
        system = empirical_eigensystem(make_panel(rng.standard_normal((6, 4))))
        for bad in (0, 5):
            with pytest.raises(OrderError):
                eigenfunction_estimate(system, bad)

    def test_non_equidistant_grid_warns(self):
        rng = np.random.default_rng(6)
        grid = SampleGrid(np.array([0.0, 0.1, 0.5, 1.0]))
        panel = ObservationPanel(rng.standard_normal((6, 4)), grid)
        system = empirical_eigensystem(panel)
        with pytest.warns(UserWarning, match="non-equidistant"):
            eigenfunction_estimate(system, 1)

    def test_jump_recovery_at_scale(self):
        rng = np.random.default_rng(20240607)
        errs = [
            first_eigenfunction_error(jump_only_panel(70, 400, 0.05, rng))
            for _ in range(20)
        ]
        assert np.median(errs) < 0.1


class TestStepFunctionGeometry:
    def test_alignment_identity_and_negation(self):
        grid = SampleGrid.midpoints(5)
        f = StepFunction(grid, np.array([1.0, -2.0, 0.5, 3.0, -1.0]))
        assert align_sign(f, f) is f
        neg = StepFunction(grid, -f.levels)
        flipped = align_sign(f, neg)
        assert np.array_equal(flipped.levels, -f.levels)

    def test_alignment_tie_keeps_input(self):
        grid = SampleGrid(np.array([0.0, 0.5]))
        f = StepFunction(grid, np.array([1.0, 1.0]))
        orthogonal = StepFunction(grid, np.array([1.0, -1.0]))
        assert inner_product(f, orthogonal) == pytest.approx(0.0, abs=1e-15)
        assert align_sign(f, orthogonal) is f

    def test_alignment_requires_common_grid(self):
        f = StepFunction(SampleGrid.midpoints(4), np.ones(4))
        g = StepFunction(SampleGrid.midpoints(5), np.ones(5))
        with pytest.raises(DimensionError):
            align_sign(f, g)

    def test_l2_distance_trivial_cases(self):
        grid = SampleGrid.midpoints(6)
        f = StepFunction(grid, np.arange(6.0))
        assert l2_distance(f, f) == 0.0
        one = StepFunction(grid, np.ones(6))
        zero = StepFunction(grid, np.zeros(6))
        assert l2_distance(one, zero) == pytest.approx(1.0, abs=1e-14)

    def test_l2_distance_jump_closed_form(self):
        zero = StepFunction(SampleGrid(np.array([0.0, 1.0 / 3.0])), np.zeros(2))
        jump = StepFunction(
            SampleGrid(np.array([0.0, 1.0 / 3.0])), np.array([0.0, 1.0])
        )
        assert l2_distance(jump, zero) == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-14)

    def test_l2_distance_across_grids(self):
        # refining a grid but keeping the same function leaves distances at 0
        coarse = StepFunction(SampleGrid(np.array([0.0, 0.5])), np.array([2.0, -1.0]))
        fine = StepFunction(
            SampleGrid(np.array([0.0, 0.25, 0.5, 0.75])),
            np.array([2.0, 2.0, -1.0, -1.0]),
        )
        assert l2_distance(coarse, fine) == pytest.approx(0.0, abs=1e-15)

    def test_l2_metric_properties(self):
        rng = np.random.default_rng(8)
        grid_a = SampleGrid(np.sort(rng.uniform(0, 1, 6)))
        grid_b = SampleGrid(np.sort(rng.uniform(0, 1, 9)))
        f = StepFunction(grid_a, rng.standard_normal(6))
        g = StepFunction(grid_b, rng.standard_normal(9))
        assert l2_distance(f, g) == pytest.approx(l2_distance(g, f), abs=1e-14)
        assert l2_distance(f, f) == 0.0
        assert l2_distance(f, g) > 0.0

    def test_evaluation_convention(self):
        f = StepFunction(SampleGrid(np.array([0.2, 0.5, 0.8])), np.array([1.0, 2.0, 3.0]))
        assert f(0.0) == 1.0  # first level extends to 0
        assert f(0.2) == 1.0
        assert f(0.49) == 1.0
        assert f(0.5) == 2.0
        assert f(0.8) == 3.0
        assert f(1.0) == 3.0  # last level extends to 1


@st.composite
def gram_panels(draw):
    """T<p, T=p and T>p panels; duplicated or constant rows make some rank-deficient."""
    small, large = sorted(draw(st.lists(st.integers(2, 12), min_size=2, max_size=2)))
    T, p = draw(st.sampled_from([(small, large), (small, small), (large, small)]))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((T, p))
    for i in draw(st.lists(st.integers(1, T - 1), max_size=T)):
        values[i] = values[0] if draw(st.booleans()) else draw(st.floats(-3.0, 3.0))
    return make_panel(values)


class TestSmallerSideEigensystem:
    @given(panel=gram_panels(), center=st.booleans())
    def test_eigenpairs_of_the_p_side_gram(self, panel, center):
        system = empirical_eigensystem(panel, center=center)
        Y = panel.values - panel.values.mean(axis=0) if center else panel.values
        G = Y.T @ Y / panel.T
        k = min(panel.T, panel.p)
        reference = np.sort(np.linalg.eigvalsh(G))[::-1][:k]
        gamma, V = system.gram_eigenvalues, system.eigvecs
        assert V.shape == (panel.p, k)
        assert np.max(np.abs(gamma - reference)) <= 1e-10 * reference[0]
        assert np.max(np.abs(V.T @ V - np.eye(k))) <= 1e-10
        for g, v in zip(gamma, V.T):
            if g > 1e-8 * gamma[0]:
                assert np.linalg.norm(G @ v - g * v) <= 1e-10 * gamma[0]

    def test_paper_shape_decomposes_only_the_smaller_gram(self, monkeypatch):
        shapes = []
        eigh = spectral.eigh_descending

        def spy(matrix):
            shapes.append(matrix.shape)
            return eigh(matrix)

        monkeypatch.setattr(spectral, "eigh_descending", spy)
        panel = make_panel(np.random.default_rng(4).standard_normal((200, 365)))
        system = empirical_eigensystem(panel)
        assert shapes == [(200, 200)]
        assert system.eigvecs.shape == (365, 200)

    @pytest.mark.parametrize("center", [True, False])
    def test_tall_panel_is_the_p_side_decomposition(self, center):
        values = np.random.default_rng(5).standard_normal((40, 9))
        Y = values - values.mean(axis=0) if center else values
        G = Y.T @ Y / 40
        vals, vecs = spectral.eigh_descending((G + G.T) / 2.0)
        system = empirical_eigensystem(make_panel(values), center=center)
        assert np.array_equal(system.gram_eigenvalues, vals)
        assert np.array_equal(system.eigvecs, vecs)


class TestGramProductsAreExactlySymmetric:
    """numpy forms A'A and AA' with BLAS syrk and mirrors the triangle, so each Gram
    product the package forms comes back exactly symmetric, and the package does not
    symmetrise it again.  A failure here means numpy stopped mirroring the triangle:
    then (G + G.T) / 2 must come back in ``spectral._centered_eigh``,
    ``simulate._spline_projector`` and ``diagnostics.residual_covariance``.
    """

    @pytest.mark.parametrize("layout", ["C", "F", "column-sliced"])
    @pytest.mark.parametrize("T, p", [(2, 1), (50, 20), (400, 70), (200, 365), (1000, 365)])
    def test_panel_gram_products(self, T, p, layout):
        values = np.random.default_rng(T + p).standard_normal((T, p + 1))
        Z = values - values.mean(axis=0)
        Z = {"C": np.ascontiguousarray(Z[:, :p]), "F": np.asfortranarray(Z[:, :p]),
             "column-sliced": Z[:, 1:]}[layout]
        for G in (Z @ Z.T / T, Z.T @ Z / T):
            assert np.array_equal(G, G.T)

    @pytest.mark.parametrize("p", [20, 50, 365])
    def test_spline_gram(self, p):
        from fdfactor.simulate import _spline_design

        B = _spline_design(p // 3, SampleGrid.midpoints(p).points.tobytes())
        G = B.T @ B
        assert np.array_equal(G, G.T)


class TestEighWrapper:
    def test_solver_failure_carries_diagnostics(self):
        from fdfactor import NumericalError
        from fdfactor.spectral import eigh_descending

        bad = np.full((3, 3), np.nan)
        with pytest.raises(NumericalError, match="fro-norm"):
            eigh_descending(bad)


class TestEigensystemExport:
    def test_csv_layout(self, tmp_path):
        rng = np.random.default_rng(7)
        panel = make_panel(rng.standard_normal((8, 5)))
        system = empirical_eigensystem(panel)
        path = tmp_path / "eigen.csv"
        from fdfactor import export_eigensystem_csv

        export_eigensystem_csv(system, path)
        lines = path.read_text().strip().splitlines()
        header = np.array([float(x) for x in lines[0].split(",")])
        assert np.array_equal(header, system.gram_eigenvalues)
        assert len(lines) == 1 + panel.p
        first_vec = np.array([float(line.split(",")[0]) for line in lines[1:]])
        assert np.array_equal(first_vec, system.eigvecs[:, 0])


class TestSpectralConsistency:
    def test_leading_kernel_eigenvalue_matches_analytic_value(self):
        # jump-only signals: the kernel is rank one with eigenvalue
        # Var(score) * ||jump||^2 = 1 * 2/3
        rng = np.random.default_rng(20240608)
        estimates = []
        for _ in range(50):
            panel = jump_only_panel(70, 400, 0.0, rng)
            system = empirical_eigensystem(panel)
            estimates.append(system.kernel_eigenvalues[0])
        assert abs(np.median(estimates) - 2.0 / 3.0) < 0.1

    def test_error_shrinks_with_resolution_and_sample(self):
        rng = np.random.default_rng(20240609)
        small = [
            first_eigenfunction_error(jump_only_panel(20, 50, 0.05, rng))
            for _ in range(50)
        ]
        big = [
            first_eigenfunction_error(jump_only_panel(70, 400, 0.05, rng))
            for _ in range(50)
        ]
        assert np.median(small) >= 2.0 * np.median(big)

    def test_noise_moves_eigenfunction_error_mildly(self):
        rng = np.random.default_rng(20240610)
        clean = np.median(
            [first_eigenfunction_error(jump_only_panel(70, 400, 0.0, rng)) for _ in range(50)]
        )
        noisy = np.median(
            [first_eigenfunction_error(jump_only_panel(70, 400, 0.05, rng)) for _ in range(50)]
        )
        assert abs(noisy - clean) < 0.5 * clean
