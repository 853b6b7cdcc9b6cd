import numpy as np
import pytest

from fdfactor import (
    ObservationPanel,
    OrderError,
    RoughDgpConfig,
    SampleGrid,
    add_noise,
    empirical_eigensystem,
    fit,
    gen_ar1_noise,
    gen_rough_signals,
    load_fit_residuals,
    residual_panel,
    save_fit,
    signal_panel,
    sse_appr,
)
from fdfactor.factor import DEGENERATE_GAP


def make_panel(values):
    values = np.asarray(values, dtype=float)
    return ObservationPanel(values, SampleGrid.midpoints(values.shape[1]))


def brute_force_rank1_oracle(values):
    """Independent reconstruction: explicit Gram, np.linalg.eig, projection."""
    T, p = values.shape
    mu = values.mean(axis=0)
    Z = values - mu
    G = np.empty((T, T))
    for a in range(T):
        for b in range(T):
            G[a, b] = sum(Z[a, k] * Z[b, k] for k in range(p)) / T
    w, V = np.linalg.eig(G)
    lead = np.argmax(w.real)
    e = V[:, lead].real
    e = e / np.linalg.norm(e)
    return mu + np.outer(e, e @ Z)


class TestFitBasics:
    def test_noiseless_rank1_is_reproduced(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(20)
        f -= f.mean()
        b = rng.standard_normal(7)
        panel = make_panel(np.outer(f, b))
        result = fit(panel, 1)
        assert np.max(np.abs(result.residuals)) < 1e-10

    def test_full_rank_projection_reproduces_panel(self):
        rng = np.random.default_rng(1)
        panel = make_panel(rng.standard_normal((8, 5)))
        result = fit(panel, min(8 - 1, 5))
        assert np.max(np.abs(result.signals - panel.values)) < 1e-10
        assert np.max(np.abs(result.residuals)) < 1e-10

    def test_small_panel_against_brute_force_oracle(self):
        # the 3x4 one-hot panel has a doubly degenerate leading eigenvalue
        # (1/3, 1/3, 0), so only projector-invariant quantities are
        # comparable across solvers on it
        values = np.array(
            [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
        )
        panel = make_panel(values)
        result = fit(panel, 1)
        assert result.gram_eigenvalues[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        Z = values - values.mean(axis=0)
        oracle = brute_force_rank1_oracle(values)
        ssr_fit = np.sum((values - result.signals) ** 2)
        ssr_oracle = np.sum((values - oracle) ** 2)
        assert ssr_fit == pytest.approx(ssr_oracle, abs=1e-10)
        assert ssr_fit == pytest.approx(np.sum(Z**2) - 3 * (1.0 / 3.0), abs=1e-10)
        assert result.warnings  # degenerate kept/dropped gap is flagged

    def test_nondegenerate_small_panel_matches_oracle_exactly(self):
        values = np.array(
            [[3.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0]]
        )
        result = fit(make_panel(values), 1)
        oracle = brute_force_rank1_oracle(values)
        assert np.max(np.abs(result.signals - oracle)) < 1e-10

    def test_order_out_of_range(self):
        panel = make_panel(np.random.default_rng(2).standard_normal((6, 4)))
        for bad in (0, -1, 6, 4 + 1):
            with pytest.raises(OrderError):
                fit(panel, bad)

    def test_mean_is_column_mean(self):
        rng = np.random.default_rng(3)
        panel = make_panel(rng.standard_normal((9, 6)) + 5.0)
        result = fit(panel, 2)
        assert np.allclose(result.mean.values, panel.values.mean(axis=0))


class TestFitInvariants:
    @pytest.mark.parametrize("T,p,L", [(12, 30, 4), (30, 9, 3), (10, 10, 5)])
    def test_score_normalization_and_shapes(self, T, p, L):
        rng = np.random.default_rng(T * p)
        panel = make_panel(rng.standard_normal((T, p)))
        r = fit(panel, L)
        assert r.eigvecs.shape == (T, L)
        assert r.scores.shape == (T, L)
        assert r.loadings.shape == (p, L)
        assert np.array_equal(r.scores, np.sqrt(T) * r.eigvecs)
        assert np.max(np.abs(r.scores.T @ r.scores / T - np.eye(L))) < 1e-10
        assert np.max(np.abs(r.eigvecs.T @ r.eigvecs - np.eye(L))) < 1e-10

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(8)
        panel = make_panel(rng.standard_normal((15, 11)))
        r = fit(panel, 4)
        Z = panel.values - r.mean.values
        proj = r.eigvecs @ (r.eigvecs.T @ Z)
        scale = np.abs(proj).max()
        assert np.max(np.abs((r.signals - r.mean.values) - proj)) < 1e-10 * max(scale, 1)

    def test_signals_equal_scores_times_loadings(self):
        rng = np.random.default_rng(9)
        panel = make_panel(rng.standard_normal((14, 6)))
        r = fit(panel, 3)
        assert np.allclose(r.signals, r.mean.values + r.scores @ r.loadings.T, atol=1e-12)

    def test_residual_defining_identity_is_bit_exact(self):
        rng = np.random.default_rng(10)
        panel = make_panel(rng.standard_normal((12, 7)) * 100)
        r = fit(panel, 2)
        assert np.array_equal(r.residuals, panel.values - r.signals)
        # the rearranged sum holds to one ulp but not bit-exactly in floats
        assert np.allclose(r.residuals + r.signals, panel.values, rtol=0, atol=1e-12)

    def test_projection_idempotent(self):
        rng = np.random.default_rng(11)
        panel = make_panel(rng.standard_normal((20, 13)))
        r1 = fit(panel, 5)
        r2 = fit(signal_panel(r1), 5)
        scale = max(np.abs(r1.signals).max(), 1.0)
        assert np.max(np.abs(r2.signals - r1.signals)) < 1e-9 * scale

    def test_monotone_residual_energy_matches_spectrum(self):
        rng = np.random.default_rng(12)
        panel = make_panel(rng.standard_normal((18, 12)))
        Z = panel.values - panel.values.mean(axis=0)
        T = panel.T
        gammas = np.sort(np.linalg.eigvalsh(Z @ Z.T / T))[::-1]
        prev = np.inf
        for L in range(1, 12):
            ssr = float(np.sum(fit(panel, L).residuals ** 2))
            assert ssr <= prev + 1e-9
            expected = T * gammas[L:].sum()
            assert ssr == pytest.approx(expected, rel=1e-8, abs=1e-9)
            prev = ssr

    def test_sign_flips_leave_signals_unchanged(self):
        rng = np.random.default_rng(13)
        panel = make_panel(rng.standard_normal((16, 9)))
        r = fit(panel, 4)
        Z = panel.values - r.mean.values
        for flips in ([0], [1, 3], [0, 1, 2, 3]):
            E = r.eigvecs.copy()
            E[:, flips] *= -1.0
            rebuilt = r.mean.values + E @ (E.T @ Z)
            assert np.max(np.abs(rebuilt - r.signals)) < 1e-10

    def test_gram_truncation_side_agreement(self):
        # p < T runs the p x p decomposition; compare with a direct T x T one
        rng = np.random.default_rng(14)
        panel = make_panel(rng.standard_normal((40, 9)))
        r = fit(panel, 3)
        Z = panel.values - panel.values.mean(axis=0)
        w, V = np.linalg.eigh(Z @ Z.T / 40)
        E = V[:, ::-1][:, :3]
        oracle = E @ (E.T @ Z)
        assert np.max(np.abs((r.signals - r.mean.values) - oracle)) < 1e-9

    def test_degenerate_gap_warning(self):
        rows = np.outer(np.arange(6) - 2.5, np.ones(4))
        r = fit(make_panel(rows), 2)
        assert len(r.warnings) == 1
        assert np.max(np.abs(r.scores.T @ r.scores / 6 - np.eye(2))) < 1e-10

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_eigengap_check_is_relative_to_the_leading_eigenvalue(self, scale):
        rows = np.outer(np.arange(6) - 2.5, np.ones(4))  # rank one: gamma_2 = gamma_3
        assert len(fit(make_panel(scale * rows), 2).warnings) == 1
        separated = np.random.default_rng(3).standard_normal((40, 9))
        assert fit(make_panel(scale * separated), 3).warnings == ()

    def test_exactly_zero_dropped_eigenvalues_still_warn(self):
        # one centred column: the p-side Gram is diag(1/2, 0, 0), so gamma_2 = gamma_3 = 0
        r = fit(make_panel([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), 2)
        assert len(r.warnings) == 1

    def test_a_gap_equal_to_the_bound_does_not_warn(self):
        # centred orthogonal columns (0, 0, c, -c), (u, -u, 0, 0) and 0 give the p-side Gram
        # diag(c^2/2, u^2/2, 0).  Walk u and c over neighbouring floats until the gap at L = 2,
        # gamma_2 - gamma_3, equals DEGENERATE_GAP * gamma_1 exactly: only a gap below it warns
        ties = 0
        for u in 2e-5 + np.spacing(2e-5) * np.arange(-5, 6):
            c0 = u / np.sqrt(DEGENERATE_GAP)
            for c in c0 + np.spacing(c0) * np.arange(-10, 11):
                panel = make_panel([[0.0, u, 0.0], [0.0, -u, 0.0], [c, 0.0, 0.0], [-c, 0.0, 0.0]])
                gamma = empirical_eigensystem(panel).gram_eigenvalues
                if gamma[1] - gamma[2] == DEGENERATE_GAP * gamma[0]:
                    ties += 1
                    assert fit(panel, 2).warnings == ()
        assert ties

    def test_zero_panel_keeps_orthonormal_scores(self):
        r = fit(make_panel(np.zeros((5, 4))), 2)
        assert np.max(np.abs(r.scores.T @ r.scores / 5 - np.eye(2))) < 1e-10
        assert np.array_equal(r.signals, np.zeros((5, 4)))


class TestResidualPanel:
    def test_noiseless_fit_gives_zero_residual_panel(self):
        rng = np.random.default_rng(15)
        scores = rng.standard_normal((12, 2))
        loadings = rng.standard_normal((2, 8))
        panel = make_panel(scores @ loadings)
        resid = residual_panel(fit(panel, 2))
        scale = np.abs(panel.values).max()
        assert np.max(np.abs(resid.values)) < 1e-9 * scale

    def test_residual_column_means_vanish_for_exact_order(self):
        rng = np.random.default_rng(16)
        signals, _ = gen_rough_signals(RoughDgpConfig(p=30, T=150, sigma2=0.05), rng)
        observed = add_noise(signals, gen_ar1_noise(30, 150, 0.0, np.sqrt(0.05), rng))
        resid = residual_panel(fit(observed, 3))
        assert np.abs(resid.values.mean(axis=0)).max() < 1e-12

    def test_residuals_on_original_grid(self):
        rng = np.random.default_rng(17)
        panel = make_panel(rng.standard_normal((6, 5)))
        resid = residual_panel(fit(panel, 1))
        assert np.array_equal(resid.grid.points, panel.grid.points)


class TestOverestimationRobustness:
    def test_sse_ratios_across_orders(self):
        # direction check on the rough generator: halving the order is
        # catastrophic, doubling it costs only a small multiple
        rng = np.random.default_rng(20240601)
        r1, r3, r6 = [], [], []
        for _ in range(50):
            signals, _ = gen_rough_signals(RoughDgpConfig(p=50, T=200, sigma2=0.05), rng)
            observed = add_noise(signals, gen_ar1_noise(50, 200, 0.0, np.sqrt(0.05), rng))
            r1.append(sse_appr(signals, fit(observed, 1).signals))
            r3.append(sse_appr(signals, fit(observed, 3).signals))
            r6.append(sse_appr(signals, fit(observed, 6).signals))
        m1, m3, m6 = np.median(r1), np.median(r3), np.median(r6)
        assert m1 > 5.0 * m3
        # measured ratio is ~2.4: excess factors absorb noise at the
        # Marchenko-Pastur edge, slightly above the naive 6/3 scaling
        assert m6 < 3.0 * m3


class TestFitArtifacts:
    def test_save_and_reload_residuals(self, tmp_path):
        rng = np.random.default_rng(18)
        panel = make_panel(rng.standard_normal((7, 6)))
        r = fit(panel, 2)
        save_fit(r, tmp_path / "fitdir")
        back = load_fit_residuals(tmp_path / "fitdir")
        assert np.array_equal(back.values, r.residuals)
        for name in ("muhat.csv", "loadings.csv", "scores.csv", "signals.csv",
                     "residuals.csv", "eigenvalues.csv", "fit.json"):
            assert (tmp_path / "fitdir" / name).exists()
