import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdfactor import (
    DimensionError,
    MeanVector,
    ObservationPanel,
    PanelFormatError,
    SampleGrid,
    center,
    column_mean,
    impute_missing,
    load_panel,
    save_panel,
)


def make_panel(values):
    values = np.asarray(values, dtype=float)
    return ObservationPanel(values, SampleGrid.midpoints(values.shape[1]))


class TestSampleGrid:
    def test_midpoints(self):
        g = SampleGrid.midpoints(3)
        assert np.allclose(g.points, [1 / 6, 3 / 6, 5 / 6])

    def test_mesh_recomputed(self):
        g = SampleGrid(np.array([0.0, 0.1, 0.5, 1.0]))
        assert g.mesh == pytest.approx(0.5)

    def test_rejects_unsorted(self):
        with pytest.raises(PanelFormatError):
            SampleGrid(np.array([0.2, 0.1, 0.5]))

    def test_rejects_outside_unit_interval(self):
        from fdfactor import DomainError

        with pytest.raises(DomainError):
            SampleGrid(np.array([0.0, 0.5, 1.5]))

    def test_needs_two_points(self):
        with pytest.raises(DimensionError):
            SampleGrid(np.array([0.5]))

    def test_immutable(self):
        g = SampleGrid.midpoints(4)
        with pytest.raises(ValueError):
            g.points[0] = 0.0

    def test_equidistance_detection(self):
        assert SampleGrid.midpoints(10).is_equidistant()
        assert not SampleGrid(np.array([0.0, 0.1, 0.5, 1.0])).is_equidistant()


class TestLoadPanel:
    def test_default_midpoint_grid(self):
        panel = load_panel(io.StringIO("0.1,0.2,0.3\n0.4,0.5,0.6\n"))
        assert panel.T == 2 and panel.p == 3
        assert np.allclose(panel.grid.points, [1 / 6, 3 / 6, 5 / 6])

    def test_header_grid_passthrough(self):
        panel = load_panel(
            io.StringIO("0.0,0.5,1.0\n1,2,3\n4,5,6\n"), header=True
        )
        assert np.array_equal(panel.grid.points, [0.0, 0.5, 1.0])

    def test_ragged_row_names_offender(self):
        with pytest.raises(PanelFormatError, match="row 2"):
            load_panel(io.StringIO("1,2,3\n1,2,3,4\n"))

    def test_parse_error_names_cell(self):
        with pytest.raises(PanelFormatError, match="row 2, column 3"):
            load_panel(io.StringIO("1,2,3\n1,2,x\n"))

    def test_missing_value_points_to_impute(self):
        with pytest.raises(PanelFormatError, match="impute"):
            load_panel(io.StringIO("1,2,3\n1,,3\n"))

    def test_too_few_rows(self):
        with pytest.raises(DimensionError):
            load_panel(io.StringIO("1,2,3\n"))

    def test_too_few_columns(self):
        with pytest.raises(DimensionError):
            load_panel(io.StringIO("1\n2\n"))

    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        panel = make_panel(rng.standard_normal((5, 7)) * 1e3)
        path = tmp_path / "panel.csv"
        save_panel(panel, path)
        back = load_panel(path, header=True)
        assert np.array_equal(back.values, panel.values)
        assert np.array_equal(back.grid.points, panel.grid.points)


class TestColumnMeanAndCenter:
    def test_zero_panel(self):
        assert np.array_equal(column_mean(make_panel(np.zeros((3, 4)))).values, np.zeros(4))

    def test_constant_rows(self):
        panel = make_panel([[1, 2, 3]] * 4)
        assert np.array_equal(column_mean(panel).values, [1, 2, 3])

    def test_hand_sum(self):
        panel = make_panel([[1, 0], [3, 2]])
        assert np.array_equal(column_mean(panel).values, [2, 1])

    def test_center_hand_values(self):
        panel = make_panel([[1, 0], [3, 2]])
        out = center(panel, MeanVector(np.array([2.0, 1.0])))
        assert np.array_equal(out.values, [[-1, -1], [1, 1]])

    def test_center_with_zero_mean_is_identity(self):
        panel = make_panel([[1, 0], [3, 2]])
        out = center(panel, MeanVector(np.zeros(2)))
        assert np.array_equal(out.values, panel.values)

    def test_center_length_mismatch(self):
        with pytest.raises(DimensionError):
            center(make_panel([[1, 0], [3, 2]]), MeanVector(np.zeros(3)))

    @given(
        st.integers(2, 8),
        st.integers(2, 8),
        st.integers(0, 2**32 - 1),
    )
    def test_centered_columns_sum_to_zero(self, T, p, seed):
        rng = np.random.default_rng(seed)
        panel = make_panel(rng.standard_normal((T, p)) * 10)
        out = center(panel, column_mean(panel))
        scale = max(np.abs(panel.values).max(), 1.0)
        assert np.abs(out.values.sum(axis=0)).max() < 1e-12 * T * scale

    @given(st.integers(0, 2**32 - 1))
    def test_centering_idempotent_under_zero_mean(self, seed):
        rng = np.random.default_rng(seed)
        panel = make_panel(rng.standard_normal((4, 5)))
        m = column_mean(panel)
        once = center(panel, m)
        again = center(once, MeanVector(np.zeros(5)))
        assert np.array_equal(once.values, again.values)


class TestPanelValidation:
    def test_rejects_nan(self):
        with pytest.raises(PanelFormatError, match="non-finite value at row 1, column 2"):
            make_panel([[1.0, np.nan], [0.0, 1.0]])

    def test_names_the_first_non_finite_cell_in_row_order(self):
        values = np.zeros((4, 5))
        values[3, 0] = np.nan
        values[2, 4] = -np.inf
        values[2, 3] = np.inf
        with pytest.raises(PanelFormatError, match=r"^non-finite value at row 3, column 4$"):
            make_panel(values)

    def test_rejects_single_row(self):
        with pytest.raises(DimensionError):
            make_panel([[1.0, 2.0]])

    def test_grid_width_mismatch(self):
        with pytest.raises(DimensionError):
            ObservationPanel(np.zeros((3, 4)), SampleGrid.midpoints(5))

    def test_values_immutable(self):
        panel = make_panel(np.ones((2, 3)))
        with pytest.raises(ValueError):
            panel.values[0, 0] = 2.0


class TestImpute:
    def test_interior_linear_interpolation(self):
        grid = SampleGrid(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
        vals = np.array([[0.0, np.nan, 2.0, np.nan, 4.0], [1.0, 1.0, 1.0, 1.0, 1.0]])
        out = impute_missing(vals, grid)
        assert np.allclose(out[0], [0, 1, 2, 3, 4])

    def test_edge_extension(self):
        grid = SampleGrid.midpoints(4)
        vals = np.array([[np.nan, 2.0, 3.0, np.nan], [0.0, 0.0, 0.0, 0.0]])
        out = impute_missing(vals, grid)
        assert np.allclose(out[0], [2, 2, 3, 3])

    def test_infinite_cell_is_named_not_filled(self):
        grid = SampleGrid.midpoints(3)
        with pytest.raises(PanelFormatError, match=r"^non-finite value at row 2, column 1$"):
            impute_missing(np.array([[np.nan, 2.0, 3.0], [-np.inf, np.nan, 1.0]]), grid)

    def test_all_missing_row_rejected(self):
        grid = SampleGrid.midpoints(3)
        with pytest.raises(PanelFormatError, match="row 1"):
            impute_missing(np.array([[np.nan] * 3, [1.0, 2.0, 3.0]]), grid)
