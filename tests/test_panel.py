import csv
import io
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from fdfactor import panel as panel_module
from fdfactor.cli import main
from fdfactor.panel import read_table_with_missing


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

    @pytest.mark.parametrize("p", [1, 0, -1])
    def test_midpoints_need_two_points(self, p):
        with pytest.raises(DimensionError, match="^a grid needs at least two points$"):
            SampleGrid.midpoints(p)

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

    def test_the_constructor_and_the_imputer_name_a_grid_width_mismatch_in_one_text(self):
        text = r"^table has 4 columns but the grid has 5 points$"  # as the CLI's readers say it
        with pytest.raises(DimensionError, match=text):
            ObservationPanel(np.zeros((3, 4)), SampleGrid.midpoints(5))
        with pytest.raises(DimensionError, match=text):
            impute_missing(np.zeros((3, 4)), SampleGrid.midpoints(5))

    def test_values_immutable(self):
        panel = make_panel(np.ones((2, 3)))
        with pytest.raises(ValueError):
            panel.values[0, 0] = 2.0


class TestOwnership:
    """A caller's array is copied, even a read-only one; an array just built is kept uncopied."""

    def test_a_writable_caller_array_is_copied(self):
        values = np.ones((2, 3))
        panel = make_panel(values)
        assert not np.shares_memory(panel.values, values) and values.flags.writeable
        values[0, 0] = 5.0
        assert panel.values[0, 0] == 1.0

    def test_a_read_only_view_of_a_writable_base_is_copied(self):
        base = np.ones((2, 3))
        view = base[:, :]
        view.setflags(write=False)
        panel = make_panel(view)
        assert not np.shares_memory(panel.values, base) and base.flags.writeable
        base[0, 0] = 5.0
        assert panel.values[0, 0] == 1.0

    def test_a_read_only_caller_array_is_copied(self):
        # the caller owns the array, so it can make it writable again after the build
        for build, values in ((lambda a: MeanVector(a).values, np.ones(3)),
                              (lambda a: make_panel(a).values, np.ones((2, 3))),
                              (lambda a: SampleGrid(a).points, np.array([0.25, 0.5, 0.75]))):
            values.setflags(write=False)
            kept = build(values)
            expected = kept.copy()
            values.setflags(write=True)
            values.flat[0] = 0.125
            assert not np.shares_memory(kept, values) and np.array_equal(kept, expected)
            assert not kept.flags.writeable
        ints = np.ones((2, 3), dtype=int)
        ints.setflags(write=False)
        assert make_panel(ints).values.dtype == np.float64

    @staticmethod
    def built_arrays(monkeypatch, module):
        built, frozen = [], panel_module._frozen

        def spy(a):
            built.append(a)
            return frozen(a)

        monkeypatch.setattr(module, "_frozen", spy)
        return built

    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("source", ["path", "stream"])
    def test_load_panel_keeps_the_parsed_array(self, tmp_path, monkeypatch, header, source):
        path = tmp_path / "panel.csv"
        path.write_text("0.25,0.75\n1.0,2.0\n3.0,4.5\n5.0,6.0\n")
        built = self.built_arrays(monkeypatch, panel_module)
        panel = load_panel(path if source == "path" else io.StringIO(path.read_text()),
                           header=header)
        assert len(built) == 1 and np.shares_memory(panel.values, built[0])
        assert not panel.values.flags.writeable

    def test_add_noise_and_residual_panel_keep_the_sum(self, monkeypatch):
        import fdfactor.simulate as simulate
        from fdfactor import add_noise, fit, residual_panel

        built = self.built_arrays(monkeypatch, simulate)
        rng = np.random.default_rng(12)
        noise = rng.standard_normal((6, 5))
        observed = add_noise(make_panel(rng.standard_normal((6, 5))), noise)
        assert len(built) == 1 and np.shares_memory(observed.values, built[0])
        assert noise.flags.writeable
        result = fit(observed, 2)
        assert np.shares_memory(residual_panel(result).values, result.residuals)


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


#: the cells of ``TestCliFuzz`` in tests/test_cli.py, plus tokens on which
#: numpy's C reader and Python's ``float()`` part ways
READER_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "na", "NaN", "-nan", "+NaN", "null", "inf", "-Infinity", "1e400",
                     "1,5", '"2"', "abc", "0x10", "1_0", "\t3 ", "--1",
                     "1_000", "１２", "٣", '"5"', '"1,2"', "1e5_0", "1d5", "\ufeff1", "#1",
                     "\x00", "1\x00", "\xa01\xa0", "\x851", "\x0b1\x0c", "\x1c1"]),
    st.just("1" * 131_073),
)
READER_NUMBERS = st.one_of(st.floats(-100.0, 100.0), st.sampled_from([0.0, 1e300, -1e-300, 5e-324]))


@st.composite
def table_texts(draw):
    """Mostly clean tables with a few bad cells, ragged or blank lines and mixed line ends."""
    T, p = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    rows = [[repr(draw(READER_NUMBERS)) for _ in range(p)] for _ in range(T)]
    for i, j, cell in draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), READER_CELLS),
                                    max_size=2)):
        if i < T and j < p:
            rows[i][j] = cell
    for i, width in draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 6)), max_size=1)):
        if i < T:
            rows[i] = rows[i][:width]
    lines = [",".join(row) for row in rows]
    for i, blank in draw(st.lists(st.tuples(st.integers(0, 6), st.sampled_from(["", " ", "\t"])),
                                  max_size=2)):
        lines.insert(min(i, len(lines)), blank)
    ends = draw(st.lists(st.sampled_from(["\n", "\r", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    if ends and draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    return "".join(line + end for line, end in zip(lines, ends))


def _outcome(read, source, header):
    """Values and grid as bytes, or the exception's type and message."""
    try:
        values, grid = read(source, header)
    except Exception as exc:
        return type(exc), str(exc)
    return values.shape, values.tobytes(), None if grid is None else grid.tobytes()


def _load(source, header):
    panel = load_panel(source, header=header)
    return panel.values, panel.grid.points


class TestReaderPaths:
    """A path tries numpy's C reader; a stream always takes the per-cell reader."""

    @pytest.mark.filterwarnings("error::UserWarning")  # loadtxt only warns on blank lines
    @settings(max_examples=400)
    # a field limit of 24 puts most lines over it, and some numbers too
    @given(text=table_texts(), header=st.booleans(),
           read=st.sampled_from([_load, read_table_with_missing]),
           limit=st.sampled_from([csv.field_size_limit(), 24]))
    @example(text="\n\r\n\r", header=True, read=_load, limit=csv.field_size_limit())
    @example(text="\r\n", header=True, read=read_table_with_missing, limit=csv.field_size_limit())
    def test_path_and_stream_agree_bit_for_bit(self, tmp_path_factory, text, header, read, limit):
        path = tmp_path_factory.mktemp("reader") / "table.csv"
        path.write_bytes(text.encode("utf-8"))
        path = str(path)
        stream = io.StringIO(text, newline="")
        stream.name = path  # the per-cell reader names a stream's fault by its name
        default = csv.field_size_limit(limit)
        try:
            assert _outcome(read, path, header) == _outcome(read, stream, header)
        finally:
            csv.field_size_limit(default)

    @pytest.mark.parametrize("p", [4, 9_000], ids=["narrow", "wide"])
    @pytest.mark.parametrize("header", [False, True])
    def test_c_reader_takes_a_clean_table(self, tmp_path, monkeypatch, header, p):
        points = (np.arange(p) + 0.5) / p
        path = tmp_path / "panel.csv"
        save_panel(make_panel(np.vstack([points, points / 3, points / 7])), path, header=False)
        if p > 4:  # every line is over csv's limit on one field, and no field is
            assert min(map(len, path.read_text().splitlines())) > csv.field_size_limit()

        def per_cell(cells, row_label):
            raise AssertionError("the per-cell reader ran on a clean table")

        monkeypatch.setattr(panel_module, "_parse_row", per_cell)
        panel = load_panel(path, header=header)
        values, grid = read_table_with_missing(path, header=header)
        assert panel.T == (2 if header else 3) and panel.p == p
        assert np.array_equal(values, panel.values)
        assert (grid is None) != header

    def test_a_fault_names_a_path_object_in_full(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("1.0,2.0\n" + "1" * 140_000 + ",2.0\n")
        with pytest.raises(PanelFormatError, match=f"^{re.escape(str(path))}: not a readable"):
            load_panel(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to name a pipe by")
    @pytest.mark.parametrize("header", [False, True])
    def test_impute_reads_a_pipe_once(self, tmp_path, header):
        """A gappy table, which the C reader declines, fills the same through a pipe as a file."""
        cells = [repr(x) for x in np.random.default_rng(3).standard_normal(60 * 300).tolist()]
        cells[::7] = [""] * len(cells[::7])
        rows = [",".join(cells[i:i + 300]) for i in range(0, len(cells), 300)]
        if header:
            rows.insert(0, ",".join(map(repr, SampleGrid.midpoints(300).points.tolist())))
        table = tmp_path / "gappy.csv"
        table.write_text("\n".join(rows) + "\n")
        flags = ["--header"] if header else []
        argv = ["impute", "--input", str(table), "--out", str(tmp_path / "file.csv")]
        assert main(argv + flags) == 0

        read_end, write_end = os.pipe()

        def feed():  # the table is larger than a pipe's buffer
            try:
                with open(write_end, "wb") as fh:
                    fh.write(table.read_bytes())
            except BrokenPipeError:
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            code = main(["impute", "--input", f"/dev/fd/{read_end}",
                         "--out", str(tmp_path / "pipe.csv")] + flags)
        finally:
            os.close(read_end)
            writer.join()
        assert code == 0
        assert (tmp_path / "pipe.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()


class TestReadingOrder:
    """One reader serves both public readers, so both name a fault the same way, in reading order."""

    @settings(max_examples=300)
    @given(text=table_texts(), header=st.booleans())
    @example(text="0.1,0.05\n1,2\n3,x\n", header=True)  # the grid is named before row 2
    @example(text="1.0,x\n", header=False)  # an unparsable row before the count of curves
    @example(text="x\n1\n2\n", header=False)  # an unparsable row before the count of columns
    def test_load_panel_names_the_fault_read_table_with_missing_names(self, text, header):
        def stream():
            named = io.StringIO(text, newline="")
            named.name = "table.csv"  # a stream's unreadable-CSV fault names it
            return named

        try:
            read_table_with_missing(stream(), header=header)
        except ValueError as exc:
            fault = exc
        else:
            return
        if isinstance(fault, DimensionError) and str(fault) == "no data rows":
            return
        with pytest.raises(type(fault)) as raised:
            load_panel(stream(), header=header)
        assert type(raised.value) is type(fault) and str(raised.value) == str(fault)

    def test_per_cell_pass_holds_no_table_of_strings(self):
        """A gappy table, which takes the per-cell pass, peaks near two float copies of itself."""
        T, p = 400, 365
        cells = [repr(x) for x in np.random.default_rng(5).standard_normal(T * p).tolist()]
        cells[::7] = [""] * len(cells[::7])
        stream = io.StringIO("".join(",".join(cells[i:i + p]) + "\n" for i in range(0, T * p, p)))
        del cells
        tracemalloc.start()
        try:
            values, _ = read_table_with_missing(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (T, p) and np.isnan(values).sum() == len(range(0, T * p, 7))
        assert peak < 3 * values.nbytes
