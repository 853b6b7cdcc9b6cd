"""Discretely observed curve panels: sampling grids, loading, centering.

A panel holds T curves measured at p common points in [0, 1], one curve
per row.  All containers are immutable after construction and all
operations are pure, so values can be shared freely across threads.
A container copies any array the caller owns, even a read-only one; an
array the library has just built is frozen in place and kept uncopied.
Both table readers share one reader, which turns each row into floats as
it reads it and names a fault in reading order: a header cell, the grid,
each data row, then the table's shape, then its missing and non-finite cells.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import weakref
from contextlib import nullcontext
from dataclasses import dataclass
from typing import IO, Iterable, Union

import numpy as np

from .errors import DimensionError, DomainError, NumericalError, PanelFormatError

#: cell contents read as a missing cell, NaN; any other spelling of NaN
#: (``-nan``, ``+NaN``) parses to NaN and is the same missing cell
MISSING_TOKENS = frozenset({"", "na", "nan", "null"})

Source = Union[str, os.PathLike, IO[str]]


_BUILT = weakref.WeakValueDictionary()  # id -> memory owner of an array _frozen built


def _readonly(a) -> np.ndarray:
    """``a`` if ``_frozen`` built it or its base and both are still read-only, else a frozen float64 copy."""
    if type(a) is np.ndarray and a.dtype == np.float64 and not a.flags.writeable:
        owner = a if a.base is None else a.base
        if _BUILT.get(id(owner)) is owner and not owner.flags.writeable:
            return a
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, an array just built here, made read-only in place with its base, so it is kept uncopied."""
    owner = a if a.base is None else a.base
    owner.setflags(write=False)
    a.setflags(write=False)
    _BUILT[id(owner)] = owner
    return a


def _require_finite(values, quantity: str, source: str) -> None:
    """Raise NumericalError naming ``quantity`` unless every entry of ``values`` is finite."""
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{quantity} is not finite; {source} too large for the float range")


def _is_count(n) -> bool:
    """True for a Python or numpy integer; a bool is not a count."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _is_number(x) -> bool:
    """True for a Python or numpy integer or float; a bool is not a number."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _shown(x) -> str:
    """``x`` as a fault text prints it: a number as ``str`` prints it, numpy scalars too, else its repr, quotes kept."""
    return str(x) if _is_number(x) else repr(x)


def _reject_cells(bad: np.ndarray, fault: str = "non-finite value at row {r}, column {c}") -> None:
    """Raise PanelFormatError naming the first flagged cell of a table, in row order."""
    if bad.any():
        r, c = np.argwhere(bad)[0] + 1
        raise PanelFormatError(fault.format(r=r, c=c))


def _check_width(columns: int, grid: SampleGrid) -> None:
    """Raise DimensionError unless a table has a column per grid point: one text for every caller."""
    if columns != grid.p:
        raise DimensionError(f"table has {columns} columns but the grid has {grid.p} points")


@dataclass(frozen=True)
class SampleGrid:
    """Strictly increasing sampling points s_1 < ... < s_p inside [0, 1]."""

    points: np.ndarray

    def __post_init__(self):
        pts = _readonly(np.atleast_1d(self.points))
        if pts.ndim != 1 or pts.size < 2:
            raise DimensionError("a grid needs at least two points")
        if not np.all(np.isfinite(pts)):
            raise PanelFormatError("grid points must be finite")
        if np.any(np.diff(pts) <= 0):
            raise PanelFormatError("grid points must be strictly increasing")
        if pts[0] < 0.0 or pts[-1] > 1.0:
            raise DomainError(
                f"grid points must lie in [0, 1], got range [{pts[0]}, {pts[-1]}]"
            )
        object.__setattr__(self, "points", pts)

    @classmethod
    def midpoints(cls, p: int) -> "SampleGrid":
        """Equidistant midpoint grid s_i = (i - 0.5)/p, the default layout."""
        if not _is_count(p):
            raise DimensionError(f"a midpoint grid needs an integer number of points, got {p}")
        return cls((np.arange(1, p + 1) - 0.5) / p)

    @property
    def p(self) -> int:
        return self.points.size

    @property
    def mesh(self) -> float:
        """Largest gap between consecutive points (recomputed, never cached)."""
        return float(np.max(np.diff(self.points)))

    def spacings(self) -> np.ndarray:
        return np.diff(self.points)

    def is_equidistant(self, rtol: float = 1e-9) -> bool:
        gaps = self.spacings()
        return bool(np.max(gaps) - np.min(gaps) <= rtol * np.mean(gaps))

    def digest(self) -> str:
        """SHA-256 of the raw point bytes; identifies grids in manifests."""
        return hashlib.sha256(self.points.tobytes()).hexdigest()


@dataclass(frozen=True)
class ObservationPanel:
    """T x p matrix of raw measurements, row t = curve t on a common grid."""

    values: np.ndarray
    grid: SampleGrid

    def __post_init__(self):
        vals = _readonly(np.atleast_2d(self.values))
        if vals.ndim != 2:
            raise DimensionError("panel values must be a 2-d array")
        if vals.shape[0] < 2:
            raise DimensionError(f"a panel needs at least two curves, got {vals.shape[0]}")
        _check_width(vals.shape[1], self.grid)
        _reject_cells(~np.isfinite(vals))
        object.__setattr__(self, "values", vals)

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MeanVector:
    """Pointwise mean curve on a grid (same units as the observations)."""

    values: np.ndarray

    def __post_init__(self):
        vals = _readonly(np.atleast_1d(self.values))
        if vals.ndim != 1:
            raise DimensionError("a mean vector must be 1-d")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


def column_mean(panel: ObservationPanel) -> MeanVector:
    """Pointwise average over curves: entry i is (1/T) sum_t Y[t, i]."""
    return MeanVector(_frozen(panel.values.mean(axis=0)))


def center(panel: ObservationPanel, mean: MeanVector) -> ObservationPanel:
    """Subtract a mean curve from every row.

    With ``mean = column_mean(panel)`` the result has exactly-zero column
    sums up to rounding.
    """
    if len(mean) != panel.p:
        raise DimensionError(f"mean has length {len(mean)} but the panel has {panel.p} columns")
    return ObservationPanel(_frozen(panel.values - mean.values), panel.grid)


def _iter_rows(stream: IO[str]) -> Iterable[list]:
    try:
        yield from csv.reader(stream)
    except (UnicodeDecodeError, csv.Error) as exc:
        where = getattr(stream, "name", stream)
        raise PanelFormatError(f"{where}: not a readable CSV text table ({exc})") from None


def _parse_row(cells, row_label):
    """Parse one CSV row; a ``MISSING_TOKENS`` cell reads as NaN, like any spelling of NaN."""
    out = np.empty(len(cells))
    for j, cell in enumerate(cells):
        token = cell.strip()
        if token.lower() in MISSING_TOKENS:
            out[j] = np.nan
            continue
        try:
            out[j] = float(token)
        except ValueError:
            raise PanelFormatError(
                f"could not parse {token!r} at row {row_label}, column {j + 1}"
            ) from None
    return out


def _c_reader_lines(fh):
    """Lines of ``fh`` for ``np.loadtxt``; ValueError where it would read them unlike csv."""
    limit, seen = csv.field_size_limit(), False
    for line in fh:
        # the limit is on one field; a line with a quote fails loadtxt anyway
        if len(line) > limit and max(map(len, line.split(","))) > limit:
            raise ValueError("field longer than the csv field limit")
        seen = seen or bool(line.strip("\r\n"))
        yield line
    if not seen:
        raise ValueError("no data")  # loadtxt would only warn


def _read_bulk(fh):
    """A file's table as floats by numpy's C reader, or None, ``fh`` rewound, for the csv pass."""
    if not fh.seekable():  # a pipe cannot be read a second time
        return None
    try:
        return np.loadtxt(_c_reader_lines(fh), delimiter=",", comments=None,
                          quotechar=None, ndmin=2)
    except ValueError:  # a UnicodeDecodeError too: the per-cell pass names it
        fh.seek(0)
        return None


def _read_table(source: Source, header: bool):
    """A table's grid (its parsed header row, or None) and its data rows as one float array.

    The C reader converts a file it wholly accepts; the per-cell pass takes
    every other table and every stream, parses each row as it reads it, and
    alone defines what parses.  Faults are named in reading order: header
    cells, the grid, then each data row, its width before its cells.
    """
    with nullcontext(source) if hasattr(source, "read") else open(source, "r", newline="") as fh:
        table = None if fh is source else _read_bulk(fh)
        if table is not None:
            return (SampleGrid(table[0]), table[1:]) if header else (None, table)
        rows = (r for r in _iter_rows(fh) if r)
        grid, data = None, []
        if header:
            cells = next(rows, None)
            if cells is None:
                raise DimensionError("empty input")
            grid = SampleGrid(_parse_row(cells, "1 (header)"))
        for i, cells in enumerate(rows, 1):
            if data and len(cells) != data[0].size:
                raise PanelFormatError(f"row {i} has {len(cells)} values, expected {data[0].size}")
            if not data and grid is not None:
                _check_width(len(cells), grid)
            data.append(_parse_row(cells, i))
    return grid, np.array(data) if data else np.empty((0, 0))


def load_panel(source: Source, header: bool = False) -> ObservationPanel:
    """Read a comma-separated panel, one curve per row.

    Parameters
    ----------
    source : path or text stream
        Table with '.' decimal separator and no locale dependence.
    header : bool
        When True the first row holds the grid points.  Otherwise the
        equidistant midpoint grid (i - 0.5)/p is assumed.

    Raises
    ------
    PanelFormatError, DimensionError, DomainError
        The first fault in reading order: an unparsable header cell, a
        grid that is not strictly increasing inside [0, 1], a first row
        not as wide as the grid, a ragged row or an unparsable cell, fewer
        than 2 rows or 2 columns, a missing cell, then a non-finite one.
    """
    grid, data = _read_table(source, header)
    T, p = data.shape
    if T < 2:
        raise DimensionError(f"a panel needs at least two curves, got {T}")
    if p < 2:
        raise DimensionError(f"a panel needs at least two columns, got {p}")
    _reject_cells(np.isnan(data), "missing value at row {r}, column {c}; "
                  "run the 'impute' command first")
    return ObservationPanel(_frozen(data), SampleGrid.midpoints(p) if grid is None else grid)


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_rows(dest: Source, rows, header=None) -> None:
    """Write CSV lines: floats as shortest round-tripping reprs, None as empty.

    Every float reads back bit-identically.  ``header``, when given, is
    written as the first line.
    """
    with nullcontext(dest) if hasattr(dest, "write") else open(dest, "w", newline="") as fh:
        for row in rows if header is None else itertools.chain([header], rows):
            cells = map(repr, row.tolist()) if isinstance(row, np.ndarray) else map(_cell, row)
            fh.write(",".join(cells) + "\n")


def _write_files(files: dict, out_dir="") -> None:
    """Write ``files`` under ``out_dir``: name -> ``(rows, header)`` as CSV, or an object as JSON."""
    for name, content in files.items():
        path = os.path.join(out_dir, name)
        if isinstance(content, tuple):
            _write_rows(path, *content)
            continue
        with open(path, "w") as fh:
            json.dump(content, fh, indent=2, sort_keys=True)
            fh.write("\n")


def save_panel(panel: ObservationPanel, dest: Source, header: bool = True) -> None:
    """Write a panel as CSV using shortest round-tripping float reprs.

    A save/load cycle reproduces every entry bit-identically.
    """
    _write_rows(dest, panel.values, panel.grid.points if header else None)


def read_table_with_missing(source: Source, header: bool = False):
    """Read a table like :func:`load_panel` but keep its missing cells, which read as NaN.

    Returns ``(values, grid_points_or_None)``; used by the impute pre-pass.
    Any fault it names, save ``no data rows``, is the one :func:`load_panel`
    names for the same table; :func:`impute_missing` checks finiteness.
    """
    grid, values = _read_table(source, header)
    if len(values) == 0:
        raise DimensionError("no data rows")
    return values, None if grid is None else grid.points


def impute_missing(values: np.ndarray, grid: SampleGrid) -> np.ndarray:
    """Fill NaN gaps by linear interpolation along each row.

    Interior gaps are interpolated against the grid positions; gaps at
    either edge copy the nearest observed value.  A row with no observed
    value at all cannot be imputed, and an infinite cell is a fault, not a gap.
    """
    values = np.asarray(values, dtype=float)
    _check_width(values.shape[1], grid)
    _reject_cells(np.isinf(values))
    out = values.copy()
    s = grid.points
    for i, row in enumerate(out):
        known = ~np.isnan(row)
        if known.all():
            continue
        if not known.any():
            raise PanelFormatError(f"row {i + 1} has no observed values to impute from")
        # np.interp extends the boundary value outside the known range
        row[~known] = np.interp(s[~known], s[known], row[known])
    return out
