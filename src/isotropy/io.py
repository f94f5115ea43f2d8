"""CSV ingestion and emission for spatial datasets.

Input format: header ``x,y,value``, one observation per row, UTF-8
(a leading byte-order mark is skipped), decimal points.  Ingestion
auto-detects complete rectangular grids and attaches the grid structure.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from pathlib import Path

import numpy as np

from .core import GridSpec, SpatialDataset

__all__ = ["DataFormatError", "read_dataset_csv", "format_dataset_csv", "write_dataset_csv",
           "detect_grid"]

class DataFormatError(ValueError):
    """Malformed or inconsistent input data."""


def detect_grid(locations: np.ndarray) -> GridSpec | None:
    """The complete rectangular grid the locations could fill: as many
    columns and rows as distinct x and y values, spaced by the smallest
    step between distinct x values; None when the counts cannot fill one.

    This only proposes a grid.  Whether the locations lie on it is
    :func:`isotropy.core.grid_cells`' rule, which a dataset declared on
    the grid applies.
    """
    xs = np.unique(locations[:, 0])
    ys = np.unique(locations[:, 1])
    if len(xs) < 2 or len(ys) < 2 or len(xs) * len(ys) != locations.shape[0]:
        return None
    return GridSpec(len(xs), len(ys), float(np.diff(xs).min()))


def read_dataset_csv(path) -> SpatialDataset:
    """Parse an ``x,y,value`` CSV into a dataset, attaching grid structure
    when the locations lie on a complete lattice."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")  # as spreadsheets write it, with a BOM
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    data = _plain_table(text)
    if data is None:
        data = _csv_table(path, text)
    locations, values = data[:, :2], data[:, 2]
    if len(values) < 2:
        raise DataFormatError(f"{path}: need at least 2 observations, got {len(values)}")
    if len(values) < 10:
        warnings.warn(
            f"{path}: only {len(values)} observations; results will be unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
    try:
        return _dataset(locations, values)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _dataset(locations: np.ndarray, values: np.ndarray) -> SpatialDataset:
    """The dataset, on the grid :func:`detect_grid` proposes when the
    locations lie on it."""
    grid = detect_grid(locations)
    if grid is not None:
        try:
            return SpatialDataset(locations, values, grid=grid)
        except ValueError:
            pass  # off the lattice; a fault of the locations recurs below
    return SpatialDataset(locations, values)


def _is_header(fields: list[str]) -> bool:
    """The header rule: the first three fields, stripped and lower-cased,
    are ``x``, ``y`` and ``value``."""
    return [c.strip().lower() for c in fields][:3] == ["x", "y", "value"]


def _plain_table(text: str) -> np.ndarray | None:
    """The ``(m, 3)`` body of a file that needs none of the row rules of
    :func:`_csv_table`, parsed in one call: an unquoted header line of
    exactly three fields, then rows of exactly three numbers, all finite,
    no location repeated.  None for any other file, decided from the
    header before parsing where it can be.  What it accepts,
    ``_csv_table`` reads to the same bits."""
    header, _, body = text.partition("\n")
    fields = header.split(",")  # as csv splits an unquoted line
    # loadtxt warns on a blank body
    if '"' in header or len(fields) != 3 or not _is_header(fields) or not body or body.isspace():
        return None
    try:
        data = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return data if data.shape[1] == 3 and _rows_ok(data) else None


def _csv_table(path: Path, text: str) -> np.ndarray:
    """The body rows of a CSV text as an ``(m, 3)`` array, by the csv
    module's rules: quoted fields, extra columns and rows whose fields are
    all blank are allowed, and each number is read by ``float``.  Raises
    DataFormatError naming the header, or the first bad row in file order."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    if not _is_header(rows[0]):
        raise DataFormatError(
            f"{path}: expected header 'x,y,value', got {','.join(rows[0])!r}"
        )
    body = [(lineno, row) for lineno, row in enumerate(rows[1:], start=2)
            if "".join(row).strip()]
    try:
        # one conversion for every row; a short row makes the array ragged
        data = np.array([row[:3] for _, row in body], dtype=float).reshape(-1, 3)
        ok = data.shape[0] == len(body) and _rows_ok(data)
    except ValueError:
        ok = False
    if not ok:
        _raise_first_bad_row(path, body)
    return data


def _rows_ok(data: np.ndarray) -> bool:
    """Every entry finite and no location repeated exactly."""
    if not np.isfinite(data).all():
        return False
    order = np.lexsort((data[:, 1], data[:, 0]))
    same = np.diff(data[order, :2], axis=0) == 0
    return not np.any(same[:, 0] & same[:, 1])


def _raise_first_bad_row(path, body) -> None:
    """Raise the error of the first data row that fails a check, in
    file order; each row is checked for its column count, number format,
    finiteness and a repeated location, in that order."""
    seen: dict[tuple[float, float], int] = {}
    for lineno, row in body:
        if len(row) < 3:
            raise DataFormatError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
        try:
            x, y, v = float(row[0]), float(row[1]), float(row[2])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(v)):
            raise DataFormatError(f"{path}:{lineno}: non-finite entry")
        if (x, y) in seen:
            raise DataFormatError(
                f"{path}:{lineno}: duplicate location ({x:g}, {y:g}), "
                f"first seen on line {seen[(x, y)]}"
            )
        seen[(x, y)] = lineno
    raise AssertionError("no bad row found after a failed check")


def format_dataset_csv(dataset: SpatialDataset) -> str:
    """A dataset in the ingestion format, full float precision."""
    return "x,y,value\n" + "".join(f"{x:.17g},{y:.17g},{v:.17g}\n" for (x, y), v
                                    in zip(dataset.locations, dataset.values))


def write_dataset_csv(dataset: SpatialDataset, path) -> None:
    """Write :func:`format_dataset_csv` of a dataset to ``path``."""
    Path(path).write_text(format_dataset_csv(dataset), encoding="utf-8")
