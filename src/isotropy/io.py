"""CSV ingestion and emission for spatial datasets.

Input format: header ``x,y,value``, one observation per row, UTF-8,
decimal points.  Ingestion auto-detects complete rectangular grids and
attaches the grid structure.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from pathlib import Path

import numpy as np

from .core import GridSpec, SpatialDataset

__all__ = ["DataFormatError", "read_dataset_csv", "write_dataset_csv", "detect_grid"]

GRID_DETECT_TOL = 1e-6


class DataFormatError(ValueError):
    """Malformed or inconsistent input data."""


def detect_grid(locations: np.ndarray) -> GridSpec | None:
    """GridSpec if the locations form a complete rectangular grid with a
    common spacing in both directions (within 1e-6), else None."""
    xs = np.unique(locations[:, 0])
    ys = np.unique(locations[:, 1])
    if len(xs) < 2 or len(ys) < 2:
        return None
    if len(xs) * len(ys) != locations.shape[0]:
        return None
    dx = np.diff(xs)
    dy = np.diff(ys)
    s = dx.min()
    if s <= 0:
        return None
    if np.max(np.abs(dx - s)) > GRID_DETECT_TOL or np.max(np.abs(dy - s)) > GRID_DETECT_TOL:
        return None
    # every cell must be observed exactly once
    ix = np.rint((locations[:, 0] - xs[0]) / s)
    iy = np.rint((locations[:, 1] - ys[0]) / s)
    if np.max(np.abs(locations[:, 0] - (xs[0] + ix * s))) > GRID_DETECT_TOL:
        return None
    if np.max(np.abs(locations[:, 1] - (ys[0] + iy * s))) > GRID_DETECT_TOL:
        return None
    flat = (iy * len(xs) + ix).astype(int)
    if len(np.unique(flat)) != locations.shape[0]:
        return None
    return GridSpec(len(xs), len(ys), float(s))


def read_dataset_csv(path) -> SpatialDataset:
    """Parse an ``x,y,value`` CSV into a dataset, attaching grid structure
    when the locations form a complete lattice."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    header = [c.strip().lower() for c in rows[0]]
    if header[:3] != ["x", "y", "value"]:
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
        return SpatialDataset(locations, values, grid=detect_grid(locations))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


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


def write_dataset_csv(dataset: SpatialDataset, path) -> None:
    """Emit a dataset in the ingestion format, full float precision."""
    lines = ["x,y,value"]
    for (x, y), v in zip(dataset.locations, dataset.values):
        lines.append(f"{x:.17g},{y:.17g},{v:.17g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
