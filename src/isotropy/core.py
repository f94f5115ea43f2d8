"""Shared domain types: datasets, grids, lag sets and contrast matrices.

Conventions used throughout the package:

* locations are rows of an ``(n, 2)`` float array, ``(x, y)``;
* a lag ``(dx, dy)`` is the displacement from one location to another,
  so the pair ``(i, j)`` matches lag ``h`` when ``loc[j] - loc[i] == h``;
* all containers are immutable after construction and safe to share
  between threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridSpec",
    "SpatialDataset",
    "LagSet",
    "ContrastMatrix",
    "default_lag_set",
    "default_contrast",
    "enumerate_lag_pairs",
    "grid_cells",
    "pairs_within",
    "neighbour_distances",
]

# Two sampling locations closer than this are considered duplicates.
DUPLICATE_TOL = 1e-9


def single(outcomes: list):
    """The outcome of a one-dataset block: its result, or its failure raised."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid layout: ``n_cols`` x ``n_rows`` points, fixed spacing."""

    n_cols: int
    n_rows: int
    spacing: float = 1.0

    def __post_init__(self):
        sides = (self.n_cols, self.n_rows)
        if not all(isinstance(side, (int, np.integer)) and side >= 1 for side in sides):
            raise ValueError(f"grid dimensions must be positive integers, not {sides}")
        if not (0 < self.spacing < np.inf):
            raise ValueError(f"grid spacing must be positive and finite, not {self.spacing!r}")

    @property
    def size(self) -> int:
        return self.n_cols * self.n_rows

    def locations(self) -> np.ndarray:
        """All grid locations from the origin, x varying fastest, as an
        ``(n, 2)`` array."""
        ii, jj = np.meshgrid(
            np.arange(self.n_cols), np.arange(self.n_rows), indexing="xy"
        )
        return np.column_stack([ii.ravel(), jj.ravel()]).astype(float) * self.spacing


def grid_cells(locations: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Column and row of each location on ``grid``, counted from the
    smallest x and y.

    This is the rule for lying on a grid: every location is within 1e-6
    grid spacings of a lattice point in each coordinate, and the
    locations fill the ``n_cols`` x ``n_rows`` cells once each.  Raises
    ValueError otherwise.
    """
    if grid.size != locations.shape[0]:
        raise ValueError(
            f"grid declares {grid.size} points but dataset has {locations.shape[0]}"
        )
    idx = (locations - locations.min(axis=0)) / grid.spacing
    rounded = np.rint(idx)
    if np.max(np.abs(idx - rounded)) > 1e-6:
        raise ValueError("locations do not lie on the declared grid")
    cols = rounded[:, 0].astype(int)
    rows = rounded[:, 1].astype(int)
    if cols.max() >= grid.n_cols or rows.max() >= grid.n_rows:
        raise ValueError("locations fall outside the declared grid")
    if np.bincount(rows * grid.n_cols + cols).max() > 1:
        raise ValueError("grid cells observed more than once")
    return cols, rows


# Neighbouring cells as (column step, row step).  The pair search visits
# each pair of adjacent cells from one side only.
_HALF_NEIGHBOURHOOD = np.array([(0, 1), (1, -1), (1, 0), (1, 1)])
_NEIGHBOURHOOD = np.array([(dc, dr) for dc in (-1, 0, 1) for dr in (-1, 0, 1)])

# Cell coordinates stay below 2**_CELL_BITS, so that cell keys and Z-order
# codes fit 64 bits.
_CELL_BITS = 30


def _cell_coords(points: np.ndarray, width: float):
    """Integer column and row of each point on square cells at least
    ``width`` wide and no narrower than ``2**-_CELL_BITS`` of the points'
    extent, and the cells' width in halved coordinates.

    Cells are laid out in halved coordinates, whose extents stay finite for
    coordinates near +-1e308.  The 1.001 keeps rounding in the cell
    coordinates from putting two points within ``width`` of each other
    more than one cell apart.
    """
    half = points / 2
    lo = half.min(axis=0)
    extent = float((half.max(axis=0) - lo).max())
    unit = 1.001 * max(width / 2, extent * 2.0**-_CELL_BITS, np.finfo(float).tiny)
    return np.floor((half - lo) / unit).astype(np.int64), unit


def _expand(start: np.ndarray, count: np.ndarray):
    """For runs ``start[a] .. start[a] + count[a] - 1``: the run of every
    position and the position itself."""
    owner = np.repeat(np.arange(count.size), count)
    return owner, np.arange(owner.size) + np.repeat(start - np.cumsum(count) + count, count)


def pairs_within(points: np.ndarray, r: float):
    """Pairs of rows of ``points`` whose L-inf distance
    ``max(|x_i - x_j|, |y_i - y_j|)`` is at most ``r``, each once, in no
    particular order or orientation: index arrays ``i`` and ``j`` and the
    displacements ``points[j] - points[i]`` as arrays ``dx`` and ``dy``.

    Points are sorted into square cells at least ``r`` wide, and each point
    is checked against the points after it in its own cell and every point
    of four neighbouring cells.  Only occupied cells are kept, so narrow
    cells cost nothing.
    """
    n = points.shape[0]
    if n < 2:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0), np.empty(0)
    cell, _ = _cell_coords(points, r)
    # rows 0 and stride - 1 of every column stay empty, so a row step
    # never wraps into the next column
    stride = int(cell[:, 1].max()) + 3
    key = cell[:, 0] * stride + cell[:, 1] + 1
    order = np.argsort(key, kind="stable")
    key = key[order]
    new_cell = np.r_[True, key[1:] != key[:-1]]
    start = np.flatnonzero(new_cell)
    stop = np.append(start[1:], n)
    keys = key[start]
    # for each point in sorted order, five runs of sorted positions: the
    # later points of its own cell, then the points of each of its
    # half-neighbourhood cells
    offset = _HALF_NEIGHBOURHOOD[:, 0] * stride + _HALF_NEIGHBOURHOOD[:, 1]
    target = key[:, None] + offset
    at = np.minimum(np.searchsorted(keys, target), keys.size - 1)
    hit = keys[at] == target
    first = np.column_stack([np.arange(1, n + 1), np.where(hit, start[at], 0)])
    last = np.column_stack([stop[np.cumsum(new_cell) - 1], np.where(hit, stop[at], 0)])
    run, b = _expand(first.ravel(), (last - first).ravel())
    a = run // first.shape[1]
    x, y = points[order, 0], points[order, 1]
    with np.errstate(over="ignore"):
        dx, dy = x[b] - x[a], y[b] - y[a]
    near = np.flatnonzero((np.abs(dx) <= r) & (np.abs(dy) <= r))
    return order[a[near]], order[b[near]], dx[near], dy[near]


def _interleave(v: np.ndarray) -> np.ndarray:
    """The bits of nonnegative integers ``v`` below ``2**32`` spread to the
    even bit positions."""
    v = v.astype(np.uint64)
    for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                        (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                        (1, 0x5555555555555555)):
        v = (v | (v << np.uint64(shift))) & np.uint64(mask)
    return v


def _z_code(cell: np.ndarray) -> np.ndarray:
    """Z-order (Morton) code of cells given as rows of column and row."""
    return _interleave(cell[:, 0]) | (_interleave(cell[:, 1]) << np.uint64(1))


def neighbour_distances(points: np.ndarray) -> np.ndarray:
    """Each row of ``points``' Euclidean distance to its nearest other row,
    ``sqrt(dx*dx + dy*dy)`` (``inf`` for a single point).

    The points are sorted in Z order of the finest cells, which also
    sorts them by the cells of every coarser level: a cell at level ``b``
    is ``2**b`` finest cells on a side.  A point's distance to the points
    before and after it in that order bounds its nearest distance, and it
    searches the nine cells around it at the finest level whose cells are
    as wide as that bound.  A dense cluster is thus searched on cells of
    its own scale.
    """
    n = points.shape[0]
    out = np.full(n, np.inf)
    if n < 2:
        return out
    cell, unit = _cell_coords(points, 0.0)
    code = _z_code(cell)
    order = np.argsort(code, kind="stable")
    code, cell, x, y = code[order], cell[order], points[order, 0], points[order, 1]
    with np.errstate(over="ignore"):
        gap = _length(np.diff(x), np.diff(y))
        bound = np.minimum(np.r_[np.inf, gap], np.r_[gap, np.inf])
        # cells at level b are 2**b units wide; at level _CELL_BITS one
        # cell holds every point
        level = np.ceil(np.log2(np.maximum(1.001 * (bound / 2) / unit, 1.0)))
    level = np.minimum(level, _CELL_BITS).astype(np.int64)
    steps = len(_NEIGHBOURHOOD)
    # a step below cell 0 looks in cell 0 again, which repeats candidates
    # but cannot change a minimum
    near = np.maximum((cell >> level[:, None])[:, None, :] + _NEIGHBOURHOOD, 0)
    shift = 2 * np.repeat(level, steps).astype(np.uint64)
    first = _z_code(near.reshape(-1, 2)) << shift
    start = np.searchsorted(code, first)
    count = np.searchsorted(code, first + (np.uint64(1) << shift)) - start
    # positions in Z order: each point's candidates are contiguous, and
    # include the point itself
    run, b = _expand(start, count)
    a = run // steps
    with np.errstate(over="ignore"):
        d = _length(x[b] - x[a], y[b] - y[a])
    d[a == b] = np.inf
    count = count.reshape(n, steps).sum(axis=1)
    out[order] = np.minimum.reduceat(d, np.cumsum(count) - count)
    return out


def _length(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Euclidean lengths ``sqrt(dx*dx + dy*dy)``, bit for bit as a KD-tree
    computes them."""
    return np.sqrt(dx * dx + dy * dy)


@dataclass(frozen=True)
class SpatialDataset:
    """Sampling locations with observed values, optionally on a grid.

    Parameters
    ----------
    locations : (n, 2) array
        Sampling coordinates.
    values : (n,) array
        Observed field values, same order as ``locations``.
    grid : GridSpec, optional
        Declared grid structure.  When present, every location must lie
        on the grid and the grid must be completely observed.

    Work that depends only on the locations and grid (the location
    checks, nearest-neighbour distances, pair tables, window layouts) is
    kept in the dataset's memo, so it is done once per dataset.  A study
    block is one dataset and the ``(R, n)`` values of its replicates
    (see :meth:`value_rows`).
    """

    locations: np.ndarray
    values: np.ndarray
    grid: GridSpec | None = None
    _memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        loc = np.atleast_2d(np.asarray(self.locations, dtype=float))
        if loc.ndim != 2 or loc.shape[1] != 2:
            raise ValueError("locations must be an (n, 2) array")
        if loc.shape[0] < 1:
            raise ValueError("dataset must contain at least one observation")
        object.__setattr__(self, "locations", _readonly(loc))
        object.__setattr__(self, "_memo", {})
        rows = self.value_rows(np.asarray(self.values, dtype=float).reshape(1, -1))
        object.__setattr__(self, "values", _readonly(rows[0]))
        self._check_locations()

    def value_rows(self, values=None) -> np.ndarray:
        """``values``, R >= 1 fields on these locations, as a C-contiguous float ``(R, n)``
        array (the dataset's own as one row when None); ValueError unless finite and (R, n)."""
        if values is None:
            return self.values[None]
        values = np.ascontiguousarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1:
            raise ValueError(f"values must be an (R, n) array, not shape {values.shape}")
        if values.shape[1] != self.n:
            raise ValueError(f"{self.n} locations but {values.shape[1]} values")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        return values

    def memo(self, key, build):
        """``build()`` computed once per dataset and kept under ``key``.
        ``build`` must depend on the locations and grid alone, and ``key``
        must name its arguments; the result serves every row of values on
        these locations, so arrays in it must be read-only."""
        try:
            return self._memo[key]
        except KeyError:
            return self._memo.setdefault(key, build())

    def nearest_distances(self) -> np.ndarray:
        """Each location's distance to its nearest other location
        (memoized, read-only)."""
        return self.memo(("nearest",), lambda: _readonly(neighbour_distances(self.locations)))

    def _check_locations(self):
        """Checks of a new location set: finite, without near-duplicates,
        and on the declared grid."""
        if not np.all(np.isfinite(self.locations)):
            raise ValueError("locations must be finite")
        if self.grid is not None:
            grid_cells(self.locations, self.grid)
        # points in distinct cells, each within 1e-6 spacings of its lattice
        # point, are at least spacing * (1 - 2e-6) apart
        spaced = self.grid is not None and self.grid.spacing * (1 - 2e-6) >= DUPLICATE_TOL
        if self.n > 1 and not spaced:
            # the pair search only finds candidates (its radius leaves room
            # for rounding); their Euclidean lengths decide and word the
            # error, and the closest pair is always among them
            _, _, dx, dy = pairs_within(self.locations, 2 * DUPLICATE_TOL)
            if dx.size:
                nearest = _length(dx, dy).min()
                if nearest < DUPLICATE_TOL:
                    raise ValueError(
                        f"duplicate sampling locations (minimum separation {nearest:g})"
                    )

    @property
    def n(self) -> int:
        return self.locations.shape[0]

    def bounds(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the sampling locations."""
        return (
            float(self.locations[:, 0].min()),
            float(self.locations[:, 1].min()),
            float(self.locations[:, 0].max()),
            float(self.locations[:, 1].max()),
        )

    def field_matrix(self, values=None) -> np.ndarray:
        """The values as ``(n_cols, n_rows)``; ``values`` (R, n) as ``(R, n_cols, n_rows)``."""
        if self.grid is None:
            raise ValueError("dataset has no grid structure")
        g = self.grid

        def build():
            cols, rows = grid_cells(self.locations, g)
            cols.setflags(write=False)
            rows.setflags(write=False)
            return cols, rows

        cols, rows = self.memo(("cells",), build)
        values = self.values if values is None else values
        out = np.empty((*values.shape[:-1], g.n_cols, g.n_rows), dtype=float)
        out[..., cols, rows] = values
        return out

    def take(self, indices: np.ndarray) -> "SpatialDataset":
        """Subset the dataset by observation indices (grid structure dropped)."""
        return SpatialDataset(self.locations[indices], self.values[indices])


@dataclass(frozen=True)
class LagSet:
    """Ordered set of distinct spatial lags used for a contrast hypothesis."""

    lags: np.ndarray

    def __post_init__(self):
        lags = np.atleast_2d(np.asarray(self.lags, dtype=float))
        if lags.shape[1] != 2:
            raise ValueError("lags must be (k, 2)")
        if lags.shape[0] < 2:
            raise ValueError("a lag set needs at least two lags")
        if not np.all(np.isfinite(lags)):
            raise ValueError("lags must be finite")
        if np.any(np.all(np.abs(lags) < 1e-12, axis=1)):
            raise ValueError("the zero lag is not allowed in a lag set")
        # lags i < j are duplicates when np.allclose(lags[i], lags[j], atol=1e-12)
        close = np.all(np.abs(lags[:, None] - lags[None, :])
                       <= 1e-12 + 1e-5 * np.abs(lags[None, :]), axis=2)
        dup = np.argwhere(np.triu(close, 1))
        if dup.size:
            raise ValueError(f"duplicate lag {tuple(lags[dup[0, 0]])}")
        object.__setattr__(self, "lags", _readonly(lags))

    @property
    def k(self) -> int:
        return self.lags.shape[0]

    def __iter__(self):
        return ((float(dx), float(dy)) for dx, dy in self.lags)


@dataclass(frozen=True)
class ContrastMatrix:
    """Full-row-rank matrix of zero-sum contrasts defining the null."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        r, k = m.shape
        if not np.all(np.isfinite(m)):
            raise ValueError("contrast entries must be finite")
        if r > k - 1:
            raise ValueError(f"{r} contrasts over {k} lags cannot be independent")
        if np.max(np.abs(m.sum(axis=1))) > 1e-12:
            raise ValueError("every contrast row must sum to zero")
        if np.linalg.matrix_rank(m) != r:
            raise ValueError("contrast matrix is not full row rank")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def r(self) -> int:
        return self.matrix.shape[0]

    @property
    def k(self) -> int:
        return self.matrix.shape[1]


# Orientation-supplementing lag pair at ~22.5 and ~112.5 degrees.
_EXTRA_PAIR = ((1.132, 0.469), (-0.469, 1.132))


def lag_unit(grid: GridSpec | None) -> float:
    """Length unit of the default lags and of exact lag matching: the grid
    spacing, or 1 without a declared grid."""
    return 1.0 if grid is None else grid.spacing


def lag_match_tol(grid: GridSpec | None) -> float:
    """Euclidean distance within which a pair's displacement matches a lag
    exactly: 1e-9 lag units."""
    return 1e-9 * lag_unit(grid)


def default_lag_set(scale: float = 1.0, extra_pair: bool = False,
                    grid: GridSpec | None = None) -> LagSet:
    """The standard four-lag set, in units of the grid spacing.

    Returns the lags ``(1,0), (0,1), (1,1), (-1,1)`` multiplied by
    ``scale`` and by :func:`lag_unit` of ``grid``.  With
    ``extra_pair=True`` a fifth and sixth lag at roughly 22.5/112.5
    degrees are appended (only meaningful at ``scale=1``; they are scaled
    along with the rest).
    """
    if not (0 < scale < np.inf):
        raise ValueError("lag scale must be positive and finite")
    base = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 1.0)]
    if extra_pair:
        base.extend(_EXTRA_PAIR)
    return LagSet(np.asarray(base) * (scale * lag_unit(grid)))


def default_contrast(lag_set: LagSet) -> ContrastMatrix:
    """Contrast consecutive lag pairs: row i compares lag 2i to lag 2i+1.

    The lag set must hold an even number of lags arranged as orthogonal
    pairs, as produced by :func:`default_lag_set`.
    """
    k = lag_set.k
    if k % 2 != 0:
        raise ValueError(
            f"cannot pair {k} lags: an even count of orthogonal pairs is required"
        )
    m = np.zeros((k // 2, k))
    for i in range(k // 2):
        m[i, 2 * i] = 1.0
        m[i, 2 * i + 1] = -1.0
    return ContrastMatrix(m)


def enumerate_lag_pairs(
    dataset: SpatialDataset, lag: tuple[float, float], tol: float | None = None
) -> np.ndarray:
    """All ordered index pairs ``(i, j)`` with ``loc[j] - loc[i]`` within
    ``tol`` of ``lag`` (Euclidean; default :func:`lag_match_tol`).

    Each direction is counted once: the reversed pair is found under the
    negated lag.  Returns an ``(m, 2)`` integer array (possibly empty).
    A test oracle that no package path calls: it needs scipy, from the
    ``test`` extra, until ROADMAP item 8 moves it into the tests.
    """
    if tol is None:
        tol = lag_match_tol(dataset.grid)
    from scipy.spatial import cKDTree  # a reference independent of pairs_within

    loc = dataset.locations
    target = loc + np.asarray(lag, dtype=float)
    tree = cKDTree(loc)
    dist, j = tree.query(target, k=1, distance_upper_bound=tol * 1.001 + 1e-300)
    hit = np.isfinite(dist) & (dist <= tol)
    i = np.nonzero(hit)[0]
    return np.column_stack([i, j[hit]]).astype(np.intp)
