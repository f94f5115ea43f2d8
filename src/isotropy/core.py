"""Shared domain types: datasets, grids, lag sets and contrast matrices.

Conventions used throughout the package:

* locations are rows of an ``(n, 2)`` float array, ``(x, y)``;
* a lag ``(dx, dy)`` is the displacement from one location to another,
  so the pair ``(i, j)`` matches lag ``h`` when ``loc[j] - loc[i] == h``;
* all containers are immutable after construction and safe to share
  between threads or processes.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, replace

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "GridSpec",
    "SpatialDataset",
    "LagSet",
    "ContrastMatrix",
    "default_lag_set",
    "default_contrast",
    "enumerate_lag_pairs",
    "grid_cells",
]

# Two sampling locations closer than this are considered duplicates.
DUPLICATE_TOL = 1e-9


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
        if self.n_cols < 1 or self.n_rows < 1:
            raise ValueError("grid dimensions must be positive")
        if not (self.spacing > 0):
            raise ValueError("grid spacing must be positive")

    @property
    def size(self) -> int:
        return self.n_cols * self.n_rows

    def locations(self, x0: float = 0.0, y0: float = 0.0) -> np.ndarray:
        """All grid locations, x varying fastest, as an ``(n, 2)`` array."""
        ii, jj = np.meshgrid(
            np.arange(self.n_cols), np.arange(self.n_rows), indexing="xy"
        )
        pts = np.column_stack([ii.ravel(), jj.ravel()]).astype(float) * self.spacing
        pts[:, 0] += x0
        pts[:, 1] += y0
        return pts


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
    checks, the KD-tree, pair geometries, window layouts) is kept in a
    memo that every dataset made by :meth:`with_values` shares, so it is
    done once per location set and lives as long as those datasets.
    """

    locations: np.ndarray
    values: np.ndarray
    grid: GridSpec | None = None
    validate: InitVar[bool] = True
    _memo: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self, validate: bool = True):
        loc = np.atleast_2d(np.asarray(self.locations, dtype=float))
        val = np.asarray(self.values, dtype=float).ravel()
        if loc.ndim != 2 or loc.shape[1] != 2:
            raise ValueError("locations must be an (n, 2) array")
        if loc.shape[0] != val.shape[0]:
            raise ValueError(
                f"{loc.shape[0]} locations but {val.shape[0]} values"
            )
        if loc.shape[0] < 1:
            raise ValueError("dataset must contain at least one observation")
        object.__setattr__(self, "locations", np.ascontiguousarray(loc))
        if self._memo is None:  # a new location set
            object.__setattr__(self, "_memo", {})
            self._check_locations(validate)
        if validate and not np.all(np.isfinite(val)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "locations", _readonly(self.locations))
        object.__setattr__(self, "values", _readonly(val))

    def with_values(self, values) -> "SpatialDataset":
        """A dataset of ``values`` on these locations and grid, sharing
        their memo; only the values' shape and finiteness are checked."""
        return replace(self, values=values)

    def memo(self, key, build):
        """``build()`` computed once per location set and kept under
        ``key``.  ``build`` must depend on the locations and grid alone,
        and ``key`` must name its arguments; the result is shared by every
        dataset on these locations, so arrays in it must be read-only."""
        try:
            return self._memo[key]
        except KeyError:
            return self._memo.setdefault(key, build())

    def tree(self) -> cKDTree:
        """KD-tree of the locations (memoized)."""
        return self.memo(("tree",), lambda: cKDTree(self.locations))

    def nearest_distances(self) -> np.ndarray:
        """Each location's distance to its nearest other location
        (memoized, read-only)."""
        def build():
            d, _ = self.tree().query(self.locations, k=2)
            return _readonly(d[:, 1])
        return self.memo(("nearest",), build)

    def _check_locations(self, validate: bool):
        """Checks of a new location set: finite and without near-duplicates
        (when ``validate``), and on the declared grid."""
        if validate and not np.all(np.isfinite(self.locations)):
            raise ValueError("locations must be finite")
        if self.grid is not None:
            grid_cells(self.locations, self.grid)
        # points in distinct cells, each within 1e-6 spacings of its lattice
        # point, are at least spacing * (1 - 2e-6) apart
        spaced = self.grid is not None and self.grid.spacing * (1 - 2e-6) >= DUPLICATE_TOL
        if validate and self.n > 1 and not spaced:
            # the pair search only finds candidates (its radius leaves room
            # for rounding); the nearest distances decide and word the error
            if len(self.tree().query_pairs(2 * DUPLICATE_TOL)):
                nearest = self.nearest_distances().min()
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

    def field_matrix(self) -> np.ndarray:
        """Values arranged as an ``(n_cols, n_rows)`` array (requires grid)."""
        if self.grid is None:
            raise ValueError("dataset has no grid structure")
        g = self.grid

        def build():
            cols, rows = grid_cells(self.locations, g)
            cols.setflags(write=False)
            rows.setflags(write=False)
            return cols, rows

        cols, rows = self.memo(("cells",), build)
        out = np.empty((g.n_cols, g.n_rows), dtype=float)
        out[cols, rows] = self.values
        return out

    def take(self, indices: np.ndarray) -> "SpatialDataset":
        """Subset the dataset by observation indices (grid structure dropped)."""
        # subsets of a validated dataset cannot introduce duplicates
        return SpatialDataset(
            self.locations[indices], self.values[indices], validate=False
        )


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
    if not (scale > 0):
        raise ValueError("scale must be positive")
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
    """
    if tol is None:
        tol = lag_match_tol(dataset.grid)
    loc = dataset.locations
    target = loc + np.asarray(lag, dtype=float)
    tree = cKDTree(loc)
    dist, j = tree.query(target, k=1, distance_upper_bound=tol * 1.001 + 1e-300)
    hit = np.isfinite(dist) & (dist <= tol)
    i = np.nonzero(hit)[0]
    return np.column_stack([i, j[hit]]).astype(np.intp)
