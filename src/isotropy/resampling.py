"""Variance-covariance estimation for lag-set estimates by spatial
resampling: overlapping moving windows, and a block bootstrap that
rebuilds the domain from uniformly repositioned blocks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LagSet, SpatialDataset
from .distributions import RngStream
from .estimators import (
    EmptyNeighborhoodError,
    EstimatorConfig,
    NoPairsError,
    estimate_G,
)

__all__ = [
    "Rect",
    "WindowSpec",
    "SigmaHat",
    "SubsampleResult",
    "GbbbResult",
    "ResamplingError",
    "subsample_variance",
    "gbbb_resample",
    "gbbb_variance",
]

_EDGE_TOL = 1e-9


class ResamplingError(RuntimeError):
    """Too few usable windows or too many failed resamples."""


@dataclass(frozen=True)
class Rect:
    """Axis-aligned sampling domain ``[x0, x0+width) x [y0, y0+height)``."""

    x0: float
    y0: float
    width: float
    height: float

    def __post_init__(self):
        if not (self.width > 0 and self.height > 0):
            raise ValueError("domain dimensions must be positive")

    @classmethod
    def from_dataset(cls, dataset: SpatialDataset) -> "Rect":
        """Bounding domain of the dataset.

        Gridded datasets get one grid cell per point (width =
        n_cols * spacing); otherwise the bounding box of the locations.
        """
        xmin, ymin, xmax, ymax = dataset.bounds()
        if dataset.grid is not None:
            g = dataset.grid
            return cls(xmin, ymin, g.n_cols * g.spacing, g.n_rows * g.spacing)
        return cls(xmin, ymin, max(xmax - xmin, _EDGE_TOL), max(ymax - ymin, _EDGE_TOL))


@dataclass(frozen=True)
class WindowSpec:
    """Moving-window / bootstrap-block geometry.

    ``offset_step`` is the lattice step between window origins; when
    omitted it resolves to the grid spacing for gridded data and 0.5
    otherwise.
    """

    width: float
    height: float
    offset_step: float | None = None

    def __post_init__(self):
        if not (self.width > 0 and self.height > 0):
            raise ValueError("window dimensions must be positive")
        if self.offset_step is not None and not (self.offset_step > 0):
            raise ValueError("offset step must be positive")

    def resolve_step(self, dataset: SpatialDataset) -> float:
        if self.offset_step is not None:
            return self.offset_step
        return dataset.grid.spacing if dataset.grid is not None else 0.5


@dataclass(frozen=True)
class SigmaHat:
    """Estimated variance-covariance of the lag-set estimate vector."""

    matrix: np.ndarray
    method: str  # "moving_window" or "gbbb"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("covariance matrix must be square")
        m = (m + m.T) / 2.0  # enforce exact symmetry
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class SubsampleResult:
    sigma: SigmaHat
    window_ghats: np.ndarray    # (K, k) usable-window estimates
    window_weights: np.ndarray  # (K, k) per-lag effective samples per window
    full_weights: np.ndarray    # (k,) per-lag effective sample of the full data
    n_windows: int
    n_discarded: int


@dataclass(frozen=True)
class GbbbResult:
    sigma: SigmaHat
    n_success: int
    n_failed: int
    trim_fraction: float


def _window_origins(domain: Rect, window: WindowSpec, step: float):
    """Window origins along x and along y on the offset lattice, with the
    window fully inside the domain; window (a, b) has origin
    ``(xs[a], ys[b])`` and index ``a * len(ys) + b``."""
    if window.width > domain.width + _EDGE_TOL or window.height > domain.height + _EDGE_TOL:
        raise ValueError(
            f"window {window.width}x{window.height} exceeds domain "
            f"{domain.width}x{domain.height}"
        )
    nx = int(np.floor((domain.width - window.width) / step + _EDGE_TOL)) + 1
    ny = int(np.floor((domain.height - window.height) / step + _EDGE_TOL)) + 1
    return domain.x0 + step * np.arange(nx), domain.y0 + step * np.arange(ny)


def _axis_ranges(coord: np.ndarray, origins: np.ndarray, length: float, end: float):
    """First and last origin index whose window holds each coordinate.

    Windows are half-open; an edge closes when it coincides with the
    domain edge so boundary points are not lost.  The windows holding a
    coordinate have consecutive origins (at most the last window has a
    closed edge); a coordinate in no window gets last = first - 1."""
    upper = origins + length
    closed = np.abs(upper - end) <= _EDGE_TOL
    inside = (coord >= origins[:, None] - _EDGE_TOL) & np.where(
        closed[:, None], coord <= upper[:, None] + _EDGE_TOL, coord < upper[:, None]
    )
    first = inside.argmax(axis=0)
    return first, first + inside.sum(axis=0) - 1


@dataclass(frozen=True)
class _Windows:
    """Moving windows as per-point ranges of origin indices.

    A point lies in the windows whose origin (a, b) has ``a`` in
    ``[x_first, x_last]`` and ``b`` in ``[y_first, y_last]``; a pair lies
    in the intersection of its two points' rectangles.  Summing a column
    over every window's entries is then a 2-D difference array: +/- the
    value at the four corners of each entry's rectangle, then a cumulative
    sum along each axis.  Cost O(entries + windows), with no
    (windows x entries) matrix.
    """

    shape: tuple[int, int]
    x_first: np.ndarray
    x_last: np.ndarray
    y_first: np.ndarray
    y_last: np.ndarray

    @classmethod
    def build(cls, dataset: SpatialDataset, domain: Rect, window: WindowSpec) -> "_Windows":
        xs, ys = _window_origins(domain, window, window.resolve_step(dataset))
        x0, x1 = _axis_ranges(dataset.locations[:, 0], xs, window.width,
                              domain.x0 + domain.width)
        y0, y1 = _axis_ranges(dataset.locations[:, 1], ys, window.height,
                              domain.y0 + domain.height)
        return cls((xs.size, ys.size), x0, x1, y0, y1)

    @property
    def n_windows(self) -> int:
        return self.shape[0] * self.shape[1]

    def point_sums(self, cols: np.ndarray) -> np.ndarray:
        """(K, C) sums of each row of ``cols`` (C, n) over each window's points."""
        return _rect_sums(self.shape, self.x_first, self.x_last,
                          self.y_first, self.y_last, cols)

    def pair_sums(self, i: np.ndarray, j: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """(K, C) sums of each row of ``cols`` (C, P) over each window's
        pairs ``(i[p], j[p])``."""
        return _rect_sums(
            self.shape,
            np.maximum(self.x_first[i], self.x_first[j]),
            np.minimum(self.x_last[i], self.x_last[j]),
            np.maximum(self.y_first[i], self.y_first[j]),
            np.minimum(self.y_last[i], self.y_last[j]),
            cols,
        )


def _rect_sums(shape, a0, a1, b0, b1, cols: np.ndarray) -> np.ndarray:
    """(nx * ny, C) sums of each row of ``cols`` over the entries whose
    origin rectangle ``[a0, a1] x [b0, b1]`` holds each window."""
    nx, ny = shape
    keep = (a0 <= a1) & (b0 <= b1)
    a0, a1, b0, b1 = a0[keep], a1[keep] + 1, b0[keep], b1[keep] + 1
    stride = ny + 1
    corners = np.concatenate([a0 * stride + b0, a1 * stride + b1,
                              a0 * stride + b1, a1 * stride + b0])
    sign = np.repeat([1.0, 1.0, -1.0, -1.0], a0.size)
    out = np.empty((nx * ny, cols.shape[0]))
    for c, col in enumerate(cols):
        diff = np.bincount(corners, np.tile(col[keep], 4) * sign,
                           minlength=(nx + 1) * stride)
        out[:, c] = diff.reshape(nx + 1, stride).cumsum(0).cumsum(1)[:nx, :ny].ravel()
    return out


def subsample_variance(
    dataset: SpatialDataset,
    lag_set: LagSet,
    config: EstimatorConfig,
    window: WindowSpec,
    domain: Rect | None = None,
    tol: float | None = None,
    full_ghat=None,
) -> SubsampleResult:
    """Moving-window estimate of Var(G_hat) at full-sample scale.

    Every window re-estimates the lag-set vector from the full sample's
    pair table (the pairs with both points inside the window).  Window
    deviations from the window mean are standardized by sqrt(window
    effective sample / full-sample effective sample) before averaging
    their outer products.  The effective sample is the exact per-lag pair
    count for the classical estimator (whose variance tracks the number
    of realized lag pairs, strongly reduced by edge effects in small
    windows) and the number of points for the kernel estimators (whose
    overlapping smoothed pairs carry about one point's worth of
    information each).  Windows with fewer than two points, or where any
    lag cannot be estimated, are discarded and counted.
    """
    if domain is None:
        domain = Rect.from_dataset(dataset)
    windows = _Windows.build(dataset, domain, window)
    if full_ghat is None or full_ghat.pairs is None:
        full_ghat = estimate_G(dataset, lag_set, config, tol=tol)
    values, totals, usable = full_ghat.pairs.window_estimates(windows)
    sizes = np.rint(windows.point_sums(np.ones((1, dataset.n)))[:, 0])
    keep = usable & (sizes >= 2)
    if np.count_nonzero(keep) < 2:
        raise ResamplingError(
            f"only {np.count_nonzero(keep)} usable windows of {windows.n_windows}; "
            "enlarge the window or the domain"
        )
    gmat = values[keep]
    if config.kind == "classical_semivariogram":
        wmat = totals[keep]
        full_w = np.asarray(full_ghat.weights, dtype=float)
    else:
        wmat = np.repeat(sizes[keep][:, None], gmat.shape[1], axis=1)
        full_w = np.full(gmat.shape[1], float(dataset.n))
    z = np.sqrt(wmat / full_w) * (gmat - gmat.mean(axis=0))
    sigma = (z.T @ z) / gmat.shape[0]
    return SubsampleResult(
        sigma=SigmaHat(sigma, "moving_window"),
        window_ghats=gmat,
        window_weights=wmat,
        full_weights=full_w,
        n_windows=windows.n_windows,
        n_discarded=windows.n_windows - gmat.shape[0],
    )


def _partition_regions(domain: Rect, block: WindowSpec):
    nx = int(np.floor(domain.width / block.width + _EDGE_TOL))
    ny = int(np.floor(domain.height / block.height + _EDGE_TOL))
    if nx < 1 or ny < 1:
        raise ValueError(
            f"block {block.width}x{block.height} exceeds domain "
            f"{domain.width}x{domain.height}"
        )
    xs = domain.x0 + block.width * np.arange(nx)
    ys = domain.y0 + block.height * np.arange(ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    covered = nx * block.width * ny * block.height
    trim = 1.0 - covered / (domain.width * domain.height)
    return np.column_stack([gx.ravel(), gy.ravel()]), trim


def gbbb_resample(
    dataset: SpatialDataset,
    block: WindowSpec,
    rng: RngStream,
    domain: Rect | None = None,
) -> SpatialDataset:
    """One block-bootstrap resample of the dataset.

    The domain (trimmed to an integer number of block-shaped regions) is
    rebuilt region by region: each region receives the observations of a
    block of identical shape drawn uniformly from the domain, translated
    into place.  This is a spatial permutation with replacement.
    """
    if domain is None:
        domain = Rect.from_dataset(dataset)
    regions, _ = _partition_regions(domain, block)
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    n_regions = regions.shape[0]
    u = domain.x0 + gen.random(n_regions) * (domain.width - block.width)
    v = domain.y0 + gen.random(n_regions) * (domain.height - block.height)
    if domain.width == block.width:
        u[:] = domain.x0
    if domain.height == block.height:
        v[:] = domain.y0
    x = dataset.locations[:, 0]
    y = dataset.locations[:, 1]
    bx, by = u[:, None], v[:, None]
    mask = (x >= bx) & (x < bx + block.width) & (y >= by) & (y < by + block.height)
    region, point = np.nonzero(mask)
    if point.size == 0:
        raise ResamplingError("bootstrap resample captured no observations")
    shift = regions - np.column_stack([u, v])
    return SpatialDataset(
        dataset.locations[point] + shift[region], dataset.values[point], validate=False
    )


def gbbb_variance(
    dataset: SpatialDataset,
    lag_set: LagSet,
    config: EstimatorConfig,
    block: WindowSpec,
    n_boot: int,
    rng: RngStream,
    domain: Rect | None = None,
) -> GbbbResult:
    """Bootstrap estimate of Var(G_hat) from ``n_boot`` block resamples."""
    if n_boot < 2:
        raise ValueError("need at least two bootstrap resamples")
    if domain is None:
        domain = Rect.from_dataset(dataset)
    _, trim = _partition_regions(domain, block)
    ghats = []
    n_failed = 0
    for b in range(n_boot):
        try:
            ds_b = gbbb_resample(dataset, block, rng.substream(b), domain)
            ghats.append(estimate_G(ds_b, lag_set, config).values)
        except (NoPairsError, EmptyNeighborhoodError, ResamplingError):
            n_failed += 1
    if n_failed > 0.2 * n_boot or len(ghats) < 2:
        raise ResamplingError(
            f"{n_failed} of {n_boot} bootstrap resamples failed"
        )
    gmat = np.asarray(ghats)
    centered = gmat - gmat.mean(axis=0)
    sigma = (centered.T @ centered) / (gmat.shape[0] - 1)
    return GbbbResult(
        sigma=SigmaHat(sigma, "gbbb"),
        n_success=gmat.shape[0],
        n_failed=n_failed,
        trim_fraction=trim,
    )
