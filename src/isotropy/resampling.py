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
    "moving_windows",
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


def _window_origins(domain: Rect, window: WindowSpec, step: float) -> np.ndarray:
    if window.width > domain.width + _EDGE_TOL or window.height > domain.height + _EDGE_TOL:
        raise ValueError(
            f"window {window.width}x{window.height} exceeds domain "
            f"{domain.width}x{domain.height}"
        )
    nx = int(np.floor((domain.width - window.width) / step + _EDGE_TOL)) + 1
    ny = int(np.floor((domain.height - window.height) / step + _EDGE_TOL)) + 1
    xs = domain.x0 + step * np.arange(nx)
    ys = domain.y0 + step * np.arange(ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def _window_masks(
    dataset: SpatialDataset, origins: np.ndarray, window: WindowSpec, domain: Rect
) -> np.ndarray:
    """(K, n) membership masks.  Windows are half-open; an edge closes when
    it coincides with the domain edge so boundary points are not lost."""
    x = dataset.locations[:, 0]
    y = dataset.locations[:, 1]
    x0 = origins[:, 0][:, None]
    y0 = origins[:, 1][:, None]
    x1 = x0 + window.width
    y1 = y0 + window.height
    edge_x = np.abs(x1 - (domain.x0 + domain.width)) <= _EDGE_TOL
    edge_y = np.abs(y1 - (domain.y0 + domain.height)) <= _EDGE_TOL
    upper_x = np.where(edge_x, x[None, :] <= x1 + _EDGE_TOL, x[None, :] < x1)
    upper_y = np.where(edge_y, y[None, :] <= y1 + _EDGE_TOL, y[None, :] < y1)
    return (x[None, :] >= x0 - _EDGE_TOL) & upper_x & (y[None, :] >= y0 - _EDGE_TOL) & upper_y


def moving_windows(
    domain: Rect, dataset: SpatialDataset, window: WindowSpec
) -> list[SpatialDataset]:
    """Sub-datasets captured by every window position on the offset lattice
    with the window fully inside the domain.  Empty windows yield no entry."""
    step = window.resolve_step(dataset)
    origins = _window_origins(domain, window, step)
    masks = _window_masks(dataset, origins, window, domain)
    return [dataset.take(np.nonzero(m)[0]) for m in masks if m.any()]


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

    Every window re-estimates the lag-set vector.  Window deviations from
    the window mean are standardized by sqrt(window effective sample /
    full-sample effective sample) before averaging their outer products.
    The effective sample is the exact per-lag pair count for the
    classical estimator (whose variance tracks the number of realized
    lag pairs, strongly reduced by edge effects in small windows) and
    the number of points for the kernel estimators (whose overlapping
    smoothed pairs carry about one point's worth of information each).
    Windows where any lag cannot be estimated are discarded and counted.
    """
    if domain is None:
        domain = Rect.from_dataset(dataset)
    step = window.resolve_step(dataset)
    origins = _window_origins(domain, window, step)
    if full_ghat is None or full_ghat.weights is None:
        full_ghat = estimate_G(dataset, lag_set, config, tol=tol)
    masks = _window_masks(dataset, origins, window, domain)
    ghats, weights, sizes = [], [], []
    n_discarded = 0
    for mask in masks:
        m = int(mask.sum())
        if m < 2:
            n_discarded += 1
            continue
        sub = dataset.take(np.nonzero(mask)[0])
        try:
            g = estimate_G(sub, lag_set, config, tol=tol)
        except (NoPairsError, EmptyNeighborhoodError):
            n_discarded += 1
            continue
        ghats.append(g.values)
        weights.append(g.weights)
        sizes.append(m)
    if len(ghats) < 2:
        raise ResamplingError(
            f"only {len(ghats)} usable windows of {len(origins)}; "
            "enlarge the window or the domain"
        )
    gmat = np.asarray(ghats)
    sizes = np.asarray(sizes, dtype=float)
    if config.kind == "classical_semivariogram":
        wmat = np.asarray(weights, dtype=float)
        full_w = np.asarray(full_ghat.weights, dtype=float)
    else:
        wmat = np.repeat(sizes[:, None], gmat.shape[1], axis=1)
        full_w = np.full(gmat.shape[1], float(dataset.n))
    z = np.sqrt(wmat / full_w) * (gmat - gmat.mean(axis=0))
    sigma = (z.T @ z) / gmat.shape[0]
    return SubsampleResult(
        sigma=SigmaHat(sigma, "moving_window"),
        window_ghats=gmat,
        window_weights=wmat,
        full_weights=full_w,
        n_windows=len(origins),
        n_discarded=n_discarded,
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
    locs, vals = [], []
    for (rx, ry), bx, by in zip(regions, u, v):
        mask = (x >= bx) & (x < bx + block.width) & (y >= by) & (y < by + block.height)
        if not mask.any():
            continue
        pts = dataset.locations[mask] + (rx - bx, ry - by)
        locs.append(pts)
        vals.append(dataset.values[mask])
    if not locs:
        raise ResamplingError("bootstrap resample captured no observations")
    return SpatialDataset(
        np.concatenate(locs), np.concatenate(vals), validate=False
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
        except (NoPairsError, EmptyNeighborhoodError, ResamplingError, ValueError):
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
