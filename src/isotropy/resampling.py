"""Variance-covariance estimation for lag-set estimates by spatial
resampling: overlapping moving windows, and a block bootstrap that
rebuilds the domain from uniformly repositioned blocks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SpatialDataset, _expand
from .distributions import RngStream
from .estimators import PairTable, kernel_reach, lag_entries

__all__ = [
    "Rect",
    "WindowSpec",
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
        if not (np.isfinite([self.x0, self.y0]).all() and 0 < self.width < np.inf
                and 0 < self.height < np.inf):
            raise ValueError(f"{self} needs a finite origin and a positive, finite size")

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
        if not (0 < self.width < np.inf and 0 < self.height < np.inf):
            raise ValueError("window dimensions must be positive and finite")
        if self.offset_step is not None and not (0 < self.offset_step < np.inf):
            raise ValueError("offset step must be positive and finite")

    def resolve_step(self, dataset: SpatialDataset) -> float:
        if self.offset_step is not None:
            return self.offset_step
        return dataset.grid.spacing if dataset.grid is not None else 0.5


def _symmetric(m: np.ndarray) -> np.ndarray:
    """Read-only ``(m + m') / 2`` of each matrix of ``m``: exactly symmetric."""
    m = (m + np.swapaxes(m, -1, -2)) / 2.0
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class SubsampleResult:
    """``sigma`` is Var(G_hat), ``(k, k)`` or ``(R, k, k)`` for R fields."""

    sigma: np.ndarray
    window_ghats: np.ndarray  # (K, k) usable-window estimates, (R, K, k) for R fields
    scale: np.ndarray         # (K, k) sqrt(window / full-data effective sample) per lag
    n_windows: int


@dataclass(frozen=True)
class GbbbResult:
    sigma: np.ndarray  # Var(G_hat), (k, k)
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
        for a in (x0, x1, y0, y1):
            a.setflags(write=False)
        return cls((xs.size, ys.size), x0, x1, y0, y1)

    @property
    def n_windows(self) -> int:
        return self.shape[0] * self.shape[1]

    def estimates(self, table: PairTable):
        """:meth:`PairTable.subset_estimates` of every window, and each
        window's point count.  The table's entry columns, and a count, are
        summed over every window's entries ``(i[e], j[e])``, apart for each
        lag; its point columns over every window's points.  Only a response
        column carries the table's replicate axis; the others are summed once."""
        i, j = table.i, table.j
        *sums, count = _rect_sums(
            self.shape,
            np.maximum(self.x_first[i], self.x_first[j]),
            np.minimum(self.x_last[i], self.x_last[j]),
            np.maximum(self.y_first[i], self.y_first[j]),
            np.minimum(self.y_last[i], self.y_last[j]),
            [*table.entry_columns, np.ones(i.size)], table.lag, table.lags.shape[0],
        )
        point_sums = [s[:, 0] for s in _rect_sums(self.shape, self.x_first, self.x_last,
                                                   self.y_first, self.y_last,
                                                   table.point_columns())]
        values, total, usable = table.subset_estimates(sums, np.rint(count) > 0, point_sums)
        return values, total, usable, point_sums[0]


def _rect_sums(shape, a0, a1, b0, b1, cols,
               group: np.ndarray | None = None, n_groups: int = 1) -> list[np.ndarray]:
    """``(..., nx * ny, n_groups)`` sums of each array in ``cols`` over the
    entries whose origin rectangle ``[a0, a1] x [b0, b1]`` holds each window,
    apart for each entry's group (all in group 0 by default).  Each row of an
    ``(R, E)`` array gets its own bins of one ``bincount``, summed as alone."""
    nx, ny = shape
    keep = np.flatnonzero((a0 <= a1) & (b0 <= b1))
    a0, a1, b0, b1 = a0[keep], a1[keep] + 1, b0[keep], b1[keep] + 1
    stride = ny + 1
    corners = np.concatenate([a0 * stride + b0, a1 * stride + b1,
                              a0 * stride + b1, a1 * stride + b0]) * n_groups
    if group is not None:
        corners += np.tile(group[keep], 4)
    sign = np.repeat([1.0, 1.0, -1.0, -1.0], a0.size)
    size = (nx + 1) * stride * n_groups
    out = []
    for col in cols:
        rows = col.shape[:-1]  # () or (R,)
        bins = (size * np.arange(*rows)[:, None] + corners).ravel() if rows else corners
        weights = np.take(col, np.tile(keep, 4), axis=-1)
        weights *= sign
        diff = np.bincount(bins, weights.ravel(), minlength=size * (rows[0] if rows else 1))
        out.append(diff.astype(float, copy=False).reshape(*rows, nx + 1, stride, n_groups)
                   .cumsum(-3).cumsum(-2)[..., :nx, :ny, :].reshape(*rows, nx * ny, n_groups))
    return out


def subsample_variance(
    dataset: SpatialDataset,
    table: PairTable,
    window: WindowSpec,
    domain: Rect | None = None,
) -> SubsampleResult:
    """Moving-window estimate of Var(G_hat) at full-sample scale.

    ``table`` is the pair table :func:`estimate_G` returns with the
    full-sample estimate.  Every window re-estimates the lag-set vector from
    it, over the pairs with both points inside the window, with
    :meth:`PairTable.subset_estimates`; no pair is searched again.
    Window deviations from the window mean are standardized by
    sqrt(window effective sample / full-sample effective sample) before
    averaging their outer products.  The effective sample is the exact
    per-lag pair count for the classical estimator (whose variance tracks
    the number of realized lag pairs, strongly reduced by edge effects in
    small windows) and the number of points for the kernel estimators
    (whose overlapping smoothed pairs carry about one point's worth of
    information each).  Windows with fewer than two points, or where any
    lag cannot be estimated, are discarded and counted.  The window layout
    depends on the locations alone and is built once per location set.
    A replicate axis of ``table`` carries over to the estimates and matrices.
    """
    if domain is None:
        domain = Rect.from_dataset(dataset)
    windows = dataset.memo(("windows", domain, window),
                           lambda: _Windows.build(dataset, domain, window))
    values, totals, usable, counts = windows.estimates(table)
    sizes = np.rint(counts)
    keep = usable & (sizes >= 2)
    if np.count_nonzero(keep) < 2:
        raise ResamplingError(
            f"only {np.count_nonzero(keep)} usable windows of {windows.n_windows}; "
            "enlarge the window or the domain"
        )
    gmat = np.ascontiguousarray(values[..., keep, :])
    if table.kind == "classical_semivariogram":
        wmat = totals[keep]
        full_w = np.bincount(table.lag, minlength=gmat.shape[-1]).astype(float)
    else:
        wmat = np.repeat(sizes[keep][:, None], gmat.shape[-1], axis=1)
        full_w = np.full(gmat.shape[-1], float(dataset.n))
    scale = np.sqrt(wmat / full_w)
    z = scale * (gmat - gmat.mean(axis=-2, keepdims=True))
    sigma = (np.swapaxes(z, -1, -2) @ z) / gmat.shape[-2]
    return SubsampleResult(_symmetric(sigma), gmat, scale, windows.n_windows)


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


def _draw_blocks(domain: Rect, block: WindowSpec, n_regions: int, gen: np.random.Generator):
    """Origins of one resample's blocks, one per region, uniform over the
    domain (fixed at the domain origin along an axis the block fills)."""
    u = domain.x0 + gen.random(n_regions) * (domain.width - block.width)
    v = domain.y0 + gen.random(n_regions) * (domain.height - block.height)
    if domain.width == block.width:
        u[:] = domain.x0
    if domain.height == block.height:
        v[:] = domain.y0
    return u, v


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
    u, v = _draw_blocks(domain, block, regions.shape[0], rng.generator())
    x = dataset.locations[:, 0]
    y = dataset.locations[:, 1]
    bx, by = u[:, None], v[:, None]
    mask = (x >= bx) & (x < bx + block.width) & (y >= by) & (y < by + block.height)
    region, point = np.nonzero(mask)
    if point.size == 0:
        raise ResamplingError("bootstrap resample captured no observations")
    shift = regions - np.column_stack([u, v])
    return SpatialDataset(dataset.locations[point] + shift[region], dataset.values[point])


def _cell_split(side: float, reach: float, width: float):
    """Cells per region side, at least ``width`` wide unless the region is
    narrower, and how many cells away a pair within ``reach`` can lie."""
    cells = max(1, int(side // width))
    return cells, side / cells, int(np.floor(reach * cells / side * (1 + 1e-9))) + 1


def _offsets_in_support(ox, oy, cw: float, ch: float, table: PairTable) -> np.ndarray:
    """Whether cells ``cw`` x ``ch`` whose origins lie ``(ox, oy)`` apart
    can hold a pair whose displacement, in either orientation, is inside
    the kernel support of some lag.  The displacements between the two
    cells fill the box ``(ox +- cw) x (oy +- ch)``; a 1e-9 relative margin
    keeps pairs on the edge of the support."""
    s = table.bandwidth * table.kernel.support
    lags = np.concatenate([table.lags, -table.lags])
    near = ((np.abs(ox[..., None] - lags[:, 0]) <= (cw + s) * (1 + 1e-9))
            & (np.abs(oy[..., None] - lags[:, 1]) <= (ch + s) * (1 + 1e-9)))
    return near.any(axis=-1)


# Resample points formed per bootstrap pass (the expected count is n per
# resample): bounds the memory of a pass's memberships and pair lists
# whatever n_boot is.
_PASS_POINTS = 8_000


class _BlockBootstrap:
    """Per-lag estimates of block-bootstrap resamples, a pass of
    resamples at a time, from the full sample's pair table.

    A pair with both points in one drawn block is a translated pair of the
    original sample, so its weight and response are read from the table
    for every block that holds both its points; those entries are stored
    by first point, with what a pass reads of them gathered once.  Only
    pairs whose points lie in different regions are searched and
    kernel-weighted: every region is split into cells at least a third of
    ``reach`` or 1.5 kernel half-widths wide, whichever is less (or one
    cell when the region is narrower), and a point is paired only with the
    points of cells in other regions whose displacements can reach the
    kernel support of some lag.  Cell keys are ``column * ny + row``, so
    those neighbour cells are kept as runs of consecutive keys, each read
    as one range of a pass's points sorted by cell.  Each candidate pair
    is matched once, in one orientation, against the lags and their
    negations.  Values are centered at the full sample's mean; each
    resample is finished by :meth:`PairTable.subset_estimates`, as moving
    windows are.
    """

    def __init__(self, dataset: SpatialDataset, table: PairTable,
                 block: WindowSpec, domain: Rect, regions: np.ndarray):
        self.loc = dataset.locations
        self.block, self.regions, self.table = block, regions, table
        self.k = table.lags.shape[0]
        self.reach = kernel_reach(table.lags, table.kernel, table.bandwidth)
        self.x_order = np.argsort(self.loc[:, 0], kind="stable")
        self.x_sorted = self.loc[self.x_order, 0]
        self.point_cols = table.point_columns()
        # table entries by first point: j's coordinates, the lag and the
        # entry columns, gathered once
        by_i = np.argsort(table.i, kind="stable")
        self.i_start = np.concatenate(
            [[0], np.cumsum(np.bincount(table.i, minlength=dataset.n))])
        j = table.j[by_i]
        self.entry_xj, self.entry_yj = self.loc[j, 0], self.loc[j, 1]
        self.entry_lag = table.lag[by_i]
        self.entry_cols = [c[by_i] for c in table.entry_columns]
        # cells aligned to regions, narrow enough that few cell pairs only
        # graze a lag's support (a third of the reach, or 1.5 kernel
        # half-widths for long lags); for each cell, the cells of other
        # regions that can reach a lag's support, on one side (each cell
        # pair listed once), as runs of consecutive cells
        width = min(self.reach / 3, 1.5 * table.bandwidth * table.kernel.support)
        (self.cx, self.cw, kx), (self.cy, self.ch, ky) = (
            _cell_split(block.width, self.reach, width),
            _cell_split(block.height, self.reach, width))
        self.ix = np.rint((regions[:, 0] - domain.x0) / block.width).astype(np.intp)
        self.iy = np.rint((regions[:, 1] - domain.y0) / block.height).astype(np.intp)
        nx, ny = (self.ix.max() + 1) * self.cx, (self.iy.max() + 1) * self.cy
        self.n_cells, self.ny = nx * ny, ny
        gx, gy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        dx, dy = np.meshgrid(np.arange(kx + 1), np.arange(-ky, ky + 1), indexing="ij")
        half = ((dx > 0) | (dy > 0)) & _offsets_in_support(dx * self.cw, dy * self.ch,
                                                           self.cw, self.ch, table)
        ox, oy = gx.ravel()[:, None] + dx[half], gy.ravel()[:, None] + dy[half]
        cross = ((ox < nx) & (oy >= 0) & (oy < ny)
                 & ((ox // self.cx != gx.ravel()[:, None] // self.cx)
                    | (oy // self.cy != gy.ravel()[:, None] // self.cy)))
        owner, nb_cell = np.nonzero(cross)[0], (ox * ny + oy)[cross]
        new = np.ones(nb_cell.size, dtype=bool)
        new[1:] = (owner[1:] != owner[:-1]) | (nb_cell[1:] != nb_cell[:-1] + 1)
        self.run_cell = nb_cell[new]
        self.run_len = np.diff(np.append(np.flatnonzero(new), new.size))
        self.run_start = np.concatenate(
            [[0], np.cumsum(np.bincount(owner[new], minlength=self.n_cells))])

    def estimates(self, u: np.ndarray, v: np.ndarray):
        """``(G, k)`` estimates of the resamples whose block origins are the
        rows of ``u`` and ``v`` (G, regions), and a ``(G,)`` success flag:
        a resample fails when it captures no point or a lag has no pair of
        positive weight (decided on integer counts)."""
        n_res, n_reg = u.shape
        k = self.k
        u, v = u.ravel(), v.ravel()
        row, p = self._members(u, v)
        g = row // n_reg
        point_sums = [np.bincount(g, c[p], minlength=n_res) for c in self.point_cols]
        block_bins, block_cols = self._block_pairs(u, v, row, p, g)
        cross_bins, cross_cols = self._cross_pairs(u, v, row, p, g, n_reg)
        bins = np.concatenate([block_bins, cross_bins])
        cols = [np.concatenate(c) for c in zip(block_cols, cross_cols)]
        sums = [np.bincount(bins, c, minlength=n_res * k).reshape(n_res, k) for c in cols]
        has_pair = np.bincount(bins, minlength=n_res * k).reshape(n_res, k) > 0
        values, _, ok = self.table.subset_estimates(sums, has_pair, point_sums)
        return values, ok

    def _members(self, u, v):
        """Block (resample * regions + region) and point of every resample
        point, under the half-open rule of :func:`gbbb_resample`: the
        x-range from the sorted coordinates, then y."""
        lo = np.searchsorted(self.x_sorted, u)
        row, at = _expand(lo, np.searchsorted(self.x_sorted, u + self.block.width) - lo)
        p = self.x_order[at]
        y = self.loc[p, 1]
        keep = (y >= v[row]) & (y < v[row] + self.block.height)
        return row[keep], p[keep]

    def _block_pairs(self, u, v, row, p, g):
        """Bins (resample * k + lag) and columns of the table entries
        whose two points share a drawn block."""
        owner, at = _expand(self.i_start[p], np.diff(self.i_start)[p])
        blk, xj, yj = row[owner], self.entry_xj[at], self.entry_yj[at]
        inside = ((xj >= u[blk]) & (xj < u[blk] + self.block.width)
                  & (yj >= v[blk]) & (yj < v[blk] + self.block.height))
        at = at[inside]
        return (g[owner[inside]] * self.k + self.entry_lag[at],
                [c[at] for c in self.entry_cols])

    def _cross_pairs(self, u, v, row, p, g, n_reg):
        """Bins and columns of the pairs of resample points in different
        regions, searched between region-aligned cells, each run of
        consecutive neighbour cells read as one range of points.  Each
        candidate is matched once against the lags and their negations; an
        entry at a negated lag is that lag with the two points swapped."""
        r = row % n_reg
        x, y = self.loc[p, 0] - u[row], self.loc[p, 1] - v[row]  # offsets in the block
        cell = ((self.ix[r] * self.cx + np.clip((x // self.cw).astype(np.intp), 0, self.cx - 1))
                * self.ny + self.iy[r] * self.cy
                + np.clip((y // self.ch).astype(np.intp), 0, self.cy - 1))
        key = g * self.n_cells + cell
        order = np.argsort(key, kind="stable")
        edge = np.concatenate(
            [[0], np.cumsum(np.bincount(key, minlength=u.size // n_reg * self.n_cells))])
        a, at = _expand(self.run_start[cell], np.diff(self.run_start)[cell])
        lo = g[a] * self.n_cells + self.run_cell[at]
        start = edge[lo]
        run, at = _expand(start, edge[lo + self.run_len[at]] - start)
        a, b = a[run], order[at]
        # resample coordinates, placed as gbbb_resample places them
        rx = self.loc[p, 0] + (self.regions[r, 0] - u[row])
        ry = self.loc[p, 1] + (self.regions[r, 1] - v[row])
        dx, dy = rx[b] - rx[a], ry[b] - ry[a]
        near = np.flatnonzero(np.maximum(np.abs(dx), np.abs(dy)) <= self.reach)
        a, b, dx, dy = a[near], b[near], dx[near], dy[near]
        t = self.table
        lag, at, w = lag_entries(dx, dy, np.concatenate([t.lags, -t.lags]),
                                 t.kernel, t.bandwidth)
        # entries sorted by lag: the forward ones first, then the swapped
        s = np.searchsorted(lag, self.k)
        first_pt = np.concatenate([a[at[:s]], b[at[s:]]])
        second_pt = np.concatenate([b[at[:s]], a[at[s:]]])
        return (g[first_pt] * self.k + lag % self.k,
                t.columns(w, t.values[p[first_pt]], t.values[p[second_pt]]))


def gbbb_variance(
    dataset: SpatialDataset,
    table: PairTable,
    block: WindowSpec,
    n_boot: int,
    rng: RngStream,
    domain: Rect | None = None,
) -> GbbbResult:
    """Bootstrap estimate of Var(G_hat) from ``n_boot`` block resamples.

    Resample b draws its blocks from ``rng.substream(b)`` as
    :func:`gbbb_resample` does, and its estimate is the kernel estimate
    on that resample.  The estimates are formed from ``table``, the pair
    table :func:`estimate_G` returns with the full-sample estimate, a pass of
    resamples at a time: pairs inside one drawn block are read from the
    table, only pairs whose points lie in different regions are searched,
    and each resample is finished by :meth:`PairTable.subset_estimates`,
    as a moving window of :func:`subsample_variance` is.  A resample that
    captures no observation, or that gives some lag no pair of positive
    weight, is counted as failed; more than 20% failures raise
    :class:`ResamplingError`.  Only the kernel estimators are accepted:
    exact lag matching has no meaning after continuous block shifts.
    """
    check_n_boot(n_boot)
    if table.kernel is None:
        raise ValueError("the block bootstrap needs a kernel estimator")
    if domain is None:
        domain = Rect.from_dataset(dataset)
    regions, trim = _partition_regions(domain, block)
    boot = _BlockBootstrap(dataset, table, block, domain, regions)
    per_pass = max(1, _PASS_POINTS // dataset.n)
    gen, ghats = rng.generator(), []
    for start in range(0, n_boot, per_pass):
        draws = [_draw_blocks(domain, block, regions.shape[0], rng.substream(b).rekey(gen))
                 for b in range(start, min(start + per_pass, n_boot))]
        values, ok = boot.estimates(np.array([d[0] for d in draws]),
                                    np.array([d[1] for d in draws]))
        ghats.append(values[ok])
    gmat = np.concatenate(ghats)
    n_failed = n_boot - gmat.shape[0]
    if n_failed > 0.2 * n_boot or gmat.shape[0] < 2:
        raise ResamplingError(
            f"{n_failed} of {n_boot} bootstrap resamples failed"
        )
    centered = gmat - gmat.mean(axis=0)
    sigma = (centered.T @ centered) / (gmat.shape[0] - 1)
    return GbbbResult(_symmetric(sigma), gmat.shape[0], n_failed, trim)


def check_n_boot(n_boot: int) -> None:
    """Reject a bootstrap with fewer than two resamples."""
    if n_boot < 2:
        raise ValueError("need at least two bootstrap resamples")
