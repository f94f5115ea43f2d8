"""Point estimation of the semivariogram and covariogram at a lag set.

Gridded data uses the classical moment estimator on exactly-matched lag
pairs.  Non-gridded data smooths over observed pair displacements with a
Nadaraya-Watson product kernel, one factor per axis, so that the
estimate at lag ``h`` averages squared differences (or centered
products) of pairs whose displacement is close to ``h``.  Both find their
pairs with one cell search within reach of every lag, then keep each
pair at the lags it matches.  Pairs enter in both orientations, which
makes estimates at ``h`` and ``-h`` agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from .core import LagSet, SpatialDataset, lag_match_tol, pairs_within

__all__ = [
    "KernelSpec",
    "EstimatorConfig",
    "PairTable",
    "NoPairsError",
    "EmptyNeighborhoodError",
    "empirical_bandwidth",
    "kernel_reach",
    "lag_entries",
    "pair_table",
    "estimate_G",
]

EstimatorKind = Literal[
    "classical_semivariogram", "kernel_semivariogram", "kernel_covariogram"
]


class NoPairsError(ValueError):
    """No location pairs realize the requested lag."""


class EmptyNeighborhoodError(ValueError):
    """No pair received positive kernel weight at the requested lag."""


KERNEL_FAMILIES = ("epanechnikov", "truncated_gaussian")


@dataclass(frozen=True)
class KernelSpec:
    """Smoothing kernel: Epanechnikov, or a Gaussian truncated at
    ``truncation`` bandwidth units."""

    family: Literal["epanechnikov", "truncated_gaussian"] = "epanechnikov"
    truncation: float = 1.5

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not (0 < self.truncation < np.inf):
            raise ValueError("truncation must be positive and finite")
        if self.family == "epanechnikov" and self.truncation != KernelSpec.truncation:
            raise ValueError("the epanechnikov kernel has no truncation to choose")

    @property
    def support(self) -> float:
        """Half-width of the support, in bandwidth units."""
        return 1.0 if self.family == "epanechnikov" else self.truncation

    def weight(self, u: np.ndarray) -> np.ndarray:
        """Unnormalized kernel weight; normalization cancels in the
        Nadaraya-Watson ratio."""
        u = np.asarray(u, dtype=float)
        if self.family == "epanechnikov":
            return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
        return np.where(np.abs(u) <= self.truncation, np.exp(-0.5 * u * u), 0.0)


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator to run, with its smoothing parameters."""

    kind: EstimatorKind = "classical_semivariogram"
    kernel: KernelSpec = KernelSpec()
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in (
            "classical_semivariogram",
            "kernel_semivariogram",
            "kernel_covariogram",
        ):
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.kind != "classical_semivariogram":
            if self.bandwidth is None or not (0 < self.bandwidth < np.inf):
                raise ValueError("kernel estimators need a finite positive bandwidth")


@dataclass(frozen=True)
class PairTable:
    """Every (lag, location pair) entry of positive weight behind a
    lag-set estimate, listed once and sorted by lag.

    Entry e is the ordered pair ``(i[e], j[e])`` at lag ``lag[e]`` with
    weight ``w[e] > 0``: 1 for an exact lag match of the classical
    estimator (``kernel`` and ``bandwidth`` None), the product-kernel
    weight for the smoothed ones.  ``values`` are the per-point values,
    globally demeaned for the covariogram, which also keeps each lag's
    kernel weight at zero displacement, received by self-pairs.  An
    estimate over any subset of points (the whole sample, a moving
    window, a bootstrap resample) is :meth:`subset_estimates` of its sums
    of :attr:`entry_columns` and :meth:`point_columns`, with no new pair
    search.  A semivariogram table may hold R fields' values as a
    C-contiguous ``(R, n)`` array; the response column and the estimates then
    carry that replicate axis, the location-only columns do not.
    """

    kind: EstimatorKind
    lags: np.ndarray                     # (k, 2)
    lag: np.ndarray                      # (E,) lag index of each entry
    i: np.ndarray                        # (E,)
    j: np.ndarray                        # (E,)
    w: np.ndarray                        # (E,)
    values: np.ndarray                   # (n,), or (R, n) for a semivariogram
    kernel: KernelSpec | None = None
    bandwidth: float | None = None
    self_weights: np.ndarray | None = None  # (k,), covariogram only

    def columns(self, w: np.ndarray, vi: np.ndarray, vj: np.ndarray) -> tuple:
        """The C entry columns: w times the response (half the squared
        difference for semivariograms, the product for the covariogram), w
        and, for the covariogram's own-mean centering, w * (v_i + v_j)."""
        if self.kind == "kernel_covariogram":
            return w * (vi * vj), w, w * (vi + vj)
        return w * ((vi - vj) ** 2 / 2.0), w

    @cached_property
    def entry_columns(self) -> tuple:
        """Read-only :meth:`columns` of the table's own entries, formed
        once per table."""
        cols = self.columns(self.w, *(np.take(self.values, e, axis=-1) for e in (self.i, self.j)))
        for c in cols:
            c.setflags(write=False)
        return cols

    def point_columns(self) -> np.ndarray:
        """``(C', n)`` point columns: 1, and v and v * v for the covariogram."""
        ones = np.ones(self.values.shape[-1])
        if self.kind == "kernel_covariogram":
            return np.stack([ones, self.values, self.values * self.values])
        return ones[None, :]

    def subset_estimates(self, sums, has_entry: np.ndarray, point_sums):
        """``(G, k)`` estimates and effective samples of G subsets, and a
        ``(G,)`` usable flag, from ``sums[c]`` (G, k), the per-lag sums of
        column c of :attr:`entry_columns` (the response sums with a leading
        replicate axis when the table has one); ``has_entry`` (G, k), whether a
        lag has an entry (decided on integer counts); and
        ``point_sums[c]`` (G,), the sums of row c of
        :meth:`point_columns`.  The covariogram is centered at each
        subset's own mean, expanded into these sums.  A subset is usable
        when it holds a point and every lag has an entry or a self-pair
        weight; others get estimate 0."""
        contrib, total = sums[0], sums[1]
        count = point_sums[0]
        if self.kind == "kernel_covariogram":
            w0 = self.self_weights
            s1, s2 = point_sums[1], point_sums[2]
            mean = np.divide(s1, count, out=np.zeros_like(s1), where=count > 0)
            contrib = (contrib - mean[:, None] * sums[2] + (mean * mean)[:, None] * total
                       + np.outer(s2 - s1 * mean, w0))
            total = total + np.outer(count, w0)
            has_entry = has_entry | (w0 > 0)
        ok = (count > 0) & has_entry.all(axis=1)
        out = np.divide(contrib, total, out=np.zeros_like(contrib), where=ok[:, None])
        return out, total, ok

    def estimate(self) -> tuple[np.ndarray, np.ndarray]:
        """Full-sample estimates and effective samples (pair counts for
        the classical estimator, total kernel weights otherwise): the
        whole sample as one subset of :meth:`subset_estimates`.  Raises
        for the first lag with neither an entry nor a self-pair weight."""
        bounds = np.searchsorted(self.lag, np.arange(self.lags.shape[0] + 1))
        sums = [np.stack([c[..., a:b].sum(axis=-1) for a, b in zip(bounds[:-1], bounds[1:])],
                         axis=-1)[..., None, :] for c in self.entry_columns]
        values, totals, _ = self.subset_estimates(
            sums, (np.diff(bounds) > 0)[None], self.point_columns().sum(axis=1)[:, None])
        empty = np.flatnonzero(totals[0] <= 0)
        if empty.size:
            h1, h2 = self.lags[empty[0]]
            if self.kernel is None:
                raise NoPairsError(f"no location pairs at lag {(float(h1), float(h2))}")
            raise EmptyNeighborhoodError(
                f"no pairs receive weight at lag ({h1:g}, {h2:g}); "
                "consider a larger bandwidth"
            )
        return values[..., 0, :], totals[0]


def _candidate_pairs(dataset: SpatialDataset, reach: float):
    """Ordered pairs (i != j) within L-inf distance ``reach``, as
    displacement and value-index arrays."""
    i, j, dx, dy = pairs_within(dataset.locations, reach)
    # 0.0 - d, not -d: a zero displacement is +0.0 in both orientations
    return np.r_[i, j], np.r_[j, i], np.r_[dx, 0.0 - dx], np.r_[dy, 0.0 - dy]


def kernel_reach(lags: np.ndarray, kernel: KernelSpec | None, width: float) -> float:
    """L-inf distance beyond which no pair has weight at any lag, for the
    entry rule of :func:`lag_entries`."""
    return float(np.max(np.abs(lags))) + width * (1.0 if kernel is None else kernel.support)


def lag_entries(dx, dy, lags, kernel: KernelSpec | None, width: float):
    """Entries of positive weight among displacements ``(dx[p], dy[p])``:
    lag index, displacement index and weight, sorted by lag.  Without a
    kernel, a displacement within Euclidean distance ``width`` of a lag
    matches it exactly, with weight 1; with one, the weight is the product
    kernel at bandwidth ``width``, evaluated only inside its support."""
    ux, uy, lag, at = [], [], [], []
    for m, (h1, h2) in enumerate(lags):
        if kernel is None:
            p = np.nonzero(np.hypot(dx - h1, dy - h2) <= width)[0]
        else:
            u = (dx - h1) / width
            v = (dy - h2) / width
            p = np.nonzero((np.abs(u) <= kernel.support) & (np.abs(v) <= kernel.support))[0]
            ux.append(u[p])
            uy.append(v[p])
        at.append(p)
        lag.append(np.full(p.size, m))
    lag, at = np.concatenate(lag), np.concatenate(at)
    if kernel is None:
        return lag, at, np.ones(at.size)
    w = kernel.weight(np.concatenate(ux)) * kernel.weight(np.concatenate(uy))
    keep = w > 0
    return lag[keep], at[keep], w[keep]


def _geometry(dataset: SpatialDataset, lags: np.ndarray, kernel: KernelSpec | None,
              width: float):
    """Read-only entry arrays ``(lag, i, j, w)`` of a pair table: candidate
    pairs within reach of every lag, kept at each lag they match."""
    i, j, dx, dy = _candidate_pairs(dataset, kernel_reach(lags, kernel, width))
    lag, at, w = lag_entries(dx, dy, lags, kernel, width)
    if kernel is None:  # entries by lag, then first point
        order = np.lexsort((i[at], lag))
        lag, at, w = lag[order], at[order], w[order]
    entries = (lag, i[at], j[at], w)
    for a in entries:
        a.setflags(write=False)
    return entries


def _table(dataset: SpatialDataset, lags, config: EstimatorConfig, values=None) -> PairTable:
    """Candidate pairs within reach of every lag (one lag, or rows of
    lags), kept at each lag they match: exactly (within
    :func:`lag_match_tol`) for the classical estimator, with kernel weight
    for the smoothed ones.  The entries depend on the locations alone, so
    they are found once per location set; ``values`` (the dataset's own by
    default) are filled in."""
    values = dataset.values if values is None else values
    if config.kind == "kernel_covariogram" and np.ndim(values) != 1:
        raise ValueError(f"the covariogram takes one field's (n,) values, "
                         f"not shape {np.shape(values)}")
    lags = np.atleast_2d(np.asarray(lags, dtype=float))
    if config.kind == "classical_semivariogram":
        kernel, width = None, lag_match_tol(dataset.grid)
    else:
        kernel, width = config.kernel, config.bandwidth
    key = ("pairs", tuple(map(tuple, lags.tolist())), kernel, width)
    entries = dataset.memo(key, lambda: _geometry(dataset, lags, kernel, width))
    if kernel is None:
        return PairTable(config.kind, lags, *entries, values)
    if config.kind == "kernel_semivariogram":
        return PairTable(config.kind, lags, *entries, values, kernel, width)
    # self-pairs (zero displacement) anchor the variance at lag 0
    self_weights = kernel.weight(-lags[:, 0] / width) * kernel.weight(-lags[:, 1] / width)
    return PairTable(config.kind, lags, *entries, values - values.mean(), kernel, width,
                     self_weights)


def empirical_bandwidth(dataset: SpatialDataset, tuning: float = 1.0) -> float:
    """Scale-adaptive bandwidth: ``tuning`` times the median
    nearest-neighbor distance among sampling locations."""
    if dataset.n < 2:
        raise ValueError("bandwidth needs at least two locations")
    check_tuning(tuning)
    return float(tuning * np.median(dataset.nearest_distances()))


def check_tuning(tuning: float) -> None:
    """Reject a bandwidth tuning factor that is not positive and finite."""
    if not (0 < tuning < np.inf):
        raise ValueError("tuning must be positive and finite")


def pair_table(dataset: SpatialDataset, lag_set: LagSet, config: EstimatorConfig,
               values=None) -> PairTable:
    """The pair table of the configured estimator at every lag of the set,
    holding ``values`` (the dataset's own by default; see :class:`PairTable`)."""
    return _table(dataset, lag_set.lags, config, values)


def estimate_G(dataset: SpatialDataset, lag_set: LagSet, config: EstimatorConfig,
               values=None) -> tuple[np.ndarray, np.ndarray, PairTable]:
    """The full-sample estimate of every quadratic-form test: per-lag estimates
    ``g`` in lag-set order, ``(k,)`` for one field's ``values`` (the dataset's own
    by default) and ``(R, k)`` for ``(R, n)`` values; ``weights`` (k,), the
    effective sample behind each (pair counts for the classical estimator, total
    kernel weights otherwise); and the pair table they came from, which moving
    windows and bootstrap resamples reuse."""
    table = pair_table(dataset, lag_set, config, values)
    g, weights = table.estimate()
    if not np.all(np.isfinite(g)):
        raise ValueError("estimates must be finite")
    return g, weights, table
