"""Point estimation of the semivariogram and covariogram at a lag set.

Gridded data uses the classical moment estimator on exactly-matched lag
pairs.  Non-gridded data smooths over observed pair displacements with a
Nadaraya-Watson product kernel, one factor per axis, so that the
estimate at lag ``h`` averages squared differences (or centered
products) of pairs whose displacement is close to ``h``.  Pairs enter in
both orientations, which makes estimates at ``h`` and ``-h`` agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from scipy.spatial import cKDTree

from .core import LagSet, SpatialDataset, enumerate_lag_pairs

__all__ = [
    "KernelSpec",
    "EstimatorConfig",
    "GHat",
    "PairTable",
    "NoPairsError",
    "EmptyNeighborhoodError",
    "classical_semivariogram",
    "kernel_semivariogram",
    "kernel_covariogram",
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


@dataclass(frozen=True)
class KernelSpec:
    """Smoothing kernel: Epanechnikov, or a Gaussian truncated at
    ``truncation`` bandwidth units."""

    family: Literal["epanechnikov", "truncated_gaussian"] = "epanechnikov"
    truncation: float = 1.5

    def __post_init__(self):
        if self.family not in ("epanechnikov", "truncated_gaussian"):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not (self.truncation > 0):
            raise ValueError("truncation must be positive")

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
            if self.bandwidth is None or not (self.bandwidth > 0):
                raise ValueError("kernel estimators need a positive bandwidth")


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
    estimate over any subset of points (a moving window, a bootstrap
    resample) is :meth:`subset_estimates` of its sums of :meth:`columns`
    and :meth:`point_columns`, with no new pair search.
    """

    kind: EstimatorKind
    lags: np.ndarray                     # (k, 2)
    lag: np.ndarray                      # (E,) lag index of each entry
    i: np.ndarray                        # (E,)
    j: np.ndarray                        # (E,)
    w: np.ndarray                        # (E,)
    values: np.ndarray                   # (n,)
    kernel: KernelSpec | None = None
    bandwidth: float | None = None
    self_weights: np.ndarray | None = None  # (k,), covariogram only

    def response(self, vi: np.ndarray, vj: np.ndarray) -> np.ndarray:
        """Half the squared difference (semivariograms) or the product
        (covariogram) of the pair's values."""
        if self.kind == "kernel_covariogram":
            return vi * vj
        return (vi - vj) ** 2 / 2.0

    def columns(self, w: np.ndarray, vi: np.ndarray, vj: np.ndarray) -> np.ndarray:
        """``(C, E)`` entry columns: w * response, w and, for the
        covariogram's own-mean centering, w * (v_i + v_j)."""
        cols = [w * self.response(vi, vj), w]
        if self.kind == "kernel_covariogram":
            cols.append(w * (vi + vj))
        return np.stack(cols)

    def point_columns(self) -> np.ndarray:
        """``(C', n)`` point columns: 1, and v and v * v for the covariogram."""
        ones = np.ones_like(self.values)
        if self.kind == "kernel_covariogram":
            return np.stack([ones, self.values, self.values * self.values])
        return ones[None, :]

    def subset_estimates(self, sums, has_entry: np.ndarray, point_sums):
        """``(G, k)`` estimates and effective samples of G subsets, and a
        ``(G,)`` usable flag, from ``sums[c]`` (G, k), the per-lag sums of
        column c of :meth:`columns`; ``has_entry`` (G, k), whether a lag
        has an entry (decided on integer counts); and ``point_sums[c]``
        (G,), the sums of column c of :meth:`point_columns`.  The
        covariogram is centered at each subset's own mean, expanded into
        these sums.  A subset is usable when it holds a point and every
        lag has an entry or a self-pair weight; others get estimate 0."""
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
        the classical estimator, total kernel weights otherwise)."""
        k = self.lags.shape[0]
        bounds = np.searchsorted(self.lag, np.arange(k + 1))
        resp = self.response(self.values[self.i], self.values[self.j])
        out = np.empty(k)
        totals = np.empty(k)
        for m in range(k):
            h1, h2 = self.lags[m]
            at = slice(bounds[m], bounds[m + 1])
            if self.kind == "classical_semivariogram":
                if at.start == at.stop:
                    raise NoPairsError(f"no location pairs at lag {(float(h1), float(h2))}")
                out[m] = np.mean(resp[at])
                totals[m] = at.stop - at.start
                continue
            total = self.w[at].sum()
            contrib = float(np.dot(self.w[at], resp[at]))
            if self.self_weights is not None and self.self_weights[m] > 0:
                w0 = self.self_weights[m]
                total = total + w0 * self.values.shape[0]
                contrib += float(w0 * (self.values * self.values).sum())
            if total <= 0:
                raise EmptyNeighborhoodError(
                    f"no pairs receive weight at lag ({h1:g}, {h2:g}); "
                    "consider a larger bandwidth"
                )
            out[m] = contrib / total
            totals[m] = total
        return out, totals

    def window_estimates(self, windows):
        """:meth:`subset_estimates` of K moving windows, and each window's
        point count.  ``windows.pair_sums(i, j, cols, group, n_groups)``
        sums each row of ``cols`` (C, E) over every window's entries
        ``(i[e], j[e])``, apart for each group, into (K, C, n_groups);
        ``windows.point_sums(cols)`` sums each row of ``cols`` (C, n)
        over every window's points into (K, C)."""
        cols = self.columns(self.w, self.values[self.i], self.values[self.j])
        sums = windows.pair_sums(self.i, self.j, np.vstack([cols, np.ones((1, self.w.size))]),
                                 self.lag, self.lags.shape[0])
        point_sums = windows.point_sums(self.point_columns()).T
        values, total, usable = self.subset_estimates(
            np.moveaxis(sums[:, :-1], 1, 0), np.rint(sums[:, -1]) > 0, point_sums)
        return values, total, usable, point_sums[0]


@dataclass(frozen=True)
class GHat:
    """Vector of per-lag point estimates, in lag-set order.

    ``weights`` records the effective sample behind each estimate (exact
    pair count for the classical estimator, total kernel weight for the
    smoothed ones); resampling uses it to put estimates computed on
    differently sized supports on a common scale.  ``pairs`` is the pair
    table the estimates came from, which moving windows reuse.
    """

    values: np.ndarray
    lag_set: LagSet
    weights: np.ndarray
    pairs: PairTable = field(repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.lag_set.k,):
            raise ValueError("one estimate per lag is required")
        if not np.all(np.isfinite(v)):
            raise ValueError("estimates must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        w = np.asarray(self.weights, dtype=float).copy()
        if w.shape != v.shape or np.any(w <= 0):
            raise ValueError("weights must be positive, one per lag")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def _classical_table(
    dataset: SpatialDataset, lags: np.ndarray, tol: float | None
) -> PairTable:
    found = [enumerate_lag_pairs(dataset, (float(h1), float(h2)), tol) for h1, h2 in lags]
    pairs = np.concatenate(found)
    lag = np.repeat(np.arange(len(found)), [f.shape[0] for f in found])
    return PairTable("classical_semivariogram", lags, lag, pairs[:, 0], pairs[:, 1],
                     np.ones(pairs.shape[0]), dataset.values)


def classical_semivariogram(
    dataset: SpatialDataset, lag: tuple[float, float], tol: float | None = None
) -> float:
    """Moment estimator: half the mean squared difference over the pairs
    separated by exactly (within ``tol``) the given lag."""
    table = _classical_table(dataset, np.atleast_2d(np.asarray(lag, dtype=float)), tol)
    return float(table.estimate()[0][0])


# Above this size, candidate pairs are prefiltered with a KDTree instead
# of materializing the full n^2 displacement table.
_DENSE_PAIR_LIMIT = 80


def _candidate_pairs(dataset: SpatialDataset, reach: float):
    """Ordered pairs (i != j) within L-inf distance ``reach``, as
    displacement and value-index arrays."""
    loc = dataset.locations
    n = dataset.n
    if n <= _DENSE_PAIR_LIMIT:
        i, j = np.nonzero(~np.eye(n, dtype=bool))
    else:
        upper = cKDTree(loc).query_pairs(reach, p=np.inf, output_type="ndarray")
        i = np.concatenate([upper[:, 0], upper[:, 1]])
        j = np.concatenate([upper[:, 1], upper[:, 0]])
    dx = loc[j, 0] - loc[i, 0]
    dy = loc[j, 1] - loc[i, 1]
    return i, j, dx, dy


def kernel_reach(lags: np.ndarray, kernel: KernelSpec, bandwidth: float) -> float:
    """L-inf distance beyond which no pair has weight at any lag."""
    return float(np.max(np.abs(lags))) + bandwidth * kernel.support


def lag_entries(dx, dy, lags, kernel: KernelSpec, bandwidth: float):
    """Entries of positive weight among displacements ``(dx[p], dy[p])``:
    lag index, displacement index and product-kernel weight, sorted by
    lag.  The kernel is evaluated only inside its support."""
    ux, uy, lag, at = [], [], [], []
    for m, (h1, h2) in enumerate(lags):
        u = (dx - h1) / bandwidth
        v = (dy - h2) / bandwidth
        p = np.nonzero((np.abs(u) <= kernel.support) & (np.abs(v) <= kernel.support))[0]
        ux.append(u[p])
        uy.append(v[p])
        at.append(p)
        lag.append(np.full(p.size, m))
    w = kernel.weight(np.concatenate(ux)) * kernel.weight(np.concatenate(uy))
    keep = w > 0
    return np.concatenate(lag)[keep], np.concatenate(at)[keep], w[keep]


def _kernel_table(
    dataset: SpatialDataset,
    lags: np.ndarray,
    kernel: KernelSpec,
    bandwidth: float,
    kind: EstimatorKind,
) -> PairTable:
    """Candidate pairs within reach of every lag, kept at each lag where
    they receive kernel weight."""
    if not (bandwidth > 0):
        raise ValueError("bandwidth must be positive")
    i, j, dx, dy = _candidate_pairs(dataset, kernel_reach(lags, kernel, bandwidth))
    lag, at, w = lag_entries(dx, dy, lags, kernel, bandwidth)
    if kind == "kernel_semivariogram":
        return PairTable(kind, lags, lag, i[at], j[at], w, dataset.values, kernel, bandwidth)
    # self-pairs (zero displacement) anchor the variance at lag 0
    self_weights = kernel.weight(-lags[:, 0] / bandwidth) * kernel.weight(-lags[:, 1] / bandwidth)
    return PairTable(kind, lags, lag, i[at], j[at], w, dataset.values - dataset.values.mean(),
                     kernel, bandwidth, self_weights)


def kernel_semivariogram(
    dataset: SpatialDataset,
    lag: tuple[float, float],
    kernel: KernelSpec = KernelSpec(),
    bandwidth: float = 1.0,
) -> float:
    """Nadaraya-Watson smoothed semivariogram at one lag."""
    table = _kernel_table(
        dataset, np.atleast_2d(np.asarray(lag, dtype=float)), kernel, bandwidth,
        "kernel_semivariogram",
    )
    return float(table.estimate()[0][0])


def kernel_covariogram(
    dataset: SpatialDataset,
    lag: tuple[float, float],
    kernel: KernelSpec = KernelSpec(),
    bandwidth: float = 1.0,
) -> float:
    """Nadaraya-Watson smoothed covariogram at one lag (globally demeaned)."""
    table = _kernel_table(
        dataset, np.atleast_2d(np.asarray(lag, dtype=float)), kernel, bandwidth,
        "kernel_covariogram",
    )
    return float(table.estimate()[0][0])


def empirical_bandwidth(dataset: SpatialDataset, tuning: float = 1.0) -> float:
    """Scale-adaptive bandwidth: ``tuning`` times the median
    nearest-neighbor distance among sampling locations."""
    if dataset.n < 2:
        raise ValueError("bandwidth needs at least two locations")
    if not (tuning > 0):
        raise ValueError("tuning must be positive")
    d, _ = cKDTree(dataset.locations).query(dataset.locations, k=2)
    return float(tuning * np.median(d[:, 1]))


def pair_table(
    dataset: SpatialDataset,
    lag_set: LagSet,
    config: EstimatorConfig,
    tol: float | None = None,
) -> PairTable:
    """The pair table of the configured estimator at every lag of the set."""
    if config.kind == "classical_semivariogram":
        return _classical_table(dataset, lag_set.lags, tol)
    return _kernel_table(dataset, lag_set.lags, config.kernel, config.bandwidth, config.kind)


def estimate_G(
    dataset: SpatialDataset,
    lag_set: LagSet,
    config: EstimatorConfig,
    tol: float | None = None,
) -> GHat:
    """Per-lag estimates at every lag of the set, in order; the result
    keeps the pair table it was computed from."""
    table = pair_table(dataset, lag_set, config, tol)
    values, weights = table.estimate()
    return GHat(values, lag_set, weights=weights, pairs=table)
