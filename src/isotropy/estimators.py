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
    """Every location pair behind a lag-set estimate, listed once.

    Row p is the ordered pair ``(i[p], j[p])`` with response ``resp[p]``
    (half the squared difference for the semivariograms, the product of
    centered values for the covariogram) and weight ``weights[m, p]`` at
    lag m: 1 or 0 (exact lag match) for the classical estimator, the
    product-kernel weight for the smoothed ones.  The covariogram also
    keeps the globally demeaned values and each lag's kernel weight at
    zero displacement, which self-pairs receive.  An estimate over any
    subset of locations is a ratio of sums over this table, which is how
    moving windows are estimated without searching pairs again.
    """

    kind: EstimatorKind
    lags: np.ndarray
    i: np.ndarray
    j: np.ndarray
    weights: np.ndarray                  # (k, P)
    resp: np.ndarray                     # (P,)
    centered: np.ndarray | None = None   # (n,), covariogram only
    self_weights: np.ndarray | None = None  # (k,), covariogram only

    def estimate(self) -> tuple[np.ndarray, np.ndarray]:
        """Full-sample estimates and effective samples (pair counts for
        the classical estimator, total kernel weights otherwise)."""
        k = self.lags.shape[0]
        out = np.empty(k)
        totals = np.empty(k)
        for m in range(k):
            h1, h2 = self.lags[m]
            w = self.weights[m]
            if self.kind == "classical_semivariogram":
                sel = w > 0
                if not sel.any():
                    raise NoPairsError(f"no location pairs at lag {(float(h1), float(h2))}")
                out[m] = np.mean(self.resp[sel])
                totals[m] = np.count_nonzero(sel)
                continue
            total = w.sum()
            contrib = float(np.dot(w, self.resp))
            if self.self_weights is not None and self.self_weights[m] > 0:
                w0 = self.self_weights[m]
                total = total + w0 * self.centered.shape[0]
                contrib += float(w0 * (self.centered * self.centered).sum())
            if total <= 0:
                raise EmptyNeighborhoodError(
                    f"no pairs receive weight at lag ({h1:g}, {h2:g}); "
                    "consider a larger bandwidth"
                )
            out[m] = contrib / total
            totals[m] = total
        return out, totals

    def window_estimates(self, windows):
        """Estimates in each of K windows, from window sums of the table.

        ``windows.pair_sums(i, j, cols)`` sums each row of a ``(C, P)``
        array over the pairs ``(i[p], j[p])`` inside every window, and
        ``windows.point_sums(cols)`` each row of a ``(C, n)`` array over
        the points inside it; both return ``(K, C)``.
        The covariogram is centered at each window's own mean, expanded
        into pair and point sums.  Returns the ``(K, k)`` estimates and
        effective samples (as in :meth:`estimate`) and a ``(K,)`` flag:
        a window is usable when every lag has a pair of positive weight,
        counted in integers, or the covariogram's self-pairs carry weight.
        """
        k = self.lags.shape[0]
        positive = self.weights > 0
        cols = [self.weights * self.resp, self.weights, positive]
        if self.centered is not None:
            cols.append(self.weights * (self.centered[self.i] + self.centered[self.j]))
        sums = windows.pair_sums(self.i, self.j, np.concatenate(cols))
        contrib, total = sums[:, :k], sums[:, k:2 * k]
        usable = np.rint(sums[:, 2 * k:3 * k]) > 0
        if self.centered is not None:
            u = self.centered
            count, s1, s2 = windows.point_sums(np.stack([np.ones_like(u), u, u * u])).T
            mean = np.divide(s1, count, out=np.zeros_like(s1), where=count > 0)
            contrib = (contrib - mean[:, None] * sums[:, 3 * k:]
                       + (mean * mean)[:, None] * total
                       + np.outer(s2 - s1 * mean, self.self_weights))
            total = total + np.outer(count, self.self_weights)
            usable |= self.self_weights > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            values = contrib / total
        return values, total, usable.all(axis=1)


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
    weights: np.ndarray | None = None
    pairs: PairTable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.lag_set.k,):
            raise ValueError("one estimate per lag is required")
        if not np.all(np.isfinite(v)):
            raise ValueError("estimates must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.weights is not None:
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
    lag_of = np.repeat(np.arange(len(found)), [f.shape[0] for f in found])
    i, j = pairs[:, 0], pairs[:, 1]
    return PairTable(
        "classical_semivariogram", lags, i, j,
        weights=(lag_of == np.arange(len(found))[:, None]).astype(float),
        resp=(dataset.values[i] - dataset.values[j]) ** 2 / 2.0,
    )


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


def _kernel_table(
    dataset: SpatialDataset,
    lags: np.ndarray,
    kernel: KernelSpec,
    bandwidth: float,
    kind: EstimatorKind,
) -> PairTable:
    """Candidate pairs within reach of every lag, with their kernel
    weights at each lag."""
    if not (bandwidth > 0):
        raise ValueError("bandwidth must be positive")
    support = 1.0 if kernel.family == "epanechnikov" else kernel.truncation
    reach = float(np.max(np.abs(lags))) + bandwidth * support
    i, j, dx, dy = _candidate_pairs(dataset, reach)
    weights = (kernel.weight((dx - lags[:, :1]) / bandwidth)
               * kernel.weight((dy - lags[:, 1:]) / bandwidth))
    if kind == "kernel_semivariogram":
        resp = (dataset.values[i] - dataset.values[j]) ** 2 / 2.0
        return PairTable(kind, lags, i, j, weights, resp)
    # self-pairs (zero displacement) anchor the variance at lag 0
    centered = dataset.values - dataset.values.mean()
    self_weights = kernel.weight(-lags[:, 0] / bandwidth) * kernel.weight(-lags[:, 1] / bandwidth)
    return PairTable(kind, lags, i, j, weights, centered[i] * centered[j],
                     centered, self_weights)


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


def estimate_G(
    dataset: SpatialDataset,
    lag_set: LagSet,
    config: EstimatorConfig,
    tol: float | None = None,
) -> GHat:
    """Per-lag estimates at every lag of the set, in order; the result
    keeps the pair table it was computed from."""
    if config.kind == "classical_semivariogram":
        table = _classical_table(dataset, lag_set.lags, tol)
    else:
        table = _kernel_table(
            dataset, lag_set.lags, config.kernel, config.bandwidth, config.kind
        )
    values, weights = table.estimate()
    return GHat(values, lag_set, weights=weights, pairs=table)
