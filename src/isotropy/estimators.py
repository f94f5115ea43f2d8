"""Point estimation of the semivariogram and covariogram at a lag set.

Gridded data uses the classical moment estimator on exactly-matched lag
pairs.  Non-gridded data smooths over observed pair displacements with a
Nadaraya-Watson product kernel, one factor per axis, so that the
estimate at lag ``h`` averages squared differences (or centered
products) of pairs whose displacement is close to ``h``.  Pairs enter in
both orientations, which makes estimates at ``h`` and ``-h`` agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.spatial import cKDTree

from .core import LagSet, SpatialDataset, enumerate_lag_pairs

__all__ = [
    "KernelSpec",
    "EstimatorConfig",
    "GHat",
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
class GHat:
    """Vector of per-lag point estimates, in lag-set order.

    ``weights`` records the effective sample behind each estimate (exact
    pair count for the classical estimator, total kernel weight for the
    smoothed ones); resampling uses it to put estimates computed on
    differently sized supports on a common scale.
    """

    values: np.ndarray
    lag_set: LagSet
    weights: np.ndarray | None = None

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


def _classical(
    dataset: SpatialDataset, lag: tuple[float, float], tol: float | None
) -> tuple[float, int]:
    """Classical estimate at one lag and the number of pairs behind it."""
    pairs = enumerate_lag_pairs(dataset, lag, tol)
    if pairs.shape[0] == 0:
        raise NoPairsError(f"no location pairs at lag {tuple(lag)}")
    diffs = dataset.values[pairs[:, 0]] - dataset.values[pairs[:, 1]]
    return float(np.mean(diffs**2) / 2.0), pairs.shape[0]


def classical_semivariogram(
    dataset: SpatialDataset, lag: tuple[float, float], tol: float | None = None
) -> float:
    """Moment estimator: half the mean squared difference over the pairs
    separated by exactly (within ``tol``) the given lag."""
    return _classical(dataset, lag, tol)[0]


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


def _kernel_estimates(
    dataset: SpatialDataset,
    lags: np.ndarray,
    kernel: KernelSpec,
    bandwidth: float,
    kind: EstimatorKind,
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel estimates and total weights at several lags, sharing one
    table of candidate pair displacements."""
    if not (bandwidth > 0):
        raise ValueError("bandwidth must be positive")
    support = 1.0 if kernel.family == "epanechnikov" else kernel.truncation
    reach = float(np.max(np.abs(lags))) + bandwidth * support
    i, j, dx, dy = _candidate_pairs(dataset, reach)
    if kind == "kernel_semivariogram":
        resp = (dataset.values[i] - dataset.values[j]) ** 2 / 2.0
    else:
        centered = dataset.values - dataset.values.mean()
        resp = centered[i] * centered[j]
    out = np.empty(lags.shape[0])
    totals = np.empty(lags.shape[0])
    self_resp = None
    if kind == "kernel_covariogram":
        # self-pairs (zero displacement) anchor the variance at lag 0
        centered = dataset.values - dataset.values.mean()
        self_resp = centered * centered
    for m, (h1, h2) in enumerate(lags):
        w = kernel.weight((dx - h1) / bandwidth) * kernel.weight((dy - h2) / bandwidth)
        total = w.sum()
        contrib = float(np.dot(w, resp))
        if self_resp is not None:
            w0 = kernel.weight(-h1 / bandwidth) * kernel.weight(-h2 / bandwidth)
            if w0 > 0:
                total = total + w0 * dataset.n
                contrib += float(w0 * self_resp.sum())
        if total <= 0:
            raise EmptyNeighborhoodError(
                f"no pairs receive weight at lag ({h1:g}, {h2:g}); "
                "consider a larger bandwidth"
            )
        out[m] = contrib / total
        totals[m] = total
    return out, totals


def kernel_semivariogram(
    dataset: SpatialDataset,
    lag: tuple[float, float],
    kernel: KernelSpec = KernelSpec(),
    bandwidth: float = 1.0,
) -> float:
    """Nadaraya-Watson smoothed semivariogram at one lag."""
    values, _ = _kernel_estimates(
        dataset, np.atleast_2d(np.asarray(lag, dtype=float)), kernel, bandwidth,
        "kernel_semivariogram",
    )
    return float(values[0])


def kernel_covariogram(
    dataset: SpatialDataset,
    lag: tuple[float, float],
    kernel: KernelSpec = KernelSpec(),
    bandwidth: float = 1.0,
) -> float:
    """Nadaraya-Watson smoothed covariogram at one lag (globally demeaned)."""
    values, _ = _kernel_estimates(
        dataset, np.atleast_2d(np.asarray(lag, dtype=float)), kernel, bandwidth,
        "kernel_covariogram",
    )
    return float(values[0])


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
    """Per-lag estimates at every lag of the set, in order."""
    if config.kind == "classical_semivariogram":
        values = np.empty(lag_set.k)
        weights = np.empty(lag_set.k)
        for m, lag in enumerate(lag_set):
            values[m], weights[m] = _classical(dataset, lag, tol)
    else:
        values, weights = _kernel_estimates(
            dataset, lag_set.lags, config.kernel, config.bandwidth, config.kind
        )
    return GHat(values, lag_set, weights=weights)
