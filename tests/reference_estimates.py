"""Dense O(n^2) reference for the lag-set estimators, kept apart from the
package's arithmetic: the pairs come from the n x n displacement
matrices, every pair within reach of the lags is weighted at every lag,
and each estimate is its weighted mean response.  The package forms its
estimates from a sparse pair table, sums of entry columns and a
covariogram centering expanded into those sums; this computes them
directly."""

import numpy as np

from isotropy.core import lag_match_tol
from isotropy.estimators import EmptyNeighborhoodError, NoPairsError


def _kernel_1d(kernel, u):
    if kernel.family == "epanechnikov":
        return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
    return np.where(np.abs(u) <= kernel.truncation, np.exp(-0.5 * u * u), 0.0)


def dense_estimate(dataset, lags, config):
    """Per-lag estimates and effective samples of ``config``'s estimator on
    ``dataset`` at each row of ``lags``.

    The pair (i, j) has displacement ``loc[j] - loc[i]``.  Its weight at
    lag h is 1 when the displacement lies within :func:`lag_match_tol` of
    h (classical) or the product kernel at the displacement minus h
    (kernel estimators).  Self-pairs count only for the covariogram,
    whose values are centered at the dataset's own mean; its response is
    the product of the two values, the semivariograms' half the squared
    difference.  Raises the package's error for the first lag whose
    weights are all zero."""
    loc = dataset.locations
    lags = np.atleast_2d(np.asarray(lags, dtype=float))
    classical = config.kind == "classical_semivariogram"
    covariogram = config.kind == "kernel_covariogram"
    if classical:
        width = lag_match_tol(dataset.grid)
    else:
        kernel, bw = config.kernel, config.bandwidth
        width = bw * (1.0 if kernel.family == "epanechnikov" else kernel.truncation)
    dx = loc[None, :, 0] - loc[:, None, 0]
    dy = loc[None, :, 1] - loc[:, None, 1]
    # a pair beyond this L-inf distance has zero weight at every lag
    i, j = np.nonzero(np.maximum(np.abs(dx), np.abs(dy)) <= np.abs(lags).max() + width)
    if not covariogram:
        i, j = i[i != j], j[i != j]
    dx, dy = dx[i, j], dy[i, j]
    values = np.asarray(dataset.values, dtype=float)
    if covariogram:
        values = values - values.mean()
        resp = values[i] * values[j]
    else:
        resp = (values[j] - values[i]) ** 2 / 2.0
    out, totals = [], []
    for h1, h2 in lags:
        if classical:
            w = (np.hypot(dx - h1, dy - h2) <= width).astype(float)
        else:
            w = _kernel_1d(kernel, (dx - h1) / bw) * _kernel_1d(kernel, (dy - h2) / bw)
        total = w.sum()
        if total <= 0:
            error = NoPairsError if classical else EmptyNeighborhoodError
            raise error(f"no pair has weight at lag ({h1:g}, {h2:g})")
        out.append((w * resp).sum() / total)
        totals.append(total)
    return np.array(out), np.array(totals)
