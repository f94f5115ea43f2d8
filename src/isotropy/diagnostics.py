"""Plot-ready diagnostic summaries: directional semivariograms and
equal-correlation contours.  Both emit rows suitable for CSV output; no
rendering is done here."""

from __future__ import annotations

import numpy as np

from .core import SpatialDataset
from .grf import AnisotropyParams, ExponentialCovariance

__all__ = ["directional_semivariogram", "equicorrelation_contours"]


# Pairs per chunk of rows: bounds the pair walk's memory whatever n is.
_CHUNK_PAIRS = 1 << 18


def _pair_chunks(loc: np.ndarray):
    """The pairs i < j in row order, a chunk of rows at a time: ``(i, j)``
    index arrays and the displacements ``loc[j] - loc[i]``."""
    n = loc.shape[0]
    rows = max(1, _CHUNK_PAIRS // n)
    for a in range(0, n - 1, rows):
        r, c = np.nonzero(np.arange(a + 1, n) > np.arange(a, min(a + rows, n - 1))[:, None])
        i, j = r + a, c + a + 1
        yield i, j, loc[j, 0] - loc[i, 0], loc[j, 1] - loc[i, 1]


def directional_semivariogram(
    dataset: SpatialDataset,
    n_directions: int = 4,
    n_bins: int = 10,
    max_dist: float | None = None,
) -> list[tuple[float, float, float, int]]:
    """Classical semivariogram binned by direction sector and distance.

    Directions partition the half-circle [0, 180) into ``n_directions``
    sectors centered on k*180/n_directions degrees.  Distance bin b is
    ``(edges[b], edges[b+1]]`` on ``n_bins`` equal steps up to
    ``max_dist`` (by default half the largest pairwise distance; a given
    one must be positive and finite).
    Returns rows ``(direction_deg, distance, gamma, n_pairs)``; empty
    bins report a zero pair count and NaN gamma.  The pairs are walked a
    chunk of rows at a time, so memory grows with n, not n^2.
    """
    if dataset.n < 2:
        raise ValueError("directional semivariogram needs at least two points")
    if n_directions < 1 or n_bins < 1:
        raise ValueError("need at least one direction and one distance bin")
    if max_dist is not None and not 0 < max_dist < np.inf:
        raise ValueError(f"max_dist must be positive and finite, got {max_dist}")
    loc, values = dataset.locations, dataset.values
    if max_dist is None:
        max_dist = max(float(np.hypot(dx, dy).max()) for _, _, dx, dy in _pair_chunks(loc)) / 2.0
    edges = np.linspace(0.0, max_dist, n_bins + 1)
    sector_width = np.pi / n_directions
    counts = np.zeros(n_directions * n_bins, dtype=np.int64)
    sums = np.zeros(n_directions * n_bins)
    for i, j, dx, dy in _pair_chunks(loc):
        dist = np.hypot(dx, dy)
        b = np.searchsorted(edges, dist, "left") - 1
        keep = (b >= 0) & (b < n_bins)
        angle = np.mod(np.arctan2(dy[keep], dx[keep]), np.pi)
        sector = np.mod(np.rint(angle / sector_width).astype(int), n_directions)
        cell = sector * n_bins + b[keep]
        counts += np.bincount(cell, minlength=counts.size)
        sums += np.bincount(cell, (values[j[keep]] - values[i[keep]]) ** 2, minlength=sums.size)
    rows = []
    for s in range(n_directions):
        for b in range(n_bins):
            count = int(counts[s * n_bins + b])
            gamma = float(sums[s * n_bins + b] / count / 2.0) if count else float("nan")
            center = float((edges[b] + edges[b + 1]) / 2.0)
            rows.append((s * 180.0 / n_directions, center, gamma, count))
    return rows


def equicorrelation_contours(
    cov: ExponentialCovariance,
    aniso: AnisotropyParams | None = None,
    levels: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9),
    n_points: int = 360,
) -> list[tuple[float, float, float]]:
    """Contours of equal correlation of the (possibly anisotropic) model.

    Each contour is the set of lags h with corr(h) = level; under
    geometric anisotropy it is the ellipse obtained by mapping the
    isotropic circle back through the inverse coordinate transform.
    Returns rows ``(level, x, y)``.  Levels at or above the
    correlation limit at zero distance (sigma2 / sill) yield no rows.
    """
    rows = []
    t = np.linspace(0.0, 2 * np.pi, n_points, endpoint=False)
    circle = np.column_stack([np.cos(t), np.sin(t)])
    if aniso is not None and not aniso.is_isotropic:
        # inverse of the location transform maps the isotropic circle to
        # the equicorrelation ellipse in original coordinates
        back = np.linalg.inv(aniso.matrix())
    else:
        back = np.eye(2)
    for level in levels:
        if not (0 < level < 1):
            raise ValueError(f"correlation level {level} outside (0, 1)")
        ratio = level * cov.sill / cov.sigma2
        if ratio >= 1:
            continue  # unreachable under the nugget
        d = -np.log(ratio) / cov.phi
        pts = (d * circle) @ back
        rows.extend((float(level), float(x), float(y)) for x, y in pts)
    return rows
