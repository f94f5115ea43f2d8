"""Periodogram computation on rectangular grids and the two-stage
spectral test of reflection and complete symmetry.

Under the null, standardized periodogram ordinates at distinct Fourier
frequencies are asymptotically independent chi-square(2)/2 variables, so
ratios of ordinates at frequencies tied by a symmetry follow an F(2,2)
law; a Cramér-von Mises test of the ratio sample against that law gives
each stage's p-value.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .core import SpatialDataset
from .distributions import cvm_test, f22_cdf

__all__ = [
    "Periodogram",
    "SymmetryTestResult",
    "DegeneratePeriodogramError",
    "periodogram",
    "lz_reflection_test",
    "lz_complete_test",
]

MIN_RATIO_PAIRS = 5


class DegeneratePeriodogramError(ValueError):
    """A ratio denominator is exactly zero (degenerate field)."""


def _half_count(n: int) -> int:
    """Largest retained index m on an axis of ``n`` points: 0 < |k| <= m
    skips the zero and, for even n, the Nyquist frequency."""
    return (n - 1) // 2


@dataclass(frozen=True)
class Periodogram:
    """Periodogram ordinates at every DFT bin of an ``n1 x n2`` grid.

    ``power_all[k1 mod n1, k2 mod n2]`` is the ordinate at the Fourier
    frequency (2 pi k1 / n1, 2 pi k2 / n2), zero and Nyquist bins
    included; the tests read only the bins 1 <= |k_j| <= m_j, with m_j
    from ``_half_count``.
    """

    power_all: np.ndarray


def periodogram(dataset: SpatialDataset) -> Periodogram:
    """Moment-based spectral density estimate of a gridded field.

    Computed as the squared modulus of the DFT of the demeaned field
    over (2 pi)^2 n1 n2, which equals the lag-domain cosine sum with the
    biased covariance estimator and is nonnegative by construction.
    """
    if dataset.grid is None:
        raise ValueError("periodogram requires a complete rectangular grid")
    f = dataset.field_matrix()
    n1, n2 = f.shape
    if _half_count(n1) < 1 or _half_count(n2) < 1:
        raise ValueError(f"grid {n1}x{n2} too small for spectral analysis")
    x = f - f.mean()
    power = np.abs(np.fft.fft2(x)) ** 2 / ((2 * np.pi) ** 2 * n1 * n2)
    power.setflags(write=False)
    return Periodogram(power)


def _ordinate_ratios(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    if np.any(bottom == 0) or np.any(top == 0):
        raise DegeneratePeriodogramError("zero periodogram ordinate in a ratio")
    return top / bottom


def lz_reflection_test(pgram: Periodogram) -> tuple[float, float]:
    """Test of reflection (axial) symmetry.

    Forms the ratios I(w1, w2) / I(-w1, w2) over the quarter-plane
    k1, k2 >= 1 (each reflection-tied pair used once; the remaining
    quadrants are copies by the real-transform symmetry) and tests them
    against the F(2,2) law.
    """
    power = pgram.power_all
    m1, m2 = map(_half_count, power.shape)
    if m1 * m2 < MIN_RATIO_PAIRS:
        raise ValueError(f"only {m1 * m2} frequency pairs; need {MIN_RATIO_PAIRS}")
    k1, k2 = np.arange(1, m1 + 1), slice(1, m2 + 1)
    ratios = _ordinate_ratios(power[k1, k2].ravel(), power[-k1, k2].ravel())
    return cvm_test(ratios, f22_cdf)


def lz_diagonal_ratios(pgram: Periodogram) -> np.ndarray:
    """Ratios I at index (k1,k2) over I at (k2,k1), k1 < k2, over the
    quarter-plane pairs usable for the diagonal-symmetry stage.

    On a square grid the index swap is the exact frequency swap
    (w1,w2) -> (w2,w1); on a rectangular grid it is the natural
    surrogate, and only indices up to the shorter axis' limit qualify,
    which thins the set.
    """
    m = min(map(_half_count, pgram.power_all.shape))
    quarter = pgram.power_all[1:m + 1, 1:m + 1]
    i, j = np.triu_indices(m, k=1)
    return _ordinate_ratios(quarter[i, j], quarter[j, i])


@dataclass(frozen=True)
class SymmetryTestResult:
    """Outcome of the two-stage complete-symmetry test."""

    alpha: float
    stage1_statistic: float
    stage1_pvalue: float
    stage2_statistic: float | None
    stage2_pvalue: float | None
    reject: bool
    diagnostics: dict[str, Any] = field(default_factory=dict)

    @property
    def stage2_reached(self) -> bool:
        return self.stage2_pvalue is not None

    def rejects(self, alpha: float) -> bool:
        """The decision; only ``self.alpha``, the stages' level, is answered."""
        if alpha != self.alpha:
            raise ValueError(f"result is for alpha={self.alpha}, not {alpha}")
        return self.reject

    def to_dict(self) -> dict[str, Any]:
        """JSON-native values, method first; a stage not reached is None."""
        return {"method": "lz", **asdict(self)}


def lz_complete_test(pgram: Periodogram, alpha: float = 0.05) -> SymmetryTestResult:
    """Two-stage test of complete symmetry at overall level ``alpha``.

    Stage 1 tests reflection symmetry at alpha/2; only if it does not
    reject, stage 2 tests the diagonal symmetry at alpha/2.  Rejection
    at either stage rejects complete symmetry.
    """
    if not (0 < alpha < 1):
        raise ValueError("alpha must be in (0, 1)")
    s1, p1 = lz_reflection_test(pgram)
    m1, m2 = map(_half_count, pgram.power_all.shape)
    diag = {"n_reflection_ratios": m1 * m2, "n_diagonal_ratios": 0}
    if p1 <= alpha / 2:
        return SymmetryTestResult(alpha, s1, p1, None, None, True, diag)
    ratios = lz_diagonal_ratios(pgram)
    diag["n_diagonal_ratios"] = int(ratios.shape[0])
    if ratios.shape[0] == 0:
        # nothing testable at stage 2 (can happen on awkward grids)
        return SymmetryTestResult(alpha, s1, p1, None, None, False, diag)
    s2, p2 = cvm_test(ratios, f22_cdf)
    return SymmetryTestResult(alpha, s1, p1, s2, p2, bool(p2 <= alpha / 2), diag)
