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
    "FrequencyGrid",
    "Periodogram",
    "SymmetryTestResult",
    "DegeneratePeriodogramError",
    "fourier_frequencies",
    "periodogram",
    "lz_reflection_test",
    "lz_complete_test",
]

MIN_RATIO_PAIRS = 5


class DegeneratePeriodogramError(ValueError):
    """A ratio denominator is exactly zero (degenerate field)."""


def _half_count(n: int) -> int:
    return (n - 1) // 2 if n % 2 == 1 else n // 2 - 1


@dataclass(frozen=True)
class FrequencyGrid:
    """Signed Fourier-frequency index set, excluding zero and Nyquist.

    ``k1``/``k2`` run over {-n*, ..., -1, 1, ..., n*} per axis with
    n* = (n-1)/2 for odd n and n/2 - 1 for even n; ``omega_j`` is
    2 pi k_j / n_j.
    """

    n1: int
    n2: int
    k1: np.ndarray
    k2: np.ndarray

    @property
    def omega1(self) -> np.ndarray:
        return 2 * np.pi * self.k1 / self.n1

    @property
    def omega2(self) -> np.ndarray:
        return 2 * np.pi * self.k2 / self.n2

    def __len__(self) -> int:
        return self.k1.shape[0]


def fourier_frequencies(n1: int, n2: int) -> FrequencyGrid:
    """All retained Fourier frequencies of an ``n1 x n2`` grid."""
    m1, m2 = _half_count(n1), _half_count(n2)
    if m1 < 1 or m2 < 1:
        raise ValueError(f"grid {n1}x{n2} too small for spectral analysis")
    ks1 = np.concatenate([np.arange(-m1, 0), np.arange(1, m1 + 1)])
    ks2 = np.concatenate([np.arange(-m2, 0), np.arange(1, m2 + 1)])
    g1, g2 = np.meshgrid(ks1, ks2, indexing="ij")
    k1 = g1.ravel()
    k2 = g2.ravel()
    k1.setflags(write=False)
    k2.setflags(write=False)
    return FrequencyGrid(n1, n2, k1, k2)


@dataclass(frozen=True)
class Periodogram:
    """Periodogram ordinates at the retained Fourier frequencies.

    ``power_all`` holds the ordinate at every DFT bin (including zero
    and Nyquist rows), indexed ``[k1 mod n1, k2 mod n2]``; ``values``
    are the ordinates at ``frequencies``.
    """

    frequencies: FrequencyGrid
    values: np.ndarray
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
    freqs = fourier_frequencies(n1, n2)
    x = f - f.mean()
    power = np.abs(np.fft.fft2(x)) ** 2 / ((2 * np.pi) ** 2 * n1 * n2)
    values = power[freqs.k1 % n1, freqs.k2 % n2]
    values.setflags(write=False)
    power.setflags(write=False)
    return Periodogram(freqs, values, power)


def _quarter_plane(freqs: FrequencyGrid) -> tuple[np.ndarray, np.ndarray]:
    m1, m2 = _half_count(freqs.n1), _half_count(freqs.n2)
    g1, g2 = np.meshgrid(np.arange(1, m1 + 1), np.arange(1, m2 + 1), indexing="ij")
    return g1.ravel(), g2.ravel()


def lz_reflection_test(pgram: Periodogram) -> tuple[float, float]:
    """Test of reflection (axial) symmetry.

    Forms the ratios I(w1, w2) / I(-w1, w2) over the quarter-plane
    k1, k2 >= 1 (each reflection-tied pair used once; the remaining
    quadrants are copies by the real-transform symmetry) and tests them
    against the F(2,2) law.
    """
    freqs = pgram.frequencies
    k1, k2 = _quarter_plane(freqs)
    if k1.shape[0] < MIN_RATIO_PAIRS:
        raise ValueError(
            f"only {k1.shape[0]} frequency pairs; need {MIN_RATIO_PAIRS}"
        )
    return cvm_test(_ordinate_ratios(pgram, (k1, k2), (-k1, k2)), f22_cdf)


def _ordinate_ratios(pgram: Periodogram, num, den) -> np.ndarray:
    """Ratios of the ordinates at signed index arrays ``num = (k1, k2)``
    over those at ``den``."""
    n1, n2 = pgram.frequencies.n1, pgram.frequencies.n2
    top = pgram.power_all[num[0] % n1, num[1] % n2]
    bottom = pgram.power_all[den[0] % n1, den[1] % n2]
    if np.any(bottom == 0) or np.any(top == 0):
        raise DegeneratePeriodogramError("zero periodogram ordinate in a ratio")
    return top / bottom


def _diagonal_pairs(freqs: FrequencyGrid) -> tuple[np.ndarray, np.ndarray]:
    # Unordered quarter-plane index pairs {(k1,k2), (k2,k1)} with
    # k1 < k2, each used once, as the index arrays (k1, k2).  On a
    # square grid the index swap is the exact frequency swap
    # (w1,w2) -> (w2,w1); on a rectangular grid it is the natural
    # surrogate, and only indices up to the shorter axis' limit qualify,
    # which thins the set.
    m = min(_half_count(freqs.n1), _half_count(freqs.n2))
    k1, k2 = np.triu_indices(m, k=1)
    return k1 + 1, k2 + 1


def lz_diagonal_ratios(pgram: Periodogram) -> np.ndarray:
    """Ratios I at index (k1,k2) over I at (k2,k1), k1 < k2, over the
    quarter-plane pairs usable for the diagonal-symmetry stage."""
    k1, k2 = _diagonal_pairs(pgram.frequencies)
    return _ordinate_ratios(pgram, (k1, k2), (k2, k1))


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
    k1, _ = _quarter_plane(pgram.frequencies)
    diag = {
        "n_reflection_ratios": int(k1.shape[0]),
        "n_diagonal_ratios": 0,
    }
    if p1 <= alpha / 2:
        return SymmetryTestResult(alpha, s1, p1, None, None, True, diag)
    ratios = lz_diagonal_ratios(pgram)
    diag["n_diagonal_ratios"] = int(ratios.shape[0])
    if ratios.shape[0] == 0:
        # nothing testable at stage 2 (can happen on awkward grids)
        return SymmetryTestResult(alpha, s1, p1, None, None, False, diag)
    s2, p2 = cvm_test(ratios, f22_cdf)
    return SymmetryTestResult(alpha, s1, p1, s2, p2, bool(p2 <= alpha / 2), diag)
