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

from .core import SpatialDataset, each_or_one
from .distributions import cvm_pvalue, cvm_statistics, f22_cdf

__all__ = [
    "SymmetryTestResult",
    "DegeneratePeriodogramError",
    "periodogram",
    "lz_complete_test",
]

MIN_RATIO_PAIRS = 5
_DEGENERATE = "zero periodogram ordinate in a ratio"


class DegeneratePeriodogramError(ValueError):
    """A ratio denominator is exactly zero (degenerate field)."""


def _half_count(n: int) -> int:
    """Largest retained index m on an axis of ``n`` points: 0 < |k| <= m
    skips the zero and, for even n, the Nyquist frequency."""
    return (n - 1) // 2


def frequency_pairs(shape) -> tuple[int, int]:
    """The largest retained indices (m1, m2) of a grid of ``shape`` points;
    ValueError if stage 1 would compare fewer than ``MIN_RATIO_PAIRS`` pairs."""
    m1, m2 = map(_half_count, shape)
    if m1 * m2 < MIN_RATIO_PAIRS:
        raise ValueError(f"only {m1 * m2} frequency pairs; need {MIN_RATIO_PAIRS}")
    return m1, m2


def periodogram(dataset: SpatialDataset, values=None) -> np.ndarray:
    """Moment-based spectral density estimate of a gridded field, as a
    read-only ``(n1, n2)`` array of ordinates at every DFT bin.

    Computed as the squared modulus of the DFT of the demeaned field
    over (2 pi)^2 n1 n2, which equals the lag-domain cosine sum with the
    biased covariance estimator and is nonnegative by construction.
    ``power[k1 mod n1, k2 mod n2]`` is the ordinate at the Fourier
    frequency (2 pi k1 / n1, 2 pi k2 / n2), zero and Nyquist bins
    included; the tests read only the bins 1 <= |k_j| <= m_j, with m_j
    from ``_half_count``.  ``values`` (R, n), R fields on the dataset's grid (see
    :meth:`SpatialDataset.value_rows`), get theirs stacked, ``(R, n1, n2)``, by one ``fft2``.
    """
    f = dataset.field_matrix(dataset.value_rows(values))  # requires a grid
    n1, n2 = f.shape[1:]
    if _half_count(n1) < 1 or _half_count(n2) < 1:
        raise ValueError(f"grid {n1}x{n2} too small for spectral analysis")
    x = f - f.mean(axis=(1, 2), keepdims=True)
    power = np.abs(np.fft.fft2(x)) ** 2 / ((2 * np.pi) ** 2 * n1 * n2)
    power.setflags(write=False)
    return power if values is not None else power[0]


def _ordinate_ratios(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """``top / bottom`` along the last axis; a zero ordinate marks a
    degenerate field, whose row of ratios becomes NaN."""
    zero = ((top == 0) | (bottom == 0)).any(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = top / bottom
    ratios[zero] = np.nan
    return ratios


def _reflection_ratios(power: np.ndarray) -> np.ndarray:
    """Stage 1's ratios I(w1, w2) / I(-w1, w2) over the quarter-plane
    k1, k2 >= 1, one row per periodogram of ``power`` (..., n1, n2); each
    reflection-tied pair is used once, the remaining quadrants being copies
    by the real-transform symmetry."""
    m1, m2 = frequency_pairs(power.shape[-2:])
    k1, k2 = np.arange(1, m1 + 1), slice(1, m2 + 1)
    rows = power.shape[:-2]
    return _ordinate_ratios(power[..., k1, k2].reshape(*rows, -1),
                            power[..., -k1, k2].reshape(*rows, -1))


def lz_diagonal_ratios(power: np.ndarray) -> np.ndarray:
    """Ratios I at index (k1,k2) over I at (k2,k1), k1 < k2, over the
    quarter-plane pairs usable for the diagonal-symmetry stage; one row
    per periodogram of a stacked ``power``.

    On a square grid the index swap is the exact frequency swap
    (w1,w2) -> (w2,w1); on a rectangular grid it is the natural
    surrogate, and only indices up to the shorter axis' limit qualify,
    which thins the set.
    """
    m = min(map(_half_count, power.shape[-2:]))
    quarter = power[..., 1:m + 1, 1:m + 1]
    i, j = np.triu_indices(m, k=1)
    return _ordinate_ratios(quarter[..., i, j], quarter[..., j, i])


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

    def rejects(self, alpha: float) -> bool:
        """The decision; only ``self.alpha``, the stages' level, is answered."""
        if alpha != self.alpha:
            raise ValueError(f"result is for alpha={self.alpha}, not {alpha}")
        return self.reject

    def to_dict(self) -> dict[str, Any]:
        """JSON-native values, method first; a stage not reached is None."""
        return {"method": "lz", **asdict(self)}


def lz_complete_test(power: np.ndarray, alpha: float = 0.05
                     ) -> SymmetryTestResult | list[SymmetryTestResult | Exception]:
    """Two-stage test of complete symmetry at overall level ``alpha``.

    Stage 1 tests reflection symmetry at alpha/2; only if it does not
    reject, stage 2 tests the diagonal symmetry at alpha/2.  Rejection
    at either stage rejects complete symmetry.

    Returns the result of an ``(n1, n2)`` periodogram, or raises its
    DegeneratePeriodogramError.  A stacked ``(R, n1, n2)`` periodogram
    (:func:`periodogram` of R fields) gives one outcome per row instead: a
    result, or the DegeneratePeriodogramError of a zero ordinate.  P-values
    only where read.
    """
    if not (0 < alpha < 1):
        raise ValueError("alpha must be in (0, 1)")
    if power.ndim not in (2, 3):
        raise ValueError(f"need an (n1, n2) or stacked (R, n1, n2) periodogram, "
                         f"not shape {power.shape}")
    stacked = power.ndim == 3
    power = power if stacked else power[None]
    m1, m2 = map(_half_count, power.shape[-2:])
    s1 = cvm_statistics(_reflection_ratios(power), f22_cdf)
    ratios = lz_diagonal_ratios(power)
    n2 = ratios.shape[-1]
    s2 = cvm_statistics(ratios, f22_cdf).tolist() if n2 else [None] * power.shape[0]
    out = []
    for w1, w2 in zip(s1.tolist(), s2):
        p1 = cvm_pvalue(w1) if w1 == w1 else None  # NaN: a degenerate field
        # stage 2 follows a stage-1 acceptance, if it has ratios (awkward grids have none)
        stage2 = p1 is not None and p1 > alpha / 2 and n2 > 0
        if p1 is None or (stage2 and w2 != w2):
            out.append(DegeneratePeriodogramError(_DEGENERATE))
            continue
        p2 = cvm_pvalue(w2) if stage2 else None
        out.append(SymmetryTestResult(
            alpha, w1, p1, w2 if stage2 else None, p2,
            bool(p1 <= alpha / 2 or (stage2 and p2 <= alpha / 2)),
            {"n_reflection_ratios": m1 * m2, "n_diagonal_ratios": 0 if p1 <= alpha / 2 else n2}))
    return each_or_one(out, stacked)
