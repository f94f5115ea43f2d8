"""Probability utilities: tail probabilities, the F(2,2) law, the one-sample
Cramér-von Mises test, and reproducible random-number streams."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "RngStream",
    "mix64",
    "chi2_sf",
    "f22_cdf",
    "cvm_pvalue",
    "cvm_test",
    "cvm_statistics",
]

_MASK64 = (1 << 64) - 1

# Smallest p-value reported by cvm_test; the asymptotic series loses
# accuracy deeper in the tail.
CVM_PVALUE_FLOOR = 1e-6


def mix64(*parts: int) -> int:
    """Mix integers into a single 64-bit value (splitmix64 finalizer chain).

    Deterministic across platforms and Python versions; used to derive
    stream ids for replicate/bootstrap substreams.
    """
    acc = 0x9E3779B97F4A7C15
    for p in parts:
        acc = (acc ^ (p & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        acc = (acc ^ (acc >> 30)) * 0x94D049BB133111EB & _MASK64
        acc = acc ^ (acc >> 27)
    return acc & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream addressed by ``(seed, stream_id)``.

    Identical pairs reproduce identical draw sequences; distinct
    ``stream_id`` values give statistically independent streams, so
    replicates can run in parallel in any order.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, *indices: int) -> "RngStream":
        """Derive an independent child stream for the given index path."""
        return RngStream(self.seed, mix64(self.stream_id, *indices))


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail probability P(chi2_df > x).

    Closed form for integer ``df = 2k`` or ``2k + 1``: with ``h = x / 2``,
    ``exp(-h) * sum_{i<k} h^i / i!`` and
    ``erfc(sqrt(h)) + sqrt(2x/pi) * exp(-h) * sum_{i<k} x^i / (1*3*...*(2i+1))``.
    Every term is positive, so the sum keeps its relative accuracy.
    """
    if x < 0:
        raise ValueError(f"chi-square statistic must be nonnegative, got {x}")
    if df < 1 or df != int(df):
        raise ValueError("degrees of freedom must be a positive integer")
    x = float(x)
    if x == math.inf:
        return 0.0
    half = x / 2
    k, odd = divmod(int(df), 2)
    # the sum over i < k, each term from the one before
    term, total = 1.0, float(k > 0)
    for i in range(1, k):
        term *= x / (2 * i + 1) if odd else half / i
        total += term
    if odd:
        return math.erfc(math.sqrt(half)) + math.sqrt(2 * x / math.pi) * math.exp(-half) * total
    return math.exp(-half) * total


def f22_cdf(x):
    """CDF of the F(2,2) distribution, P(F <= x) = x / (1 + x)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("F ratio must be nonnegative")
    out = x / (1.0 + x)
    return float(out) if out.ndim == 0 else out


# The limiting CvM null distribution by its Bessel-function series
# (Anderson-Darling 1952, eq. 1.3).  With y = 4k + 1 and q = y^2 / (16x),
# term k is exp(log G(k+1/2) - log G(k+1) + log(y)/2 - 2q) * kve(1/4, q), and
# kve(1/4, q) = int_0^inf exp(-q (cosh t - 1)) cosh(t/4) dt, by the trapezoid
# rule on t = 0, 0.05, ..., 12.95: at q = 1/192, the smallest met (x = 12),
# the integrand is below e^-745 past t = 12.6.  Terms decay like
# exp(-y^2 / (8x)); a sum stops at the first below e^-40, 17 terms at x = 12.
_CVM_Y2 = (4.0 * np.arange(17) + 1) ** 2
_CVM_LOGC = np.array([math.lgamma(k + 0.5) - math.lgamma(k + 1) + 0.5 * math.log(4 * k + 1)
                      for k in range(17)])
_CVM_T = np.arange(260) * 0.05
_CVM_COSH1 = np.cosh(_CVM_T) + 1  # the -2q folded into the integrand's exponent
_CVM_W = np.where(_CVM_T > 0, 0.05, 0.025) * np.cosh(_CVM_T / 4)  # trapezoid weights


def _cvm_limit_cdf(x: float) -> float:
    if x <= 0:
        return 0.0
    if x > 12:
        return 1.0
    m = 1 + np.count_nonzero(_CVM_Y2 < 320 * x)
    q = _CVM_Y2[:m] / (16.0 * x)
    terms = np.exp(_CVM_LOGC[:m, None] - np.outer(q, _CVM_COSH1)) @ _CVM_W
    return min(1.0, terms.sum() / (math.pi ** 1.5 * math.sqrt(x)))


def cvm_pvalue(statistic: float) -> float:
    """Asymptotic p-value for the one-sample CvM statistic.

    Values below 1e-6 are clamped to 1e-6 (with a warning): the series
    expansion is not reliable that deep in the tail.  A NaN statistic
    (from a sample holding NaN) raises ValueError.
    """
    if statistic != statistic:
        raise ValueError("CvM statistic is NaN")
    p = 1.0 - _cvm_limit_cdf(statistic)
    if p < CVM_PVALUE_FLOOR:
        warnings.warn(
            f"CvM p-value clamped to {CVM_PVALUE_FLOOR:g} (statistic {statistic:g})",
            RuntimeWarning,
            stacklevel=2,
        )
        return CVM_PVALUE_FLOOR
    return p


def cvm_test(
    sample: Iterable[float], cdf: Callable[[np.ndarray], np.ndarray]
) -> tuple[float, float]:
    """One-sample Cramér-von Mises goodness-of-fit test.

    Parameters
    ----------
    sample : array-like
        Observed values (any order).
    cdf : callable
        Hypothesized distribution function, applied elementwise.

    Returns
    -------
    (statistic, p_value)
    """
    w = cvm_statistics(np.asarray(list(sample), dtype=float), cdf)
    return w, cvm_pvalue(w)


def cvm_statistics(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]):
    """The CvM statistic of each row of ``samples`` (..., m) under ``cdf``, a
    float for one sample; NaN for a row holding NaN.  Computational form
    1/(12m) + sum_i (u_(i) - (2i - 1)/(2m))^2 over the sorted transforms u_(i);
    rows are summed C-contiguous, so each gets the bits of a lone sample."""
    x = np.sort(np.ascontiguousarray(samples), axis=-1)
    if x.shape[-1] == 0:
        raise ValueError("CvM test requires a nonempty sample")
    u = np.asarray(cdf(x), dtype=float)
    if np.any(u < -1e-12) or np.any(u > 1 + 1e-12):
        raise ValueError("cdf returned values outside [0, 1]")
    u = np.clip(u, 0.0, 1.0)
    # cdf may be non-monotone only through float noise; keep order consistent
    u.sort(axis=-1)
    n = u.shape[-1]
    i = np.arange(1, n + 1)
    w = 1.0 / (12 * n) + np.sum((u - (2 * i - 1) / (2 * n)) ** 2, axis=-1)
    return float(w) if w.ndim == 0 else w
