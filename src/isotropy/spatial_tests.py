"""Quadratic-form tests of isotropy and symmetry in the spatial domain.

All three tests share one skeleton: estimate the semivariogram or
covariogram at a small lag set, estimate the variance-covariance of that
vector by spatial resampling, and compare the contrast quadratic form

    T = (A g_hat)' (A Sigma_hat A')^{-1} (A g_hat)

against a chi-square reference with df = rank(A), or against the
empirical distribution of the same statistic over subblocks (the
finite-sample adjustment, preferred for gridded data where convergence
to the chi-square is slow).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .core import (
    GRID_MATCH_TOL,
    ContrastMatrix,
    LagSet,
    SpatialDataset,
    default_contrast,
    default_lag_set,
)
from .distributions import RngStream, chi2_sf
from .estimators import (
    EstimatorConfig,
    GHat,
    KernelSpec,
    empirical_bandwidth,
    estimate_G,
)
from .resampling import (
    GbbbResult,
    Rect,
    SubsampleResult,
    WindowSpec,
    gbbb_variance,
    subsample_variance,
)

__all__ = [
    "TestResult",
    "SingularityError",
    "quadratic_form",
    "finite_sample_pvalue",
    "gsc_gridded_test",
    "gsc_nongridded_test",
    "ms_test",
    "default_grid_window",
    "default_block",
]

# Condition-number threshold beyond which the contrast covariance gets a
# small diagonal ridge before inversion.
RIDGE_CONDITION = 1e12
RIDGE_SCALE = 1e-8


class SingularityError(np.linalg.LinAlgError):
    """Contrast covariance singular beyond the ridge fallback."""


@dataclass(frozen=True)
class TestResult:
    """Outcome of a quadratic-form test.  ``diagnostics`` holds
    JSON-native values only."""

    statistic: float
    df: int
    p_value: float
    method: str
    pvalue_mode: str
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")

    def rejects(self, alpha: float) -> bool:
        return self.p_value <= alpha

    def to_dict(self) -> dict[str, Any]:
        """The result as JSON-native values, method first."""
        return {"method": self.method, **asdict(self)}


def _as_array(x, attr):
    return getattr(x, attr) if hasattr(x, attr) else np.asarray(x, dtype=float)


def _quadratic_forms(a: np.ndarray, sigma: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, bool]:
    """Quadratic forms y_i' (A S A')^{-1} y_i for rows y_i, and whether
    A S A' needed the diagonal ridge to be inverted."""
    m = a @ sigma @ a.T
    ridged = bool(np.linalg.cond(m) > RIDGE_CONDITION)
    if ridged:
        m = m + (RIDGE_SCALE * np.trace(m) / m.shape[0]) * np.eye(m.shape[0])
    try:
        sol = np.linalg.solve(m, y.T)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            "contrast covariance is singular even after ridge fallback"
        ) from exc
    return np.einsum("ij,ji->i", y, sol), ridged


def _statistic(g: np.ndarray, a: np.ndarray, sigma: np.ndarray) -> tuple[float, bool]:
    """T = (A g)' (A S A')^{-1} (A g), clamped at zero, and the ridge flag."""
    t, ridged = _quadratic_forms(a, sigma, (a @ g)[None, :])
    return max(float(t[0]), 0.0), ridged


def quadratic_form(g_hat, contrast, sigma_hat) -> float:
    """T = (A g)' (A S A')^{-1} (A g); S must already be the variance of
    the full-sample estimate."""
    a = _as_array(contrast, "matrix")
    return _statistic(_as_array(g_hat, "values"), a, _as_array(sigma_hat, "matrix"))[0]


def finite_sample_pvalue(
    full_stat: float,
    window_ghats: np.ndarray,
    g_full: np.ndarray,
    contrast,
    sigma_hat,
    window_weights: np.ndarray,
    full_weights: np.ndarray,
) -> float:
    """P-value from the empirical distribution of the statistic over
    subblocks.

    Each window's estimate vector is centered at the full-sample
    estimate (so the reference reflects the null even under anisotropy)
    and standardized per lag by sqrt(window effective sample /
    full-sample effective sample) to put its quadratic form T_k on the
    same footing as the full-sample statistic T.

    The p-value is the subsampling tail share #{k : T_k >= T} / K over
    the K usable subblocks, so ``p <= alpha`` exactly when T exceeds
    the ceil((1 - alpha) K)-th order statistic of the T_k (the
    subsampling quantile test).  The subblocks overlap and are not
    exchangeable with the full field, so T is not counted among them.
    The resolution is 1/K; p = 0 means T exceeded every subblock
    statistic.
    """
    gmat = np.asarray(window_ghats, dtype=float)
    if gmat.ndim != 2:
        raise ValueError("window estimates must be a (K, k) matrix")
    if gmat.shape[0] < 2:
        raise ValueError("finite-sample adjustment needs at least two subblocks")
    a = _as_array(contrast, "matrix")
    g0 = _as_array(g_full, "values")
    scale = np.sqrt(np.asarray(window_weights, dtype=float) / np.asarray(full_weights, dtype=float))
    y = (scale * (gmat - g0)) @ a.T
    t_k, _ = _quadratic_forms(a, _as_array(sigma_hat, "matrix"), y)
    return float(np.count_nonzero(t_k >= full_stat) / t_k.shape[0])


def default_grid_window(dataset: SpatialDataset, domain: Rect | None = None) -> WindowSpec:
    """Window for gridded data: points per window below sqrt(n), aspect
    following the domain."""
    if dataset.grid is None:
        raise ValueError("dataset has no grid structure")
    if domain is None:
        domain = Rect.from_dataset(dataset)
    s = dataset.grid.spacing
    target = np.sqrt(dataset.n)
    aspect = domain.width / domain.height
    h = max(2, int(round(np.sqrt(target / aspect))))
    w = max(2, int(target // h))
    return WindowSpec(w * s, h * s)


def default_block(
    dataset: SpatialDataset, c: float = 1.0, domain: Rect | None = None
) -> WindowSpec:
    """Window/block for non-gridded data: about ``c * sqrt(n)`` points per
    block at the observed density, aspect following the domain."""
    if domain is None:
        domain = Rect.from_dataset(dataset)
    density = dataset.n / (domain.width * domain.height)
    area = c * np.sqrt(dataset.n) / density
    aspect = domain.width / domain.height
    return WindowSpec(float(np.sqrt(area * aspect)), float(np.sqrt(area / aspect)))


def _resolve_hypothesis(dataset, lag_set, contrast):
    if lag_set is None:
        scale = dataset.grid.spacing if dataset.grid is not None else 1.0
        lag_set = default_lag_set(scale)
    if contrast is None:
        contrast = default_contrast(lag_set)
    if contrast.k != lag_set.k:
        raise ValueError(
            f"contrast matrix has {contrast.k} columns for {lag_set.k} lags"
        )
    return lag_set, contrast


def _finish(
    method: str,
    ghat: GHat,
    contrast: ContrastMatrix,
    variance: SubsampleResult | GbbbResult,
    pvalue_mode: str,
    head: dict[str, Any],
    tail: dict[str, Any],
) -> TestResult:
    """Result of a quadratic-form test with diagnostics ``head``, the ridge
    flag and g_hat, then ``tail``; finite_sample needs a moving-window variance."""
    t, ridged = _statistic(ghat.values, contrast.matrix, variance.sigma.matrix)
    if pvalue_mode in ("asymptotic", "asymptotic_chi2"):
        pvalue_mode = "asymptotic_chi2"
        p = chi2_sf(t, contrast.r)
    elif pvalue_mode == "finite_sample":
        p = finite_sample_pvalue(
            t, variance.window_ghats, ghat.values, contrast, variance.sigma,
            variance.window_weights, variance.full_weights,
        )
    else:
        raise ValueError(f"unknown p-value mode {pvalue_mode!r}")
    diagnostics = {**head, "ridge_fallback": ridged, "g_hat": ghat.values.tolist(), **tail}
    return TestResult(t, contrast.r, p, method, pvalue_mode, diagnostics)


def _window_counts(dataset: SpatialDataset, sub: SubsampleResult) -> dict[str, int]:
    return {
        "n": dataset.n,
        "n_windows": sub.n_windows,
        "n_usable_windows": int(sub.window_ghats.shape[0]),
        "n_discarded_windows": sub.n_discarded,
    }


def gsc_gridded_test(
    dataset: SpatialDataset,
    lag_set: LagSet | None = None,
    contrast: ContrastMatrix | None = None,
    window: WindowSpec | None = None,
    *,
    pvalue_mode: str = "finite_sample",
    domain: Rect | None = None,
) -> TestResult:
    """Isotropy/symmetry test for gridded data: classical semivariogram
    estimates, moving-window variance, finite-sample p-value by default."""
    if dataset.grid is None:
        raise ValueError("gridded test requires a dataset with grid structure")
    lag_set, contrast = _resolve_hypothesis(dataset, lag_set, contrast)
    if domain is None:
        domain = Rect.from_dataset(dataset)
    if window is None:
        window = default_grid_window(dataset, domain)
    ghat = estimate_G(dataset, lag_set, EstimatorConfig(),
                      tol=GRID_MATCH_TOL * dataset.grid.spacing)
    sub = subsample_variance(dataset, ghat.pairs, window, domain)
    return _finish(
        "gsc-g", ghat, contrast, sub, pvalue_mode, _window_counts(dataset, sub),
        {"window": [window.width, window.height]},
    )


def gsc_nongridded_test(
    dataset: SpatialDataset,
    lag_set: LagSet | None = None,
    contrast: ContrastMatrix | None = None,
    kernel: KernelSpec = KernelSpec("truncated_gaussian", 1.5),
    bandwidth: float = 0.75,
    window: WindowSpec | None = None,
    *,
    pvalue_mode: str | None = None,
    domain: Rect | None = None,
) -> TestResult:
    """Isotropy/symmetry test for non-gridded data: kernel semivariogram
    with the same kernel and bandwidth on the full field and on windows.

    ``pvalue_mode=None`` picks the finite-sample adjustment below n=500
    and the asymptotic chi-square otherwise.
    """
    lag_set, contrast = _resolve_hypothesis(dataset, lag_set, contrast)
    if domain is None:
        domain = Rect.from_dataset(dataset)
    if window is None:
        window = default_block(dataset, 1.0, domain)
    if pvalue_mode is None:
        pvalue_mode = "finite_sample" if dataset.n < 500 else "asymptotic"
    config = EstimatorConfig(
        kind="kernel_semivariogram", kernel=kernel, bandwidth=bandwidth
    )
    ghat = estimate_G(dataset, lag_set, config)
    sub = subsample_variance(dataset, ghat.pairs, window, domain)
    return _finish(
        "gsc-u", ghat, contrast, sub, pvalue_mode, _window_counts(dataset, sub),
        {"window": [window.width, window.height], "bandwidth": bandwidth,
         "kernel": kernel.family},
    )


def ms_test(
    dataset: SpatialDataset,
    lag_set: LagSet | None = None,
    contrast: ContrastMatrix | None = None,
    block: WindowSpec | None = None,
    n_boot: int = 100,
    tuning: float = 1.0,
    rng: RngStream = RngStream(0),
    *,
    domain: Rect | None = None,
) -> TestResult:
    """Isotropy/symmetry test from kernel covariogram estimates with a
    block-bootstrap variance; p-value always from the asymptotic
    chi-square.

    The Epanechnikov product kernel is used with the empirical bandwidth
    (``tuning`` times the median nearest-neighbor distance), computed
    once on the original dataset and reused for every bootstrap
    resample.  Resample b draws its blocks from ``rng.substream(b)``;
    the bootstrap reads the pair table of the full-sample estimate, so
    the only pair search over the whole sample is the one behind that
    estimate (see :func:`gbbb_variance`).
    """
    lag_set, contrast = _resolve_hypothesis(dataset, lag_set, contrast)
    if domain is None:
        domain = Rect.from_dataset(dataset)
    if block is None:
        block = default_block(dataset, 1.0, domain)
    bandwidth = empirical_bandwidth(dataset, tuning)
    config = EstimatorConfig(
        kind="kernel_covariogram", kernel=KernelSpec("epanechnikov"),
        bandwidth=bandwidth,
    )
    ghat = estimate_G(dataset, lag_set, config)
    boot = gbbb_variance(dataset, ghat.pairs, block, n_boot, rng, domain)
    return _finish(
        "ms", ghat, contrast, boot, "asymptotic_chi2",
        {
            "n": dataset.n,
            "n_boot": boot.n_success,
            "n_failed_resamples": boot.n_failed,
            "trim_fraction": boot.trim_fraction,
            "block": [block.width, block.height],
            "bandwidth": bandwidth,
        },
        {},
    )
