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

from contextlib import suppress
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .core import (
    ContrastMatrix,
    LagSet,
    SpatialDataset,
    default_contrast,
    default_lag_set,
    each_or_one,
)
from .distributions import RngStream, chi2_sf
from .estimators import (
    EstimatorConfig,
    KernelSpec,
    empirical_bandwidth,
    estimate_G,
)
from .resampling import (
    GbbbResult,
    Rect,
    ResamplingError,
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

# P-value modes of the moving-window tests; a result labels the first
# "asymptotic_chi2".
PVALUE_MODES = ("asymptotic", "finite_sample")

# Condition-number threshold beyond which the contrast covariance gets a
# small diagonal ridge before inversion.
RIDGE_CONDITION = 1e12
RIDGE_SCALE = 1e-8
_SINGULAR = "contrast covariance is singular even after ridge fallback"


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


def _quadratic_forms(a: np.ndarray, sigma: np.ndarray, y: np.ndarray):
    """Quadratic forms y_i' (A S A')^{-1} y_i for the rows y_i of ``y`` (..., K, r),
    one S per leading index of ``sigma`` (..., k, k), and whether each A S A'
    needed the diagonal ridge; NaN forms where one of a stack stays singular."""
    m = a @ sigma @ a.T
    ridged = np.linalg.cond(m) > RIDGE_CONDITION
    if ridged.any():
        ridge = RIDGE_SCALE * np.trace(m, axis1=-2, axis2=-1)[ridged] / m.shape[-1]
        m[ridged] += ridge[:, None, None] * np.eye(m.shape[-1])
    rhs = np.swapaxes(y, -1, -2)
    try:
        sol = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        if m.ndim == 2:
            raise SingularityError(_SINGULAR) from exc
        sol = np.full(rhs.shape, np.nan)
        for row in np.ndindex(m.shape[:-2]):  # a singular row fails alone
            with suppress(np.linalg.LinAlgError):
                sol[row] = np.linalg.solve(m[row], rhs[row])
    return np.einsum("...ij,...ji->...i", y, sol), ridged


def _statistics(g: np.ndarray, a: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T = (A g)' (A S A')^{-1} (A g) per row of ``g``, clamped at zero, and the ridge flags."""
    t, ridged = _quadratic_forms(a, sigma, np.swapaxes(a @ g[..., None], -1, -2))
    return np.where(t[..., 0] < 0, 0.0, t[..., 0]), ridged


def quadratic_form(g_hat: np.ndarray, contrast: np.ndarray, sigma_hat: np.ndarray) -> float:
    """T = (A g)' (A S A')^{-1} (A g) from arrays g, A and S; S must
    already be the variance of the full-sample estimate."""
    return float(_statistics(np.asarray(g_hat, dtype=float), np.asarray(contrast, dtype=float),
                             np.asarray(sigma_hat, dtype=float))[0])


def finite_sample_pvalue(
    full_stat: float,
    window_ghats: np.ndarray,
    g_full: np.ndarray,
    contrast: np.ndarray,
    sigma_hat: np.ndarray,
    scale: np.ndarray,
) -> float:
    """P-value from the empirical distribution of the statistic over
    subblocks.

    Each window's estimate vector is centered at the full-sample
    estimate (so the reference reflects the null even under anisotropy)
    and standardized per lag by ``scale``, sqrt(window effective sample /
    full-sample effective sample) as :func:`subsample_variance` forms it,
    to put its quadratic form T_k on the same footing as the full-sample
    statistic T.

    The p-value is the subsampling tail share #{k : T_k >= T} / K over
    the K usable subblocks, so ``p <= alpha`` exactly when T exceeds
    the ceil((1 - alpha) K)-th order statistic of the T_k (the
    subsampling quantile test).  The subblocks overlap and are not
    exchangeable with the full field, so T is not counted among them.
    The resolution is 1/K; p = 0 means T exceeded every subblock
    statistic.  A leading replicate axis on every argument but the
    contrast and the scale gives one p-value per replicate.
    """
    gmat = np.asarray(window_ghats, dtype=float)
    if gmat.ndim < 2:
        raise ValueError("window estimates must be a (K, k) matrix")
    if gmat.shape[-2] < 2:
        raise ValueError("finite-sample adjustment needs at least two subblocks")
    a, scale = np.asarray(contrast, dtype=float), np.asarray(scale, dtype=float)
    y = (scale * (gmat - np.asarray(g_full, dtype=float)[..., None, :])) @ a.T
    t_k, _ = _quadratic_forms(a, np.asarray(sigma_hat, dtype=float), y)
    p = np.count_nonzero(t_k >= np.asarray(full_stat)[..., None], axis=-1) / t_k.shape[-1]
    return float(p) if p.ndim == 0 else p


def default_grid_window(dataset: SpatialDataset, domain: Rect) -> WindowSpec:
    """Window for gridded data: points per window below sqrt(n), aspect
    following the domain."""
    if dataset.grid is None:
        raise ValueError("dataset has no grid structure")
    s = dataset.grid.spacing
    target = np.sqrt(dataset.n)
    aspect = domain.width / domain.height
    h = max(2, int(round(np.sqrt(target / aspect))))
    w = max(2, int(target // h))
    return WindowSpec(w * s, h * s)


def default_block(dataset: SpatialDataset, domain: Rect) -> WindowSpec:
    """Window/block for non-gridded data: about ``sqrt(n)`` points per
    block at the observed density, aspect following the domain."""
    density = dataset.n / (domain.width * domain.height)
    area = np.sqrt(dataset.n) / density
    aspect = domain.width / domain.height
    return WindowSpec(float(np.sqrt(area * aspect)), float(np.sqrt(area / aspect)))


def _resolve_hypothesis(dataset, values, lag_set, contrast, domain, window, default_window):
    """The checked ``(R, n)`` values (:meth:`SpatialDataset.value_rows`), lag set, contrast,
    domain and window or block of a test on ``dataset``, each but values defaulted from it."""
    values = dataset.value_rows(values)
    if lag_set is None:
        lag_set = default_lag_set(grid=dataset.grid)
    if contrast is None:
        contrast = default_contrast(lag_set)
    if contrast.k != lag_set.k:
        raise ValueError(
            f"contrast matrix has {contrast.k} columns for {lag_set.k} lags"
        )
    if domain is None:
        domain = Rect.from_dataset(dataset)
    if window is None:
        window = default_window(dataset, domain)
    return values, lag_set, contrast, domain, window


def _finish(method: str, g: np.ndarray, contrast: ContrastMatrix,
            variance: SubsampleResult | GbbbResult, pvalue_mode: str, head: dict[str, Any],
            tail: dict[str, Any]) -> list[TestResult | SingularityError]:
    """Per row of the estimates ``g`` (R, k), a result with diagnostics ``head``,
    the ridge flag and g_hat, then ``tail``, or the SingularityError of a row
    whose contrast covariance stays singular; finite_sample needs moving windows."""
    a, sigma = contrast.matrix, np.broadcast_to(variance.sigma, (*g.shape, g.shape[-1]))
    t, ridged = _statistics(g, a, sigma)
    if pvalue_mode == "asymptotic":
        pvalue_mode = "asymptotic_chi2"
        p = [chi2_sf(x, contrast.r) for x in t]
    elif pvalue_mode == "finite_sample":
        p = finite_sample_pvalue(t, variance.window_ghats, g, a, sigma, variance.scale)
    else:
        raise ValueError(f"unknown p-value mode {pvalue_mode!r}")
    return [SingularityError(_SINGULAR) if np.isnan(t_r) else TestResult(
        float(t_r), contrast.r, float(p_r), method, pvalue_mode,
        {**head, "ridge_fallback": bool(ridged_r), "g_hat": g_r.tolist(), **tail})
        for t_r, p_r, ridged_r, g_r in zip(t, p, ridged, g)]


def _moving_window_tests(method, dataset, values, lag_set, contrast, config, window,
                         pvalue_mode, domain, tail) -> list[TestResult | SingularityError]:
    """A moving-window test on every row of the checked ``(R, n)`` ``values``
    on ``dataset``'s locations, its window first in the diagnostics ``tail``."""
    g, _, table = estimate_G(dataset, lag_set, config, values)
    sub = subsample_variance(dataset, table, window, domain)
    usable = sub.window_ghats.shape[-2]
    counts = {"n": dataset.n, "n_windows": sub.n_windows, "n_usable_windows": usable,
              "n_discarded_windows": sub.n_windows - usable}
    return _finish(method, g, contrast, sub, pvalue_mode, counts,
                   {"window": [window.width, window.height], **tail})


def gsc_gridded_test(dataset: SpatialDataset, lag_set: LagSet | None = None,
                     contrast: ContrastMatrix | None = None, window: WindowSpec | None = None,
                     *, pvalue_mode: str | None = None, domain: Rect | None = None,
                     values=None) -> TestResult | list[TestResult | Exception]:
    """Isotropy/symmetry test for gridded data: classical semivariogram
    estimates, moving-window variance, and the finite-sample p-value unless
    ``pvalue_mode`` is given.

    Returns the dataset's result, or raises its failure.  ``values`` (R, n),
    R fields on ``dataset``'s locations, give one outcome per row instead: a
    result, or the SingularityError of a singular contrast covariance.
    """
    if dataset.grid is None:
        raise ValueError("gridded test requires a dataset with grid structure")
    rows, lag_set, contrast, domain, window = _resolve_hypothesis(
        dataset, values, lag_set, contrast, domain, window, default_grid_window)
    if pvalue_mode is None:
        pvalue_mode = "finite_sample"
    return each_or_one(_moving_window_tests(
        "gsc-g", dataset, rows, lag_set, contrast, EstimatorConfig(), window, pvalue_mode,
        domain, {}), values is not None)


def gsc_nongridded_test(dataset: SpatialDataset, lag_set: LagSet | None = None,
                        contrast: ContrastMatrix | None = None,
                        kernel: KernelSpec = KernelSpec("truncated_gaussian", 1.5),
                        bandwidth: float = 0.75, window: WindowSpec | None = None, *,
                        pvalue_mode: str | None = None, domain: Rect | None = None,
                        values=None) -> TestResult | list[TestResult | Exception]:
    """Isotropy/symmetry test for non-gridded data: kernel semivariogram
    with the same kernel and bandwidth on the full field and on windows.

    ``pvalue_mode=None`` picks the finite-sample adjustment below n=500
    and the asymptotic chi-square otherwise.  ``values`` as
    :func:`gsc_gridded_test` reads them.
    """
    rows, lag_set, contrast, domain, window = _resolve_hypothesis(
        dataset, values, lag_set, contrast, domain, window, default_block)
    if pvalue_mode is None:
        pvalue_mode = "finite_sample" if dataset.n < 500 else "asymptotic"
    config = EstimatorConfig("kernel_semivariogram", kernel, bandwidth)
    return each_or_one(_moving_window_tests(
        "gsc-u", dataset, rows, lag_set, contrast, config, window, pvalue_mode, domain,
        {"bandwidth": bandwidth, "kernel": kernel.family}), values is not None)


def ms_test(dataset: SpatialDataset, lag_set: LagSet | None = None,
            contrast: ContrastMatrix | None = None, block: WindowSpec | None = None,
            n_boot: int = 100, tuning: float = 1.0, rng: RngStream = RngStream(0), *,
            domain: Rect | None = None,
            values=None) -> TestResult | list[TestResult | Exception]:
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

    ``values`` as :func:`gsc_gridded_test` reads them, with ``rng`` one
    stream per row; a row's failure is the ResamplingError of too many
    failed resamples or the SingularityError of a singular contrast
    covariance.
    """
    rows, lag_set, contrast, domain, block = _resolve_hypothesis(
        dataset, values, lag_set, contrast, domain, block, default_block)
    rngs = [rng] if isinstance(rng, RngStream) else list(rng)
    if len(rngs) != len(rows):
        raise ValueError(f"{len(rows)} rows of values but {len(rngs)} random streams")
    bandwidth = empirical_bandwidth(dataset, tuning)
    config = EstimatorConfig("kernel_covariogram", KernelSpec("epanechnikov"), bandwidth)
    out = []
    for row, stream in zip(rows, rngs):
        g, _, table = estimate_G(dataset, lag_set, config, row)
        try:
            boot = gbbb_variance(dataset, table, block, n_boot, stream, domain)
        except ResamplingError as exc:
            out.append(exc)
            continue
        out += _finish("ms", g[None], contrast, boot, "asymptotic", {
            "n": dataset.n,
            "n_boot": boot.n_success,
            "n_failed_resamples": boot.n_failed,
            "trim_fraction": boot.trim_fraction,
            "block": [block.width, block.height],
            "bandwidth": bandwidth,
        }, {})
    return each_or_one(out, values is not None)
