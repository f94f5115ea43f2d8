"""Acceptance suite: every criterion at its stated tolerance.

Monte Carlo criteria run the shipped study presets (fixed master seeds,
realizations shared across methods within a cell) and check empirical
rejection rates against bands of roughly +/-3 binomial standard errors
around the reference values.  Exact criteria re-verify the key algebraic
identities against independent oracles.  One summary line per criterion
is printed in the terminal summary section.

Power-ordering checks (criterion 7) are asserted on the scenario pairs
whose expected separation clearly exceeds Monte Carlo noise; pairs whose
reference gap is within noise (the spectral test at theta=0 and the
covariogram test at theta=0) are intentionally excluded.
"""

import time

import numpy as np
import pytest
from scipy import stats

from isotropy import (
    EstimatorConfig,
    ExponentialCovariance,
    GridSpec,
    GrfSampler,
    KernelSpec,
    LagSet,
    RngStream,
    SpatialDataset,
    chi2_sf,
    cvm_test,
    default_contrast,
    default_lag_set,
    estimate_G,
    periodogram,
    quadratic_form,
    uniform_locations,
)
from isotropy.study import bandwidth_study, gvl_a, gvm_a, run_power_study

from conftest import record_criterion, study_threads
from reference_estimates import dense_estimate
from test_spectral_tests import direct_sum_periodogram

THETA = 1.1780972450961724  # 3*pi/8
SQRT2 = 1.4142135623730951
XIS = (3.0, 6.0, 12.0)

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def gvl_report():
    t0 = time.perf_counter()
    report = run_power_study(gvl_a(replicates=500), threads=study_threads())
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def gvm_report():
    return run_power_study(gvm_a(replicates=200), threads=study_threads())


@pytest.fixture(scope="module")
def bw_report():
    return run_power_study(bandwidth_study(replicates=100), threads=study_threads())


def test_criterion_1_gscg_size(gvl_report):
    report, elapsed = gvl_report
    rates = [report.rate("gsc-g", 1.0, 0.0, xi) for xi in XIS]
    ok = all(0.02 <= r <= 0.12 for r in rates)
    detail = ("iso size " + "/".join(f"{r:.3f}" for r in rates)
              + f"; study wall {elapsed / 60:.1f} min on "
              + f"{study_threads()} workers")
    record_criterion(1, "gsc-g empirical size in [0.02, 0.12] per range", ok, detail)
    assert elapsed < 3600


def test_criterion_2_gscg_power(gvl_report):
    report, _ = gvl_report
    rates = [report.rate("gsc-g", 2.0, 0.0, xi) for xi in XIS]
    ok = all(r >= 0.85 for r in rates)
    record_criterion(2, "gsc-g power >= 0.85 at R=2, theta=0",
                     ok, "power " + "/".join(f"{r:.3f}" for r in rates))


def test_criterion_3_gscg_theta_effect(gvl_report):
    report, _ = gvl_report
    pairs = [(report.rate("gsc-g", 2.0, 0.0, xi),
              report.rate("gsc-g", 2.0, THETA, xi)) for xi in XIS]
    ok = all(a >= b for a, b in pairs)
    record_criterion(3, "gsc-g power(theta=0) >= power(theta=3pi/8) at R=2",
                     ok, " ".join(f"{a:.3f}>={b:.3f}" for a, b in pairs))


def test_criterion_4_lz(gvl_report):
    report, _ = gvl_report
    sizes = [report.rate("lz", 1.0, 0.0, xi) for xi in XIS]
    power = report.rate("lz", 2.0, THETA, 6.0)
    ok = all(s <= 0.10 for s in sizes) and 0.23 <= power <= 0.43
    detail = ("iso " + "/".join(f"{s:.3f}" for s in sizes)
              + f", power(2,3pi/8,6)={power:.3f}")
    record_criterion(4, "lz size <= 0.10 and power in [0.23, 0.43]", ok, detail)


def test_criterion_5_gscu_vs_ms(gvm_report):
    u_sizes = [gvm_report.rate("gsc-u", 1.0, 0.0, xi) for xi in XIS]
    u_power = gvm_report.rate("gsc-u", 2.0, 0.0, 6.0)
    ms_sizes = [gvm_report.rate("ms", 1.0, 0.0, xi) for xi in XIS]
    ms_power = gvm_report.rate("ms", 2.0, 0.0, 6.0)
    ok = (all(s <= 0.10 for s in u_sizes)
          and 0.42 <= u_power <= 0.72
          and 0.01 <= ms_sizes[1] <= 0.10
          and all(s <= 0.10 for s in ms_sizes)
          and 0.08 <= ms_power <= 0.26)
    detail = ("gsc-u size " + "/".join(f"{s:.3f}" for s in u_sizes)
              + f" power {u_power:.3f}; ms size "
              + "/".join(f"{s:.3f}" for s in ms_sizes) + f" power {ms_power:.3f}")
    record_criterion(5, "gsc-u/ms size and power bands (n=300 uniform)", ok, detail)


def test_criterion_6_bandwidth_sensitivity(bw_report):
    small = [bw_report.rate("gsc-u-w0.65", 1.0, 0.0, xi) for xi in XIS]
    large12 = bw_report.rate("gsc-u-w0.85", 1.0, 0.0, 12.0)
    ok = all(s <= 0.03 for s in small) and large12 >= 0.08
    detail = ("w=0.65 size " + "/".join(f"{s:.3f}" for s in small)
              + f"; w=0.85 xi=12 size {large12:.3f}")
    record_criterion(6, "bandwidth deflates size at 0.65, inflates at 0.85",
                     ok, detail)


def test_criterion_7_power_monotone_in_R(gvl_report, gvm_report):
    report, _ = gvl_report
    pairs = []
    for xi in XIS:
        for theta in (0.0, THETA):
            pairs.append(("gsc-g", report.rate("gsc-g", 2.0, theta, xi),
                          report.rate("gsc-g", SQRT2, theta, xi)))
            pairs.append(("gsc-u", gvm_report.rate("gsc-u", 2.0, theta, xi),
                          gvm_report.rate("gsc-u", SQRT2, theta, xi)))
        pairs.append(("lz", report.rate("lz", 2.0, THETA, xi),
                      report.rate("lz", SQRT2, THETA, xi)))
        pairs.append(("ms", gvm_report.rate("ms", 2.0, THETA, xi),
                      gvm_report.rate("ms", SQRT2, THETA, xi)))
    ok = all(hi > lo for _, hi, lo in pairs)
    worst = min(pairs, key=lambda p: p[1] - p[2])
    record_criterion(7, "power strictly increases from R=sqrt(2) to R=2",
                     ok, f"{len(pairs)} pairs, tightest {worst[0]} "
                         f"{worst[1]:.3f}>{worst[2]:.3f}")


def test_criterion_8_exact_invariants():
    checks = []
    # quadratic-form scale invariance
    gen = RngStream(808).generator()
    g = gen.random(4)
    a = default_contrast(default_lag_set()).matrix
    s = gen.random((4, 4))
    s = s @ s.T + np.eye(4)
    t0 = quadratic_form(g, a, s)
    t1 = quadratic_form(2.6**2 * g, a, 2.6**4 * s)
    checks.append(abs(t1 - t0) / t0 <= 1e-8)
    # periodogram invariants on a simulated field
    grid = GridSpec(18, 12)
    cov = ExponentialCovariance.from_effective_range(6.0)
    ds = GrfSampler(grid.locations(), cov).draw(RngStream(809), grid=grid)
    pg = periodogram(ds)
    ssd = np.sum((ds.values - ds.values.mean()) ** 2)
    checks.append(abs(pg.sum() * (2 * np.pi) ** 2 - ssd) / ssd <= 1e-8)
    sym = max(abs(pg[k1 % 18, k2 % 12] - pg[(-k1) % 18, (-k2) % 12])
              for k1, k2 in [(1, 1), (5, -3), (8, 4), (-2, 5)])
    checks.append(sym <= 1e-10)
    # DFT periodogram equals the direct lag-domain sum on small grids
    for dims in ((12, 12), (9, 7)):
        small = GridSpec(*dims)
        dsm = GrfSampler(small.locations(), cov).draw(RngStream(810 + dims[0]), grid=small)
        checks.append(np.max(np.abs(periodogram(dsm)
                                    - direct_sum_periodogram(dsm))) <= 1e-8)
    # kernel estimators equal the brute-force oracle
    locs = uniform_locations(50, 6.0, 5.0, RngStream(811))
    dsk = SpatialDataset(locs, RngStream(812).generator().standard_normal(50))
    lags = LagSet([(1.0, 0.0), (-1.0, 1.0)])
    for kern in (KernelSpec("epanechnikov"), KernelSpec("truncated_gaussian", 1.5)):
        for kind in ("kernel_semivariogram", "kernel_covariogram"):
            config = EstimatorConfig(kind, kern, 0.8)
            got, want = estimate_G(dsk, lags, config)[0], dense_estimate(dsk, lags.lags, config)[0]
            checks.extend(np.abs(got - want) <= 1e-10)
    # classical hand examples
    hand = SpatialDataset([(0, 0), (1, 0), (0, 1), (1, 1)], [1.0, 2.0, 3.0, 5.0],
                          grid=GridSpec(2, 2))
    checks.extend(estimate_G(hand, LagSet([(1, 0), (1, 1)]), EstimatorConfig())[0] == [1.25, 8.0])
    record_criterion(8, "exact algebraic invariants vs independent oracles",
                     all(checks), f"{sum(checks)}/{len(checks)} checks")


def test_criterion_9_distribution_calibration():
    gen = RngStream(813).generator()
    pvals = [cvm_test(gen.random(50), lambda v: np.clip(v, 0, 1))[1]
             for _ in range(1000)]
    ks = stats.kstest(pvals, "uniform")
    chi_dev = max(abs(chi2_sf(x, 2) - np.exp(-x / 2))
                  for x in np.linspace(0.0, 50.0, 401))
    ok = ks.pvalue > 0.01 and chi_dev <= 1e-12
    record_criterion(9, "CvM null p-values uniform; chi-square df=2 closed form",
                     ok, f"KS p={ks.pvalue:.3f}, max chi2 dev={chi_dev:.1e}")


def test_criterion_10_study_determinism():
    cfg = gvm_a(replicates=4)
    a = run_power_study(cfg, threads=1).to_csv()
    b = run_power_study(cfg, threads=2).to_csv()
    c = run_power_study(cfg, threads=1).to_csv()
    ok = a == b == c
    record_criterion(10, "study reports byte-identical across reruns and threads",
                     ok, f"{len(a)} bytes")
