import numpy as np
import pytest

from isotropy import (
    EstimatorConfig,
    GridSpec,
    KernelSpec,
    LagSet,
    RngStream,
    SpatialDataset,
    classical_semivariogram,
    default_lag_set,
    empirical_bandwidth,
    estimate_G,
    kernel_covariogram,
    kernel_semivariogram,
    uniform_locations,
)
from isotropy.estimators import EmptyNeighborhoodError, NoPairsError, pair_table


def brute_kernel(ds, lag, kernel, bw, kind):
    """Slow independent oracle over all ordered pairs."""
    def k1d(u):
        if kernel.family == "epanechnikov":
            return 0.75 * (1 - u * u) if abs(u) <= 1 else 0.0
        return np.exp(-0.5 * u * u) if abs(u) <= kernel.truncation else 0.0

    vals = ds.values - ds.values.mean() if kind == "cov" else ds.values
    num = den = 0.0
    for i in range(ds.n):
        for j in range(ds.n):
            if i == j and kind != "cov":
                continue
            w = (k1d((ds.locations[j, 0] - ds.locations[i, 0] - lag[0]) / bw)
                 * k1d((ds.locations[j, 1] - ds.locations[i, 1] - lag[1]) / bw))
            if w == 0:
                continue
            resp = ((vals[i] - vals[j]) ** 2 / 2 if kind != "cov"
                    else vals[i] * vals[j])
            num += w * resp
            den += w
    return num / den


@pytest.fixture
def scattered_50():
    locs = uniform_locations(50, 6.0, 5.0, RngStream(88, 0))
    gen = RngStream(88, 1).generator()
    return SpatialDataset(locs, gen.standard_normal(50))


class TestClassical:
    def test_hand_example_horizontal(self, grid_2x2):
        assert classical_semivariogram(grid_2x2, (1, 0)) == 1.25

    def test_hand_example_diagonal(self, grid_2x2):
        assert classical_semivariogram(grid_2x2, (1, 1)) == 8.0

    def test_constant_field(self):
        g = GridSpec(4, 4)
        ds = SpatialDataset(g.locations(), np.full(16, 3.3), grid=g)
        for lag in default_lag_set():
            assert classical_semivariogram(ds, lag) == 0.0

    def test_symmetric_in_lag_sign(self, random_field_18x12):
        for lag in [(1, 0), (2, 1), (-1, 3)]:
            a = classical_semivariogram(random_field_18x12, lag)
            b = classical_semivariogram(random_field_18x12, (-lag[0], -lag[1]))
            assert a == pytest.approx(b, rel=1e-12)

    def test_no_pairs_error_names_lag(self, grid_2x2):
        with pytest.raises(NoPairsError, match="7"):
            classical_semivariogram(grid_2x2, (7, 0))


class TestKernelEstimators:
    def test_small_bandwidth_recovers_classical(self, grid_2x2):
        got = kernel_semivariogram(grid_2x2, (1, 0), KernelSpec("epanechnikov"), 1e-6)
        assert got == pytest.approx(1.25, abs=1e-12)

    def test_constant_field_zero(self):
        g = GridSpec(5, 4)
        ds = SpatialDataset(g.locations(), np.full(20, 2.0), grid=g)
        assert kernel_semivariogram(ds, (1, 0), bandwidth=0.8) == 0.0
        assert kernel_covariogram(ds, (1, 0), bandwidth=0.8) == pytest.approx(0.0, abs=1e-30)

    def test_covariogram_at_zero_lag_is_variance(self, scattered_50):
        got = kernel_covariogram(scattered_50, (0, 0), KernelSpec("epanechnikov"), 1e-6)
        assert got == pytest.approx(scattered_50.values.var(), rel=1e-12)

    @pytest.mark.parametrize("kernel", [KernelSpec("epanechnikov"),
                                        KernelSpec("truncated_gaussian", 1.5)])
    @pytest.mark.parametrize("lag", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 1.0)])
    def test_matches_brute_force_oracle(self, scattered_50, kernel, lag):
        for bw in (0.5, 0.9):
            a = kernel_semivariogram(scattered_50, lag, kernel, bw)
            b = brute_kernel(scattered_50, lag, kernel, bw, "semi")
            assert a == pytest.approx(b, abs=1e-10)
            c = kernel_covariogram(scattered_50, lag, kernel, bw)
            d = brute_kernel(scattered_50, lag, kernel, bw, "cov")
            assert c == pytest.approx(d, abs=1e-10)

    def test_lag_sign_symmetry(self, scattered_50):
        a = kernel_semivariogram(scattered_50, (0.7, -0.2), bandwidth=0.6)
        b = kernel_semivariogram(scattered_50, (-0.7, 0.2), bandwidth=0.6)
        assert a == pytest.approx(b, rel=1e-12)

    def test_zero_weight_raises(self, grid_2x2):
        with pytest.raises(EmptyNeighborhoodError, match="bandwidth"):
            kernel_semivariogram(grid_2x2, (0.5, 0.5), KernelSpec("epanechnikov"), 0.05)

    def test_kernel_supports(self):
        epa = KernelSpec("epanechnikov")
        assert epa.weight(np.array([-1.01, 1.01])).tolist() == [0.0, 0.0]
        assert epa.weight(0.0) == 0.75
        tg = KernelSpec("truncated_gaussian", 1.5)
        assert tg.weight(np.array([-1.51, 1.51])).tolist() == [0.0, 0.0]
        assert tg.weight(1.49) > 0
        assert tg.weight(0.0) == 1.0


class TestInvariances:
    def test_value_scaling_is_quadratic(self, scattered_50, random_field_18x12):
        c = 3.7
        scaled = SpatialDataset(scattered_50.locations, c * scattered_50.values)
        grid_scaled = SpatialDataset(
            random_field_18x12.locations, c * random_field_18x12.values,
            grid=random_field_18x12.grid)
        for lag in [(1, 0), (1, 1)]:
            assert classical_semivariogram(grid_scaled, lag) == pytest.approx(
                c**2 * classical_semivariogram(random_field_18x12, lag), rel=1e-12)
            assert kernel_semivariogram(scaled, lag, bandwidth=0.7) == pytest.approx(
                c**2 * kernel_semivariogram(scattered_50, lag, bandwidth=0.7), rel=1e-12)
            assert kernel_covariogram(scaled, lag, bandwidth=0.7) == pytest.approx(
                c**2 * kernel_covariogram(scattered_50, lag, bandwidth=0.7), rel=1e-12)

    def test_value_translation_invariance(self, scattered_50):
        shifted = SpatialDataset(scattered_50.locations, scattered_50.values + 11.0)
        for lag in [(1, 0), (1, 1)]:
            assert kernel_semivariogram(shifted, lag, bandwidth=0.7) == pytest.approx(
                kernel_semivariogram(scattered_50, lag, bandwidth=0.7), rel=1e-12)
            assert kernel_covariogram(shifted, lag, bandwidth=0.7) == pytest.approx(
                kernel_covariogram(scattered_50, lag, bandwidth=0.7), abs=1e-12)


class TestEmpiricalBandwidth:
    def test_unit_grid(self):
        g = GridSpec(5, 5)
        ds = SpatialDataset(g.locations(), np.zeros(25), grid=g)
        assert empirical_bandwidth(ds) == 1.0
        assert empirical_bandwidth(ds, tuning=2.0) == 2.0

    def test_tuning_linearity(self, scattered_50):
        assert empirical_bandwidth(scattered_50, 2.0) == pytest.approx(
            2 * empirical_bandwidth(scattered_50, 1.0), rel=1e-15)

    def test_matches_brute_force_median_nn(self):
        locs = uniform_locations(300, 16.0, 10.0, RngStream(21, 0))
        ds = SpatialDataset(locs, np.zeros(300))
        nn = []
        for i in range(300):
            d = np.hypot(locs[:, 0] - locs[i, 0], locs[:, 1] - locs[i, 1])
            d[i] = np.inf
            nn.append(d.min())
        assert empirical_bandwidth(ds) == pytest.approx(np.median(nn), rel=1e-12)
        # Poisson nearest-neighbor median at this density is near 0.34
        assert 0.25 <= empirical_bandwidth(ds) <= 0.45


class TestEstimateG:
    def test_classical_order(self, grid_2x2):
        ghat = estimate_G(grid_2x2, LagSet([(1, 0), (1, 1)]), EstimatorConfig())
        assert ghat.values.tolist() == [1.25, 8.0]
        assert ghat.weights.tolist() == [2.0, 1.0]

    def test_isotropy_balance_at_matched_norms(self):
        # on an isotropic field, estimates at (1,0) and (0,1) agree within noise
        g = GridSpec(40, 40)
        from isotropy import ExponentialCovariance, simulate_grf

        cov = ExponentialCovariance.from_effective_range(4.0)
        ds = simulate_grf(g.locations(), cov, rng=RngStream(14, 0), grid=g)
        ghat = estimate_G(ds, default_lag_set(), EstimatorConfig())
        assert abs(ghat.values[0] - ghat.values[1]) < 0.25
        assert abs(ghat.values[2] - ghat.values[3]) < 0.25

    def test_deterministic(self, scattered_50):
        cfg = EstimatorConfig("kernel_semivariogram", KernelSpec("epanechnikov"), 0.8)
        a = estimate_G(scattered_50, default_lag_set(), cfg)
        b = estimate_G(scattered_50, default_lag_set(), cfg)
        assert np.array_equal(a.values, b.values)

    def test_error_carries_lag_identity(self, grid_2x2):
        with pytest.raises(NoPairsError, match=r"\(9.0, 0.0\)"):
            estimate_G(grid_2x2, LagSet([(9.0, 0.0), (0.0, 1.0)]), EstimatorConfig())

    def test_kernel_needs_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            EstimatorConfig("kernel_semivariogram", bandwidth=None)


SUBSET_CASES = {
    "classical": EstimatorConfig(),
    "kernel-semivariogram": EstimatorConfig(
        "kernel_semivariogram", KernelSpec("truncated_gaussian", 1.5), 0.75),
    "kernel-covariogram": EstimatorConfig(
        "kernel_covariogram", KernelSpec("epanechnikov"), 0.6),
    # bandwidth 1.5 gives the self-pairs positive weight at every lag
    "covariogram-self-pairs": EstimatorConfig(
        "kernel_covariogram", KernelSpec("epanechnikov"), 1.5),
}


class TestSubsetEstimates:
    """The finishing step that moving windows and bootstrap resamples
    share, applied to the whole sample as one subset, gives the
    full-sample estimate."""

    @pytest.mark.parametrize("case", sorted(SUBSET_CASES))
    def test_whole_sample_is_one_subset(self, case, random_field_18x12):
        cfg = SUBSET_CASES[case]
        if cfg.kind == "classical_semivariogram":
            ds = random_field_18x12
        else:
            locs = uniform_locations(200, 12.0, 8.0, RngStream(89, 0))
            ds = SpatialDataset(locs, 3.0 + RngStream(89, 1).generator().standard_normal(200))
        table = pair_table(ds, default_lag_set(), cfg)
        if case == "covariogram-self-pairs":
            assert np.all(table.self_weights > 0)
        k = table.lags.shape[0]
        cols = table.columns(table.w, table.values[table.i], table.values[table.j])
        sums = np.stack([np.bincount(table.lag, c, minlength=k) for c in cols])[:, None, :]
        has_entry = (np.bincount(table.lag, minlength=k) > 0)[None, :]
        point_sums = table.point_columns().sum(axis=1)[:, None]
        values, totals, ok = table.subset_estimates(sums, has_entry, point_sums)
        want, want_totals = table.estimate()
        assert ok.tolist() == [True]
        np.testing.assert_allclose(values[0], want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(totals[0], want_totals, rtol=1e-12, atol=0)
