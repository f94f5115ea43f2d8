import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isotropy import (
    EstimatorConfig,
    GridSpec,
    KernelSpec,
    LagSet,
    RngStream,
    SpatialDataset,
    default_lag_set,
    empirical_bandwidth,
    enumerate_lag_pairs,
    estimate_G,
    uniform_locations,
)
from isotropy.estimators import EmptyNeighborhoodError, NoPairsError, pair_table

from reference_estimates import dense_estimate


@pytest.fixture
def scattered_50():
    locs = uniform_locations(50, 6.0, 5.0, RngStream(88, 0))
    gen = RngStream(88, 1).generator()
    return SpatialDataset(locs, gen.standard_normal(50))


def g_at(dataset, lags, config):
    """``estimate_G``'s per-lag estimates at ``lags``, two or more."""
    return estimate_G(dataset, LagSet(lags), config)[0]


class TestClassical:
    def test_hand_example_horizontal(self, grid_2x2):
        assert g_at(grid_2x2, [(1, 0), (0, 1)], EstimatorConfig())[0] == 1.25

    def test_hand_example_diagonal(self, grid_2x2):
        assert g_at(grid_2x2, [(1, 1), (-1, 1)], EstimatorConfig())[0] == 8.0

    def test_constant_field(self):
        g = GridSpec(4, 4)
        ds = SpatialDataset(g.locations(), np.full(16, 3.3), grid=g)
        assert g_at(ds, default_lag_set().lags, EstimatorConfig()).tolist() == [0.0] * 4

    def test_symmetric_in_lag_sign(self, random_field_18x12):
        for lag in [(1, 0), (2, 1), (-1, 3)]:
            a, b = g_at(random_field_18x12, [lag, (-lag[0], -lag[1])], EstimatorConfig())
            assert a == pytest.approx(b, rel=1e-12)

    def test_no_pairs_error_names_lag(self, grid_2x2):
        with pytest.raises(NoPairsError, match="7"):
            g_at(grid_2x2, [(7, 0), (1, 0)], EstimatorConfig())


class TestSharedPairSearch:
    """The classical table comes from the same reach search as the kernel
    tables; its entries are the per-lag exact matches, in the same order."""

    @settings(max_examples=60, deadline=None)
    @given(
        n1=st.integers(2, 11), n2=st.integers(2, 11),
        spacing=st.sampled_from([0.5, 1.0, 2.0, 0.3]),
        origin=st.sampled_from([(0.0, 0.0), (-3.5, 101.25)]),
        declared=st.booleans(),
        # lags in half spacings: odd halves match no pair, and |lag| up to
        # 12 spacings reaches beyond every grid drawn
        halves=st.lists(
            st.tuples(st.integers(-24, 24), st.integers(-24, 24)).filter(lambda t: t != (0, 0)),
            min_size=2, max_size=4, unique=True),
    )
    def test_classical_entries_match_per_lag_reference(
            self, n1, n2, spacing, origin, declared, halves):
        g = GridSpec(n1, n2, spacing)
        ds = SpatialDataset(g.locations() + origin, np.arange(g.size, dtype=float),
                            grid=g if declared else None)
        lag_set = LagSet(np.asarray(halves, dtype=float) * (spacing / 2))
        table = pair_table(ds, lag_set, EstimatorConfig())
        found = [enumerate_lag_pairs(ds, lag) for lag in lag_set]
        assert table.lag.tolist() == [m for m, f in enumerate(found) for _ in f]
        assert table.i.tolist() == [int(i) for f in found for i in f[:, 0]]
        assert table.j.tolist() == [int(j) for f in found for j in f[:, 1]]
        assert table.w.tolist() == [1.0] * len(table.lag)


SEMI = "kernel_semivariogram"
COV = "kernel_covariogram"


class TestKernelEstimators:
    def test_small_bandwidth_recovers_classical(self, grid_2x2):
        cfg = EstimatorConfig(SEMI, KernelSpec("epanechnikov"), 1e-6)
        got = g_at(grid_2x2, [(1, 0), (1, 1)], cfg)
        assert got[0] == pytest.approx(1.25, abs=1e-12)
        assert got[1] == pytest.approx(8.0, abs=1e-12)

    def test_constant_field_zero(self):
        g = GridSpec(5, 4)
        ds = SpatialDataset(g.locations(), np.full(20, 2.0), grid=g)
        lags = [(1, 0), (0, 1)]
        assert g_at(ds, lags, EstimatorConfig(SEMI, bandwidth=0.8)).tolist() == [0.0, 0.0]
        assert g_at(ds, lags, EstimatorConfig(COV, bandwidth=0.8)) == pytest.approx(
            [0.0, 0.0], abs=1e-30)

    def test_covariogram_at_zero_lag_is_variance(self, scattered_50):
        # a lag set holds no zero lag; within 1e-7 of it, at bandwidth 1e-6,
        # only the self-pairs carry weight
        got = g_at(scattered_50, [(1e-7, 0), (0, 1e-7)],
                   EstimatorConfig(COV, KernelSpec("epanechnikov"), 1e-6))
        assert got == pytest.approx([scattered_50.values.var()] * 2, rel=1e-12)

    @pytest.mark.parametrize("kernel", [KernelSpec("epanechnikov"),
                                        KernelSpec("truncated_gaussian", 1.5)])
    @pytest.mark.parametrize("lag", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 1.0)])
    def test_matches_brute_force_oracle(self, scattered_50, kernel, lag):
        lags = [lag, (-lag[1], lag[0])]  # the lag and its quarter turn
        for bw in (0.5, 0.9):
            for kind in (SEMI, COV):
                cfg = EstimatorConfig(kind, kernel, bw)
                assert g_at(scattered_50, lags, cfg) == pytest.approx(
                    dense_estimate(scattered_50, lags, cfg)[0], abs=1e-10)

    def test_lag_sign_symmetry(self, scattered_50):
        a, b = g_at(scattered_50, [(0.7, -0.2), (-0.7, 0.2)], EstimatorConfig(SEMI, bandwidth=0.6))
        assert a == pytest.approx(b, rel=1e-12)

    def test_zero_weight_raises(self, grid_2x2):
        with pytest.raises(EmptyNeighborhoodError, match="bandwidth"):
            g_at(grid_2x2, [(0.5, 0.5), (1, 0)],
                 EstimatorConfig(SEMI, KernelSpec("epanechnikov"), 0.05))

    def test_kernel_supports(self):
        epa = KernelSpec("epanechnikov")
        assert epa.weight(np.array([-1.01, 1.01])).tolist() == [0.0, 0.0]
        assert epa.weight(0.0) == 0.75
        tg = KernelSpec("truncated_gaussian", 1.5)
        assert tg.weight(np.array([-1.51, 1.51])).tolist() == [0.0, 0.0]
        assert tg.weight(1.49) > 0
        assert tg.weight(0.0) == 1.0


class TestInvariances:
    LAGS = [(1, 0), (1, 1)]

    def test_value_scaling_is_quadratic(self, scattered_50, random_field_18x12):
        c = 3.7
        scaled = SpatialDataset(scattered_50.locations, c * scattered_50.values)
        grid_scaled = SpatialDataset(
            random_field_18x12.locations, c * random_field_18x12.values,
            grid=random_field_18x12.grid)
        for base, other, cfg in ((random_field_18x12, grid_scaled, EstimatorConfig()),
                                 (scattered_50, scaled, EstimatorConfig(SEMI, bandwidth=0.7)),
                                 (scattered_50, scaled, EstimatorConfig(COV, bandwidth=0.7))):
            assert g_at(other, self.LAGS, cfg) == pytest.approx(
                c**2 * g_at(base, self.LAGS, cfg), rel=1e-12)

    def test_value_translation_invariance(self, scattered_50):
        shifted = SpatialDataset(scattered_50.locations, scattered_50.values + 11.0)
        for kind, tol in ((SEMI, {"rel": 1e-12}), (COV, {"abs": 1e-12})):
            cfg = EstimatorConfig(kind, bandwidth=0.7)
            assert g_at(shifted, self.LAGS, cfg) == pytest.approx(
                g_at(scattered_50, self.LAGS, cfg), **tol)


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
        g, weights, _ = estimate_G(grid_2x2, LagSet([(1, 0), (1, 1)]), EstimatorConfig())
        assert g.tolist() == [1.25, 8.0]
        assert weights.tolist() == [2.0, 1.0]

    def test_isotropy_balance_at_matched_norms(self):
        # on an isotropic field, estimates at (1,0) and (0,1) agree within noise
        g = GridSpec(40, 40)
        from isotropy import ExponentialCovariance, GrfSampler

        cov = ExponentialCovariance.from_effective_range(4.0)
        ds = GrfSampler(g.locations(), cov).draw(RngStream(14, 0), grid=g)
        g, _, _ = estimate_G(ds, default_lag_set(), EstimatorConfig())
        assert abs(g[0] - g[1]) < 0.25
        assert abs(g[2] - g[3]) < 0.25

    def test_deterministic(self, scattered_50):
        cfg = EstimatorConfig("kernel_semivariogram", KernelSpec("epanechnikov"), 0.8)
        a, _, _ = estimate_G(scattered_50, default_lag_set(), cfg)
        b, _, _ = estimate_G(scattered_50, default_lag_set(), cfg)
        assert np.array_equal(a, b)

    def test_error_carries_lag_identity(self, grid_2x2):
        with pytest.raises(NoPairsError, match=r"\(9.0, 0.0\)"):
            estimate_G(grid_2x2, LagSet([(9.0, 0.0), (0.0, 1.0)]), EstimatorConfig())

    def test_covariogram_refuses_stacked_values(self, scattered_50):
        # stacked values once ended in a numpy broadcasting error
        cfg = EstimatorConfig("kernel_covariogram", KernelSpec("epanechnikov"), 0.8)
        rows = np.stack([scattered_50.values, -scattered_50.values])
        for call in (pair_table, estimate_G):
            with pytest.raises(ValueError, match=r"one field's \(n,\) values, not shape \(2, 50\)"):
                call(scattered_50, default_lag_set(), cfg, rows)

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
    """The full-sample estimate, the whole sample as one subset of the
    finishing step that moving windows and bootstrap resamples share,
    matches the dense reference; so do its errors."""

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
        values, totals = table.estimate()
        want, want_totals = dense_estimate(ds, default_lag_set().lags, cfg)
        np.testing.assert_allclose(values, want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(totals, want_totals, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("cfg, error", [
        (EstimatorConfig(), NoPairsError),
        (EstimatorConfig("kernel_semivariogram", KernelSpec("epanechnikov"), 0.3),
         EmptyNeighborhoodError),
        (EstimatorConfig("kernel_covariogram", KernelSpec("epanechnikov"), 0.3),
         EmptyNeighborhoodError),
    ])
    def test_first_lag_without_weight_is_named(self, cfg, error):
        # a 4x3 unit grid: lags (7, 0) and (0, 5) reach no pair
        g = GridSpec(4, 3)
        ds = SpatialDataset(g.locations(), np.arange(12.0) ** 2, grid=g)
        lags = LagSet([(1.0, 0.0), (7.0, 0.0), (0.0, 1.0), (0.0, 5.0)])
        with pytest.raises(error, match=r"lag \(7(\.0)?, 0(\.0)?\)"):
            estimate_G(ds, lags, cfg)
        with pytest.raises(error):
            dense_estimate(ds, lags.lags, cfg)

    def test_covariogram_lag_with_only_self_pairs_is_estimated(self):
        # points 3 apart, bandwidth 1: no pair reaches lag (0.5, 0), but
        # the self-pairs sit inside its support
        g = GridSpec(4, 3, 3.0)
        ds = SpatialDataset(g.locations(), 2.0 + np.sin(np.arange(12.0)), grid=g)
        cfg = EstimatorConfig("kernel_covariogram", KernelSpec("epanechnikov"), 1.0)
        lags = LagSet([(0.5, 0.0), (3.0, 0.0)])
        table = pair_table(ds, lags, cfg)
        assert not np.any(table.lag == 0) and table.self_weights[0] > 0
        g, weights, _ = estimate_G(ds, lags, cfg)
        want, want_totals = dense_estimate(ds, lags.lags, cfg)
        np.testing.assert_allclose(g, want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(weights, want_totals, rtol=1e-12, atol=0)
        assert g[0] == pytest.approx(ds.values.var(), rel=1e-12)
