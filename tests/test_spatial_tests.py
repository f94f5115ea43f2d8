import math
from fractions import Fraction

import numpy as np
import pytest

from isotropy import (
    AnisotropyParams,
    ContrastMatrix,
    ExponentialCovariance,
    GridSpec,
    GrfSampler,
    LagSet,
    Rect,
    RngStream,
    SpatialDataset,
    WindowSpec,
    default_contrast,
    default_lag_set,
    empirical_bandwidth,
    estimate_G,
    finite_sample_pvalue,
    gsc_gridded_test,
    gsc_nongridded_test,
    ms_test,
    quadratic_form,
    uniform_locations,
)
from isotropy import resampling
from isotropy.distributions import mix64
from isotropy.estimators import EstimatorConfig, KernelSpec
from isotropy.spatial_tests import PVALUE_MODES


class TestQuadraticForm:
    def test_hand_example(self):
        g = np.array([1.0, 2.0, 1.0, 2.0])
        a = np.array([[1, -1, 0, 0], [0, 0, 1, -1.0]])
        t = quadratic_form(g, a, np.eye(4))
        assert t == pytest.approx(1.0, abs=1e-14)

    def test_zero_contrast_gives_zero(self):
        g = np.array([3.0, 3.0, 5.0, 5.0])
        a = np.array([[1, -1, 0, 0], [0, 0, 1, -1.0]])
        assert quadratic_form(g, a, np.eye(4)) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        g = rng.random(4)
        a = default_contrast(default_lag_set()).matrix
        s = rng.random((4, 4))
        s = s @ s.T + np.eye(4)
        t0 = quadratic_form(g, a, s)
        c = 5.3
        t1 = quadratic_form(c**2 * g, a, c**4 * s)
        assert t1 == pytest.approx(t0, rel=1e-8)

    def test_near_singular_matrix_ridged(self):
        g = np.array([1.0, 0.0, 0.0, 0.0])
        a = np.array([[1, -1, 0, 0], [0, 0, 1, -1.0]])
        # rank-deficient but nonzero sigma: the trace-proportional ridge
        # keeps the form finite
        s = np.outer([1.0, 0, 0, 0], [1.0, 0, 0, 0])
        t = quadratic_form(g, a, s)
        assert np.isfinite(t) and t >= 0

    def test_zero_matrix_raises_singularity(self):
        from isotropy.spatial_tests import SingularityError

        g = np.array([1.0, 0.0, 0.0, 0.0])
        a = np.array([[1, -1, 0, 0], [0, 0, 1, -1.0]])
        with pytest.raises(SingularityError):
            quadratic_form(g, a, np.zeros((4, 4)))


class TestFiniteSamplePvalue:
    def _craft(self, t_values, n=100):
        # two lags, A = [[1,-1]], Sigma = I: T_k = (g_k1 - g_k2)^2 / 2
        a = np.array([[1.0, -1.0]])
        sigma = np.eye(2)
        ghats = np.array([[np.sqrt(2 * t), 0.0] for t in t_values])
        scale = np.ones_like(ghats)
        return a, sigma, ghats, scale

    def test_counting_rule(self):
        a, s, ghats, w = self._craft([1.0, 2.0, 6.0, 7.0])
        p = finite_sample_pvalue(5.0, ghats, np.zeros(2), a, s, w)
        # subsampling share: 2 of the 4 subblock statistics reach T
        assert p == pytest.approx(0.5)

    def test_full_stat_below_all(self):
        a, s, ghats, w = self._craft([1.0, 2.0, 6.0, 7.0])
        p = finite_sample_pvalue(0.5, ghats, np.zeros(2), a, s, w)
        assert p == 1.0

    def test_full_stat_above_all(self):
        a, s, ghats, w = self._craft([1.0, 2.0, 6.0, 7.0])
        p = finite_sample_pvalue(99.0, ghats, np.zeros(2), a, s, w)
        assert p == 0.0

    @pytest.mark.parametrize("k,alpha", [(150, 0.05), (20, 0.05), (7, 0.1)])
    def test_rejects_above_subsampling_quantile(self, k, alpha):
        # p <= alpha exactly when T exceeds the ceil((1-alpha)K)-th order
        # statistic of the T_k; T_k = j^2/2 keeps the statistics exact
        t_values = [j * j / 2 for j in range(1, k + 1)]
        a, s, ghats, w = self._craft(t_values)
        order = sorted(t_values)
        m = math.ceil((1 - Fraction(str(alpha))) * k)
        candidates = set(order) | {(x + y) / 2 for x, y in zip(order, order[1:])}
        candidates |= {order[0] / 2, order[-1] + 1.0}
        for t in sorted(candidates):
            p = finite_sample_pvalue(t, ghats, np.zeros(2), a, s, w)
            assert (p <= alpha) == (t > order[m - 1]), (t, p)

    def test_needs_two_windows(self):
        a, s, ghats, w = self._craft([1.0])
        with pytest.raises(ValueError):
            finite_sample_pvalue(1.0, ghats[:1], np.zeros(2), a, s, w[:1])

    def test_window_matrix_must_be_2d(self):
        a, s, ghats, w = self._craft([1.0, 2.0, 6.0])
        with pytest.raises(ValueError, match=r"\(K, k\) matrix"):
            finite_sample_pvalue(1.0, ghats[:, 0], np.zeros(2), a, s, w)


class TestGscGridded:
    def test_requires_grid(self):
        locs = uniform_locations(200, 10.0, 10.0, RngStream(1))
        ds = SpatialDataset(locs, np.arange(200.0))
        with pytest.raises(ValueError, match="grid"):
            gsc_gridded_test(ds)

    def test_deterministic_and_diagnostics(self, random_field_18x12):
        a = gsc_gridded_test(random_field_18x12, window=WindowSpec(3, 2))
        b = gsc_gridded_test(random_field_18x12, window=WindowSpec(3, 2))
        assert a.statistic == b.statistic and a.p_value == b.p_value
        assert a.diagnostics["n_windows"] == 176
        assert a.df == 2
        assert a.pvalue_mode == "finite_sample"
        assert 0 <= a.p_value <= 1

    def test_scale_and_shift_invariance(self, random_field_18x12):
        base = gsc_gridded_test(random_field_18x12, window=WindowSpec(3, 2))
        for transform in (lambda v: 4.2 * v, lambda v: v + 13.0):
            other = SpatialDataset(random_field_18x12.locations,
                                   transform(random_field_18x12.values),
                                   grid=random_field_18x12.grid)
            res = gsc_gridded_test(other, window=WindowSpec(3, 2))
            assert res.statistic == pytest.approx(base.statistic, rel=1e-8)
            assert res.p_value == base.p_value

    def test_quarter_turn_equivariance(self, random_field_18x12):
        # rotate the grid 90 degrees; the default lag set maps onto itself
        # up to the pairing (1,0)<->(0,1), (1,1)<->(-1,1), so the statistic
        # is unchanged
        base = gsc_gridded_test(random_field_18x12, window=WindowSpec(3, 2))
        loc = random_field_18x12.locations
        rotated_locs = np.column_stack([11 - loc[:, 1], loc[:, 0]])
        rotated = SpatialDataset(rotated_locs, random_field_18x12.values,
                                 grid=GridSpec(12, 18))
        res = gsc_gridded_test(rotated, window=WindowSpec(2, 3))
        assert res.statistic == pytest.approx(base.statistic, rel=1e-8)

    def test_asymptotic_mode(self, random_field_18x12):
        res = gsc_gridded_test(random_field_18x12, window=WindowSpec(3, 2),
                               pvalue_mode="asymptotic")
        assert res.pvalue_mode == "asymptotic_chi2"
        from isotropy import chi2_sf

        assert res.p_value == pytest.approx(chi2_sf(res.statistic, 2), abs=1e-15)

    @pytest.mark.slow
    def test_asymptotic_null_pvalues_roughly_uniform(self):
        # 25x15 grid, 500 replicates: empirical size near nominal
        g = GridSpec(25, 15)
        cov = ExponentialCovariance.from_effective_range(6.0)
        sampler = GrfSampler(g.locations(), cov)
        win = WindowSpec(5, 3)
        hits = 0
        reps = 500
        for r in range(reps):
            ds = sampler.draw(RngStream(5150, mix64(1, r)), grid=g)
            res = gsc_gridded_test(ds, window=win, pvalue_mode="asymptotic")
            hits += res.p_value <= 0.05
        assert 0.02 <= hits / reps <= 0.12


@pytest.fixture(scope="module")
def uniform_ds():
    locs = uniform_locations(300, 16.0, 10.0, RngStream(50))
    cov = ExponentialCovariance.from_effective_range(6.0)
    return GrfSampler(locs, cov).draw(RngStream(51))


class TestGscNonGridded:
    def test_deterministic(self, uniform_ds):
        kern = KernelSpec("truncated_gaussian", 1.5)
        a = gsc_nongridded_test(uniform_ds, kernel=kern, bandwidth=0.75,
                                window=WindowSpec(4, 2), domain=Rect(0, 0, 16, 10))
        b = gsc_nongridded_test(uniform_ds, kernel=kern, bandwidth=0.75,
                                window=WindowSpec(4, 2), domain=Rect(0, 0, 16, 10))
        assert a.statistic == b.statistic and a.p_value == b.p_value
        # n = 300 < 500: finite-sample adjustment is the default
        assert a.pvalue_mode == "finite_sample"
        assert a.diagnostics["n_windows"] == 25 * 17

    def test_mode_switch_at_500(self):
        locs = uniform_locations(600, 20.0, 16.0, RngStream(52))
        cov = ExponentialCovariance.from_effective_range(3.0)
        ds = GrfSampler(locs, cov).draw(RngStream(53))
        res = gsc_nongridded_test(ds, bandwidth=0.75, window=WindowSpec(4, 2),
                                  domain=Rect(0, 0, 20, 16))
        assert res.pvalue_mode == "asymptotic_chi2"

    def test_scale_invariance(self, uniform_ds):
        base = gsc_nongridded_test(uniform_ds, bandwidth=0.75,
                                   window=WindowSpec(4, 2), domain=Rect(0, 0, 16, 10))
        scaled = SpatialDataset(uniform_ds.locations, -2.5 * uniform_ds.values)
        res = gsc_nongridded_test(scaled, bandwidth=0.75,
                                  window=WindowSpec(4, 2), domain=Rect(0, 0, 16, 10))
        assert res.statistic == pytest.approx(base.statistic, rel=1e-8)
        assert res.p_value == base.p_value


class TestMsTest:
    def test_deterministic_given_rng(self, uniform_ds):
        a = ms_test(uniform_ds, block=WindowSpec(4, 2), n_boot=40,
                    rng=RngStream(62), domain=Rect(0, 0, 16, 10))
        b = ms_test(uniform_ds, block=WindowSpec(4, 2), n_boot=40,
                    rng=RngStream(62), domain=Rect(0, 0, 16, 10))
        assert a.statistic == b.statistic and a.p_value == b.p_value
        assert a.pvalue_mode == "asymptotic_chi2"
        assert a.diagnostics["n_boot"] == 40

    def test_rng_changes_result(self, uniform_ds):
        a = ms_test(uniform_ds, block=WindowSpec(4, 2), n_boot=40,
                    rng=RngStream(62), domain=Rect(0, 0, 16, 10))
        c = ms_test(uniform_ds, block=WindowSpec(4, 2), n_boot=40,
                    rng=RngStream(63), domain=Rect(0, 0, 16, 10))
        assert a.statistic != c.statistic

    def test_scale_and_shift_invariance(self, uniform_ds):
        base = ms_test(uniform_ds, block=WindowSpec(4, 2), n_boot=40,
                       rng=RngStream(64), domain=Rect(0, 0, 16, 10))
        for transform in (lambda v: 3.0 * v, lambda v: v - 7.5):
            other = SpatialDataset(uniform_ds.locations,
                                   transform(uniform_ds.values))
            res = ms_test(other, block=WindowSpec(4, 2), n_boot=40,
                          rng=RngStream(64), domain=Rect(0, 0, 16, 10))
            assert res.statistic == pytest.approx(base.statistic, rel=1e-8)

    @pytest.mark.parametrize("rng, count", [
        (RngStream(0), 1), ([RngStream(0)] * 2, 2), ([RngStream(r) for r in range(4)], 4)])
    def test_needs_one_stream_per_row(self, uniform_ds, rng, count):
        values = np.stack([uniform_ds.values] * 3)
        with pytest.raises(ValueError, match=f"3 rows of values but {count} random streams"):
            ms_test(uniform_ds, block=WindowSpec(4, 2), n_boot=20, rng=rng, values=values)

    def test_works_on_gridded_data_too(self, random_field_18x12):
        res = ms_test(random_field_18x12, block=WindowSpec(4, 2), n_boot=30,
                      rng=RngStream(65))
        assert 0 <= res.p_value <= 1


class TestCustomSymmetryContrast:
    def test_reflection_symmetry_hypothesis(self, random_field_18x12):
        # user-supplied lag set and contrast testing C(1,1) = C(-1,1)
        lags = LagSet([(1, 1), (-1, 1)])
        contrast = ContrastMatrix([[1.0, -1.0]])
        res = gsc_gridded_test(random_field_18x12, lags, contrast,
                               WindowSpec(3, 2))
        assert res.df == 1
        assert 0 <= res.p_value <= 1

    def test_contrast_shape_mismatch(self, random_field_18x12):
        lags = default_lag_set()
        contrast = ContrastMatrix([[1.0, -1.0]])
        with pytest.raises(ValueError, match="columns"):
            gsc_gridded_test(random_field_18x12, lags, contrast, WindowSpec(3, 2))


# Exact symmetries.  Reflecting an axis, or transposing with the window
# transposed, maps the default lags onto themselves up to sign and order and
# the window layout onto itself, so each test's T moves only by rounding:
# within 1e-12 relative, with the same p-value and decision (a finite-sample
# p-value could move only if a window statistic lay within 1e-12 of T).

def mirrored(ds, axis, extent, grid=None):
    """``ds`` with coordinate ``axis`` reflected, c -> extent - c."""
    loc = ds.locations.copy()
    loc[:, axis] = extent - loc[:, axis]
    return SpatialDataset(loc, ds.values, grid=grid)


def transposed(ds, grid=None):
    return SpatialDataset(ds.locations[:, ::-1], ds.values, grid=grid)


def assert_same_outcome(base, other):
    assert other.statistic == pytest.approx(base.statistic, rel=1e-12)
    assert other.p_value == pytest.approx(base.p_value, rel=1e-9)
    assert other.rejects(0.05) == base.rejects(0.05)


ANISO = AnisotropyParams(2.0, 0.5)
BOX = Rect(0, 0, 16, 10)


def anisotropic_grid_field(n_cols, n_rows, seed):
    g = GridSpec(n_cols, n_rows)
    cov = ExponentialCovariance.from_effective_range(6.0)
    return GrfSampler(g.locations(), cov, ANISO).draw(RngStream(1800, seed), grid=g)


def anisotropic_uniform_field(seed):
    locs = uniform_locations(300, 16.0, 10.0, RngStream(1810, seed))
    cov = ExponentialCovariance.from_effective_range(6.0)
    return GrfSampler(locs, cov, ANISO).draw(RngStream(1820, seed))


class TestExactSymmetries:
    @pytest.mark.parametrize("dims, window", [((18, 12), (4, 3)), ((16, 16), (4, 4))])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gsc_gridded(self, dims, window, seed):
        n1, n2 = dims
        ds = anisotropic_grid_field(n1, n2, seed)
        w, wt = WindowSpec(*window), WindowSpec(*window[::-1])
        cases = [(mirrored(ds, 0, n1 - 1, ds.grid), w), (mirrored(ds, 1, n2 - 1, ds.grid), w),
                 (transposed(ds, GridSpec(n2, n1)), wt)]
        for mode in PVALUE_MODES:
            base = gsc_gridded_test(ds, window=w, pvalue_mode=mode)
            for other, win in cases:
                assert_same_outcome(base, gsc_gridded_test(other, window=win, pvalue_mode=mode))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gsc_nongridded(self, seed):
        ds = anisotropic_uniform_field(seed)
        base = gsc_nongridded_test(ds, window=WindowSpec(4, 2), domain=BOX)
        shuffled = np.random.default_rng(seed).permutation(ds.n)
        for other, window, domain in (
                (mirrored(ds, 0, 16.0), WindowSpec(4, 2), BOX),
                (mirrored(ds, 1, 10.0), WindowSpec(4, 2), BOX),
                (transposed(ds), WindowSpec(2, 4), Rect(0, 0, 10, 16)),
                (SpatialDataset(ds.locations[shuffled], ds.values[shuffled]), WindowSpec(4, 2),
                 BOX)):
            assert_same_outcome(base, gsc_nongridded_test(other, window=window, domain=domain))

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_ms_with_mirrored_blocks(self, monkeypatch, axis, seed):
        ds = anisotropic_uniform_field(seed)
        other = mirrored(ds, axis, (16.0, 10.0)[axis])
        # the full-sample estimate: the reflection swaps lags (1,1) and (-1,1)
        cfg = EstimatorConfig("kernel_covariogram", KernelSpec("epanechnikov"),
                              empirical_bandwidth(ds))
        assert empirical_bandwidth(other) == pytest.approx(cfg.bandwidth, rel=1e-12)
        g, _, _ = estimate_G(ds, default_lag_set(), cfg)
        assert estimate_G(other, default_lag_set(), cfg)[0][[0, 1, 3, 2]] == pytest.approx(
            g, rel=1e-12)
        block = WindowSpec(4, 2)
        base = ms_test(ds, block=block, n_boot=40, rng=RngStream(1830, seed), domain=BOX)
        # each drawn origin reflected (u -> x0 + W - w - u) and handed to the
        # mirror region, so every resample of the reflected data is the
        # reflection of the original's; the 4x2 blocks tile the box
        regions, trim = resampling._partition_regions(BOX, block)
        assert trim == 0
        shape = (np.unique(regions[:, 0]).size, np.unique(regions[:, 1]).size)
        draw = resampling._draw_blocks

        def mirrored_draw(domain, blk, n_regions, gen):
            origins = np.array(draw(domain, blk, n_regions, gen))
            lo = (domain.x0, domain.y0)[axis]
            room = (domain.width - blk.width, domain.height - blk.height)[axis]
            origins[axis] = 2 * lo + room - origins[axis]
            return tuple(np.flip(origins.reshape(2, *shape), axis + 1).reshape(2, -1))

        monkeypatch.setattr(resampling, "_draw_blocks", mirrored_draw)
        res = ms_test(other, block=block, n_boot=40, rng=RngStream(1830, seed), domain=BOX)
        assert_same_outcome(base, res)
        assert res.diagnostics["n_boot"] == base.diagnostics["n_boot"]
