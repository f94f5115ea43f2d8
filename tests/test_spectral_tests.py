import re

import numpy as np
import pytest
from scipy import stats

from isotropy import (
    AnisotropyParams,
    ExponentialCovariance,
    GridSpec,
    GrfSampler,
    RngStream,
    SpatialDataset,
    cvm_test,
    f22_cdf,
    lz_complete_test,
    periodogram,
)
from isotropy.distributions import cvm_statistics
from isotropy.spectral_tests import (
    DegeneratePeriodogramError,
    _half_count,
    _reflection_ratios,
    lz_diagonal_ratios,
)


def direct_sum_periodogram(ds):
    """Independent oracle: lag-domain cosine sum with the biased
    covariance estimator of the demeaned field, at every DFT bin."""
    f = ds.field_matrix()
    n1, n2 = f.shape
    x = f - f.mean()
    w1 = 2 * np.pi * np.arange(n1)[:, None] / n1
    w2 = 2 * np.pi * np.arange(n2)[None, :] / n2
    out = np.zeros((n1, n2))
    for h1 in range(-(n1 - 1), n1):
        for h2 in range(-(n2 - 1), n2):
            # biased covariance estimate at lag (h1, h2)
            i0, i1 = max(0, -h1), min(n1, n1 - h1)
            j0, j1 = max(0, -h2), min(n2, n2 - h2)
            block = x[i0:i1, j0:j1] * x[i0 + h1:i1 + h1, j0 + h2:j1 + h2]
            chat = block.sum() / (n1 * n2)
            out += chat * np.cos(h1 * w1 + h2 * w2)
    return out / (2 * np.pi) ** 2


def retained(n):
    """DFT indices of an axis of n points other than zero and Nyquist."""
    return [k for k in range(1, n) if 2 * k != n]


def noise_pgram(n1, n2, seed=5):
    g = GridSpec(n1, n2)
    vals = RngStream(seed, n1 * 100 + n2).generator().standard_normal(n1 * n2)
    return periodogram(SpatialDataset(g.locations(), vals, grid=g))


def bins_read(n1, n2, stage):
    """The (row, col) bins of an n1 x n2 power array whose zeroing makes
    ``stage``'s ratio sample NaN, i.e. the bins that sample reads."""
    out = set()
    for a in range(n1):
        for b in range(n2):
            power = np.ones((n1, n2))
            power[a, b] = 0.0
            if np.isnan(stage(power)).any():
                out.add((a, b))
    return out


def loop_ratio_samples(power):
    """Both stages' ratio samples by explicit loops over signed indices."""
    n1, n2 = power.shape
    m1 = max(k for k in range(n1) if 2 * k < n1)
    m2 = max(k for k in range(n2) if 2 * k < n2)
    stage1 = [power[k1 % n1, k2 % n2] / power[(-k1) % n1, k2 % n2]
              for k1 in range(1, m1 + 1) for k2 in range(1, m2 + 1)]
    m = min(m1, m2)
    stage2 = [power[k1, k2] / power[k2, k1]
              for k1 in range(1, m + 1) for k2 in range(k1 + 1, m + 1)]
    return np.array(stage1), np.array(stage2)


class TestFourierFrequencies:
    def test_even_axis(self):
        assert _half_count(6) == 2
        res = lz_complete_test(noise_pgram(6, 8))
        assert res.diagnostics["n_reflection_ratios"] == 2 * 3

    def test_odd_axis(self):
        assert _half_count(7) == 3
        res = lz_complete_test(noise_pgram(7, 7))
        assert res.diagnostics["n_reflection_ratios"] == 3 * 3

    def test_counts_closed_form(self):
        for n in range(4, 65):
            m = len(retained(n)) // 2
            assert _half_count(n) == m
            if m * 3 < 5:
                with pytest.raises(ValueError, match="frequency pairs"):
                    lz_complete_test(noise_pgram(n, 8))
            else:
                res = lz_complete_test(noise_pgram(n, 8))
                assert res.diagnostics["n_reflection_ratios"] == m * 3

    def test_omega_range(self):
        # stage 1 reads rows +-1..8 of columns 1..5; stage 2 the
        # off-diagonal bins of the 5x5 quarter; neither a zero nor a
        # Nyquist row or column
        stage1 = bins_read(18, 12, _reflection_ratios)
        stage2 = bins_read(18, 12, lz_diagonal_ratios)
        assert stage1 == {(a, b) for a in retained(18) for b in range(1, 6)}
        assert stage2 <= stage1
        for a, b in stage1:
            assert a not in (0, 9) and b not in (0, 6)

    def test_too_small(self):
        g = GridSpec(2, 8)
        ds = SpatialDataset(g.locations(), np.arange(16.0), grid=g)
        with pytest.raises(ValueError, match="too small"):
            periodogram(ds)


class TestPeriodogram:
    def test_requires_grid(self):
        ds = SpatialDataset([(0, 0), (1, 0), (0.5, 2)], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="grid"):
            periodogram(ds)

    def test_constant_field_zero(self):
        g = GridSpec(8, 6)
        ds = SpatialDataset(g.locations(), np.full(48, 7.0), grid=g)
        pg = periodogram(ds)
        assert np.allclose(pg, 0.0, atol=1e-28)

    def test_nonnegative_and_symmetric(self, random_field_18x12):
        pg = periodogram(random_field_18x12)
        assert np.all(pg >= 0)
        n1, n2 = 18, 12
        for k1, k2 in [(1, 1), (3, 2), (-5, 4), (8, -5)]:
            assert pg[k1 % n1, k2 % n2] == pytest.approx(
                pg[(-k1) % n1, (-k2) % n2], abs=1e-10)

    def test_matches_direct_sum_oracle(self):
        for dims, seed in [((8, 6), 1), ((12, 12), 2), ((9, 7), 3)]:
            g = GridSpec(*dims)
            cov = ExponentialCovariance.from_effective_range(3.0)
            ds = GrfSampler(g.locations(), cov).draw(RngStream(900 + seed), grid=g)
            pg = periodogram(ds)
            oracle = direct_sum_periodogram(ds)
            assert oracle.shape == pg.shape
            assert np.allclose(pg, oracle, atol=1e-8)

    def test_parseval(self, random_field_18x12):
        pg = periodogram(random_field_18x12)
        x = random_field_18x12.values
        ssd = np.sum((x - x.mean()) ** 2)
        total = pg.sum() * (2 * np.pi) ** 2
        assert total == pytest.approx(ssd, rel=1e-8)

    def test_white_noise_level(self):
        # flat spectrum: mean ordinate near sigma^2 / (2 pi)^2
        g = GridSpec(20, 20)
        sigma2 = 2.0
        means = []
        for r in range(200):
            vals = RngStream(7000, r).generator().standard_normal(400) * np.sqrt(sigma2)
            ds = SpatialDataset(g.locations(), vals, grid=g)
            keep = retained(20)
            means.append(periodogram(ds)[np.ix_(keep, keep)].mean())
        assert np.mean(means) == pytest.approx(sigma2 / (2 * np.pi) ** 2, rel=0.05)


class TestReflectionStage:
    def test_symmetric_power_gives_unit_ratios(self):
        n1, n2 = 18, 12
        # product-form power symmetric in k1 -> -k1
        a = 1.0 + np.cos(2 * np.pi * np.arange(n1) / n1) ** 2
        b = 2.0 + np.sin(2 * np.pi * np.arange(n2) / n2) ** 2
        power = np.outer(a, b)
        stat = lz_complete_test(power).stage1_statistic
        # all probability transforms collapse to F(2,2) cdf at 1 = 0.5
        n = 8 * 5
        i = np.arange(1, n + 1)
        expected = 1 / (12 * n) + np.sum((0.5 - (2 * i - 1) / (2 * n)) ** 2)
        assert stat == pytest.approx(expected, abs=1e-12)

    def test_zero_ordinate_degenerate(self):
        power = np.ones((18, 12))
        power[1, 1] = 0.0
        with pytest.raises(DegeneratePeriodogramError):
            lz_complete_test(power)

    def test_too_few_pairs(self):
        g = GridSpec(4, 4)
        ds = SpatialDataset(g.locations(), RngStream(3).generator().standard_normal(16),
                            grid=g)
        with pytest.raises(ValueError, match="frequency pairs"):
            lz_complete_test(periodogram(ds))

    def test_isotropic_size_at_quarter_level(self):
        # reflection stage alone, 500 isotropic fields, alpha = 0.025
        from isotropy import GrfSampler
        from isotropy.distributions import mix64

        g = GridSpec(18, 12)
        sampler = GrfSampler(g.locations(),
                             ExponentialCovariance.from_effective_range(6.0))
        rej = 0
        reps = 500
        for r in range(reps):
            ds = sampler.draw(RngStream(4040, mix64(1, r)), grid=g)
            rej += lz_complete_test(periodogram(ds)).stage1_pvalue <= 0.025
        assert rej / reps <= 0.08

    def test_ratio_calibration_under_f22(self):
        # exact F(2,2) samples fed to the CvM stage give uniform p-values
        gen = RngStream(88, 99).generator()
        pvals = []
        for _ in range(1000):
            ratios = gen.exponential(size=40) / gen.exponential(size=40)
            _, p = cvm_test(ratios, f22_cdf)
            pvals.append(p)
        assert stats.kstest(pvals, "uniform").pvalue > 0.01


class TestDiagonalStage:
    def test_pair_set_on_rectangular_grid(self):
        # min(n1*, n2*) = 5 usable indices -> C(5,2) unordered pairs
        # {(k1,k2), (k2,k1)}, each given once as k1 < k2 over k2 < k1
        pairs = {(a, b) for a in range(1, 6) for b in range(a + 1, 6)}
        assert bins_read(18, 12, lz_diagonal_ratios) == pairs | {(b, a) for a, b in pairs}
        power = np.ones((18, 12))
        for a, b in pairs:
            power[a, b] = 2.0
        assert np.array_equal(lz_diagonal_ratios(power), np.full(10, 2.0))

    def test_pair_set_on_square_grid(self):
        assert len(lz_diagonal_ratios(np.ones((12, 12)))) == 5 * 4 / 2

    def test_diagonally_symmetric_power_gives_unit_ratios(self):
        power = np.ones((12, 12))
        ratios = lz_diagonal_ratios(power)
        assert np.allclose(ratios, 1.0)


class TestTwoStage:
    def test_stage1_rejection_short_circuits(self):
        n1 = n2 = 12
        # strongly reflection-asymmetric power: huge at k1>0, tiny at k1<0
        power = np.ones((n1, n2)) * 1e-3
        for k1 in range(1, 5):
            for k2 in range(1, 5):
                power[k1, k2] = 50.0
                power[(-k1) % n1, k2] = 1e-4
                power[(-k1) % n1, (-k2) % n2] = 50.0
                power[k1, (-k2) % n2] = 1e-4
        res = lz_complete_test(power, alpha=0.05)
        assert res.reject and res.stage2_pvalue is None
        assert res.stage1_pvalue <= 0.025

    def test_stage2_runs_when_stage1_accepts(self, random_field_18x12):
        res = lz_complete_test(periodogram(random_field_18x12), alpha=0.05)
        if res.stage1_pvalue > 0.025:
            assert res.stage2_pvalue is not None
            assert res.diagnostics["n_diagonal_ratios"] == 10
        assert res.diagnostics["n_reflection_ratios"] == 40

    def test_overall_level_uses_half_alpha(self, random_field_18x12):
        res = lz_complete_test(periodogram(random_field_18x12), alpha=0.05)
        if res.stage2_pvalue is not None:
            expected = res.stage2_pvalue <= 0.025
            assert res.reject == expected

    def test_alpha_validated(self, random_field_18x12):
        with pytest.raises(ValueError):
            lz_complete_test(periodogram(random_field_18x12), alpha=1.5)

    def test_deterministic(self, random_field_18x12):
        a = lz_complete_test(periodogram(random_field_18x12))
        b = lz_complete_test(periodogram(random_field_18x12))
        assert a == b

    def test_block_function_needs_a_stacked_periodogram(self, random_field_18x12):
        # a periodogram that is neither one field's (n1, n2) nor stacked (R, n1, n2)
        power = periodogram(random_field_18x12)
        for wrong in (power[0], power[None, None]):
            with pytest.raises(ValueError, match=r"stacked \(R, n1, n2\).*not shape " +
                               re.escape(str(wrong.shape))):
                lz_complete_test(wrong)


@pytest.mark.parametrize("dims", [(18, 12), (25, 15), (16, 16), (7, 9), (3, 12)])
def test_ratio_samples_match_signed_index_loops(dims):
    power = noise_pgram(*dims, seed=77)
    stage1, stage2 = loop_ratio_samples(power)
    res = lz_complete_test(power)
    assert (res.stage1_statistic, res.stage1_pvalue) == cvm_test(stage1, f22_cdf)
    got = lz_diagonal_ratios(power)
    assert got.shape == stage2.shape and np.array_equal(got, stage2)


def lz_field(n1, n2, seed, aniso=None):
    g = GridSpec(n1, n2)
    cov = ExponentialCovariance.from_effective_range(6.0)
    return GrfSampler(g.locations(), cov, aniso).draw(RngStream(1840, seed), grid=g)


def stage_statistics(power):
    """Both stages' CvM statistics, the second whether or not stage 1 rejects."""
    return (cvm_statistics(_reflection_ratios(power), f22_cdf),
            cvm_statistics(lz_diagonal_ratios(power), f22_cdf))


def assert_same_lz(base, other):
    assert other.stage1_statistic == pytest.approx(base.stage1_statistic, rel=1e-12)
    assert other.stage1_pvalue == pytest.approx(base.stage1_pvalue, rel=1e-9)
    assert (other.stage2_pvalue is None) == (base.stage2_pvalue is None)
    if base.stage2_pvalue is not None:
        assert other.stage2_statistic == pytest.approx(base.stage2_statistic, rel=1e-12)
        assert other.stage2_pvalue == pytest.approx(base.stage2_pvalue, rel=1e-9)
    assert other.reject == base.reject


class TestExactSymmetries:
    """Transposing the grid, or turning it half a turn, maps both stages' ratio
    samples onto themselves (a ratio at most to its reciprocal, which leaves
    the CvM statistic under F(2,2) unchanged), so the outcome moves only by
    rounding.  Reflecting one axis keeps stage 1 alone: the periodogram is
    reflected, I'(k1, k2) = I(-k1, k2), and stage 2 reads the first quadrant
    only, so it then reads the ordinates of the second."""

    @pytest.mark.parametrize("dims", [(18, 12), (16, 16)])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_transposition_and_half_turn(self, dims, seed):
        n1, n2 = dims
        ds = lz_field(n1, n2, seed, AnisotropyParams(2.0, 0.5))
        base = lz_complete_test(periodogram(ds))
        loc = ds.locations
        half_turn = np.column_stack([n1 - 1 - loc[:, 0], n2 - 1 - loc[:, 1]])
        for other in (SpatialDataset(loc[:, ::-1], ds.values, grid=GridSpec(n2, n1)),
                      SpatialDataset(half_turn, ds.values, grid=ds.grid)):
            assert_same_lz(base, lz_complete_test(periodogram(other)))

    @pytest.mark.parametrize("dims", [(18, 12), (16, 16)])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_reflection_of_one_axis(self, dims, seed):
        n1, n2 = dims
        ds = lz_field(n1, n2, seed, AnisotropyParams(2.0, 0.5))
        power = periodogram(ds)
        base = lz_complete_test(power)
        reflected_power = power[(-np.arange(n1)) % n1]  # I(-k1, k2)
        for axis, extent in ((0, n1 - 1), (1, n2 - 1)):
            loc = ds.locations.copy()
            loc[:, axis] = extent - loc[:, axis]
            other = periodogram(SpatialDataset(loc, ds.values, grid=ds.grid))
            np.testing.assert_allclose(other, reflected_power, rtol=1e-12, atol=1e-15)
            res = lz_complete_test(other)
            assert res.stage1_statistic == pytest.approx(base.stage1_statistic, rel=1e-12)
            assert res.stage1_pvalue == pytest.approx(base.stage1_pvalue, rel=1e-9)
            assert stage_statistics(other)[1] == pytest.approx(
                stage_statistics(reflected_power)[1], rel=1e-12)


@pytest.mark.parametrize("dims", [(18, 12), (25, 15), (16, 16)])
@pytest.mark.parametrize("seed", [1, 2])
def test_additive_trend_leaves_lz_unchanged(dims, seed):
    # the DFT of f(x) + g(y) lies in the k1 = 0 row and the k2 = 0 column,
    # which neither stage reads; gsc-g's semivariogram sees the trend
    from isotropy import gsc_gridded_test

    ds = lz_field(*dims, seed)
    x, y = ds.locations[:, 0], ds.locations[:, 1]
    trended = SpatialDataset(ds.locations, ds.values + 0.5 * x + 0.3 * np.sin(y) + 0.02 * y**2,
                             grid=ds.grid)
    base, other = periodogram(ds), periodogram(trended)
    for a, b in zip(stage_statistics(base), stage_statistics(other)):
        assert b == pytest.approx(a, rel=1e-12)
    assert_same_lz(lz_complete_test(base), lz_complete_test(other))
    t, t_trend = gsc_gridded_test(ds).statistic, gsc_gridded_test(trended).statistic
    assert t_trend != pytest.approx(t, rel=0.01)
