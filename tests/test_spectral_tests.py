import numpy as np
import pytest
from scipy import stats

from isotropy import (
    ExponentialCovariance,
    GridSpec,
    RngStream,
    SpatialDataset,
    cvm_test,
    f22_cdf,
    fourier_frequencies,
    lz_complete_test,
    lz_reflection_test,
    periodogram,
    simulate_grf,
)
from isotropy.spectral_tests import (
    DegeneratePeriodogramError,
    Periodogram,
    _diagonal_pairs,
    lz_diagonal_ratios,
)


def direct_sum_periodogram(ds):
    """Independent oracle: lag-domain cosine sum with the biased
    covariance estimator of the demeaned field."""
    f = ds.field_matrix()
    n1, n2 = f.shape
    x = f - f.mean()
    freqs = fourier_frequencies(n1, n2)
    out = np.zeros(len(freqs))
    for m in range(len(freqs)):
        w1 = 2 * np.pi * freqs.k1[m] / n1
        w2 = 2 * np.pi * freqs.k2[m] / n2
        total = 0.0
        for h1 in range(-(n1 - 1), n1):
            for h2 in range(-(n2 - 1), n2):
                # biased covariance estimate at lag (h1, h2)
                i0, i1 = max(0, -h1), min(n1, n1 - h1)
                j0, j1 = max(0, -h2), min(n2, n2 - h2)
                block = x[i0:i1, j0:j1] * x[i0 + h1:i1 + h1, j0 + h2:j1 + h2]
                chat = block.sum() / (n1 * n2)
                total += chat * np.cos(h1 * w1 + h2 * w2)
        out[m] = total / (2 * np.pi) ** 2
    return out


def synthetic_pgram(n1, n2, power):
    freqs = fourier_frequencies(n1, n2)
    values = power[freqs.k1 % n1, freqs.k2 % n2]
    return Periodogram(freqs, values, power)


class TestFourierFrequencies:
    def test_even_axis(self):
        fr = fourier_frequencies(6, 6)
        assert sorted(set(fr.k1.tolist())) == [-2, -1, 1, 2]
        assert len(fr) == 16

    def test_odd_axis(self):
        fr = fourier_frequencies(7, 7)
        assert sorted(set(fr.k1.tolist())) == [-3, -2, -1, 1, 2, 3]
        assert len(fr) == 36

    def test_counts_closed_form(self):
        for n in range(4, 65):
            m = (n - 1) // 2 if n % 2 else n // 2 - 1
            fr = fourier_frequencies(n, 8)
            assert len(fr) == (2 * m) * (2 * 3)

    def test_omega_range(self):
        fr = fourier_frequencies(18, 12)
        assert np.all(fr.omega1 > -np.pi) and np.all(fr.omega1 < np.pi)
        assert np.all(fr.omega1 != 0) and np.all(fr.omega2 != 0)

    def test_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            fourier_frequencies(2, 8)


class TestPeriodogram:
    def test_requires_grid(self):
        ds = SpatialDataset([(0, 0), (1, 0), (0.5, 2)], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="grid"):
            periodogram(ds)

    def test_constant_field_zero(self):
        g = GridSpec(8, 6)
        ds = SpatialDataset(g.locations(), np.full(48, 7.0), grid=g)
        pg = periodogram(ds)
        assert np.allclose(pg.values, 0.0, atol=1e-28)

    def test_nonnegative_and_symmetric(self, random_field_18x12):
        pg = periodogram(random_field_18x12)
        assert np.all(pg.values >= 0)
        n1, n2 = 18, 12
        for k1, k2 in [(1, 1), (3, 2), (-5, 4), (8, -5)]:
            assert pg.power_all[k1 % n1, k2 % n2] == pytest.approx(
                pg.power_all[(-k1) % n1, (-k2) % n2], abs=1e-10)

    def test_matches_direct_sum_oracle(self):
        for dims, seed in [((8, 6), 1), ((12, 12), 2), ((9, 7), 3)]:
            g = GridSpec(*dims)
            cov = ExponentialCovariance.from_effective_range(3.0)
            ds = simulate_grf(g.locations(), cov, rng=RngStream(900 + seed), grid=g)
            pg = periodogram(ds)
            oracle = direct_sum_periodogram(ds)
            assert np.allclose(pg.values, oracle, atol=1e-8)

    def test_parseval(self, random_field_18x12):
        pg = periodogram(random_field_18x12)
        x = random_field_18x12.values
        ssd = np.sum((x - x.mean()) ** 2)
        total = pg.power_all.sum() * (2 * np.pi) ** 2
        assert total == pytest.approx(ssd, rel=1e-8)

    def test_white_noise_level(self):
        # flat spectrum: mean ordinate near sigma^2 / (2 pi)^2
        g = GridSpec(20, 20)
        sigma2 = 2.0
        means = []
        for r in range(200):
            vals = RngStream(7000, r).generator().standard_normal(400) * np.sqrt(sigma2)
            ds = SpatialDataset(g.locations(), vals, grid=g)
            means.append(periodogram(ds).values.mean())
        assert np.mean(means) == pytest.approx(sigma2 / (2 * np.pi) ** 2, rel=0.05)


class TestReflectionStage:
    def test_symmetric_power_gives_unit_ratios(self):
        n1, n2 = 18, 12
        # product-form power symmetric in k1 -> -k1
        a = 1.0 + np.cos(2 * np.pi * np.arange(n1) / n1) ** 2
        b = 2.0 + np.sin(2 * np.pi * np.arange(n2) / n2) ** 2
        power = np.outer(a, b)
        pg = synthetic_pgram(n1, n2, power)
        stat, p = lz_reflection_test(pg)
        # all probability transforms collapse to F(2,2) cdf at 1 = 0.5
        n = 8 * 5
        i = np.arange(1, n + 1)
        expected = 1 / (12 * n) + np.sum((0.5 - (2 * i - 1) / (2 * n)) ** 2)
        assert stat == pytest.approx(expected, abs=1e-12)

    def test_zero_ordinate_degenerate(self):
        power = np.ones((18, 12))
        power[1, 1] = 0.0
        with pytest.raises(DegeneratePeriodogramError):
            lz_reflection_test(synthetic_pgram(18, 12, power))

    def test_too_few_pairs(self):
        g = GridSpec(4, 4)
        ds = SpatialDataset(g.locations(), RngStream(3).generator().standard_normal(16),
                            grid=g)
        with pytest.raises(ValueError, match="frequency pairs"):
            lz_reflection_test(periodogram(ds))

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
            _, p = lz_reflection_test(periodogram(ds))
            rej += p <= 0.025
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
        fr = fourier_frequencies(18, 12)
        k1, k2 = _diagonal_pairs(fr)
        # min(n1*, n2*) = 5 usable indices -> C(5,2) unordered pairs
        # {(k1,k2), (k2,k1)}, each given once as k1 < k2
        assert set(zip(k1.tolist(), k2.tolist())) == {
            (a, b) for a in range(1, 6) for b in range(a + 1, 6)}
        assert len(k1) == 10

    def test_pair_set_on_square_grid(self):
        fr = fourier_frequencies(12, 12)
        assert len(_diagonal_pairs(fr)[0]) == 5 * 4 / 2

    def test_diagonally_symmetric_power_gives_unit_ratios(self):
        power = np.ones((12, 12))
        pg = synthetic_pgram(12, 12, power)
        ratios = lz_diagonal_ratios(pg)
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
        res = lz_complete_test(synthetic_pgram(n1, n2, power), alpha=0.05)
        assert res.reject and not res.stage2_reached
        assert res.stage1_pvalue <= 0.025

    def test_stage2_runs_when_stage1_accepts(self, random_field_18x12):
        res = lz_complete_test(periodogram(random_field_18x12), alpha=0.05)
        if res.stage1_pvalue > 0.025:
            assert res.stage2_reached
            assert res.diagnostics["n_diagonal_ratios"] == 10
        assert res.diagnostics["n_reflection_ratios"] == 40

    def test_overall_level_uses_half_alpha(self, random_field_18x12):
        res = lz_complete_test(periodogram(random_field_18x12), alpha=0.05)
        if res.stage2_reached:
            expected = res.stage2_pvalue <= 0.025
            assert res.reject == expected

    def test_alpha_validated(self, random_field_18x12):
        with pytest.raises(ValueError):
            lz_complete_test(periodogram(random_field_18x12), alpha=1.5)

    def test_deterministic(self, random_field_18x12):
        a = lz_complete_test(periodogram(random_field_18x12))
        b = lz_complete_test(periodogram(random_field_18x12))
        assert a == b
