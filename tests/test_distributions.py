import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from isotropy.distributions import (
    RngStream,
    chi2_sf,
    cvm_pvalue,
    cvm_statistics,
    cvm_test,
    f22_cdf,
    mix64,
    _cvm_limit_cdf,
)


class TestChi2:
    def test_zero_gives_one(self):
        assert chi2_sf(0.0, 2) == 1.0

    @pytest.mark.parametrize("df", [1, 2, 3, 6])
    def test_infinite_statistic(self, df):
        assert chi2_sf(np.inf, df) == 0.0 == special.chdtrc(df, np.inf)

    def test_quantile_values(self):
        assert chi2_sf(5.991465, 2) == pytest.approx(0.05, abs=1e-4)
        assert chi2_sf(4.605170, 2) == pytest.approx(0.10, abs=1e-4)

    def test_df2_closed_form(self):
        for x in np.linspace(0.0, 50.0, 201):
            assert abs(chi2_sf(x, 2) - np.exp(-x / 2)) <= 1e-12

    def test_monotone_decreasing(self):
        xs = np.linspace(0, 30, 100)
        vals = [chi2_sf(x, 3) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chi2_sf(-0.1, 2)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 2.5)

    @pytest.mark.parametrize("df", range(1, 13))
    def test_matches_scipy(self, df):
        xs = np.concatenate([np.linspace(0.0, 1500.0, 6001), np.geomspace(1e-300, 1.0, 300)])
        want = special.chdtrc(df, xs)
        got = np.array([chi2_sf(x, df) for x in xs])
        kept = want > 1e-290
        np.testing.assert_allclose(got[kept], want[kept], rtol=1e-12, atol=0)
        assert np.all(got[~kept] <= 1e-289)


class TestF22:
    def test_examples(self):
        assert f22_cdf(0.0) == 0.0
        assert f22_cdf(1.0) == pytest.approx(0.5, abs=1e-15)
        assert f22_cdf(19.0) == pytest.approx(0.95, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            f22_cdf(-1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-3, 1e3))
    def test_reciprocal_symmetry(self, x):
        assert abs((1.0 - f22_cdf(x)) - f22_cdf(1.0 / x)) <= 1e-12

    def test_matches_scipy(self):
        xs = np.linspace(0.01, 25, 50)
        assert np.allclose(f22_cdf(xs), stats.f.cdf(xs, 2, 2), atol=1e-12)


def _scipy_limit_cdf(x):
    """The limiting CvM cdf by the Anderson-Darling (1952) Bessel series,
    with scipy's ``gammaln`` and ``kve``, summed until a term falls below 1e-14."""
    if x <= 0:
        return 0.0
    if x > 12:
        return 1.0
    total = 0.0
    for k in range(60):
        y = 4 * k + 1
        q = y * y / (16.0 * x)
        term = (np.exp(special.gammaln(k + 0.5) - special.gammaln(k + 1) - 2 * q)
                * np.sqrt(y) * special.kve(0.25, q))
        total += term
        if term < 1e-14 and k > 2:
            break
    return min(1.0, total / (np.pi ** 1.5 * np.sqrt(x)))


class TestCvm:
    def test_hand_example_two_points(self):
        # u-values 0.25 and 0.75 sit exactly on (2i-1)/(2n)
        w, _ = cvm_test([0.25, 0.75], lambda v: v)
        assert w == pytest.approx(1 / 24, abs=1e-15)

    def test_hand_example_single_point(self):
        w, _ = cvm_test([0.5], lambda v: v)
        assert w == pytest.approx(1 / 12, abs=1e-15)

    def test_statistic_lower_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = rng.integers(1, 40)
            u = np.sort(rng.random(n))
            assert cvm_statistics(u, lambda v: v) >= 1 / (12 * n) - 1e-15

    def test_limit_cdf_anchor_points(self):
        # classical critical values of the limiting null distribution
        assert _cvm_limit_cdf(0.34730) == pytest.approx(0.90, abs=1e-3)
        assert _cvm_limit_cdf(0.46136) == pytest.approx(0.95, abs=1e-3)
        assert _cvm_limit_cdf(0.74346) == pytest.approx(0.99, abs=1e-3)
        assert _cvm_limit_cdf(1.16786) == pytest.approx(0.999, abs=1e-3)

    def test_limit_cdf_matches_the_scipy_series(self):
        xs = [*np.geomspace(1e-3, 12, 3000), 0.0, -1.0, 12.0 + 1e-12, 50.0, np.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no floating-point warning of any kind
            got = np.array([_cvm_limit_cdf(x) for x in xs])
        want = np.array([_scipy_limit_cdf(x) for x in xs])
        assert np.max(np.abs(got - want)) <= 1e-14
        assert list(got[-5:]) == [0.0, 0.0, 1.0, 1.0, 1.0]

    def test_nan_sample_raises(self):
        # a NaN statistic once read as the clamped p-value 1e-6, a strong rejection
        with pytest.raises(ValueError, match="NaN"):
            cvm_test([0.5, np.nan, 2.0], f22_cdf)

    def test_nan_statistic_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            cvm_pvalue(np.nan)

    def test_pvalue_close_to_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.random(80)
            w, p = cvm_test(x, lambda v: np.clip(v, 0, 1))
            ref = stats.cramervonmises(x, "uniform")
            assert w == pytest.approx(ref.statistic, abs=1e-12)
            assert p == pytest.approx(ref.pvalue, abs=5e-3)

    def test_null_calibration_uniform(self):
        # samples drawn from the hypothesized cdf give uniform p-values
        rng = np.random.default_rng(2024)
        pvals = [cvm_test(rng.random(50), lambda v: np.clip(v, 0, 1))[1]
                 for _ in range(1000)]
        ks = stats.kstest(pvals, "uniform")
        assert ks.pvalue > 0.01

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            cvm_test([], lambda v: v)

    def test_cdf_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            cvm_test([1.0, 2.0], lambda v: v)

    def test_extreme_statistic_clamped(self):
        with pytest.warns(RuntimeWarning, match="clamped"):
            assert cvm_pvalue(25.0) == 1e-6


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 7).generator().standard_normal(8)
        b = RngStream(42, 7).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 7).generator().standard_normal(8)
        b = RngStream(42, 8).generator().standard_normal(8)
        c = RngStream(43, 7).generator().standard_normal(8)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_substream_deterministic(self):
        s = RngStream(1, 2)
        assert s.substream(3, 4) == s.substream(3, 4)
        assert s.substream(3) != s.substream(4)

    def test_mix64_is_stable(self):
        # frozen values guard against accidental reseeding of past studies
        assert mix64(0) == 11323369540040135978
        assert mix64(1, 2) == 428234566470369116
        assert 0 <= mix64(2**70, -5) < 2**64
