import warnings

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from isotropy import (
    AnisotropyParams,
    ExponentialCovariance,
    GridSpec,
    GrfSampler,
    RngStream,
    anisotropic_transform,
    covariance_matrix,
    phi_from_effective_range,
    simulate_grf,
    uniform_locations,
)
from isotropy.grf import FactorizationError, _cholesky_with_jitter


class TestEffectiveRange:
    def test_xi6_no_nugget(self):
        assert phi_from_effective_range(6.0) == pytest.approx(np.log(20) / 6, abs=1e-12)
        assert phi_from_effective_range(6.0) == pytest.approx(0.499290, abs=5e-6)

    def test_xi3_no_nugget(self):
        assert phi_from_effective_range(3.0) == pytest.approx(0.998577, abs=1e-6)

    def test_round_trip(self):
        for xi in (0.5, 3.0, 6.0, 12.0, 40.0):
            cov = ExponentialCovariance.from_effective_range(xi, 2.0, 0.5)
            assert cov.effective_range() == pytest.approx(xi, abs=1e-10)
            # correlation at the effective range is exactly 0.05
            assert cov.correlation(xi) == pytest.approx(0.05, abs=1e-12)

    def test_huge_nugget_rejected(self):
        with pytest.raises(ValueError, match="nugget"):
            phi_from_effective_range(6.0, sigma2=1.0, tau2=20.0)


class TestAnisotropicTransform:
    def test_no_rotation(self):
        out = anisotropic_transform([(2.0, 2.0)], AnisotropyParams(2.0, 0.0))
        assert np.allclose(out, [(2.0, 1.0)], atol=1e-12)

    def test_quarter_turn(self):
        out = anisotropic_transform([(1.0, 0.0)], AnisotropyParams(2.0, np.pi / 2))
        assert np.allclose(out, [(0.0, 0.5)], atol=1e-12)

    def test_unit_ratio_is_isometry(self):
        rng = np.random.default_rng(5)
        pts = rng.random((20, 2)) * 10
        for theta in (0.3, 1.1, 2.9):
            out = anisotropic_transform(pts, AnisotropyParams(1.0, theta))
            d0 = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
            d1 = np.linalg.norm(out[:, None] - out[None, :], axis=-1)
            assert np.allclose(d0, d1, atol=1e-9)

    def test_angle_periodicity(self):
        rng = np.random.default_rng(6)
        pts = rng.random((15, 2)) * 8
        for theta in (0.0, 0.7, 1.4):
            a = anisotropic_transform(pts, AnisotropyParams(1.7, theta))
            b = anisotropic_transform(pts, AnisotropyParams(1.7, theta + np.pi))
            da = np.linalg.norm(a[:, None] - a[None, :], axis=-1)
            db = np.linalg.norm(b[:, None] - b[None, :], axis=-1)
            assert np.allclose(da, db, atol=1e-12)

    def test_ratio_below_one_rejected(self):
        with pytest.raises(ValueError):
            AnisotropyParams(0.5, 0.0)


class TestCovarianceMatrix:
    def test_unit_distance(self):
        cov = ExponentialCovariance(1.0, 0.0, 1.0)
        m = covariance_matrix([(0, 0), (1, 0)], cov)
        assert m[0, 1] == pytest.approx(np.exp(-1), abs=1e-12)
        assert m[0, 0] == 1.0 and np.allclose(m, m.T)

    def test_nugget_on_diagonal(self):
        cov = ExponentialCovariance(1.0, 0.5, 1.0)
        m = covariance_matrix([(0, 0), (1, 0), (0, 2)], cov)
        assert np.allclose(np.diag(m), 1.5)

    def test_single_point(self):
        cov = ExponentialCovariance(1.0, 0.5, 1.0)
        assert covariance_matrix([(3, 4)], cov).tolist() == [[1.5]]

    def test_duplicate_warns(self):
        cov = ExponentialCovariance(1.0, 0.0, 1.0)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            covariance_matrix([(0, 0), (0, 0)], cov)

    @pytest.mark.parametrize("locations", [
        np.random.default_rng(2).random((300, 2)) * (16, 10),
        GridSpec(18, 12, 0.7).locations(),
        anisotropic_transform(GridSpec(18, 12).locations(), AnisotropyParams(2.0, 1.1)),
        np.array([(0, 0), (1e-300, 0), (5, 5)]),  # a distance that underflows to 0
        np.array([(0, 0), (0, 0), (1, 1)]),
    ], ids=["scattered", "lattice", "rotated", "underflow", "duplicate"])
    def test_matches_pdist(self, locations):
        cov = ExponentialCovariance(1.0, 0.2, 0.7)
        condensed = pdist(locations)
        want = cov.sigma2 * np.exp(-cov.phi * squareform(condensed))
        np.fill_diagonal(want, cov.sill)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = covariance_matrix(locations, cov)
        assert got.tobytes() == want.tobytes()
        assert [str(w.message) for w in caught] == (
            ["duplicate locations produce a degenerate covariance matrix"]
            if condensed.min() <= 0 else [])

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ExponentialCovariance(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ExponentialCovariance(1.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            ExponentialCovariance(1.0, 0.0, 0.0)


class TestSimulation:
    def test_deterministic(self):
        g = GridSpec(6, 5)
        cov = ExponentialCovariance.from_effective_range(3.0)
        a = simulate_grf(g.locations(), cov, rng=RngStream(9, 1))
        b = simulate_grf(g.locations(), cov, rng=RngStream(9, 1))
        assert np.array_equal(a.values, b.values)

    def test_unit_ratio_equals_isotropic(self):
        g = GridSpec(6, 5)
        cov = ExponentialCovariance.from_effective_range(3.0)
        iso = simulate_grf(g.locations(), cov, None, RngStream(9, 2))
        rot = simulate_grf(g.locations(), cov, AnisotropyParams(1.0, 1.1), RngStream(9, 2))
        assert np.array_equal(iso.values, rot.values)

    def test_factor_residual(self):
        rng = np.random.default_rng(12)
        pts = rng.random((150, 2)) * 3  # dense cluster, near-singular matrix
        cov = ExponentialCovariance.from_effective_range(6.0)
        sampler = GrfSampler(pts, cov)
        sigma = covariance_matrix(pts, cov)
        resid = np.max(np.abs(sampler._factor @ sampler._factor.T - sigma))
        assert resid <= 1e-8

    def test_factorization_failure_reports_last_jitter(self):
        # indefinite: no diagonal jitter up to 1e-8 x sill makes it factor
        with pytest.raises(FactorizationError, match="1e-08"):
            _cholesky_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)

    def test_pair_correlation_matches_model(self):
        # 2000 independent draws of a two-point field at distance 1
        cov = ExponentialCovariance(1.0, 0.0, np.log(20) / 6)
        sampler = GrfSampler([(0.0, 0.0), (1.0, 0.0)], cov)
        draws = np.array([sampler.draw_values(RngStream(77, k)) for k in range(2000)])
        r = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(r - np.exp(-cov.phi)) < 0.05

    def test_sample_variance_near_sill(self):
        # large sparse field: sample variance approaches the sill
        cov = ExponentialCovariance.from_effective_range(6.0, sigma2=0.8, tau2=0.2)
        locs = uniform_locations(2000, 220.0, 220.0, RngStream(31, 0))
        ds = simulate_grf(locs, cov, rng=RngStream(31, 1))
        assert ds.values.var() == pytest.approx(cov.sill, rel=0.05)

    def test_anisotropic_field_attached_to_original_locations(self):
        g = GridSpec(5, 4)
        ds = simulate_grf(
            g.locations(), ExponentialCovariance.from_effective_range(3.0),
            AnisotropyParams(2.0, 0.4), RngStream(2, 2), grid=g,
        )
        assert np.array_equal(ds.locations, g.locations())


class TestUniformLocations:
    def test_inside_rectangle_and_deterministic(self):
        a = uniform_locations(300, 16.0, 10.0, RngStream(5, 5))
        b = uniform_locations(300, 16.0, 10.0, RngStream(5, 5))
        assert np.array_equal(a, b)
        assert a.shape == (300, 2)
        assert a[:, 0].min() >= 0 and a[:, 0].max() <= 16
        assert a[:, 1].min() >= 0 and a[:, 1].max() <= 10

    def test_density(self):
        pts = uniform_locations(300, 16.0, 10.0, RngStream(6, 0))
        density = pts.shape[0] / 160.0
        assert density == pytest.approx(1.875)
        # roughly uniform coverage: each half holds about half the points
        assert abs((pts[:, 0] < 8).mean() - 0.5) < 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_locations(0, 16, 10, RngStream(1))
        with pytest.raises(ValueError):
            uniform_locations(5, -1, 10, RngStream(1))

    @pytest.mark.parametrize("width, height", [(np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0)])
    def test_refuses_a_non_finite_domain(self, width, height):
        # uniform_locations(5, inf, 1.0, rng) once returned infinite x
        with pytest.raises(ValueError, match="domain dimensions must be positive and finite"):
            uniform_locations(5, width, height, RngStream(1))
