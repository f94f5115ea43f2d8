import os
import subprocess
import sys

import numpy as np
import pytest

from isotropy import (
    AnisotropyParams,
    ExponentialCovariance,
    GridSpec,
    GrfSampler,
    RngStream,
    SpatialDataset,
    uniform_locations,
)
from isotropy.diagnostics import directional_semivariogram, equicorrelation_contours
from isotropy.distributions import mix64


def dense_directional_semivariogram(dataset, n_directions=4, n_bins=10, max_dist=None):
    """Reference: the directional semivariogram from dense n x n arrays of
    every pair's displacement and squared difference."""
    loc = dataset.locations
    dx = loc[:, 0][None, :] - loc[:, 0][:, None]
    dy = loc[:, 1][None, :] - loc[:, 1][:, None]
    iu = np.triu_indices(dataset.n, k=1)
    dx, dy = dx[iu], dy[iu]
    sqdiff = (dataset.values[None, :] - dataset.values[:, None])[iu] ** 2
    dist = np.hypot(dx, dy)
    if max_dist is None:
        max_dist = float(dist.max()) / 2.0
    angle = np.mod(np.arctan2(dy, dx), np.pi)
    sector_width = np.pi / n_directions
    sector = np.mod(np.rint(angle / sector_width).astype(int), n_directions)
    edges = np.linspace(0.0, max_dist, n_bins + 1)
    rows = []
    for s in range(n_directions):
        direction_deg = s * 180.0 / n_directions
        in_sector = sector == s
        for b in range(n_bins):
            sel = in_sector & (dist > edges[b]) & (dist <= edges[b + 1])
            count = int(np.count_nonzero(sel))
            gamma = float(sqdiff[sel].mean() / 2.0) if count else float("nan")
            center = float((edges[b] + edges[b + 1]) / 2.0)
            rows.append((direction_deg, center, gamma, count))
    return rows


def binned_mean(rows, direction):
    return {d: g for d, c, g, n in rows if n > 0 and d == direction for d, g in [(c, g)]}


class TestDirectionalSemivariogram:
    def test_constant_field(self):
        g = GridSpec(8, 8)
        ds = SpatialDataset(g.locations(), np.full(64, 2.0), grid=g)
        rows = directional_semivariogram(ds, 4, 5)
        assert len(rows) == 20
        for _, _, gamma, n in rows:
            if n > 0:
                assert gamma == 0.0

    def test_empty_bins_reported(self):
        ds = SpatialDataset([(0, 0), (1, 0), (2, 0), (3, 0)], [1, 2, 3, 4.0])
        rows = directional_semivariogram(ds, 4, 3)
        vertical = [r for r in rows if r[0] == 90.0]
        assert all(r[3] == 0 for r in vertical)

    def test_anisotropic_ordering(self):
        # correlation is strongest along the transform's short axis, so
        # the semivariogram along x sits above the one along y at theta=0
        g = GridSpec(30, 30)
        cov = ExponentialCovariance.from_effective_range(6.0)
        sampler = GrfSampler(g.locations(), cov, AnisotropyParams(2.0, 0.0))
        gx = gy = 0.0
        reps = 60
        for r in range(reps):
            ds = sampler.draw(RngStream(500, mix64(2, r)), grid=g.__class__(30, 30))
            rows = directional_semivariogram(ds, 4, 6, max_dist=6.0)
            mid = [row for row in rows if 2.0 <= row[1] <= 4.0 and row[3] > 0]
            gx += np.mean([row[2] for row in mid if row[0] == 0.0])
            gy += np.mean([row[2] for row in mid if row[0] == 90.0])
        assert gx / reps > gy / reps

    def test_isotropic_directions_agree(self):
        g = GridSpec(30, 30)
        cov = ExponentialCovariance.from_effective_range(6.0)
        sampler = GrfSampler(g.locations(), cov)
        gx = gy = 0.0
        reps = 60
        for r in range(reps):
            ds = sampler.draw(RngStream(600, mix64(2, r)), grid=GridSpec(30, 30))
            rows = directional_semivariogram(ds, 4, 6, max_dist=6.0)
            mid = [row for row in rows if 2.0 <= row[1] <= 4.0 and row[3] > 0]
            gx += np.mean([row[2] for row in mid if row[0] == 0.0])
            gy += np.mean([row[2] for row in mid if row[0] == 90.0])
        assert abs(gx - gy) / reps < 0.08

    def test_validation(self):
        ds = SpatialDataset([(0, 0), (1, 0)], [1.0, 2.0])
        with pytest.raises(ValueError):
            directional_semivariogram(ds, 0, 5)


def _scattered(n, seed):
    locs = uniform_locations(n, 16.0, 10.0, RngStream(seed))
    return SpatialDataset(locs, RngStream(seed, 1).generator().standard_normal(n))


def _gridded(n1, n2, seed):
    g = GridSpec(n1, n2)
    return SpatialDataset(g.locations(), RngStream(seed).generator().standard_normal(g.size),
                          grid=g)


# name: (dataset, n_directions, n_bins, max_dist)
DIRECTIONAL_CASES = {
    "scattered-default": (lambda: _scattered(300, 1), 4, 10, None),
    "scattered-given": (lambda: _scattered(300, 2), 6, 7, 3.0),
    # grid distances fall exactly on the edges 1, 2, ... and on sector
    # boundaries; the default max_dist is half the diagonal
    "grid-given": (lambda: _gridded(18, 12, 3), 4, 6, 6.0),
    "grid-default": (lambda: _gridded(18, 12, 4), 8, 5, None),
    "grid-two-sectors": (lambda: _gridded(9, 7, 5), 2, 4, 4.0),
    # 1100 points take five chunks of rows; the other cases take one
    "many-chunks": (lambda: _scattered(1100, 6), 4, 10, None),
    # a max_dist that is not positive and finite is refused
    "zero-max-dist": (lambda: _gridded(3, 1, 7), 4, 3, 0.0),
    "negative-max-dist": (lambda: _gridded(4, 3, 8), 3, 5, -2.0),
    "nan-max-dist": (lambda: _gridded(4, 3, 8), 3, 5, float("nan")),
    "inf-max-dist": (lambda: _gridded(4, 3, 8), 3, 5, float("inf")),
}


class TestDirectionalReference:
    """The chunked pair walk gives the dense reference's rows."""

    @pytest.mark.parametrize("case", sorted(DIRECTIONAL_CASES))
    def test_matches_dense_reference(self, case):
        make, n_directions, n_bins, max_dist = DIRECTIONAL_CASES[case]
        ds = make()
        if case.endswith("-max-dist"):
            with pytest.raises(ValueError, match="max_dist must be positive and finite"):
                directional_semivariogram(ds, n_directions, n_bins, max_dist)
            return
        got = directional_semivariogram(ds, n_directions, n_bins, max_dist)
        want = dense_directional_semivariogram(ds, n_directions, n_bins, max_dist)
        assert [r[:2] + r[3:] for r in got] == [r[:2] + r[3:] for r in want]
        g, w = np.array([r[2] for r in got]), np.array([r[2] for r in want])
        assert np.array_equal(np.isnan(g), np.isnan(w))
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)

    def test_edges_are_half_open(self):
        # a unit grid with unit bins: each grid distance lands on an upper
        # edge; the 0-degree sector of 8 holds only the horizontal pairs
        ds = _gridded(6, 5, 9)
        rows = directional_semivariogram(ds, 8, 4, 4.0)
        horizontal = {center: n for d, center, _, n in rows if d == 0.0}
        assert horizontal == {0.5: 25, 1.5: 20, 2.5: 15, 3.5: 10}

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    def test_memory_grows_with_n(self):
        # dense n x n arrays at n = 4000 peak above 600 MB; VmHWM is the
        # peak of the child's own address space, unlike ru_maxrss, which
        # keeps the forking parent's
        code = (
            "import numpy as np\n"
            "from isotropy import SpatialDataset, RngStream, uniform_locations\n"
            "from isotropy.diagnostics import directional_semivariogram\n"
            "locs = uniform_locations(4000, 64.0, 40.0, RngStream(3))\n"
            "ds = SpatialDataset(locs, RngStream(4).generator().standard_normal(4000))\n"
            "rows = directional_semivariogram(ds)\n"
            "assert sum(r[3] for r in rows) > 0\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')\n"
            "           if line.startswith('VmHWM:')))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=300)
        assert int(out.stdout.split()[-1]) / 1024 < 150


class TestEquicorrelationContours:
    def test_isotropic_circles(self):
        cov = ExponentialCovariance.from_effective_range(6.0)
        rows = equicorrelation_contours(cov, None, levels=(0.5,))
        radii = np.hypot([x for _, x, _ in rows], [y for _, _, y in rows])
        expected = -np.log(0.5) / cov.phi
        assert np.allclose(radii, expected, atol=1e-9)

    def test_anisotropic_axes(self):
        # theta = 0 shrinks y in the transform, so correlation persists
        # farther along y: the ellipse's y-semiaxis is R times the x one
        cov = ExponentialCovariance.from_effective_range(6.0)
        rows = equicorrelation_contours(cov, AnisotropyParams(2.0, 0.0), levels=(0.5,))
        xs = np.array([x for _, x, _ in rows])
        ys = np.array([y for _, _, y in rows])
        d = -np.log(0.5) / cov.phi
        assert np.max(np.abs(xs)) == pytest.approx(d, rel=1e-6)
        assert np.max(np.abs(ys)) == pytest.approx(2 * d, rel=1e-6)

    def test_major_axis_angle(self):
        # with the location transform (x,y) Rot(theta) diag(1, 1/R), the
        # major axis of the equicorrelation ellipse lies at 90deg - theta
        cov = ExponentialCovariance.from_effective_range(6.0)
        theta = 3 * np.pi / 8
        rows = equicorrelation_contours(cov, AnisotropyParams(2.0, theta), levels=(0.3,))
        pts = np.array([(x, y) for _, x, y in rows])
        far = pts[np.argmax(np.hypot(pts[:, 0], pts[:, 1]))]
        angle = np.arctan2(far[1], far[0]) % np.pi
        assert angle == pytest.approx(np.pi / 2 - theta, abs=0.02)

    def test_levels_above_nugget_limit_skipped(self):
        cov = ExponentialCovariance(1.0, 1.0, 0.5)  # max correlation 0.5
        rows = equicorrelation_contours(cov, None, levels=(0.9, 0.25))
        assert {lv for lv, _, _ in rows} == {0.25}

    def test_level_validation(self):
        cov = ExponentialCovariance.from_effective_range(6.0)
        with pytest.raises(ValueError):
            equicorrelation_contours(cov, None, levels=(1.5,))
