import numpy as np
import pytest

from isotropy import (
    EstimatorConfig,
    ExponentialCovariance,
    GridSpec,
    GrfSampler,
    KernelSpec,
    Rect,
    RngStream,
    SpatialDataset,
    WindowSpec,
    default_lag_set,
    empirical_bandwidth,
    gbbb_resample,
    gbbb_variance,
    subsample_variance,
    uniform_locations,
)
from isotropy import estimators, resampling, spatial_tests
from isotropy.core import GRID_MATCH_TOL
from isotropy.distributions import mix64
from isotropy.estimators import EmptyNeighborhoodError, NoPairsError, estimate_G, pair_table
from isotropy.resampling import ResamplingError, _window_origins, _Windows
from isotropy.spatial_tests import default_block


def unit_grid_dataset(n1, n2, values=None, seed=0):
    g = GridSpec(n1, n2)
    if values is None:
        values = RngStream(seed).generator().standard_normal(g.size)
    return SpatialDataset(g.locations(), values, grid=g)


def window_points(ds, domain, window):
    """Point indices of every window, from the per-axis membership ranges;
    empty windows are left out."""
    w = _Windows.build(ds, domain, window)
    out = []
    for a in range(w.shape[0]):
        for b in range(w.shape[1]):
            inside = ((w.x_first <= a) & (a <= w.x_last)
                      & (w.y_first <= b) & (b <= w.y_last))
            if inside.any():
                out.append(np.nonzero(inside)[0])
    return out


class TestMovingWindows:
    def test_18x12_with_3x2(self):
        ds = unit_grid_dataset(18, 12)
        wins = window_points(ds, Rect(0, 0, 18, 12), WindowSpec(3, 2))
        assert len(wins) == 176
        assert all(w.size == 6 for w in wins)

    def test_12x12_with_2x2(self):
        ds = unit_grid_dataset(12, 12)
        wins = window_points(ds, Rect(0, 0, 12, 12), WindowSpec(2, 2))
        assert len(wins) == 121

    def test_window_equals_domain(self):
        ds = unit_grid_dataset(5, 4)
        wins = window_points(ds, Rect(0, 0, 5, 4), WindowSpec(5, 4))
        assert len(wins) == 1
        assert wins[0].size == ds.n

    def test_window_larger_than_domain(self):
        ds = unit_grid_dataset(5, 4)
        with pytest.raises(ValueError, match="exceeds"):
            _Windows.build(ds, Rect(0, 0, 5, 4), WindowSpec(6, 2))

    def test_counts_match_closed_form(self):
        # origin counts on unit grids for every window size up to 5x5
        for n1, n2 in [(8, 6), (12, 12), (30, 17), (30, 30)]:
            dom = Rect(0, 0, n1, n2)
            for w in range(1, 6):
                for h in range(1, 6):
                    xs, ys = _window_origins(dom, WindowSpec(w, h), 1.0)
                    assert xs.size * ys.size == (n1 - w + 1) * (n2 - h + 1)

    def test_fractional_step(self):
        dom = Rect(0, 0, 16, 10)
        xs, ys = _window_origins(dom, WindowSpec(4, 2), 0.5)
        assert xs.size * ys.size == 25 * 17

    def test_every_point_recoverable(self):
        # boundary points are not lost to the half-open convention
        ds = unit_grid_dataset(6, 5)
        wins = window_points(ds, Rect(0, 0, 6, 5), WindowSpec(3, 2))
        seen = set()
        for w in wins:
            seen.update(map(tuple, ds.locations[w]))
        assert len(seen) == ds.n


def oracle_subsample(ds, lag_set, cfg, window, domain=None, tol=None):
    """Moving-window variance the slow way: every window is a new dataset
    (half-open windows, an edge closed at the domain edge) estimated from
    scratch."""
    if domain is None:
        domain = Rect.from_dataset(ds)
    step = window.resolve_step(ds)
    eps = 1e-9
    nx = int(np.floor((domain.width - window.width) / step + eps)) + 1
    ny = int(np.floor((domain.height - window.height) / step + eps)) + 1
    ghats, weights, sizes, discarded = [], [], [], 0
    x, y = ds.locations[:, 0], ds.locations[:, 1]
    for ox in domain.x0 + step * np.arange(nx):
        for oy in domain.y0 + step * np.arange(ny):
            x1, y1 = ox + window.width, oy + window.height
            in_x = (x <= x1 + eps) if abs(x1 - domain.x0 - domain.width) <= eps else (x < x1)
            in_y = (y <= y1 + eps) if abs(y1 - domain.y0 - domain.height) <= eps else (y < y1)
            mask = (x >= ox - eps) & in_x & (y >= oy - eps) & in_y
            if mask.sum() < 2:
                discarded += 1
                continue
            sub = SpatialDataset(ds.locations[mask], ds.values[mask], validate=False)
            try:
                g = estimate_G(sub, lag_set, cfg, tol=tol)
            except (NoPairsError, EmptyNeighborhoodError):
                discarded += 1
                continue
            ghats.append(g.values)
            weights.append(g.weights)
            sizes.append(mask.sum())
    gmat = np.asarray(ghats)
    if cfg.kind == "classical_semivariogram":
        wmat = np.asarray(weights)
        full_w = estimate_G(ds, lag_set, cfg, tol=tol).weights
    else:
        wmat = np.repeat(np.asarray(sizes, float)[:, None], lag_set.k, axis=1)
        full_w = np.full(lag_set.k, float(ds.n))
    z = np.sqrt(wmat / full_w) * (gmat - gmat.mean(axis=0))
    return gmat, wmat, (z.T @ z) / gmat.shape[0], nx * ny, discarded


def _grid(n1, n2, spacing=1.0, declared=True, seed=0):
    g = GridSpec(n1, n2, spacing)
    vals = RngStream(seed).generator().standard_normal(g.size)
    return SpatialDataset(g.locations(), vals, grid=g if declared else None)


def _scattered(n, w, h, seed, offset=0.0):
    locs = uniform_locations(n, w, h, RngStream(seed))
    return SpatialDataset(locs, offset + RngStream(seed + 1).generator().standard_normal(n))


CLASSICAL = EstimatorConfig()
ORACLE_CASES = {
    "18x12-4x3": (lambda: _grid(18, 12), default_lag_set(), CLASSICAL,
                  WindowSpec(4, 3), None, GRID_MATCH_TOL),
    "25x15-5x3": (lambda: _grid(25, 15, seed=1), default_lag_set(), CLASSICAL,
                  WindowSpec(5, 3), None, GRID_MATCH_TOL),
    # 1-wide windows hold two columns only where the edge closes
    "narrower-than-lag": (lambda: _grid(10, 8, seed=2), default_lag_set(), CLASSICAL,
                          WindowSpec(1, 3), Rect(0, 0, 9, 7), GRID_MATCH_TOL),
    "half-step": (lambda: _grid(12, 10, seed=3), default_lag_set(), CLASSICAL,
                  WindowSpec(3, 2, offset_step=0.5), None, GRID_MATCH_TOL),
    "spacing-0.5": (lambda: _grid(16, 12, 0.5, seed=4), default_lag_set(0.5), CLASSICAL,
                    WindowSpec(2.0, 1.5), None, 0.5 * GRID_MATCH_TOL),
    "undeclared-lattice": (lambda: _grid(14, 9, declared=False, seed=5), default_lag_set(),
                           CLASSICAL, WindowSpec(3, 2), None, None),
    "gsc-u": (lambda: _scattered(300, 16.0, 10.0, 6), default_lag_set(),
              EstimatorConfig("kernel_semivariogram",
                              KernelSpec("truncated_gaussian", 1.5), 0.75),
              WindowSpec(4, 2), Rect(0, 0, 16, 10), None),
    "epanechnikov-0.25": (lambda: _scattered(120, 12.0, 8.0, 17), default_lag_set(),
                          EstimatorConfig("kernel_semivariogram",
                                          KernelSpec("epanechnikov"), 0.25),
                          WindowSpec(4, 2), None, None),
    "covariogram": (lambda: _scattered(200, 12.0, 8.0, 8, offset=3.0), default_lag_set(),
                    EstimatorConfig("kernel_covariogram", KernelSpec("epanechnikov"), 0.6),
                    WindowSpec(4, 2), Rect(0, 0, 12, 8), None),
    # bandwidth 1.5 gives lag 0 positive weight at every lag of the set
    "covariogram-lag0": (lambda: _scattered(200, 12.0, 8.0, 9, offset=3.0),
                         default_lag_set(),
                         EstimatorConfig("kernel_covariogram",
                                         KernelSpec("epanechnikov"), 1.5),
                         WindowSpec(3, 2), Rect(0, 0, 12, 8), None),
}


class TestWindowOracle:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_per_window_estimates(self, case):
        make, lag_set, cfg, window, domain, tol = ORACLE_CASES[case]
        ds = make()
        gmat, wmat, sigma, n_windows, discarded = oracle_subsample(
            ds, lag_set, cfg, window, domain, tol)
        res = subsample_variance(ds, pair_table(ds, lag_set, cfg, tol), window, domain)
        assert res.n_windows == n_windows
        assert res.n_discarded == discarded
        assert np.array_equal(res.window_weights, wmat)
        np.testing.assert_allclose(res.window_ghats, gmat, rtol=1e-10, atol=0)
        np.testing.assert_allclose(res.sigma.matrix, sigma, rtol=1e-10,
                                   atol=1e-10 * np.abs(sigma).max())

    def test_cases_cover_discards_and_self_pairs(self):
        # the cases exercise what they are named for
        for case in ("narrower-than-lag", "epanechnikov-0.25"):
            make, lag_set, cfg, window, domain, tol = ORACLE_CASES[case]
            ds = make()
            res = subsample_variance(ds, pair_table(ds, lag_set, cfg, tol), window, domain)
            assert res.n_discarded > 0
        cfg = ORACLE_CASES["covariogram-lag0"][2]
        assert np.all(estimate_G(ORACLE_CASES["covariogram-lag0"][0](), default_lag_set(),
                                 cfg).pairs.self_weights > 0)


def _classical(ds):
    return pair_table(ds, default_lag_set(), EstimatorConfig())


class TestSubsampleVariance:
    def test_periodic_stripes_give_zero_matrix(self):
        # values depend only on y parity: every 3x2 window sees the same pair
        g = GridSpec(12, 8)
        locs = g.locations()
        values = np.where(locs[:, 1] % 2 == 0, 1.5, -0.5)
        ds = SpatialDataset(locs, values, grid=g)
        res = subsample_variance(ds, _classical(ds), WindowSpec(3, 2))
        assert np.allclose(res.sigma.matrix, 0.0, atol=1e-24)

    def test_value_scaling_quartic(self):
        ds = unit_grid_dataset(14, 10, seed=3)
        win = WindowSpec(3, 2)
        a = subsample_variance(ds, _classical(ds), win)
        scaled = SpatialDataset(ds.locations, 2.0 * ds.values, grid=ds.grid)
        b = subsample_variance(scaled, _classical(scaled), win)
        assert np.allclose(b.sigma.matrix, 16.0 * a.sigma.matrix, rtol=1e-12)

    def test_row_order_invariance(self):
        ds = unit_grid_dataset(10, 8, seed=5)
        perm = RngStream(6).generator().permutation(ds.n)
        shuffled = SpatialDataset(ds.locations[perm], ds.values[perm], grid=ds.grid)
        a = subsample_variance(ds, _classical(ds), WindowSpec(3, 2))
        b = subsample_variance(shuffled, _classical(shuffled), WindowSpec(3, 2))
        assert np.allclose(a.sigma.matrix, b.sigma.matrix, atol=1e-12)

    def test_psd_and_diagnostics(self):
        ds = unit_grid_dataset(18, 12, seed=9)
        res = subsample_variance(ds, _classical(ds), WindowSpec(3, 2))
        assert res.n_windows == 176
        assert res.window_ghats.shape == (176, 4)
        assert res.n_discarded == 0
        eig = np.linalg.eigvalsh(res.sigma.matrix)
        assert eig.min() >= -1e-10
        assert res.sigma.method == "moving_window"
        assert np.array_equal(res.sigma.matrix, res.sigma.matrix.T)

    def test_kernel_windows_discarded_when_empty(self):
        # tiny bandwidth: windows lacking exact-lag pairs get discarded
        locs = uniform_locations(120, 12.0, 8.0, RngStream(17))
        ds = SpatialDataset(locs, RngStream(18).generator().standard_normal(120))
        cfg = EstimatorConfig("kernel_semivariogram", KernelSpec("epanechnikov"), 0.25)
        res = subsample_variance(ds, pair_table(ds, default_lag_set(), cfg), WindowSpec(4, 2))
        assert res.n_discarded > 0
        assert res.window_ghats.shape[0] + res.n_discarded == res.n_windows

    def test_too_few_usable_windows(self):
        ds = unit_grid_dataset(3, 3, seed=2)
        with pytest.raises(ResamplingError, match="usable windows"):
            subsample_variance(ds, _classical(ds), WindowSpec(1, 1))


class TestGbbbResample:
    def test_block_equals_domain_identity(self):
        ds = unit_grid_dataset(6, 4, seed=1)
        out = gbbb_resample(ds, WindowSpec(6, 4), RngStream(5), Rect(0, 0, 6, 4))
        a = sorted(map(tuple, np.column_stack([out.locations, out.values])))
        b = sorted(map(tuple, np.column_stack([ds.locations, ds.values])))
        assert a == b

    def test_locations_stay_inside_domain(self):
        locs = uniform_locations(200, 16.0, 10.0, RngStream(7))
        ds = SpatialDataset(locs, np.arange(200.0))
        dom = Rect(0, 0, 16, 10)
        for b in range(20):
            out = gbbb_resample(ds, WindowSpec(4, 2), RngStream(9, b), dom)
            assert out.locations[:, 0].min() >= 0
            assert out.locations[:, 0].max() <= 16
            assert out.locations[:, 1].min() >= 0
            assert out.locations[:, 1].max() <= 10

    def test_deterministic(self):
        locs = uniform_locations(100, 8.0, 6.0, RngStream(8))
        ds = SpatialDataset(locs, np.arange(100.0))
        a = gbbb_resample(ds, WindowSpec(2, 2), RngStream(4, 4), Rect(0, 0, 8, 6))
        b = gbbb_resample(ds, WindowSpec(2, 2), RngStream(4, 4), Rect(0, 0, 8, 6))
        assert np.array_equal(a.locations, b.locations)
        assert np.array_equal(a.values, b.values)

    def test_mean_resampled_count_near_n(self):
        locs = uniform_locations(300, 16.0, 10.0, RngStream(10))
        ds = SpatialDataset(locs, np.zeros(300))
        dom = Rect(0, 0, 16, 10)
        counts = [gbbb_resample(ds, WindowSpec(4, 2), RngStream(11, b), dom).n
                  for b in range(200)]
        assert abs(np.mean(counts) - 300) < 3 * np.sqrt(300)

    def test_matches_region_loop_bitwise(self):
        # one region at a time, the observations of its drawn block shifted
        # into place, concatenated in region order
        locs = uniform_locations(300, 16.0, 10.0, RngStream(12))
        ds = SpatialDataset(locs, RngStream(13).generator().standard_normal(300))
        dom, block = Rect(0, 0, 16, 10), WindowSpec(4, 2)
        regions, _ = resampling._partition_regions(dom, block)
        for b in range(50):
            gen = RngStream(14, b).generator()
            u = dom.x0 + gen.random(len(regions)) * (dom.width - block.width)
            v = dom.y0 + gen.random(len(regions)) * (dom.height - block.height)
            want_loc, want_val = [], []
            for (rx, ry), bx, by in zip(regions, u, v):
                m = ((ds.locations[:, 0] >= bx) & (ds.locations[:, 0] < bx + block.width)
                     & (ds.locations[:, 1] >= by) & (ds.locations[:, 1] < by + block.height))
                want_loc.append(ds.locations[m] + (rx - bx, ry - by))
                want_val.append(ds.values[m])
            out = gbbb_resample(ds, block, RngStream(14, b), dom)
            assert np.array_equal(out.locations, np.concatenate(want_loc))
            assert np.array_equal(out.values, np.concatenate(want_val))

    def test_block_larger_than_domain(self):
        ds = unit_grid_dataset(4, 4)
        with pytest.raises(ValueError, match="exceeds"):
            gbbb_resample(ds, WindowSpec(9, 2), RngStream(1), Rect(0, 0, 4, 4))


class TestGbbbVariance:
    @pytest.fixture
    def uniform_ds(self):
        locs = uniform_locations(250, 16.0, 10.0, RngStream(30))
        vals = RngStream(31).generator().standard_normal(250)
        return SpatialDataset(locs, vals)

    def kernel_table(self, ds):
        return pair_table(ds, default_lag_set(), _ms_config(ds))

    def test_deterministic_and_psd(self, uniform_ds):
        table = self.kernel_table(uniform_ds)
        dom = Rect(0, 0, 16, 10)
        a = gbbb_variance(uniform_ds, table, WindowSpec(4, 2), 50, RngStream(77), dom)
        b = gbbb_variance(uniform_ds, table, WindowSpec(4, 2), 50, RngStream(77), dom)
        assert np.array_equal(a.sigma.matrix, b.sigma.matrix)
        assert np.linalg.eigvalsh(a.sigma.matrix).min() >= -1e-10
        assert a.sigma.method == "gbbb"
        assert a.n_success == 50
        assert a.trim_fraction == 0.0

    def test_constant_field_zero_matrix(self):
        locs = uniform_locations(200, 16.0, 10.0, RngStream(33))
        ds = SpatialDataset(locs, np.full(200, 4.0))
        cfg = EstimatorConfig("kernel_covariogram", KernelSpec("epanechnikov"), 0.4)
        res = gbbb_variance(ds, pair_table(ds, default_lag_set(), cfg), WindowSpec(4, 2),
                            30, RngStream(34), Rect(0, 0, 16, 10))
        assert np.allclose(res.sigma.matrix, 0.0, atol=1e-20)

    def test_needs_two_resamples(self, uniform_ds):
        with pytest.raises(ValueError):
            gbbb_variance(uniform_ds, self.kernel_table(uniform_ds),
                          WindowSpec(4, 2), 1, RngStream(1), Rect(0, 0, 16, 10))

    def test_failure_fraction_guard(self):
        # sparse data and a tiny bandwidth make most resamples unusable
        locs = uniform_locations(25, 16.0, 10.0, RngStream(40))
        ds = SpatialDataset(locs, np.arange(25.0))
        cfg = EstimatorConfig("kernel_covariogram", KernelSpec("epanechnikov"), 0.05)
        with pytest.raises(ResamplingError, match="failed"):
            gbbb_variance(ds, pair_table(ds, default_lag_set(), cfg), WindowSpec(4, 2),
                          30, RngStream(41), Rect(0, 0, 16, 10))

    def test_classical_estimator_rejected(self, uniform_ds):
        with pytest.raises(ValueError, match="kernel estimator"):
            gbbb_variance(uniform_ds, _classical(uniform_ds),
                          WindowSpec(4, 2), 20, RngStream(2), Rect(0, 0, 16, 10))

    def test_unrelated_error_propagates(self, uniform_ds, monkeypatch):
        # a bug in the kernel pass over cross-region pairs is not a failed resample
        table = self.kernel_table(uniform_ds)

        def broken(self, u):
            raise ValueError("bug")

        monkeypatch.setattr(KernelSpec, "weight", broken)
        with pytest.raises(ValueError, match="bug"):
            gbbb_variance(uniform_ds, table, WindowSpec(4, 2), 20,
                          RngStream(2), Rect(0, 0, 16, 10))

    def test_numerical_failure_is_counted(self, monkeypatch):
        # resample 3 puts every block where there is no data, resample 6
        # where each block holds one isolated point, so no lag has a pair
        ds = _with_isolated_point(200, seed=35)
        _move_blocks(monkeypatch, RngStream(2), {3: (12.0, 7.0), 6: (12.0, 4.0)})
        res = gbbb_variance(ds, self.kernel_table(ds), WindowSpec(4, 2), 20,
                            RngStream(2), Rect(0, 0, 16, 10))
        assert (res.n_success, res.n_failed) == (18, 2)


def _with_isolated_point(n, seed):
    """n points left of x = 12 on a 16x10 domain, and one at (14, 5)."""
    locs = np.vstack([uniform_locations(n, 12.0, 10.0, RngStream(seed)), [[14.0, 5.0]]])
    return SpatialDataset(locs, RngStream(seed + 1).generator().standard_normal(n + 1))


def _move_blocks(monkeypatch, rng, moves):
    """Put every block of resample b (substream b of ``rng``) at the origin
    ``moves[b]``, wherever the blocks are drawn."""
    real = resampling._draw_blocks
    by_key = {mix64(rng.stream_id, b): origin for b, origin in moves.items()}

    def draw(domain, block, n_regions, gen):
        u, v = real(domain, block, n_regions, gen)
        origin = by_key.get(int(gen.bit_generator.state["state"]["key"][1]))
        if origin is not None:
            u[:], v[:] = origin
        return u, v

    monkeypatch.setattr(resampling, "_draw_blocks", draw)


FAILURES = (NoPairsError, EmptyNeighborhoodError, ResamplingError)


def oracle_gbbb(ds, lag_set, cfg, block, n_boot, rng, domain):
    """Block-bootstrap variance the slow way: every resample is a new
    dataset estimated from scratch.  Returns Sigma, the success count and
    the failure reasons."""
    ghats, failures = [], []
    for b in range(n_boot):
        try:
            resample = gbbb_resample(ds, block, rng.substream(b), domain)
            ghats.append(estimate_G(resample, lag_set, cfg).values)
        except FAILURES as exc:
            failures.append(type(exc).__name__)
    gmat = np.asarray(ghats)
    centered = gmat - gmat.mean(axis=0)
    return centered.T @ centered / (gmat.shape[0] - 1), gmat.shape[0], failures


def _field(n, w, h, seed, offset=0.0):
    locs = uniform_locations(n, w, h, RngStream(seed, 1))
    cov = ExponentialCovariance.from_effective_range(6.0)
    return SpatialDataset(locs, offset + GrfSampler(locs, cov).draw(RngStream(seed, 2)).values)


def _ms_config(ds):
    return EstimatorConfig("kernel_covariogram", KernelSpec("epanechnikov"),
                           empirical_bandwidth(ds))


def _bench_block(ds):
    return default_block(ds, 1.0, Rect(0, 0, 32, 20))


# name: (dataset, lag set, estimator, block, domain, forced block origins)
GBBB_CASES = {
    "gvm-a": (lambda: _field(300, 16.0, 10.0, 1), default_lag_set(), _ms_config,
              lambda ds: WindowSpec(4, 2), Rect(0, 0, 16, 10), {}),
    "benchmark-n1000": (lambda: _field(1000, 32.0, 20.0, 2), default_lag_set(), _ms_config,
                        _bench_block, Rect(0, 0, 32, 20), {}),
    # reach about 2.8 against a block 2 high: pairs span non-adjacent regions
    "long-lags": (lambda: _field(400, 16.0, 10.0, 3), default_lag_set(2.5), _ms_config,
                  lambda ds: WindowSpec(4, 2), Rect(0, 0, 16, 10), {}),
    "block-fills-x": (lambda: _field(300, 16.0, 10.0, 4), default_lag_set(), _ms_config,
                      lambda ds: WindowSpec(16, 2), Rect(0, 0, 16, 10), {}),
    "trimmed": (lambda: _field(300, 16.0, 10.0, 5), default_lag_set(), _ms_config,
                lambda ds: WindowSpec(5, 3), Rect(0, 0, 16, 10), {}),
    "failures": (lambda: _with_isolated_point(250, seed=6), default_lag_set(), _ms_config,
                 lambda ds: WindowSpec(4, 2), Rect(0, 0, 16, 10),
                 {4: (12.0, 7.0), 9: (12.0, 4.0)}),
    "offset-3": (lambda: _field(300, 16.0, 10.0, 7, offset=3.0), default_lag_set(),
                 _ms_config, lambda ds: WindowSpec(4, 2), Rect(0, 0, 16, 10), {}),
    "semivariogram": (lambda: _field(300, 16.0, 10.0, 8), default_lag_set(),
                      lambda ds: EstimatorConfig("kernel_semivariogram",
                                                 KernelSpec("truncated_gaussian", 1.5), 0.75),
                      lambda ds: WindowSpec(4, 2), Rect(0, 0, 16, 10), {}),
}


class TestGbbbOracle:
    @staticmethod
    def _run(case, monkeypatch):
        """The oracle's (Sigma, successes, failure reasons) and the result."""
        make, lag_set, config, block, domain, moves = GBBB_CASES[case]
        ds = make()
        cfg, blk = config(ds), block(ds)
        _move_blocks(monkeypatch, RngStream(61), moves)
        want = oracle_gbbb(ds, lag_set, cfg, blk, 100, RngStream(61), domain)
        return want, gbbb_variance(ds, pair_table(ds, lag_set, cfg), blk, 100,
                                   RngStream(61), domain)

    @pytest.mark.parametrize("case", sorted(GBBB_CASES))
    def test_matches_per_resample_estimates(self, case, monkeypatch):
        (sigma, n_success, failures), res = self._run(case, monkeypatch)
        assert (res.n_success, res.n_failed) == (n_success, len(failures))
        np.testing.assert_allclose(res.sigma.matrix, sigma, rtol=1e-12,
                                   atol=1e-12 * np.abs(sigma).max())

    def test_cases_cover_what_they_are_named_for(self, monkeypatch):
        (_, _, failures), _ = self._run("failures", monkeypatch)
        assert sorted(failures) == ["EmptyNeighborhoodError", "ResamplingError"]
        assert self._run("trimmed", monkeypatch)[-1].trim_fraction > 0
        reach = 2.5 + _ms_config(GBBB_CASES["long-lags"][0]()).bandwidth
        assert reach > WindowSpec(4, 2).height


class TestWindowCost:
    """Moving windows reuse the full sample's pair table: no per-window
    dataset, pair search or kernel pass."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from isotropy import core

        seen = {"take": 0, "enumerate_lag_pairs": 0, "_candidate_pairs": 0,
                "estimate_G": 0, "gbbb_resample": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                seen[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(core.SpatialDataset, "take",
                            counting("take", core.SpatialDataset.take))
        for name in ("enumerate_lag_pairs", "_candidate_pairs"):
            monkeypatch.setattr(estimators, name, counting(name, getattr(estimators, name)))
        monkeypatch.setattr(spatial_tests, "estimate_G",
                            counting("estimate_G", estimators.estimate_G))
        monkeypatch.setattr(resampling, "gbbb_resample",
                            counting("gbbb_resample", resampling.gbbb_resample))
        return seen

    def test_gridded_test_searches_pairs_once(self, counts):
        from isotropy import gsc_gridded_test

        gsc_gridded_test(unit_grid_dataset(18, 12, seed=3))
        assert counts["take"] == 0
        assert 0 < counts["enumerate_lag_pairs"] <= 8

    def test_nongridded_test_lists_candidates_once(self, counts):
        from isotropy import gsc_nongridded_test

        gsc_nongridded_test(_scattered(300, 16.0, 10.0, 21), domain=Rect(0, 0, 16, 10))
        assert counts["take"] == 0
        assert counts["_candidate_pairs"] == 1

    def test_ms_bootstrap_reads_the_full_sample_table(self, counts):
        # one pair search and one estimate for the whole test; no resample
        # is built as a dataset
        from isotropy import ms_test

        ms_test(_scattered(300, 16.0, 10.0, 22), block=WindowSpec(4, 2),
                domain=Rect(0, 0, 16, 10))
        assert counts["_candidate_pairs"] == 1
        assert counts["estimate_G"] == 1
        assert counts["gbbb_resample"] == 0
