import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from isotropy import (
    ContrastMatrix,
    GridSpec,
    LagSet,
    SpatialDataset,
    default_contrast,
    default_lag_set,
    enumerate_lag_pairs,
)
from isotropy.core import DUPLICATE_TOL, neighbour_distances, pairs_within


def brute_force_pairs(dataset, lag, tol=1e-9):
    """Independent O(n^2) oracle for lag-pair enumeration."""
    out = []
    loc = dataset.locations
    for i in range(dataset.n):
        for j in range(dataset.n):
            d = loc[j] - loc[i] - np.asarray(lag, dtype=float)
            if np.hypot(d[0], d[1]) <= tol:
                out.append((i, j))
    return out


class TestDefaultLagSet:
    def test_standard_four_lags(self):
        ls = default_lag_set()
        assert ls.lags.tolist() == [[1, 0], [0, 1], [1, 1], [-1, 1]]

    def test_scaled(self):
        ls = default_lag_set(2.5)
        assert ls.lags.tolist() == [[2.5, 0], [0, 2.5], [2.5, 2.5], [-2.5, 2.5]]

    def test_extra_pair(self):
        ls = default_lag_set(extra_pair=True)
        assert ls.k == 6
        assert ls.lags[4].tolist() == [1.132, 0.469]
        assert ls.lags[5].tolist() == [-0.469, 1.132]

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            default_lag_set(0.0)


class TestDefaultContrast:
    def test_four_lags(self):
        a = default_contrast(default_lag_set())
        assert a.matrix.tolist() == [[1, -1, 0, 0], [0, 0, 1, -1]]

    def test_six_lags(self):
        a = default_contrast(default_lag_set(extra_pair=True))
        assert a.matrix.shape == (3, 6)
        for row in a.matrix:
            assert sorted(row.tolist()) == [-1, 0, 0, 0, 0, 1]
        assert np.linalg.matrix_rank(a.matrix) == 3

    def test_odd_count_fails(self):
        ls = LagSet([(1, 0), (0, 1), (1, 1)])
        with pytest.raises(ValueError, match="even count"):
            default_contrast(ls)

    def test_rows_sum_to_zero_and_full_rank(self):
        for k in (4, 6):
            a = default_contrast(default_lag_set(extra_pair=(k == 6)))
            assert np.allclose(a.matrix.sum(axis=1), 0.0)
            assert np.linalg.matrix_rank(a.matrix) == a.r


class TestContrastMatrixValidation:
    def test_rejects_nonzero_row_sum(self):
        with pytest.raises(ValueError, match="sum to zero"):
            ContrastMatrix([[1.0, -0.5, 0.0, 0.0]])

    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError, match="rank"):
            ContrastMatrix([[1, -1, 0, 0], [2, -2, 0, 0]])

    def test_rejects_too_many_rows(self):
        with pytest.raises(ValueError):
            ContrastMatrix(np.eye(4) - 0.25)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, entry):
        # a NaN row once ended in "LinAlgError: SVD did not converge"
        with pytest.raises(ValueError, match="contrast entries must be finite"):
            ContrastMatrix([[entry, entry]])
        with pytest.raises(ValueError, match="contrast entries must be finite"):
            ContrastMatrix([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, entry, -1.0]])


class TestEnumerateLagPairs:
    def test_2x2_horizontal(self):
        ds = SpatialDataset([(0, 0), (1, 0), (0, 1), (1, 1)], [0, 0, 0, 0.0])
        pairs = enumerate_lag_pairs(ds, (1, 0))
        assert sorted(map(tuple, pairs)) == brute_force_pairs(ds, (1, 0)) == [(0, 1), (2, 3)]

    def test_2x2_diagonal(self):
        ds = SpatialDataset([(0, 0), (1, 0), (0, 1), (1, 1)], [0, 0, 0, 0.0])
        pairs = enumerate_lag_pairs(ds, (1, 1))
        assert sorted(map(tuple, pairs)) == [(0, 3)]

    def test_beyond_extent_empty(self):
        ds = SpatialDataset([(0, 0), (1, 0), (0, 1), (1, 1)], [0, 0, 0, 0.0])
        assert enumerate_lag_pairs(ds, (100, 100)).shape[0] == 0

    def test_matches_brute_force_on_random_layout(self):
        rng = np.random.default_rng(7)
        loc = np.round(rng.random((30, 2)) * 5, 1)
        loc = np.unique(loc, axis=0)
        ds = SpatialDataset(loc, rng.standard_normal(loc.shape[0]))
        for lag in [(0.1, 0.0), (0.5, -0.3), (1.0, 1.0)]:
            got = sorted(map(tuple, enumerate_lag_pairs(ds, lag, tol=1e-9)))
            assert got == brute_force_pairs(ds, lag)

    def test_grid_pair_count_formula(self):
        # |D(h)| = (n1-a)(n2-b) for nonnegative integer lags on a unit grid
        for n1 in range(2, 7):
            for n2 in range(2, 7):
                g = GridSpec(n1, n2)
                ds = SpatialDataset(g.locations(), np.zeros(g.size), grid=g)
                for a in range(0, 4):
                    for b in range(0, 4):
                        if a == 0 and b == 0:
                            continue
                        expected = max(n1 - a, 0) * max(n2 - b, 0)
                        assert enumerate_lag_pairs(ds, (a, b)).shape[0] == expected

    @settings(max_examples=25, deadline=None)
    @given(
        n1=st.integers(2, 6), n2=st.integers(2, 6),
        a=st.integers(-3, 3), b=st.integers(-3, 3),
    )
    def test_reversal_bijection(self, n1, n2, a, b):
        if a == 0 and b == 0:
            return
        g = GridSpec(n1, n2)
        ds = SpatialDataset(g.locations(), np.zeros(g.size), grid=g)
        fwd = enumerate_lag_pairs(ds, (a, b))
        rev = enumerate_lag_pairs(ds, (-a, -b))
        assert fwd.shape[0] == rev.shape[0]
        assert sorted(map(tuple, fwd)) == sorted((j, i) for i, j in rev)


class TestSpatialDataset:
    def test_duplicate_locations_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SpatialDataset([(0, 0), (0, 0)], [1.0, 2.0])

    def test_near_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SpatialDataset([(0, 0), (1e-12, 0)], [1.0, 2.0])

    def test_duplicate_error_names_the_closest_pair(self):
        # two candidate pairs within the search radius; the closer one is
        # worded, as the nearest-neighbour distances give it
        pts = np.array([(0, 0), (1.5e-9, 0), (10, 10), (10 + 3e-10, 10 + 4e-10)])
        nearest = neighbour_distances(pts).min()
        with pytest.raises(ValueError, match=f"minimum separation {nearest:g}\\)"):
            SpatialDataset(pts, np.arange(4.0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SpatialDataset([(0, 0), (1, 0)], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            SpatialDataset([(0, 0), (1, 0)], [1.0, np.nan])

    def test_grid_size_mismatch(self):
        with pytest.raises(ValueError, match="grid"):
            SpatialDataset([(0, 0), (1, 0)], [1.0, 2.0], grid=GridSpec(2, 2))

    def test_off_grid_location(self):
        locs = [(0, 0), (1, 0), (0, 1), (1.3, 1)]
        with pytest.raises(ValueError):
            SpatialDataset(locs, [1, 2, 3, 4.0], grid=GridSpec(2, 2))

    def test_immutable_after_construction(self):
        ds = SpatialDataset([(0, 0), (1, 0)], [1.0, 2.0])
        with pytest.raises(ValueError):
            ds.values[0] = 9.0
        with pytest.raises(ValueError):
            ds.locations[0, 0] = 9.0

    def test_field_matrix_layout(self, grid_2x2):
        f = grid_2x2.field_matrix()
        # columns index x, rows index y
        assert f[0, 0] == 1.0 and f[1, 0] == 2.0
        assert f[0, 1] == 3.0 and f[1, 1] == 5.0

    def test_lag_set_rejects_zero_and_duplicates(self):
        with pytest.raises(ValueError):
            LagSet([(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            LagSet([(1, 0), (1, 0)])

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_lag_set_rejects_non_finite_lags(self, entry):
        # a NaN lag was once accepted, and a test on it ended in NoPairsError
        with pytest.raises(ValueError, match="lags must be finite"):
            LagSet([[entry, 0.0], [0.0, 1.0]])


class TestGridSpec:
    @pytest.mark.parametrize("cols, rows", [(2.5, 3), (3, 3.0), ("3", 3), (0, 3), (3, -1)])
    def test_rejects_sides_that_are_not_positive_integers(self, cols, rows):
        # GridSpec(2.5, 3) once had size 7.5 and 9 locations
        with pytest.raises(ValueError, match=r"grid dimensions must be positive integers, not \("):
            GridSpec(cols, rows)

    def test_accepts_numpy_integer_sides(self):
        assert GridSpec(np.int64(3), np.int32(2)).size == 6

    @pytest.mark.parametrize("spacing", [np.inf, np.nan, 0.0, -1.0])
    def test_rejects_bad_spacing(self, spacing):
        # GridSpec(3, 3, inf).locations() once warned and returned
        # non-finite locations
        with pytest.raises(ValueError, match="grid spacing must be positive and finite"):
            GridSpec(3, 3, spacing)


def _lattice(spacing, angle=0.0):
    c, s = np.cos(angle), np.sin(angle)
    return GridSpec(18, 12, spacing).locations() @ np.array([[c, s], [-s, c]])


# name: (points, radii).  Lattice radii are multiples of the spacing, so
# many pairs lie exactly at the radius.
PAIR_SEARCH_CASES = {
    "scattered": (np.random.default_rng(0).random((300, 2)) * (16, 10), (0.3, 1.0, 2.5)),
    "spacing-1": (_lattice(1.0), (1.0, 2.0, 3.5)),
    "spacing-0.7": (_lattice(0.7), (0.7, 1.4, 2.1)),
    "spacing-1e-3": (_lattice(1e-3), (1e-3, 2e-3)),
    "rotated": (_lattice(0.7, 0.4), (0.7, 1.3)),
    "near-duplicates": (np.array([(0, 0), (1e-9, 0), (0, 2e-9), (3, 3), (3, 3 + 2.5e-9),
                                  (5, 5), (5, 5)], dtype=float), (2 * DUPLICATE_TOL,)),
    "one-point": (np.array([(1.0, 2.0)]), (1.0,)),
    "two-points": (np.array([(0.0, 0.0), (1.0, 0.5)]), (0.5, 1.0)),
    "collinear": (np.column_stack([np.linspace(0, 5, 60), np.zeros(60)]), (0.1, 1.0)),
    "diagonal": (np.column_stack([np.linspace(0, 5, 60)] * 2), (0.1, 1.0)),
}


def _pair_set(i, j, *_):
    """Unordered pairs as a set of (smaller, larger) index tuples, each
    found once."""
    found = set(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))
    assert len(found) == len(i)
    return found


class TestPairSearch:
    """The cell search finds what a KD-tree finds, and nearest distances
    are the KD-tree's to the bit."""

    @pytest.mark.parametrize("case", sorted(PAIR_SEARCH_CASES))
    def test_matches_kd_tree(self, case):
        points, radii = PAIR_SEARCH_CASES[case]
        tree = cKDTree(points)
        for r in radii + (2 * DUPLICATE_TOL,):
            i, j, dx, dy = pairs_within(points, r)
            assert i.dtype == j.dtype == np.intp
            assert dx.tobytes() == (points[j, 0] - points[i, 0]).tobytes()
            assert dy.tobytes() == (points[j, 1] - points[i, 1]).tobytes()
            assert _pair_set(i, j) == _pair_set(*tree.query_pairs(r, p=np.inf, output_type="ndarray").T)
        want = tree.query(points, k=2)[0][:, 1] if len(points) > 1 else np.array([np.inf])
        assert neighbour_distances(points).tobytes() == want.tobytes()

    def test_far_neighbours(self):
        # a dense cluster, a sparse cloud and one outlier: points search
        # cells of widths 1e8 apart
        gen = np.random.default_rng(1)
        points = np.vstack([gen.random((2000, 2)) * 0.01, gen.random((40, 2)) * 1e3, [(1e6, 1e6)]])
        want = cKDTree(points).query(points, k=2)[0][:, 1]
        assert neighbour_distances(points).tobytes() == want.tobytes()

    def test_huge_coordinates(self):
        # differences overflow to inf; the KD-tree refuses these points
        points = np.array([(1e308, -1e308), (-1e308, 1e308), (1e308, 1e308),
                           (-1.7976931348623157e308, 0.0), (0.0, 0.0), (0.0, 1e-9)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in (2 * DUPLICATE_TOL, 1.0, 1e300):
                assert _pair_set(*pairs_within(points, r)) == {(4, 5)}
            nearest = neighbour_distances(points)
            ds = SpatialDataset(points[:5], np.zeros(5))
        assert nearest[4] == nearest[5] == 1e-9
        assert np.all(np.isinf(nearest[:4]))
        assert ds.n == 5

    def test_narrow_radius_over_a_wide_span(self):
        # cells 2e-9 wide over a 1e12 span would number 1e42; only occupied
        # ones may be kept
        points = np.array([(0.0, 0.0), (1e12, 1e12), (5e11, 0.0), (5e11, 1e-9)])
        assert _pair_set(*pairs_within(points, 2 * DUPLICATE_TOL)) == {(2, 3)}


def _memo_arrays(value):
    """Every array held by a memo entry: the entry itself, the items of a
    tuple, the array fields of a dataclass."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for v in value for a in _memo_arrays(v)]
    if hasattr(value, "__dataclass_fields__"):
        return [a for name in value.__dataclass_fields__
                for a in _memo_arrays(getattr(value, name))]
    return []


class TestLocationMemo:
    """Location-only work is kept once per dataset, and no dataset shares
    another's memo."""

    @staticmethod
    def _scattered(seed=0, n=300):
        gen = np.random.default_rng(seed)
        return SpatialDataset(gen.random((n, 2)) * (16.0, 10.0), gen.standard_normal(n))

    @staticmethod
    def _run_everything(grid_ds, points_ds):
        from isotropy import (gsc_gridded_test, gsc_nongridded_test, ms_test,
                              periodogram)
        from isotropy.resampling import Rect, WindowSpec

        gsc_gridded_test(grid_ds)
        periodogram(grid_ds)
        domain = Rect(0, 0, 16, 10)
        gsc_nongridded_test(points_ds, domain=domain)
        ms_test(points_ds, block=WindowSpec(4, 2), n_boot=20, domain=domain)

    def test_memo_not_in_repr_or_comparison(self):
        ds = SpatialDataset([(0, 0), (1, 0)], [1.0, 2.0])
        ds.nearest_distances()
        (memo,) = [f for f in dataclasses.fields(SpatialDataset) if f.name == "_memo"]
        assert not memo.compare and not memo.repr
        assert "memo" not in repr(ds) and "nearest" not in repr(ds)

    def test_different_locations_share_nothing(self, random_field_18x12):
        grid_ds = random_field_18x12
        points_ds = self._scattered()
        self._run_everything(grid_ds, points_ds)
        fresh = [SpatialDataset(grid_ds.locations.copy(), grid_ds.values, grid=grid_ds.grid),
                 self._scattered(seed=1), points_ds.take(np.arange(250))]
        memos = [grid_ds._memo, points_ds._memo] + [d._memo for d in fresh]
        assert len({id(m) for m in memos}) == len(memos)
        # a new dataset, even on equal coordinates, starts empty: its
        # location checks keep nothing
        assert [set(d._memo) for d in fresh] == [set(), set(), set()]
        for m in memos[:2]:
            held = {id(a) for v in m.values() for a in _memo_arrays(v)}
            for d in fresh:
                assert not held & {id(a) for v in d._memo.values() for a in _memo_arrays(v)}

    def test_cached_arrays_refuse_writes(self, random_field_18x12):
        points_ds = self._scattered()
        self._run_everything(random_field_18x12, points_ds)
        for ds in (random_field_18x12, points_ds):
            kinds = {key[0] for key in ds._memo}
            assert {"pairs", "windows"} <= kinds
            assert ("nearest" in kinds) == (ds is points_ds)  # only ms needs it
            arrays = [a for v in ds._memo.values() for a in _memo_arrays(v)]
            assert len(arrays) >= 10
            for a in arrays:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a.flat[0] = 0
        assert ("cells",) in random_field_18x12._memo


class TestValueRows:
    """``SpatialDataset.value_rows``: the one check of a block's values."""

    @pytest.mark.parametrize("values, message", [
        (np.ones((1, 215)), "216 locations but 215 values"),
        (np.ones((3, 217)), "216 locations but 217 values"),
        (np.r_[np.ones(215), np.nan][None], "values must be finite"),
        (np.vstack([np.ones(216), np.r_[np.ones(215), np.inf]]), "values must be finite"),
        (np.ones(216), r"values must be an \(R, n\) array, not shape \(216,\)"),
        (np.ones((2, 216, 1)), r"values must be an \(R, n\) array, not shape \(2, 216, 1\)"),
        (np.ones((0, 216)), r"values must be an \(R, n\) array, not shape \(0, 216\)"),
    ])
    def test_value_rows_checks_the_values(self, random_field_18x12, values, message):
        with pytest.raises(ValueError, match=message):
            random_field_18x12.value_rows(values)

    def test_own_values_as_one_row(self, random_field_18x12):
        rows = random_field_18x12.value_rows()
        assert rows.shape == (1, 216) and rows.flags.c_contiguous
        assert rows.tobytes() == random_field_18x12.values.tobytes()

    def test_rows_become_a_contiguous_float_array(self, random_field_18x12):
        f_order = np.asfortranarray(np.arange(3 * 216).reshape(3, 216))
        rows = random_field_18x12.value_rows(f_order)
        assert rows.dtype == float and rows.flags.c_contiguous
        np.testing.assert_array_equal(rows, f_order)
