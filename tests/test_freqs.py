"""Interval algebra, grid geometry, and slice-support bookkeeping."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specx import FrequencyInterval, FrequencySet, GridSpec, SliceSupport, slice_count


def fset(pairs):
    return FrequencySet(pairs)


# -- intervals ---------------------------------------------------------------


def test_interval_basics():
    iv = FrequencyInterval(-2.0, 6.0)
    assert iv.width == 8.0
    assert iv.center == 2.0


def test_interval_rejects_degenerate():
    with pytest.raises(ValueError):
        FrequencyInterval(1.0, 1.0)
    with pytest.raises(ValueError):
        FrequencyInterval(2.0, -1.0)
    with pytest.raises(ValueError):
        FrequencyInterval(0.0, math.inf)


# -- set normalization and algebra -------------------------------------------


def test_pickle_and_deepcopy_give_back_an_equal_set():
    s = fset([(0, 2), (5, 7.5)])
    for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
        assert copied == s and copied.intervals == s.intervals
        with pytest.raises(AttributeError, match="immutable"):
            copied._intervals = ()
    assert pickle.loads(pickle.dumps(FrequencySet())) == FrequencySet()


def test_normalization_merges_overlaps_and_abutments():
    s = fset([(0, 2), (1, 3), (3, 4), (10, 11)])
    assert s.to_pairs() == [[0.0, 4.0], [10.0, 11.0]]
    # already-normal input round-trips unchanged
    assert FrequencySet(s.intervals) == s


def test_equality_is_pointwise():
    assert fset([(0, 1), (1, 2)]) == fset([(0, 2)])
    assert fset([(0, 1)]) != fset([(0, 1.5)])
    assert hash(fset([(0, 1), (1, 2)])) == hash(fset([(0, 2)]))


def test_four_band_measure():
    bands = fset([(i * 400e3, i * 400e3 + 81e3) for i in range(4)])
    assert bands.measure() == pytest.approx(324e3, rel=1e-12)


def test_set_ops_and_queries():
    a = fset([(-5, -1), (2, 4)])
    b = fset([(-2, 3)])
    assert a.intersection(b).to_pairs() == [[-2.0, -1.0], [2.0, 3.0]]
    assert a.union(b).to_pairs() == [[-5.0, 4.0]]
    hits = a.contains_array(np.array([-5.0, -3.0, -1.0, 0.0, 2.5]))
    assert list(hits) == [True, True, False, False, True]  # half-open
    assert a.shifted(10).to_pairs() == [[5.0, 9.0], [12.0, 14.0]]
    assert a.mirrored().to_pairs() == [[-4.0, -2.0], [1.0, 5.0]]
    assert a.within(-5, 4) and not a.within(-4, 4)
    assert FrequencySet(a.to_pairs()) == a


interval_lists = st.lists(
    st.tuples(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=1.0, max_value=1e5, allow_nan=False),
    ).map(lambda t: (t[0], t[0] + t[1])),
    min_size=0,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(interval_lists, interval_lists)
def test_inclusion_exclusion(pa, pb):
    a, b = fset(pa), fset(pb)
    lhs = a.union(b).measure() + a.intersection(b).measure()
    rhs = a.measure() + b.measure()
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(interval_lists)
def test_mirror_involution_and_measure(pairs):
    s = fset(pairs)
    assert s.mirrored().mirrored() == s
    assert s.mirrored().measure() == pytest.approx(s.measure(), rel=1e-12, abs=0)
    assert s.shifted(123.0).shifted(-123.0).measure() == pytest.approx(
        s.measure(), rel=1e-12, abs=1e-9
    )


@settings(max_examples=200, deadline=None)
@given(interval_lists, interval_lists)
def test_intersection_bounded_by_operands(pa, pb):
    a, b = fset(pa), fset(pb)
    inter = a.intersection(b)
    assert inter.measure() <= min(a.measure(), b.measure()) + 1e-9
    assert a.union(b).measure() >= max(a.measure(), b.measure()) - 1e-9


# -- slice counting and the grid ---------------------------------------------


def test_slice_count_examples():
    assert slice_count(10e9, 154e6, 154e6) == 66
    assert slice_count(560e6, 20e6, 20e6) == 30
    # exact multiples stay exact despite the float guard
    assert slice_count(38e6, 1e6, 1e6) == 40


def test_grid_geometry():
    grid = GridSpec(f_nyq=560e6, f_p=20e6, f_s=20e6, n_grid=32)
    assert grid.n_slices == 30
    assert grid.delta_f == pytest.approx(625e3)
    assert grid.slice_step == 32
    assert grid.slice_center(grid.center_slice) == 0.0
    assert grid.slice_center(0) == -15 * 20e6
    assert grid.dense_size == 29 * 32 + 32

    # slice content sits at slice_center + in-slice offset on the dense grid
    dmap = grid.dense_index_map()
    freqs = grid.dense_freqs()
    for i in (0, 7, 15, 29):
        got = freqs[dmap[i]]
        want = grid.slice_center(i) + grid.slice_freqs()
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-3)


def test_grid_mirror_position():
    grid = GridSpec(f_nyq=100e6, f_p=10e6, f_s=10e6, n_grid=4)
    freqs = grid.dense_freqs()
    pos = np.arange(grid.dense_size)
    mirror = grid.mirror_position(pos)
    ok = mirror >= 0
    np.testing.assert_allclose(freqs[mirror[ok]], -freqs[pos[ok]], atol=1e-6)
    # mirroring twice is the identity wherever defined
    back = grid.mirror_position(mirror[ok])
    np.testing.assert_array_equal(back, pos[ok])


def test_grid_dense_geometry_cached_read_only():
    grid = GridSpec(f_nyq=100e6, f_p=10e6, f_s=10e6, n_grid=4)
    pos = np.arange(grid.dense_size)
    for get, want in (
        (grid.dense_freqs, (pos + grid.dense_offset) * grid.delta_f),
        (grid.dense_mirror, grid.mirror_position(pos)),
        (grid.dense_index_map, np.arange(grid.n_slices)[:, None] * grid.slice_step
         + np.arange(grid.n_grid)),
    ):
        arr = get()
        assert arr is get()
        assert not arr.flags.writeable
        np.testing.assert_array_equal(arr, want)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(f_nyq=100e6, f_p=10e6, f_s=5e6, n_grid=4)  # f_s < f_p
    with pytest.raises(ValueError):
        GridSpec(f_nyq=100e6, f_p=10e6, f_s=10e6, n_grid=5)  # odd n_grid
    with pytest.raises(ValueError):
        # f_p not an integer number of dense bins
        GridSpec(f_nyq=100e6, f_p=10e6, f_s=15e6, n_grid=4)


# -- slice supports -----------------------------------------------------------


def test_support_set_semantics():
    s = SliceSupport([4, 2, 2, 9])
    assert list(s) == [2, 4, 9]
    assert len(s) == 3 and 4 in s and 5 not in s
    assert list(s.union(SliceSupport([5]))) == [2, 4, 5, 9]
    assert list(s.difference(SliceSupport([2, 9]))) == [4]
    assert list(s.intersection(SliceSupport([4, 7]))) == [4]
    np.testing.assert_array_equal(s.to_array(), [2, 4, 9])
    with pytest.raises(ValueError):
        SliceSupport([-1])
    with pytest.raises(ValueError):
        s.validate(9)


def test_support_symmetrization():
    n = 20
    s = SliceSupport([3, 10]).symmetrized(n)
    assert list(s) == [3, 10, 17]  # 10 is the baseband slice, self-mirrored
    assert list(SliceSupport([0]).symmetrized(n)) == [0]  # edge has no mirror


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=19), max_size=8))
def test_symmetrized_is_idempotent_and_contains_original(idx):
    s = SliceSupport(idx)
    sym = s.symmetrized(20)
    assert set(s).issubset(set(sym))
    assert sym.symmetrized(20) == sym
