"""Quiet-band selection on the interference map."""

import itertools
import math

import numpy as np
import pytest

from specx import (
    BandSelectionError,
    BlockSparseVector,
    FrequencySet,
    MappingMatrix,
    RemGrid,
    coding_complexity,
    count_blocks,
    invert_rem,
    mask_comm,
    select_bands,
    struct_omp,
)


def rem_with_dips(background, dips, b_y=90e3):
    e = np.full(len(background) if hasattr(background, "__len__") else background, 0.0)
    if np.isscalar(background):
        e = np.full(background, 10.0)
    else:
        e = np.asarray(background, dtype=float)
    for i, v in dips.items():
        e[i] = v
    return RemGrid(energies=e, b_y=b_y)


def test_rem_grid_geometry():
    rem = RemGrid(energies=np.arange(1.0, 5.0), b_y=100e3)
    assert rem.q == 4
    assert rem.width == 400e3
    assert rem.span.to_pairs() == [[-200e3, 200e3]]
    iv = rem.band_interval(0)
    assert (iv.lo, iv.hi) == (-200e3, -100e3)


def test_mask_comm_marks_overlapping_bands():
    rem = RemGrid(energies=np.ones(8), b_y=100e3)
    f_c = FrequencySet([(-150e3, -120e3), (350e3, 420e3)])
    masked = mask_comm(rem, f_c)
    # manual overlap check against each band window
    want = []
    for i in range(8):
        iv = rem.band_interval(i)
        overlap = max(0.0, min(iv.hi, -120e3) - max(iv.lo, -150e3)) > 0 or max(
            0.0, min(iv.hi, 420e3) - max(iv.lo, 350e3)
        ) > 0
        want.append(overlap)
    got = ~np.isfinite(masked.energies)
    np.testing.assert_array_equal(got, want)
    # zero-measure touch does not mask
    touch = mask_comm(rem, FrequencySet([(-400e3, -300e3)]))
    assert np.isinf(touch.energies[0]) and np.isfinite(touch.energies[1])


def test_invert_rem():
    rem = RemGrid(energies=np.array([2.0, np.inf, 0.5]), b_y=1e5)
    np.testing.assert_allclose(invert_rem(rem), [0.5, 0.0, 2.0])
    with pytest.raises(ValueError):
        invert_rem(RemGrid(energies=np.array([1.0, 0.0]), b_y=1e5))


def test_count_blocks():
    assert count_blocks([0, 1, 1, 0, 1]) == 2
    assert count_blocks([0, 0]) == 0
    assert count_blocks([1, 1, 1]) == 1
    assert count_blocks(np.array([1.0, 0.0, 2.0, 3.0])) == 2


def test_coding_complexity_values():
    assert coding_complexity([3], 16) == pytest.approx(math.log(16) + 1)
    assert coding_complexity([3, 4], 16) == pytest.approx(math.log(16) + 2)
    assert coding_complexity([3, 5], 16) == pytest.approx(2 * math.log(16) + 2)
    assert coding_complexity([], 16) == 0.0


def test_mapping_matrices():
    ident = MappingMatrix.identity(4)
    assert ident.q == ident.p == 4
    np.testing.assert_array_equal(ident.band_of(), np.arange(4))
    with pytest.raises(ValueError):
        MappingMatrix(d=np.array([[1.0, 1.0], [1.0, 0.0]]))


def test_block_sparse_vector():
    v = BlockSparseVector(w=np.array([0.0, 1.0, 2.0, 0.0, 0.5]), b_w=1e5)
    assert v.blocks == 2


def test_struct_omp_picks_isolated_dips():
    """Six quiet dips, four bands wanted: the four best dips win and the
    pursuit stops when the fifth would overflow the block budget."""
    e = np.full(18, 10.0)
    for i, v in zip([1, 4, 7, 10, 13, 16], [0.05, 0.06, 0.12, 0.04, 0.15, 0.08]):
        e[i] = v
    rem = RemGrid(energies=e, b_y=90e3)
    vec, bands = select_bands(rem, FrequencySet(), n_b=4)
    chosen = set(np.flatnonzero(vec.w))
    assert chosen == {1, 4, 10, 16}  # the four lowest-energy dips
    assert len(bands) == 4
    assert bands.measure() == pytest.approx(4 * 90e3)
    assert vec.blocks == 4


def test_struct_omp_absorbs_sideways_but_never_bridges():
    # only n_b dips exist; the pursuit then grows blocks sideways into the
    # small background preferences yet never pays the bridging penalty
    y = np.full(12, 0.1)
    for i, v in zip([1, 4, 7, 10], [10.0, 9.0, 8.0, 7.0]):
        y[i] = v
    d = MappingMatrix.identity(12)
    vec, bands = struct_omp(y, d, n_b=4, span_width=12 * 90e3)
    support = set(np.flatnonzero(vec.w))
    assert {1, 4, 7, 10}.issubset(support)
    assert vec.blocks == 4
    gaps = {3, 6, 9} & support
    assert not gaps, f"bridging indices selected: {gaps}"


def test_struct_omp_raises_when_too_few_regions():
    y = np.zeros(10)
    y[2] = 1.0
    y[3] = 0.5  # adjacent: one block total
    d = MappingMatrix.identity(10)
    with pytest.raises(BandSelectionError) as exc:
        struct_omp(y, d, n_b=3, span_width=1e6)
    assert exc.value.feasible_blocks < 3


def test_struct_omp_never_selects_masked():
    rng = np.random.default_rng(3)
    for trial in range(50):
        e = rng.uniform(5.0, 20.0, size=12)
        dips = rng.choice(12, size=5, replace=False)
        e[dips] = rng.uniform(0.02, 0.2, size=5)
        rem = RemGrid(energies=e, b_y=90e3)
        lo = float(rng.uniform(-rem.width / 2, rem.width / 2 - 2 * 90e3))
        f_c = FrequencySet([(lo, lo + 2 * 90e3)])
        try:
            _, bands = select_bands(rem, f_c, n_b=2)
        except BandSelectionError:
            continue
        assert bands.intersection(f_c).measure() == 0.0


def residual_after_fit(y, dmat, support):
    sub = dmat[:, sorted(support)]
    coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
    return float(np.linalg.norm(y - sub @ coef))


def blocks_of(support):
    s = sorted(support)
    return sum(1 for j, v in enumerate(s) if j == 0 or v != s[j - 1] + 1)


def isolated_positions(rng, p, k):
    """k pairwise non-adjacent indices in range(p)."""
    while True:
        pos = sorted(rng.choice(p, size=k, replace=False))
        if all(b - a >= 2 for a, b in zip(pos, pos[1:])):
            return pos


def test_struct_omp_near_optimal_small_enumeration():
    """Exhaustive check on maps with more isolated quiet regions than bands
    wanted: the greedy support's residual ranks in the best few percent of
    all same-size supports with a legal block count."""
    rng = np.random.default_rng(9)
    for trial in range(10):
        y = rng.uniform(0.05, 0.15, size=8)
        dips = isolated_positions(rng, 8, 3)
        y[dips] = rng.uniform(5.0, 12.0, size=3)
        d = MappingMatrix.identity(8)
        vec, _ = struct_omp(y, d, n_b=2, span_width=8e5)
        support = set(np.flatnonzero(vec.w))
        mine = residual_after_fit(y, d.d, support)
        all_res = sorted(
            residual_after_fit(y, d.d, comb)
            for comb in itertools.combinations(range(8), len(support))
            if blocks_of(comb) <= 2
        )
        cutoff = all_res[max(0, math.ceil(0.05 * len(all_res)) - 1)]
        assert mine <= cutoff + 1e-12


def test_select_bands_floor_keeps_measured_zeros_usable():
    e = np.full(10, 8.0)
    e[2] = 0.0  # measured silence: a perfect candidate, not an error
    e[6] = 0.01
    rem = RemGrid(energies=e, b_y=90e3)
    vec, bands = select_bands(rem, FrequencySet(), n_b=2)
    assert {2, 6}.issubset(set(np.flatnonzero(vec.w)))
    assert len(bands) == 2


def _random_preferences(rng, q):
    """Inverted REM with about 20% of bands masked; some maps draw from a few
    levels so that gains tie."""
    if rng.random() < 0.3:
        e = rng.choice([0.05, 0.5, 5.0], size=q)
    else:
        e = 10.0 ** rng.uniform(-1.5, 1.5, size=q)
    y = 1.0 / e
    y[rng.random(q) < 0.2] = 0.0
    return y


def _pursue(fn, *args, **kwargs):
    """Support, band set and weights of one pursuit, or its infeasible verdict."""
    try:
        vec, bands = fn(*args, **kwargs)
    except BandSelectionError as exc:
        return ("infeasible", str(exc), exc.feasible_blocks), None
    return (tuple(np.flatnonzero(vec.w)), bands, vec.blocks), vec.w


def test_struct_omp_matches_refit_all_oracle_on_identity_maps():
    from _oracles import struct_omp_refit_all

    rng = np.random.default_rng(6)
    infeasible = 0
    for _ in range(2000):
        q = int(rng.integers(4, 40))
        y = _random_preferences(rng, q)
        d = MappingMatrix.identity(q)
        n_b = int(rng.integers(1, 5))
        got, w = _pursue(struct_omp, y, d, n_b, span_width=q * 90e3)
        want, w_ref = _pursue(struct_omp_refit_all, y, d, n_b, span_width=q * 90e3)
        assert got == want
        if w is None:
            infeasible += 1
        else:
            # each selected band's value, exactly; lstsq's is within rounding
            np.testing.assert_array_equal(w, np.where(w != 0, y, 0.0))
            np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-13 * y.max())
    assert 0 < infeasible < 2000


def test_struct_omp_matches_exact_refit_on_shared_bands():
    """Several selectable frequencies per band. The oracle's lstsq residual on
    a fitted band is rounding noise that can pass the gain floor; with that
    residual set to its exact value, zero, the pursuits agree."""
    from _oracles import struct_omp_refit_all

    rng = np.random.default_rng(7)
    for _ in range(1000):
        q = int(rng.integers(4, 20))
        p = int(rng.integers(q, 3 * q + 1))
        band_of = np.concatenate([np.arange(q), rng.integers(0, q, size=p - q)])
        band_of = np.sort(band_of) if rng.random() < 0.5 else rng.permutation(band_of)
        dmat = np.zeros((q, p))
        dmat[band_of, np.arange(p)] = 1.0
        d = MappingMatrix(dmat)
        y = _random_preferences(rng, q)
        n_b = int(rng.integers(1, 5))
        got, w = _pursue(struct_omp, y, d, n_b, span_width=p * 90e3)
        want, w_ref = _pursue(
            struct_omp_refit_all, y, d, n_b, span_width=p * 90e3, zero_fitted_bands=True
        )
        assert got == want
        if w is not None:
            np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-13 * y.max())
            np.testing.assert_allclose(dmat @ w, np.where(dmat @ (w != 0) > 0, y, 0.0))


def test_mask_comm_matches_per_band_sets():
    from _oracles import mask_comm_per_band

    rng = np.random.default_rng(8)
    for _ in range(500):
        q = int(rng.integers(1, 30))
        b_y = float(rng.choice([90e3, 1.0 / 3.0, 7.3e5]))
        rem = RemGrid(energies=rng.uniform(0.1, 5.0, size=q), b_y=b_y)
        edges = np.arange(q + 1) * b_y - rem.width / 2.0  # exact band edges
        ivs = []
        for _ in range(int(rng.integers(0, 4))):
            lo = float(rng.choice(edges)) if rng.random() < 0.5 else float(
                rng.uniform(-0.6, 0.6) * rem.width
            )
            hi = float(rng.choice(edges)) if rng.random() < 0.5 else lo + float(
                rng.uniform(0.01, 0.5) * rem.width
            )
            if lo < hi:
                ivs.append((lo, hi))
        f_c = FrequencySet(ivs)
        np.testing.assert_array_equal(mask_comm(rem, f_c).energies, mask_comm_per_band(rem, f_c))
