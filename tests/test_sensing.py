"""Support recovery from low-rate channels: frame, greedy solvers, readout."""

import numpy as np
import pytest

from specx import (
    CommTransmissionSpec,
    FrameMatrix,
    FrequencySet,
    GridSpec,
    SensingMatrix,
    SliceSupport,
    build_frame,
    build_sensing_matrix,
    gen_comm_slices,
    gen_mixing_sequences,
    omp_pks,
    radar_slice_support,
    recover_slices,
    sense_spectrum,
    somp,
    support_to_freqs,
    xample,
)
from specx.sensing import refine_support_by_energy

GRID = GridSpec(f_nyq=380e6, f_p=20e6, f_s=20e6, n_grid=8)  # 20 slices


def bank(m, seed=0):
    seqs = gen_mixing_sequences(m, GRID.n_slices, seed=seed)
    return build_sensing_matrix(seqs, GRID.n_slices)


def observe(specs, m=12, noise_var=0.0, seed=0, seed_bank=0):
    a = bank(m, seed=seed_bank)
    x, f_c, s_c = gen_comm_slices(specs, GRID, seed=seed)
    z = xample(x, a, noise_var=noise_var, seed=seed)
    return a, x, z, f_c, s_c


TX = [
    CommTransmissionSpec(carrier=80e6, bandwidth=8e6),
    CommTransmissionSpec(carrier=-120e6, bandwidth=6e6),
]


def test_frame_squares_to_correlation():
    a, _, z, _, _ = observe(TX, noise_var=1e-6)
    frame = build_frame(z)
    q = z.z @ z.z.conj().T
    np.testing.assert_allclose(frame.v @ frame.v.conj().T, q, atol=1e-8 * np.abs(q).max())
    assert frame.m == z.m
    assert 1 <= frame.rank <= z.m


def test_frame_rank_tracks_signal_dimension():
    a, _, z, _, s_c = observe(TX, noise_var=0.0)
    frame = build_frame(z)
    assert frame.rank == np.linalg.matrix_rank(z.z, tol=1e-9)


def test_somp_exact_on_noiseless_channels():
    a, x, z, _, s_c = observe(TX, m=12)
    got = somp(build_frame(z), a, max_sparsity=len(s_c))
    assert got == s_c


def test_somp_tie_breaks_to_lowest_index():
    # duplicate columns force a tie; the solver must take the smaller index
    col = np.array([[1.0 + 0j], [0.5 - 0.5j], [-0.25 + 1j]])
    other = np.array([[0.1 + 0j], [-1.0 + 0j], [0.4 + 0.2j]])
    amat = np.concatenate([other, col, other * 0.3, col], axis=1)
    a = SensingMatrix(a=amat)
    v = col @ np.array([[2.0 + 0j, -1.0 + 0j]])
    got = somp(FrameMatrix(v), a, max_sparsity=1)
    assert list(got) == [1]


def test_somp_budget_and_validation():
    a, _, z, _, _ = observe(TX)
    v = build_frame(z)
    assert len(somp(v, a, max_sparsity=2)) <= 2
    assert somp(FrameMatrix(np.zeros((a.m, 3))), a, 4) == SliceSupport()
    with pytest.raises(ValueError):
        somp(v, a, max_sparsity=a.n + 1)


def test_omp_pks_keeps_known_support():
    radar = SliceSupport([3, 17])
    a, _, z, _, s_c = observe(TX, m=12)
    got = omp_pks(build_frame(z), a, radar, k_extra=8)
    assert set(radar).issubset(set(got))
    assert got.difference(radar) == s_c


def test_omp_pks_zero_input_returns_seed():
    a = bank(6)
    v = FrameMatrix(np.zeros((6, 4)))
    seed = SliceSupport([2, 18])
    assert omp_pks(v, a, seed, k_extra=3) == seed


def test_omp_pks_channel_floor_and_conditioning():
    a = bank(4)
    v = FrameMatrix(np.ones((4, 2)))
    with pytest.raises(ValueError):
        omp_pks(v, a, SliceSupport([0, 1, 2, 3]), k_extra=1)
    dup = np.ones((4, 6), dtype=complex)  # identical columns: cond blows up
    with pytest.raises(ValueError):
        omp_pks(v, SensingMatrix(a=dup), SliceSupport([0, 1]), 1)


def test_recover_slices_reconstructs_on_support():
    a, x, z, _, s_c = observe(TX, m=12)
    est = recover_slices(z, a, s_c)
    np.testing.assert_allclose(est.x_hat[s_c.to_array()], x.values[s_c.to_array()], atol=1e-9)
    off = [i for i in range(GRID.n_slices) if i not in s_c]
    assert np.all(est.x_hat[off] == 0)


def test_recover_slices_minimum_norm_when_support_exceeds_channels():
    # a fat support is legitimate after symmetrization; the fit must still
    # reproduce the observations
    a, x, z, _, s_c = observe(TX, m=6)
    wide = s_c.union(SliceSupport(range(8)))
    assert len(wide) > a.m
    est = recover_slices(z, a, wide)
    np.testing.assert_allclose(a.a @ est.x_hat, z.z, atol=1e-8)


def test_radar_slice_support_two_sided():
    f_r = FrequencySet([(148e6, 152e6)])
    s = radar_slice_support(f_r, GRID)
    assert s == s.symmetrized(GRID.n_slices)
    centers = GRID.slice_center(s.to_array())
    assert np.any(np.abs(centers - 150e6) <= 12e6)
    assert np.any(np.abs(centers + 150e6) <= 12e6)


def test_support_to_freqs_slice_granular():
    s = SliceSupport([GRID.center_slice + 4])
    f = support_to_freqs(s, GRID)
    assert f.to_pairs() == [[70e6, 90e6]]


def test_refine_support_drops_empty_slice():
    a, x, z, _, s_c = observe(TX, m=12)
    padded = s_c.union(SliceSupport([GRID.center_slice]))  # quiet slice
    est = recover_slices(z, a, padded)
    kept = refine_support_by_energy(est, padded, GRID, thresh_db=40.0)
    assert support_to_freqs(s_c, GRID).intersection(kept).measure() > 0
    assert kept.measure() < support_to_freqs(padded, GRID).measure()


def test_sense_spectrum_end_to_end_noiseless():
    radar = SliceSupport([3]).symmetrized(GRID.n_slices)
    a = bank(12)
    x, f_c, s_c = gen_comm_slices(TX, GRID, seed=21)
    z = xample(x, a)
    result = sense_spectrum(z, a, GRID, s_r=radar, n_sig_cap=2)
    assert result.comm_support == s_c
    assert result.support == s_c.union(radar)
    assert result.f_c.contains_array(np.array([tx.carrier for tx in TX])).all()
    assert 1 <= result.frame_rank <= a.m


def _omp_case(rng):
    """Random MWC system: a sensing matrix, a frame, a known support and a
    greedy budget that sometimes runs past the channel count."""
    m = int(rng.integers(4, 19))
    n_chips = int(rng.choice([20, 32]))
    a = build_sensing_matrix(gen_mixing_sequences(m, n_chips, seed=int(rng.integers(1 << 30))), 20)
    k = int(rng.integers(1, min(m, 8) + 1))
    rows = rng.choice(20, size=k, replace=False)
    u = np.zeros((20, int(rng.integers(1, 6))), dtype=complex)
    u[rows] = rng.standard_normal((k, u.shape[1])) + 1j * rng.standard_normal((k, u.shape[1]))
    v = a.a @ u
    if rng.random() < 0.5:
        v += 10.0 ** rng.uniform(-4, -1) * np.linalg.norm(v) / np.sqrt(v.size) * (
            rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
        )
    n_known = int(rng.integers(0, min(k, m - 1) + 1))
    known = SliceSupport(rng.choice(rows, size=n_known, replace=False))
    k_extra = int(rng.integers(0, m + 4))
    return v, a, known, k_extra


def test_omp_pks_matches_refit_all_oracle(monkeypatch):
    """The incremental projection picks the supports that refitting every
    selected column on every step picks, except where two scores tie to
    rounding."""
    import _oracles
    from _oracles import omp_pks_refit_all

    correlations = _oracles._correlations
    rng = np.random.default_rng(2026)
    n_cases, compared = 600, 0
    for _ in range(n_cases):
        v, a, known, k_extra = _omp_case(rng)
        got = omp_pks(FrameMatrix(v), a, known, k_extra)
        steps = []

        def recording(*args):
            steps.append(correlations(*args))  # masked in place by the caller
            return steps[-1]

        with monkeypatch.context() as mp:
            mp.setattr(_oracles, "_correlations", recording)
            want = omp_pks_refit_all(v, a, known, k_extra)
        top2 = [np.sort(s)[-2:] for s in steps if s.size > 1]
        if all(hi - lo >= 1e-9 * hi for lo, hi in top2):
            compared += 1
            assert list(got) == list(want)
    assert compared >= 0.95 * n_cases


def test_omp_pks_column_in_span_leaves_residual():
    """Six columns in a 3-D subspace of 4 channels, and a frame with a part
    outside it. After three picks every score is rounding noise; the later
    picks lie in the span and must not remove the outside part, or the
    residual test would stop the search early."""
    from _oracles import omp_pks_refit_all

    rng = np.random.default_rng(11)
    basis = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    a = SensingMatrix(a=basis[:, :3] @ (rng.standard_normal((3, 6)) + 0j))
    v = a.a @ rng.standard_normal((6, 2)) + np.outer(basis[:, 3], [1.0, 2.0j])
    want = omp_pks_refit_all(v, a, SliceSupport(), k_extra=6)
    got = omp_pks(FrameMatrix(v), a, SliceSupport(), k_extra=6)
    assert len(want) == 6
    assert list(got)[:3] == list(want)[:3] and len(got) == 6


def test_sensing_matrix_caches_are_read_only():
    a = bank(12)
    norms, filters = a.col_norms, a.matched_filters
    assert norms is a.col_norms and filters is a.matched_filters
    np.testing.assert_array_equal(norms, np.linalg.norm(a.a, axis=0))
    np.testing.assert_array_equal(filters, a.a.conj().T / norms[:, None])
    cond, q = a.column_basis(SliceSupport([3, 16]))
    assert a.column_basis(SliceSupport([3, 16]))[1] is q
    assert cond == np.linalg.cond(a.a[:, [3, 16]])
    for arr in (norms, filters, q):
        assert not arr.flags.writeable
    # another support replaces the kept basis
    cond2, q2 = a.column_basis(SliceSupport([4]))
    assert cond2 == np.linalg.cond(a.a[:, [4]]) and q2.shape == (a.m, 1)
    cond3, q3 = a.column_basis(SliceSupport([3, 16]))
    assert q3 is not q and cond3 == cond
    np.testing.assert_array_equal(q3, q)
