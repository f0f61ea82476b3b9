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
from specx.mwc import ChannelSamples
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
    # a greedy support may outgrow the channel count (its budget is not
    # capped at m); the fit must still reproduce the observations
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
    assert result.estimate.support == result.support


def test_sense_spectrum_refits_on_the_raw_greedy_support():
    """Under noise the greedy budget pads the support with unpaired
    slices; the estimate is refit on that raw support, and only the comm
    slices are symmetrized."""
    radar = SliceSupport([3]).symmetrized(GRID.n_slices)
    a = bank(12)
    x, _, s_c = gen_comm_slices(TX, GRID, seed=21)
    p_sig = float(np.mean(np.abs(xample(x, a).z) ** 2))
    z = xample(x, a, noise_var=p_sig / 100.0, seed=0)
    result = sense_spectrum(z, a, GRID, s_r=radar, n_sig_cap=2)
    raw = omp_pks(build_frame(z), a, radar, 4 * 2)
    assert raw != raw.symmetrized(GRID.n_slices)
    assert result.support == raw
    assert result.estimate.support == result.support
    assert result.comm_support == result.support.difference(radar).symmetrized(GRID.n_slices)
    assert set(s_c) <= set(result.comm_support)
    assert result.f_c == support_to_freqs(result.comm_support, GRID)


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


def test_recover_slices_rejects_rank_deficient_support():
    """Two equal columns on the support leave the fit rank 1 of 2."""
    amat = bank(6).a.copy()
    amat[:, 5] = amat[:, 2]
    a = SensingMatrix(a=amat)
    _, _, z, _, _ = observe(TX, m=6)
    with pytest.raises(ValueError, match="rank-deficient"):
        recover_slices(z, a, SliceSupport([2, 5]))
    assert recover_slices(z, a, SliceSupport([2, 4])).support == SliceSupport([2, 4])


def _refit_stack(preset):
    """A preset's front end, channel samples and supports: the greedy
    supports of real sensing-sweep trials (radar-aware and radar-unaware)
    at its highest SNR point, then random supports of size 0, 1, below m,
    m and above m, and all-zero samples."""
    from specx import load_config, pipeline

    cfg = load_config(preset)
    point = len(cfg.sweep.snr_db) - 1
    points, setups = pipeline._snr_plan(cfg, cfg.grid.to_grid())
    drawn = [pipeline._draw_snr(cfg, setups[point], points[point], point, t) for t in range(6)]
    a = setups[point].a
    zs, sups = [], []
    for d in drawn:
        for s_r, k_extra in d.pursuits:
            zs.append(d.z)
            sups.append(omp_pks(d.frame, a, s_r, k_extra))
    rng = np.random.default_rng(5)
    zero = ChannelSamples(np.zeros_like(zs[0].z), zs[0].grid)
    for i, k in enumerate((0, 1, a.m // 2, a.m, a.m + 3, 0, a.m // 2, a.m)):
        zs.append(zero if i >= 5 else zs[i])
        sups.append(SliceSupport(rng.choice(a.n, size=k, replace=False)))
    return a, zs, sups


@pytest.mark.parametrize("preset", ["desk", "paper_sw"])
def test_recover_slices_batch_matches_lstsq_oracle(preset):
    """The stacked SVD refit against the lstsq one: the same supports, every
    x_hat within 1e-12 of the oracle's largest entry, and each trial's bits
    those of its batch-of-one call and of its slot in a half batch."""
    from _oracles import recover_slices_lstsq

    from specx.sensing import recover_slices_batch

    a, zs, sups = _refit_stack(preset)
    assert {len(s) for s in sups} >= {0, 1, a.m // 2, a.m, a.m + 3}
    got = recover_slices_batch(zs, a, sups)
    for z, s, est in zip(zs, sups, got):
        want = recover_slices_lstsq(z, a, s)
        assert est.support == want.support == s
        assert np.abs(est.x_hat - want.x_hat).max() <= 1e-12 * np.abs(want.x_hat).max()
        assert np.array_equal(est.x_hat, recover_slices(z, a, s).x_hat)
    half = recover_slices_batch(zs[1::2], a, sups[1::2])
    assert all(np.array_equal(h.x_hat, g.x_hat) for h, g in zip(half, got[1::2]))
    assert recover_slices_batch([], a, []) == []

    amat = a.a.copy()
    amat[:, 5] = amat[:, 2]
    dup = SensingMatrix(a=amat)
    with pytest.raises(ValueError, match="rank-deficient"):
        recover_slices_batch(zs[:3], dup, [SliceSupport([2, 4]), SliceSupport([2, 5]), sups[0]])


# -- the batched pursuit against the one-frame oracle ---------------------------


def _frames(a, rng, count, ranks=(1, 2, 3), sparsity=(1, 4), noise=True, zero=0.0):
    """count frames of A U with random sparse U, mixed ranks and noise; a
    share zero of them all-zero."""
    frames = []
    for _ in range(count):
        if rng.random() < zero:
            frames.append(FrameMatrix(np.zeros((a.m, int(rng.choice(ranks))))))
            continue
        k = int(rng.integers(sparsity[0], sparsity[1] + 1))
        u = np.zeros((a.n, int(rng.choice(ranks))), dtype=complex)
        rows = rng.choice(a.n, size=k, replace=False)
        u[rows] = rng.standard_normal((k, u.shape[1])) + 1j * rng.standard_normal((k, u.shape[1]))
        v = a.a @ u
        if noise and rng.random() < 0.5:
            v += 1e-3 * np.linalg.norm(v) / np.sqrt(v.size) * (
                rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
            )
        frames.append(FrameMatrix(v))
    return frames


def _assert_matches_oracle(frames, a, known, k_extra):
    from _oracles import omp_pks_one_frame

    from specx import omp_pks
    from specx.sensing import omp_pks_batch

    got = omp_pks_batch(frames, a, known, k_extra)
    want = [omp_pks_one_frame(v, a, known, k_extra) for v in frames]
    assert got == want
    assert [omp_pks(v, a, known, k_extra) for v in frames] == want
    return got


def test_omp_pks_batch_matches_oracle_on_random_batches():
    rng = np.random.default_rng(7)
    for _ in range(40):
        m = int(rng.integers(4, 19))
        a = bank(m, seed=int(rng.integers(1 << 30)))
        known = SliceSupport(rng.choice(a.n, size=int(rng.integers(0, min(4, m - 1) + 1)),
                                        replace=False))
        frames = _frames(a, rng, int(rng.integers(1, 12)), zero=0.1)
        _assert_matches_oracle(frames, a, known, int(rng.integers(0, m + 4)))
    from specx.sensing import omp_pks_batch

    assert omp_pks_batch([], bank(6), SliceSupport([1]), 3) == []


def test_omp_pks_batch_trials_stop_at_their_own_step():
    """Noiseless frames of 1 to 4 slices stop on their residual, each after
    its own number of picks, while the rest of the batch goes on."""
    rng = np.random.default_rng(3)
    a = bank(12)
    frames = _frames(a, rng, 9, sparsity=(1, 4), noise=False)
    got = _assert_matches_oracle(frames, a, SliceSupport(), 8)
    assert len({len(s) for s in got}) >= 3
    assert max(len(s) for s in got) <= 4


def test_omp_pks_batch_stops_on_zero_scores():
    """Unit columns e1, e2, e3 in four channels and frames with a part on e4:
    once a frame's own columns are taken every score is exactly 0, after one
    pick for some frames and after three for others."""
    eye = np.eye(4, dtype=complex)
    amat = np.zeros((4, 8), dtype=complex)
    amat[:, [1, 4, 6]] = eye[:, :3]
    a = SensingMatrix(a=amat)
    one = (2.0 * eye[:, 0] + eye[:, 3])[:, None]
    three = (3.0 * eye[:, 0] + 2.0 * eye[:, 1] + 1.5 * eye[:, 2] + eye[:, 3])[:, None]
    frames = [FrameMatrix(one), FrameMatrix(three), FrameMatrix(np.hstack([one, three]))]
    got = _assert_matches_oracle(frames, a, SliceSupport(), 7)
    assert [list(s) for s in got] == [[1], [1, 4, 6], [1, 4, 6]]
    got = _assert_matches_oracle(frames, a, SliceSupport([4]), 7)
    assert [list(s) for s in got] == [[1, 4], [1, 4, 6], [1, 4, 6]]


def test_omp_pks_batch_splits_on_in_span_picks(monkeypatch):
    """Repeated columns in a 4-D subspace of 6 channels, frames with 1 to 3
    of them plus a part outside the subspace. Once a frame's own columns
    are taken every score is rounding noise, so a pick may lie in the span
    of the basis (a repeat of a taken column) for some pursuits of a stack
    while the others grow theirs. A frame of NaNs never stops, as in the
    oracle. Every support equals the oracle's."""
    from specx import sensing

    splits = []
    step = sensing._greedy_step

    def counted_step(st, a, picks):
        out = step(st, a, picks)
        splits.append(len(out) == 2)
        return out

    monkeypatch.setattr(sensing, "_greedy_step", counted_step)
    rng = np.random.default_rng(4)
    m, d = 6, 4
    for _ in range(30):
        sub = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
        inner, outer = sub[:, :d], sub[:, d:]
        cols = inner @ (rng.standard_normal((d, 10)) + 1j * rng.standard_normal((d, 10)))
        a = SensingMatrix(a=np.hstack([cols, cols]))
        frames = []
        for _ in range(6):
            v = _frames(a, rng, 1, ranks=(1, 2), sparsity=(1, 3), noise=False)[0].v
            frames.append(FrameMatrix(v + 1e-2 * outer @ rng.standard_normal((m - d, v.shape[1]))))
        frames.append(FrameMatrix(np.full((m, 1), np.nan)))
        known = SliceSupport(rng.choice(10, size=int(rng.integers(0, 2)), replace=False))
        _assert_matches_oracle(frames, a, known, m + 3)
    assert any(splits)
