"""Channel model: mixing sequences, sensing matrix, low-rate observations."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _oracles import chip_fourier_series_quad, mixed_channel_spectrum  # noqa: E402

from specx import (  # noqa: E402
    CommTransmissionSpec,
    GridSpec,
    SliceSpectrum,
    build_sensing_matrix,
    compute_n_slices,
    gen_comm_slices,
    gen_mixing_sequences,
    total_rate,
    xample,
)
from specx.mwc import (  # noqa: E402
    MixingSequenceSet,
    sequence_fourier_coeffs,
)


def small_grid(n=10, n_grid=4, f_p=10e6):
    return GridSpec(f_nyq=(n - 1) * f_p, f_p=f_p, f_s=f_p, n_grid=n_grid)


def test_n_slices_matches_grid():
    assert compute_n_slices(560e6, 20e6, 20e6) == 30
    assert compute_n_slices(10e9, 154e6, 154e6) == 66
    with pytest.raises(ValueError):
        compute_n_slices(560e6, 10e6, 20e6)


def test_mixing_sequences_shape_and_determinism():
    s1 = gen_mixing_sequences(4, 16, seed=1)
    s2 = gen_mixing_sequences(4, 16, seed=1)
    assert s1.m == 4 and s1.n_chips == 16
    np.testing.assert_array_equal(s1.signs, s2.signs)
    assert np.all(np.abs(s1.signs) == 1)
    with pytest.raises(ValueError):
        MixingSequenceSet(signs=np.array([[1, 0, -1]]))


def test_chip_coeffs_against_quadrature():
    seqs = gen_mixing_sequences(3, 8, seed=2)
    ell = np.arange(-6, 7)
    got = sequence_fourier_coeffs(seqs, ell)
    for i in range(seqs.m):
        ref = chip_fourier_series_quad(seqs.signs[i], ell)
        np.testing.assert_allclose(got[i], ref, atol=1e-10)


def test_chip_coeffs_constant_sequence():
    # all-ones chips: DC passes through untouched, every other line vanishes
    seqs = MixingSequenceSet(signs=np.ones((1, 8), dtype=np.int8))
    ell = np.arange(-8, 9)
    c = sequence_fourier_coeffs(seqs, ell)[0]
    assert c[8] == pytest.approx(1.0, abs=1e-12)
    mask = np.ones(len(ell), dtype=bool)
    mask[8] = False
    np.testing.assert_allclose(c[mask], 0.0, atol=1e-12)


def test_sensing_matrix_columns():
    seqs = gen_mixing_sequences(3, 12, seed=7)
    a = build_sensing_matrix(seqs, 10)
    assert a.m == 3 and a.n == 10
    ell = np.arange(10) - 5
    np.testing.assert_allclose(a.a, np.conj(sequence_fourier_coeffs(seqs, ell)), atol=0)
    with pytest.raises(ValueError):
        build_sensing_matrix(seqs, 9)  # odd
    with pytest.raises(ValueError):
        build_sensing_matrix(seqs, 14)  # more slices than chips


def test_xample_matches_time_domain_mixing():
    """Bin-wise A x against exact chip-by-chip integration of p_i(t) x(t)."""
    rng = np.random.default_rng(42)
    for trial in range(6):
        n = int(rng.choice([6, 10, 16]))
        grid = small_grid(n=n, n_grid=int(rng.choice([4, 8])))
        m = int(rng.integers(3, 7))
        seqs = gen_mixing_sequences(m, n, seed=300 + trial)
        a = build_sensing_matrix(seqs, n)
        vals = np.zeros((n, grid.n_grid), dtype=complex)
        for r in rng.choice(n, size=int(rng.integers(1, 4)), replace=False):
            cols = rng.choice(grid.n_grid, size=int(rng.integers(1, grid.n_grid)), replace=False)
            vals[r, cols] = rng.standard_normal(cols.size) + 1j * rng.standard_normal(cols.size)
        x = SliceSpectrum(vals, grid)
        z = xample(x, a).z
        ref = mixed_channel_spectrum(x, seqs, grid)
        err = np.linalg.norm(z - ref) / max(np.linalg.norm(ref), 1e-30)
        assert err < 1e-6, f"trial {trial}: rel RMS {err:.2e}"


def test_xample_linearity_and_noise():
    grid = small_grid()
    seqs = gen_mixing_sequences(4, grid.n_slices, seed=0)
    a = build_sensing_matrix(seqs, grid.n_slices)
    tx = CommTransmissionSpec(carrier=25e6, bandwidth=6e6)
    x1, _, _ = gen_comm_slices([tx], grid, seed=1)
    x2, _, _ = gen_comm_slices([tx], grid, seed=2)
    z1 = xample(x1, a).z
    z2 = xample(x2, a).z
    both = SliceSpectrum(x1.values + x2.values, grid)
    np.testing.assert_allclose(xample(both, a).z, z1 + z2, atol=1e-12)

    na = xample(x1, a, noise_var=0.5, seed=10).z
    nb = xample(x1, a, noise_var=0.5, seed=10).z
    np.testing.assert_array_equal(na, nb)
    assert np.any(na != z1)


def test_xample_rejects_grid_mismatch():
    grid = small_grid()
    seqs = gen_mixing_sequences(4, 16, seed=0)
    a = build_sensing_matrix(seqs, 16)
    x, _, _ = gen_comm_slices([CommTransmissionSpec(carrier=25e6, bandwidth=6e6)], grid)
    with pytest.raises(ValueError):
        xample(x, a)


def test_channel_samples_time_frequency_round_trip():
    grid = small_grid()
    seqs = gen_mixing_sequences(4, grid.n_slices, seed=0)
    a = build_sensing_matrix(seqs, grid.n_slices)
    x, _, _ = gen_comm_slices([CommTransmissionSpec(carrier=25e6, bandwidth=6e6)], grid, seed=3)
    z = xample(x, a)
    from specx.mwc import ChannelSamples

    back = ChannelSamples.from_time(z.time_samples(), grid)
    np.testing.assert_allclose(back.z, z.z, atol=1e-9)


def test_rate_accounting():
    grid = GridSpec(f_nyq=10e9, f_p=154e6, f_s=154e6, n_grid=4)
    rate = total_rate(25, 154e6, grid)
    assert rate.f_total == 25 * 154e6
    assert rate.channel_ratio == 25 / 66
    assert rate.nyquist_ratio == pytest.approx(0.385, rel=1e-12)
    bare = total_rate(25, 154e6)
    assert bare.channel_ratio is None and bare.nyquist_ratio is None
