"""Synthetic transmit spectra, radar waveforms, and echo coefficients."""

import math
import sys

import numpy as np
import pytest

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from _oracles import (  # noqa: E402
    dense_from_slices,
    focus_direct,
    gen_comm_slices_per_call,
    radar_fourier_coeffs_one_scene,
    radar_slices_per_call,
)

from specx import (  # noqa: E402
    CommTransmissionSpec,
    FrequencySet,
    GridSpec,
    PulseTrainSpec,
    SliceSupport,
    TargetScene,
    band_layout,
    design_radar_waveform,
    gen_comm_slices,
    load_config,
    make_kappa,
    radar_fourier_coeffs,
    radar_slices,
)
from specx.signals import (  # noqa: E402
    check_scenes_in_train,
    draw_radar_emission_batch,
    gen_comm_slices_batch,
    radar_emission,
    radar_fourier_coeffs_batch,
)

GRID = GridSpec(f_nyq=380e6, f_p=20e6, f_s=20e6, n_grid=8)  # 20 slices


def test_comm_spectrum_is_conjugate_symmetric():
    spec = CommTransmissionSpec(carrier=80e6, bandwidth=8e6)
    x, _, _ = gen_comm_slices([spec], GRID, seed=5)
    dense = dense_from_slices(x.values, GRID)
    pos = np.arange(GRID.dense_size)
    mirror = GRID.mirror_position(pos)
    ok = mirror >= 0
    np.testing.assert_allclose(dense[mirror[ok]], np.conj(dense[pos[ok]]), atol=1e-12)


def test_comm_support_and_bands():
    spec = CommTransmissionSpec(carrier=80e6, bandwidth=8e6)
    x, f_c, support = gen_comm_slices([spec], GRID, seed=5)
    # carrier 80 MHz sits inside the slice centered there; mirror included
    center_idx = GRID.center_slice + 4
    assert list(support) == [GRID.n_slices - center_idx, center_idx]
    assert f_c.to_pairs() == [[-84e6, -76e6], [76e6, 84e6]]
    assert SliceSupport(np.flatnonzero((np.abs(x.values) > 1e-12).any(axis=1))) == support


def test_comm_power_convention():
    # sum |X|^2 * delta_f estimates the configured transmit power
    spec = CommTransmissionSpec(carrier=-60e6, bandwidth=10e6, power=2.0)
    total = 0.0
    n_seeds = 400
    for s in range(n_seeds):
        x, _, _ = gen_comm_slices([spec], GRID, seed=s)
        dense = dense_from_slices(x.values, GRID)
        total += float(np.sum(np.abs(dense) ** 2)) * GRID.delta_f
    assert total / n_seeds == pytest.approx(2.0, rel=0.05)


def test_comm_determinism_and_validation():
    spec = CommTransmissionSpec(carrier=80e6, bandwidth=8e6)
    a, _, _ = gen_comm_slices([spec], GRID, seed=9)
    b, _, _ = gen_comm_slices([spec], GRID, seed=9)
    np.testing.assert_array_equal(a.values, b.values)
    with pytest.raises(ValueError):
        gen_comm_slices([CommTransmissionSpec(carrier=300e6, bandwidth=4e6)], GRID)
    with pytest.raises(ValueError):
        gen_comm_slices([CommTransmissionSpec(carrier=0.0, bandwidth=30e6)], GRID)


def test_ambient_noise_raises_floor_but_not_support():
    spec = CommTransmissionSpec(carrier=80e6, bandwidth=8e6)
    quiet, _, s0 = gen_comm_slices([spec], GRID, noise_psd=0.0, seed=3)
    noisy, _, s1 = gen_comm_slices([spec], GRID, noise_psd=1e-9, seed=3)
    assert s0 == s1
    assert np.sum(np.abs(noisy.values) ** 2) > np.sum(np.abs(quiet.values) ** 2)


# -- radar waveform -----------------------------------------------------------


def flat_base(n):
    return np.ones(n, dtype=complex)


def test_waveform_power_renormalization():
    b_h = 1.6e6
    n = 40  # a fifth of the band is then exactly 8 bins
    fifth = FrequencySet([(-b_h / 2, -b_h / 2 + b_h / 5)])
    wave = design_radar_waveform(flat_base(n), b_h, fifth, p_t=3.0)
    # flat base confined to one fifth of the band needs a sqrt(5) boost
    assert wave.beta == pytest.approx(math.sqrt(5.0), rel=1e-12)
    power = np.sum(np.abs(wave.spectrum) ** 2) * (b_h / n)
    assert power == pytest.approx(3.0, rel=1e-12)


def test_waveform_partition_identity():
    # complementary band sets: in-band powers add up to the total
    b_h, n = 1.6e6, 64
    rng = np.random.default_rng(11)
    base = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    left = FrequencySet([(-b_h / 2, 0.0)])
    right = FrequencySet([(0.0, b_h / 2)])
    wl = design_radar_waveform(base, b_h, left, p_t=1.0)
    wr = design_radar_waveform(base, b_h, right, p_t=1.0)
    assert 1.0 / wl.beta**2 + 1.0 / wr.beta**2 == pytest.approx(1.0, rel=1e-12)


def test_waveform_zero_outside_bands():
    b_h, n = 1.6e6, 32
    bands = FrequencySet([(-0.4e6, -0.2e6), (0.1e6, 0.3e6)])
    wave = design_radar_waveform(flat_base(n), b_h, bands, p_t=1.0)
    freqs = (np.arange(n) - n // 2) * (b_h / n)
    outside = ~bands.contains_array(freqs)
    assert np.all(wave.spectrum[outside] == 0)
    assert np.all(wave.spectrum[~outside] != 0)


def test_waveform_spectrum_computed_once_and_read_only():
    b_h, n = 1.6e6, 32
    bands = FrequencySet([(-0.4e6, -0.2e6), (0.1e6, 0.3e6)])
    base = np.random.default_rng(3).standard_normal(n) + 0j
    wave = design_radar_waveform(base, b_h, bands, p_t=1.0)
    assert wave.spectrum is wave.spectrum
    assert not wave.spectrum.flags.writeable
    with pytest.raises(ValueError):
        wave.spectrum[0] = 1.0
    inside = bands.contains_array((np.arange(n) - n // 2) * (b_h / n))
    fresh = np.where(inside, wave.beta * wave.base_spectrum, 0.0)
    np.testing.assert_array_equal(wave.spectrum, fresh)


def test_waveform_validation():
    with pytest.raises(ValueError):
        design_radar_waveform(np.ones(5, complex), 1e6, FrequencySet([(-1e5, 1e5)]), 1.0)
    with pytest.raises(ValueError):
        design_radar_waveform(np.zeros(8, complex), 1e6, FrequencySet([(-1e5, 1e5)]), 1.0)
    with pytest.raises(ValueError):
        # bands carry no energy: flat base but bands outside the grid support
        design_radar_waveform(
            np.r_[np.zeros(4), np.ones(4)].astype(complex),
            1e6,
            FrequencySet([(-4.9e5, -4.4e5)]),
            1.0,
        )


# -- pulse train and scenes ---------------------------------------------------


def test_doppler_grid():
    train = PulseTrainSpec(pri=1e-4, n_pulses=8)
    g = train.doppler_grid()
    assert len(g) == 8
    assert g[0] == pytest.approx(-0.5 / 1e-4)
    steps = np.diff(g)
    np.testing.assert_allclose(steps, 1.0 / (8 * 1e-4), rtol=1e-12)


def test_scene_validation():
    train = PulseTrainSpec(pri=1e-4, n_pulses=4)
    good = TargetScene(
        delays=np.array([0.2e-4]),
        dopplers=np.array([0.0]),
        amplitudes=np.array([1.0 + 0j]),
    )
    check_scenes_in_train(good.delays, good.dopplers, train)
    assert len(good) == 1
    bad = TargetScene(
        delays=np.array([2e-4]), dopplers=np.array([0.0]), amplitudes=np.array([1.0 + 0j])
    )
    with pytest.raises(ValueError):
        check_scenes_in_train(bad.delays, bad.dopplers, train)


# -- echo coefficients ---------------------------------------------------------


def coeff_reference(scene, wave, train, kappa):
    """Literal triple loop over coefficients, pulses, and targets."""
    k_c = kappa.centered()
    h = wave.values_at(k_c)
    out = np.zeros((len(k_c), train.n_pulses), dtype=complex)
    for i, k in enumerate(k_c):
        for p in range(train.n_pulses):
            acc = 0.0 + 0j
            for tau, nu, amp in zip(scene.delays, scene.dopplers, scene.amplitudes):
                acc += amp * np.exp(-2j * math.pi * k * tau / train.pri) * np.exp(
                    -2j * math.pi * nu * p * train.pri
                )
            out[i, p] = h[i] / train.pri * acc
    return out


def test_coeffs_match_literal_sum():
    b_h, n = 1.6e6, 16
    pri = n / b_h
    wave = design_radar_waveform(flat_base(n), b_h, FrequencySet([(-b_h / 2, b_h / 2)]), 1.0)
    train = PulseTrainSpec(pri=pri, n_pulses=6)
    kappa = make_kappa(wave.bands, b_h, n)
    scene = TargetScene(
        delays=np.array([2, 9]) * pri / n,
        dopplers=train.doppler_grid()[[1, 4]],
        amplitudes=np.array([1.0 + 0.5j, -0.25 + 1j]),
    )
    got = radar_fourier_coeffs(scene, wave, train, kappa)
    np.testing.assert_allclose(got, coeff_reference(scene, wave, train, kappa), atol=1e-12)


def test_coeffs_noise_is_seeded():
    b_h, n = 1.6e6, 16
    pri = n / b_h
    wave = design_radar_waveform(flat_base(n), b_h, FrequencySet([(-b_h / 2, b_h / 2)]), 1.0)
    train = PulseTrainSpec(pri=pri, n_pulses=4)
    kappa = make_kappa(wave.bands, b_h, n)
    scene = TargetScene(
        delays=np.array([0.0]), dopplers=np.array([0.0]), amplitudes=np.array([1.0 + 0j])
    )
    a = radar_fourier_coeffs(scene, wave, train, kappa, noise_var=0.1, seed=4)
    b = radar_fourier_coeffs(scene, wave, train, kappa, noise_var=0.1, seed=4)
    c = radar_fourier_coeffs(scene, wave, train, kappa, noise_var=0.1, seed=5)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_coeffs_batch_noise_has_the_one_scene_bits():
    """Each scene's noisy coefficients in a stack hold the bits of the
    one-scene synthesis that draws its real and imaginary noise as two
    arrays and adds them as one complex array."""
    b_h, n = 1.6e6, 16
    pri = n / b_h
    wave = design_radar_waveform(flat_base(n), b_h, FrequencySet([(-b_h / 2, 0.0)]), 1.0)
    train = PulseTrainSpec(pri=pri, n_pulses=6)
    kappa = make_kappa(wave.bands, b_h, n)
    rng = np.random.default_rng(3)
    scenes = [
        TargetScene(
            delays=rng.integers(n, size=2) * pri / n,
            dopplers=train.doppler_grid()[rng.integers(6, size=2)],
            amplitudes=rng.normal(size=2) + 1j * rng.normal(size=2),
        )
        for _ in range(3)
    ]
    seeds = [11, 12, 13]
    got = radar_fourier_coeffs_batch(
        *(np.stack([getattr(sc, name) for sc in scenes])
          for name in ("delays", "dopplers", "amplitudes")),
        wave.values_on(kappa), kappa.centered(), train, [0.3] * 3, seeds,
    )
    for stacked, scene, seed in zip(got, scenes, seeds):
        want = radar_fourier_coeffs_one_scene(scene, wave, train, kappa, 0.3, seed)
        assert stacked.tobytes() == want.tobytes()


def test_coeffs_reject_bins_without_spectrum():
    b_h, n = 1.6e6, 16
    pri = n / b_h
    narrow = FrequencySet([(-b_h / 2, -b_h / 2 + 3 * b_h / n)])
    wave = design_radar_waveform(flat_base(n), b_h, narrow, 1.0)
    train = PulseTrainSpec(pri=pri, n_pulses=4)
    full = make_kappa(FrequencySet([(-b_h / 2, b_h / 2)]), b_h, n)
    scene = TargetScene(
        delays=np.array([0.0]), dopplers=np.array([0.0]), amplitudes=np.array([1.0 + 0j])
    )
    with pytest.raises(ValueError):
        radar_fourier_coeffs(scene, wave, train, full)


def test_radar_slices_support_and_mirror():
    b_h = 1.6e6
    wave = design_radar_waveform(flat_base(16), b_h, FrequencySet([(-b_h / 2, b_h / 2)]), 1.0)
    x = radar_slices(wave, carrier=150e6, grid=GRID, power_scale=1.0, seed=2)
    active = SliceSupport(np.flatnonzero((np.abs(x.values) > 0.0).any(axis=1)))
    # 150 MHz falls in the slice straddling [140, 160); mirror slice too
    hi = GRID.center_slice + 7  # centers 140 and 160 are slices 17 and 18
    assert set(active).issubset({hi, hi + 1, GRID.n_slices - hi, GRID.n_slices - hi - 1})
    assert len(active) >= 2
    silent = radar_slices(wave, carrier=150e6, grid=GRID, power_scale=0.0)
    assert np.all(silent.values == 0)


def same_bits(x, y):
    return x.values.tobytes() == y.values.tobytes()


@pytest.mark.parametrize("preset", ["desk", "paper_sw"])
def test_slice_draws_match_per_call_oracles(preset):
    """The cached grid geometry and the two-step radar emission draw the
    same bits as the versions that rebuilt everything on every call."""
    cfg = load_config(preset)
    grid, r = cfg.grid.to_grid(), cfg.radar
    # the preset's bands, plus one whose edges fall on dense bins and one
    # centred on 0 Hz, whose middle bin is its own mirror
    specs = (
        *cfg.comm.transmissions,
        CommTransmissionSpec(carrier=8 * grid.f_p, bandwidth=8 * grid.delta_f),
        CommTransmissionSpec(carrier=0.0, bandwidth=5 * grid.delta_f, shape="raised-cosine"),
    )
    for seed in range(4):
        for noise_psd in (0.0, cfg.comm.noise_psd):
            got = gen_comm_slices(specs, grid, noise_psd, seed)
            want = gen_comm_slices_per_call(specs, grid, noise_psd, seed)
            assert same_bits(got[0], want[0])
            assert got[1:] == want[1:]
    for layout in ("separated", "adjacent", "wideband"):
        f_r = band_layout(layout, r.b_h, r.n_bands, 0.2, r.n_delay_bins)
        wave = design_radar_waveform(flat_base(r.n_delay_bins), r.b_h, f_r, r.p_t)
        for power_scale in (r.p_t, 1.0, 0.0):
            for seed in range(4):
                got = radar_slices(wave, r.carrier, grid, power_scale, seed)
                want = radar_slices_per_call(wave, r.carrier, grid, power_scale, seed)
                assert same_bits(got, want)


def _draw_case(case):
    """A grid and a radar on it: a preset's grid and its radar on the
    separated layout, or a grid whose slices overlap (f_s > f_p) with a
    two-band radar."""
    if case == "overlapping-slices":
        grid = GridSpec(f_nyq=380e6, f_p=20e6, f_s=25e6, n_grid=10)
        bands = FrequencySet([(-6e6, -2e6), (3e6, 7e6)])
        return grid, design_radar_waveform(flat_base(64), 20e6, bands, 1.0), 100e6
    cfg = load_config(case)
    r = cfg.radar
    f_r = band_layout("separated", r.b_h, r.n_bands, 0.2, r.n_delay_bins)
    wave = design_radar_waveform(flat_base(r.n_delay_bins), r.b_h, f_r, r.p_t)
    return cfg.grid.to_grid(), wave, r.carrier


@pytest.mark.parametrize("case", ["desk", "paper_sw", "overlapping-slices"])
def test_stacked_draws_equal_lone_first_written_draws(case):
    """gen_comm_slices_batch and draw_radar_emission_batch give every draw
    of a stack of five, and of a stack of one, the bits of the first-written
    lone draw with its seed: overlapping bands, three of them around 0 Hz
    where their mirrors overlap them too, bands clipped at -f_nyq/2 and
    +f_nyq/2, raised-cosine shapes, a zero-power band, draws with different
    band counts (none included), with and without ambient noise; and the
    radar at full and at zero power."""
    grid, wave, carrier = _draw_case(case)
    half, bw = grid.f_nyq / 2.0, 0.8 * grid.f_p
    layouts = [
        (
            CommTransmissionSpec(5 * grid.f_p, bw),
            CommTransmissionSpec(5 * grid.f_p + bw / 3, bw, 2.0, "raised-cosine"),
            CommTransmissionSpec(half - bw / 4, bw),
        ),
        (
            CommTransmissionSpec(-half + bw / 5, bw, 0.5, "raised-cosine"),
            CommTransmissionSpec(-3 * grid.f_p, bw, 0.0),
            CommTransmissionSpec(0.0, 5 * grid.delta_f, shape="raised-cosine"),
        ),
        (),
        (CommTransmissionSpec(-7 * grid.f_p + bw / 7, bw),),
        # three bands around 0 Hz and their mirrors: up to six terms a bin
        (
            CommTransmissionSpec(0.0, bw),
            CommTransmissionSpec(bw / 4, bw / 2, 3.0, "raised-cosine"),
            CommTransmissionSpec(-bw / 5, bw / 3, 0.5),
        ),
    ]
    seeds = [11, 12, 13, 14, 15]
    for noise_psd in (0.0, 1e-3):
        for lo, hi in ((0, 5), (1, 2)):
            values, occupied = gen_comm_slices_batch(layouts[lo:hi], grid, noise_psd, seeds[lo:hi])
            assert values.shape == (hi - lo, grid.n_slices, grid.n_grid)
            for b, (specs, seed) in enumerate(zip(layouts[lo:hi], seeds[lo:hi])):
                want, _, support = gen_comm_slices_per_call(specs, grid, noise_psd, seed)
                assert values[b].tobytes() == want.values.tobytes()
                assert SliceSupport(np.flatnonzero(occupied[b])) == support
    assert np.all(gen_comm_slices_batch(layouts, grid, 0.0, seeds)[0][2] == 0)
    for power_scale in (wave.p_t, 0.0):
        emission = radar_emission(wave, carrier, grid, power_scale)
        for lo, hi in ((0, 5), (1, 2)):
            got = draw_radar_emission_batch(emission, seeds[lo:hi])
            for b, seed in enumerate(seeds[lo:hi]):
                want = radar_slices_per_call(wave, carrier, grid, power_scale, seed)
                assert got[b].tobytes() == want.values.tobytes()
        assert np.any(got) == (power_scale > 0)


@pytest.mark.parametrize("preset", ["desk", "paper_sw"])
def test_comm_occupancy_is_gen_comm_slices_band_set(preset):
    """The band set read off the specs equals the one gen_comm_slices
    returns, on the preset's bands, a band clipped at +f_nyq/2 and a band
    narrower than a bin that holds none."""
    from specx.signals import comm_occupancy

    cfg = load_config(preset)
    grid = cfg.grid.to_grid()
    half_nyq = grid.f_nyq / 2.0
    freqs = grid.dense_freqs()
    k = len(freqs) // 2 + 3
    between = (freqs[k] + freqs[k + 1]) / 2.0
    clipped = CommTransmissionSpec(carrier=half_nyq - grid.f_p / 4, bandwidth=grid.f_p)
    empty = CommTransmissionSpec(carrier=between, bandwidth=grid.delta_f / 4)
    cases = [
        cfg.comm.transmissions,
        cfg.comm.phase2_transmissions or (),
        (clipped,),
        (empty,),
        (*cfg.comm.transmissions, clipped, empty),
    ]
    for specs in cases:
        assert comm_occupancy(specs, grid) == gen_comm_slices(specs, grid, seed=5)[1]
    assert comm_occupancy((clipped,), grid).to_pairs()[-1][1] == half_nyq
    assert comm_occupancy((empty,), grid) == FrequencySet()


def test_radar_emission_arrays_are_read_only():
    b_h = 1.6e6
    wave = design_radar_waveform(flat_base(16), b_h, FrequencySet([(-b_h / 2, b_h / 2)]), 1.0)
    for power_scale in (1.0, 0.0):
        emission = radar_emission(wave, 150e6, GRID, power_scale)
        arrays = emission[1:]
        assert all(not arr.flags.writeable for arr in arrays)
        assert all(arr.size == 0 for arr in arrays) == (power_scale == 0.0)


def test_focus_direct_helper_agrees():
    # guards the oracle itself: literal DFT versus the library fft path
    b_h, n, n_pulses = 1.6e6, 16, 6
    pri = n / b_h
    wave = design_radar_waveform(flat_base(n), b_h, FrequencySet([(-b_h / 2, b_h / 2)]), 1.0)
    train = PulseTrainSpec(pri=pri, n_pulses=n_pulses)
    kappa = make_kappa(wave.bands, b_h, n)
    scene = TargetScene(
        delays=np.array([5]) * pri / n,
        dopplers=train.doppler_grid()[[2]],
        amplitudes=np.array([0.8 - 0.1j]),
    )
    coeffs = radar_fourier_coeffs(scene, wave, train, kappa, noise_var=0.2, seed=1)
    from specx import doppler_focus

    np.testing.assert_allclose(
        doppler_focus(coeffs, wave, kappa, train).psi,
        focus_direct(coeffs, wave, kappa, train),
        atol=1e-12,
    )
