"""Delay-Doppler recovery from a sparse set of spectral coefficients."""

import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import dft

sys.path.insert(0, str(Path(__file__).parent))
from _oracles import focus_direct, focused_omp_one_map, focused_omp_refit_all  # noqa: E402

import specx.freqs  # noqa: E402
import specx.radar  # noqa: E402
from specx.radar import _lstsq_stack, focused_omp_batch  # noqa: E402

from specx import (  # noqa: E402
    Detection,
    DetectionList,
    FocusedMatrix,
    FrequencySet,
    KappaSet,
    PulseTrainSpec,
    SPEED_OF_LIGHT,
    TargetScene,
    available_presets,
    delay_to_range_m,
    design_radar_waveform,
    doppler_focus,
    focused_noise_var,
    focused_omp,
    glrt_threshold,
    hit_or_miss,
    load_config,
    make_kappa,
    min_requirements,
    partial_fourier,
    radar_fourier_coeffs,
)

B_H = 1.6e6
N = 32
PRI = N / B_H
FULL = FrequencySet([(-B_H / 2, B_H / 2)])


def wave_for(bands, n=N, p_t=1.0):
    return design_radar_waveform(np.ones(n, complex), B_H, bands, p_t)


def setup(bands, n_pulses=8, n=N):
    wave = wave_for(bands, n=n)
    train = PulseTrainSpec(pri=PRI, n_pulses=n_pulses)
    kappa = make_kappa(bands, B_H, n)
    return wave, train, kappa


def on_grid_scene(train, delay_bins, doppler_bins, amps, n=N):
    return TargetScene(
        delays=np.asarray(delay_bins) * PRI / n,
        dopplers=train.doppler_grid()[np.asarray(doppler_bins)],
        amplitudes=np.asarray(amps, dtype=complex),
    )


# -- kappa --------------------------------------------------------------------


def test_make_kappa_full_band():
    kappa = make_kappa(FULL, B_H, 16)
    assert kappa.k == 16
    assert sorted(kappa.to_array()) == list(range(16))


def test_make_kappa_positive_band():
    bin_w = B_H / 16
    kappa = make_kappa(FrequencySet([(0.0, 3 * bin_w)]), B_H, 16)
    assert sorted(kappa.to_array()) == [0, 1, 2]


def test_make_kappa_straddles_zero():
    bin_w = B_H / 16
    kappa = make_kappa(FrequencySet([(-2 * bin_w, bin_w)]), B_H, 16)
    assert sorted(kappa.to_array()) == [0, 14, 15]
    np.testing.assert_array_equal(np.sort(kappa.centered()), [-2, -1, 0])


def test_make_kappa_validation():
    with pytest.raises(ValueError):
        make_kappa(FrequencySet(), B_H, 16)
    with pytest.raises(ValueError):
        make_kappa(FrequencySet([(0.0, B_H)]), B_H, 16)


def test_partial_fourier_is_dft_rows():
    kappa = make_kappa(FrequencySet([(0.0, 4 * B_H / 16)]), B_H, 16)
    rows = kappa.to_array()
    np.testing.assert_allclose(partial_fourier(kappa), dft(16)[rows], atol=1e-12)


# -- focusing -----------------------------------------------------------------


def test_focus_matches_direct_sum():
    wave, train, kappa = setup(FULL, n_pulses=10)
    scene = on_grid_scene(train, [4, 20], [3, 7], [1.0, 0.5 - 0.5j])
    coeffs = radar_fourier_coeffs(scene, wave, train, kappa, noise_var=0.3, seed=8)
    got = doppler_focus(coeffs, wave, kappa, train)
    np.testing.assert_allclose(got.psi, focus_direct(coeffs, wave, kappa, train), atol=1e-10)
    np.testing.assert_allclose(got.doppler_grid, train.doppler_grid(), atol=0)


def test_focus_concentrates_on_grid_target():
    wave, train, kappa = setup(FULL, n_pulses=8)
    scene = on_grid_scene(train, [5], [2], [2.0 - 1.0j])
    coeffs = radar_fourier_coeffs(scene, wave, train, kappa)
    psi = doppler_focus(coeffs, wave, kappa, train).psi
    # the focused map restricted to the target's Doppler column is a pure
    # delay tone; correlating with the matching Fourier row returns the
    # amplitude, everything else in the column is zero
    f_kappa = partial_fourier(kappa)
    corr = f_kappa.conj().T @ psi[:, 2] / kappa.k
    assert corr[5] == pytest.approx(2.0 - 1.0j, abs=1e-9)
    others = np.delete(np.abs(corr), 5)
    assert others.max() < 1e-9
    off_cols = np.delete(np.abs(psi), 2, axis=1)
    assert off_cols.max() < 1e-9


def test_focused_noise_variance_prediction():
    bands = FrequencySet([(-B_H / 2, -B_H / 4), (0.0, B_H / 4)])
    wave, train, kappa = setup(bands, n_pulses=16)
    empty = TargetScene(
        delays=np.zeros(0), dopplers=np.zeros(0), amplitudes=np.zeros(0, complex)
    )
    predicted = focused_noise_var(0.7, wave, kappa, train)
    samples = []
    for seed in range(300):
        coeffs = radar_fourier_coeffs(empty, wave, train, kappa, noise_var=0.7, seed=seed)
        psi = doppler_focus(coeffs, wave, kappa, train).psi
        samples.append(np.mean(np.abs(psi) ** 2))
    assert np.mean(samples) == pytest.approx(predicted, rel=0.05)


# -- thresholds ---------------------------------------------------------------


def test_glrt_threshold_central_closed_form():
    # df=2 chi-square upper quantile has the closed form -2 ln(q)
    for p_fa, n in [(0.05, 1), (0.1, 512), (0.01, 3888)]:
        per_test = 1.0 - (1.0 - p_fa) ** (1.0 / n)
        want = -2.0 * math.log(per_test)
        assert glrt_threshold(p_fa, n, model="central") == pytest.approx(want, rel=1e-10)


def test_glrt_threshold_noncentral_behavior():
    base = glrt_threshold(0.01, 100, rho=0.0, model="noncentral")
    assert base == pytest.approx(glrt_threshold(0.01, 100, model="central"), rel=1e-9)
    assert glrt_threshold(0.01, 100, rho=5.0, model="noncentral") > base
    with pytest.raises(ValueError):
        glrt_threshold(0.01, 100, rho=-1.0, model="noncentral")
    with pytest.raises(ValueError):
        glrt_threshold(0.0, 100)
    with pytest.raises(ValueError):
        glrt_threshold(0.1, 100, model="bogus")
    for model in ("central", "noncentral"):
        with pytest.raises(ValueError, match="p_fa = 1e-13 over n = 3888"):
            glrt_threshold(1e-13, 3888, model=model)


def _preset_glrt_points():
    """(p_fa, n) of each preset's GLRT: n tests, one per delay-Doppler cell."""
    points = []
    for name in available_presets():
        r = load_config(name).radar
        points.append((r.p_fa, r.n_delay_bins * r.n_pulses))
    return points


def _per_test(p_fa, n):
    return 1.0 - (1.0 - p_fa) ** (1.0 / n)


GLRT_GRID = sorted(
    {
        (p_fa, n)
        for p_fa in (1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5)
        for n in (1, 16, 512, 10**5)
    }
    | set(_preset_glrt_points())
)


def test_glrt_threshold_central_within_2_ulp_of_scipy():
    for p_fa, n in GLRT_GRID:
        got = glrt_threshold(p_fa, n, model="central")
        want = float(stats.chi2.isf(_per_test(p_fa, n), df=2))
        assert abs(got - want) <= 2 * math.ulp(want), (p_fa, n)


def test_glrt_threshold_central_within_1_ulp_of_exact_log():
    """The closed form is within 1 ulp of -2 ln(per_test) at 200 bits, over
    the grid and up to p_fa = 0.99, where chi2.isf strays by several ulp."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        for p_fa, n in GLRT_GRID + [(0.9, 2), (0.99, 1), (0.99, 7)]:
            exact = float(-2 * mpmath.log(mpmath.mpf(_per_test(p_fa, n))))
            got = glrt_threshold(p_fa, n, model="central")
            assert abs(got - exact) <= math.ulp(exact), (p_fa, n)


def test_glrt_threshold_noncentral_equals_scipy():
    for p_fa, n in _preset_glrt_points() + [(0.1, 16)]:
        for rho in (0.0, 0.5, 5.0, 40.0, 400.0):
            got = glrt_threshold(p_fa, n, rho=rho, model="noncentral")
            want = float(stats.ncx2.isf(_per_test(p_fa, n), df=2, nc=rho))
            assert got == want, (p_fa, n, rho)


# -- recovery -----------------------------------------------------------------


def recover(scene, bands=FULL, n_pulses=8, noise_var=0.0, gamma=0.0, max_iter=8, seed=0):
    wave, train, kappa = setup(bands, n_pulses=n_pulses)
    coeffs = radar_fourier_coeffs(scene, wave, train, kappa, noise_var=noise_var, seed=seed)
    focused = doppler_focus(coeffs, wave, kappa, train)
    fvar = focused_noise_var(noise_var, wave, kappa, train) if noise_var > 0 else 0.0
    return focused_omp(focused, partial_fourier(kappa), gamma, fvar, max_iter), train


def test_noiseless_exact_recovery():
    train = PulseTrainSpec(pri=PRI, n_pulses=8)
    scene = on_grid_scene(train, [3, 17, 29], [1, 4, 6], [1.0, -0.5 + 0.2j, 0.8j])
    dets, train = recover(scene)
    assert len(dets) == 3
    assert not dets.truncated
    got = {(d.delay_bin, d.doppler_bin): d.amplitude for d in dets}
    for bin_pair, amp in zip([(3, 1), (17, 4), (29, 6)], scene.amplitudes):
        assert bin_pair in got
        assert abs(got[bin_pair] - amp) <= 1e-8 * abs(amp)


def test_partial_band_noiseless_recovery():
    # five coefficient bins are plenty for two targets
    bands = FrequencySet([(-B_H / 2, -B_H / 2 + 5 * B_H / N)])
    train = PulseTrainSpec(pri=PRI, n_pulses=8)
    scene = on_grid_scene(train, [6, 11], [2, 5], [1.0, 0.7])
    dets, _ = recover(scene, bands=bands)
    assert {(d.delay_bin, d.doppler_bin) for d in dets} == {(6, 2), (11, 5)}


def test_truncation_flag():
    train = PulseTrainSpec(pri=PRI, n_pulses=8)
    scene = on_grid_scene(train, [3, 17, 29], [1, 4, 6], [1.0, 1.0, 1.0])
    dets, _ = recover(scene, max_iter=2)
    assert len(dets) == 2
    assert dets.truncated


def test_gamma_blocks_pure_noise():
    empty = TargetScene(
        delays=np.zeros(0), dopplers=np.zeros(0), amplitudes=np.zeros(0, complex)
    )
    gamma = glrt_threshold(1e-4, N * 8, model="central")
    dets, _ = recover(empty, noise_var=0.5, gamma=gamma, seed=11)
    assert len(dets) == 0


@pytest.mark.parametrize("noise_var", [0.0, 0.5])
@pytest.mark.parametrize("seed", range(8))
def test_focused_omp_matches_refit_all_oracle(seed, noise_var):
    """Refitting only the Doppler column that gained an atom, and updating
    only that column's back-projection, gives the same detections, bit for
    bit, as refitting every column and back-projecting the whole map on
    every step. The loud-column map puts many picks in one column, each
    after a refit of it, and the tied map makes a refit column tie the next
    pick; both need the full product formed again."""
    rng = np.random.default_rng(seed)
    bands = FULL if seed % 2 else FrequencySet([(-B_H / 2, -B_H / 2 + 12 * B_H / N)])
    wave, train, kappa = setup(bands)
    f_kappa = partial_fourier(kappa)
    # three targets share Doppler bin 2, so one column gains several atoms
    scene = on_grid_scene(
        train, rng.choice(N, 5, replace=False), [2, 2, 2, 5, int(rng.integers(8))],
        rng.normal(size=5) + 1j * rng.normal(size=5),
    )
    coeffs = radar_fourier_coeffs(scene, wave, train, kappa, noise_var=noise_var, seed=seed)
    noise_map = rng.normal(size=(kappa.k, 8)) + 1j * rng.normal(size=(kappa.k, 8))
    loud_column = noise_map * np.where(np.arange(8) == seed % 8, 6.0, 1.0)
    # column 1 is column 0's residual after its first refit, so the second
    # pick ties between a refit column and one untouched since the first
    # back-projection; the full product breaks that tie to column 0
    tied = 0.1 * noise_map
    atom = f_kappa[:, [int(rng.integers(N))]]
    tied[:, 0] = 40.0 * atom[:, 0] + noise_map[:, 0]
    tied[:, 1] = tied[:, 0] - atom @ np.linalg.lstsq(atom, tied[:, 0], rcond=None)[0]
    maps = [
        doppler_focus(coeffs, wave, kappa, train),
        *(
            FocusedMatrix(psi=m, doppler_grid=train.doppler_grid(), pri=PRI)
            for m in (noise_map, loud_column, tied)
        ),
    ]
    if noise_var > 0:
        fvar = focused_noise_var(noise_var, wave, kappa, train)
        gamma = glrt_threshold(0.01, N * 8)
    else:
        fvar = gamma = 0.0
    shared_column = truncated = False
    for focused in maps:
        for max_iter in (2, 6, 40):
            got = focused_omp(focused, f_kappa, gamma, fvar, max_iter)
            assert got == focused_omp_refit_all(focused, f_kappa, gamma, fvar, max_iter)
            columns = [d.doppler_bin for d in got]
            shared_column |= len(set(columns)) < len(columns)
            truncated |= got.truncated
    assert shared_column and truncated


@pytest.mark.parametrize("noise_var", [0.0, 0.5])
@pytest.mark.parametrize("seed", range(4))
def test_focused_omp_batch_matches_refit_all_oracle(seed, noise_var):
    """Each map of a stack gets the detections the refit-all oracle and the
    one-map loop give it alone, bit for bit, once its pursuit is made into a
    DetectionList, also when each map takes its own GLRT threshold and noise
    variance. The stack holds an all-zero map between non-zero
    ones, which returns no detections without a step; a map whose loud
    columns 0 and 1 are equal, so its first pick ties exactly with a cell
    of column 1, which the tie-break leaves for the second; maps with one loud
    column and with a refit column tying an untouched one, which force full
    products again; and noisy focused scenes."""
    rng = np.random.default_rng(100 + seed)
    bands = FULL if seed % 2 else FrequencySet([(-B_H / 2, -B_H / 2 + 12 * B_H / N)])
    wave, train, kappa = setup(bands)
    f_kappa = partial_fourier(kappa)
    shape = (kappa.k, 8)

    def noise():
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    twin = noise()
    twin[:, 0] *= 6.0
    twin[:, 1] = twin[:, 0]
    loud = noise() * np.where(np.arange(8) == seed, 6.0, 1.0)
    tied = 0.1 * noise()
    atom = f_kappa[:, [int(rng.integers(N))]]
    tied[:, 0] = 40.0 * atom[:, 0] + noise()[:, 0]
    tied[:, 1] = tied[:, 0] - atom @ np.linalg.lstsq(atom, tied[:, 0], rcond=None)[0]
    scenes = [
        on_grid_scene(
            train, rng.choice(N, 4, replace=False), [2, 2, 5, int(rng.integers(8))],
            rng.normal(size=4) + 1j * rng.normal(size=4),
        )
        for _ in range(3)
    ]
    focused = [
        doppler_focus(
            radar_fourier_coeffs(sc, wave, train, kappa, noise_var=noise_var, seed=i),
            wave, kappa, train,
        ).psi
        for i, sc in enumerate(scenes)
    ]
    maps = [focused[0], twin, loud, np.zeros(shape, complex), tied, *focused[1:], noise()]
    stack = np.stack(maps)
    if noise_var > 0:
        fvar = focused_noise_var(noise_var, wave, kappa, train)
        gamma = glrt_threshold(0.01, N * 8)
    else:
        fvar = gamma = 0.0
    shared_column = truncated = False
    for max_iter in (1, 3, 40):
        got = [
            DetectionList.from_pursuit(found, N, train.doppler_grid(), PRI)
            for found in focused_omp_batch(
                stack, f_kappa, [gamma] * len(maps), [fvar] * len(maps), max_iter,
                f_adj=f_kappa.conj().T,
            )
        ]
        want = [
            focused_omp_refit_all(
                FocusedMatrix(psi=m, doppler_grid=train.doppler_grid(), pri=PRI),
                f_kappa, gamma, fvar, max_iter,
            )
            for m in maps
        ]
        assert got == want
        assert got == [
            focused_omp_one_map(
                FocusedMatrix(psi=m, doppler_grid=train.doppler_grid(), pri=PRI),
                f_kappa, gamma, fvar, max_iter,
            )
            for m in maps
        ]
        assert got[3] == DetectionList(detections=())
        if max_iter > 1:
            assert [d.doppler_bin for d in got[1]][:2] == [0, 1]
        for dets in got:
            columns = [d.doppler_bin for d in dets]
            shared_column |= len(set(columns)) < len(columns)
            truncated |= dets.truncated
    assert shared_column and truncated
    # maps of one stack under their own thresholds and noise variances, one in
    # three with no stopping test, as the points of a band sweep's batch are
    gammas, fvars = zip(*(
        ((gamma, fvar), (0.0, 0.0), (4.0 * gamma + 1.0, fvar + 0.1))[b % 3]
        for b in range(len(maps))
    ))
    got = [
        DetectionList.from_pursuit(found, N, train.doppler_grid(), PRI)
        for found in focused_omp_batch(stack, f_kappa, gammas, fvars, 40, f_adj=f_kappa.conj().T)
    ]
    assert got == [
        focused_omp_refit_all(
            FocusedMatrix(psi=m, doppler_grid=train.doppler_grid(), pri=PRI), f_kappa, g, v, 40
        )
        for m, g, v in zip(maps, gammas, fvars)
    ]


@pytest.mark.parametrize("k", [1, 12, 32, 162])
def test_lstsq_stack_equals_lstsq_slice_by_slice(k):
    """Each slice of the stacked refit has the bits of its own
    np.linalg.lstsq call: 1 to 4 atoms, more atoms than rows at K = 1,
    random unit-modulus frames and, at K = 12, nearly collinear atoms
    (adjacent delay bins of a 12-coefficient band)."""
    rng = np.random.default_rng(k)
    if k == 12:
        kappa = make_kappa(FrequencySet([(-B_H / 2, -B_H / 2 + 12 * B_H / N)]), B_H, N)
        frame = partial_fourier(kappa)
        assert frame.shape == (12, N)
    else:
        frame = np.exp(2j * np.pi * rng.uniform(size=(k, 2 * k + 8)))  # unit modulus
    for m in range(1, 5):
        starts = rng.choice(frame.shape[1] - m, 6)
        atoms = np.stack([np.arange(s, s + m) for s in starts])  # adjacent bins
        sub = frame.T[atoms].transpose(0, 2, 1)
        rhs = rng.normal(size=(6, k)) + 1j * rng.normal(size=(6, k))
        got = _lstsq_stack(sub, rhs)
        for g in range(6):
            want = np.linalg.lstsq(frame[:, atoms[g]], rhs[g], rcond=None)[0]
            assert got[g].tobytes() == want.tobytes()


# hides NumPy's private lstsq gufunc and its error callback from any later
# import, as a NumPy that renamed them would, then runs the CLI on sys.argv[1:]
_HIDDEN_LSTSQ = """
import importlib.abc, sys, types
import numpy.linalg
import numpy.linalg._linalg as linalg

class Hide(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy.linalg._umath_linalg":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, Hide())
del sys.modules["numpy.linalg._umath_linalg"], numpy.linalg._umath_linalg
shown = types.ModuleType(linalg.__name__)
shown.__dict__.update((k, v) for k, v in vars(linalg).items() if k != "_raise_linalgerror_lstsq")
sys.modules[linalg.__name__] = numpy.linalg._linalg = shown

from specx import cli, radar
code = cli.main(sys.argv[1:])
print(code, radar._lstsq_gufunc())
"""


@pytest.mark.parametrize(
    "argv",
    [["radar", "--config", "paper_sw"],
     ["sweep", "--config", "desk", "--axis", "band_placement", "--trials", "3"]],
    ids=["radar", "band-sweep"],
)
def test_reports_without_numpys_private_lstsq(tmp_path, argv):
    """Where NumPy has no private lstsq gufunc by the names _lstsq_stack looks
    up, specx still imports, refits slice by slice with np.linalg.lstsq,
    and writes the reports of a normal run, byte for byte."""
    import subprocess

    from specx import cli

    hidden, normal = tmp_path / "hidden", tmp_path / "normal"
    src = str(Path(specx.radar.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", _HIDDEN_LSTSQ, *argv, "--out", str(hidden)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 None"
    assert cli.main([*argv, "--out", str(normal)]) == 0
    names = sorted(path.name for path in normal.iterdir())
    assert names == sorted(path.name for path in hidden.iterdir())
    assert all((hidden / n).read_bytes() == (normal / n).read_bytes() for n in names)


def _lockstep_maps(rng, kappa, f_kappa, train, wave):
    """Maps whose pursuits stop at different steps, for one stack."""
    shape = (kappa.k, 8)

    def noise():
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    tied = 0.1 * noise()
    atom = f_kappa[:, [int(rng.integers(N))]]
    tied[:, 0] = 40.0 * atom[:, 0] + noise()[:, 0]
    tied[:, 1] = tied[:, 0] - atom @ np.linalg.lstsq(atom, tied[:, 0], rcond=None)[0]

    def scene(n_targets, seed):
        sc = on_grid_scene(
            train, rng.choice(N, n_targets, replace=False), rng.choice(8, n_targets),
            rng.normal(size=n_targets) + 1j * rng.normal(size=n_targets),
        )
        return doppler_focus(radar_fourier_coeffs(sc, wave, train, kappa, seed=seed),
                             wave, kappa, train).psi

    return {
        "quiet": 1e-3 * noise(),  # the GLRT stops it at step 1
        "loud": 30.0 * noise(),  # runs to max_iter
        "zero": np.zeros(shape, complex),
        "tied": tied,  # a refit column ties its second pick, which forces a refresh
        "one": scene(1, 1),
        "two": scene(2, 2),
        "three": scene(3, 3),
        "noise": noise(),
    }


@pytest.mark.parametrize("noise_var", [0.0, 0.5])
@pytest.mark.parametrize("seed", range(4))
def test_lockstep_maps_stopping_at_different_steps_match_the_oracles(seed, noise_var):
    """A stack whose maps stop at different steps gives each map the
    detections the one-map loop and the refit-all oracle give it alone, bit
    for bit. The stack holds a map the GLRT stops at step 1, one that runs
    to max_iter, a zero map, a map whose second pick forces a full product
    beside maps that need none, and on-grid noiseless scenes of 1, 2 and 3
    targets that, at noise_var = 0 on the full band, reach the residual
    floor at steps 2, 3 and 4."""
    rng = np.random.default_rng(200 + seed)
    bands = FULL if seed % 2 else FrequencySet([(-B_H / 2, -B_H / 2 + 12 * B_H / N)])
    wave, train, kappa = setup(bands)
    f_kappa = partial_fourier(kappa)
    maps = _lockstep_maps(rng, kappa, f_kappa, train, wave)
    if noise_var > 0:
        fvar = focused_noise_var(noise_var, wave, kappa, train)
        gamma = glrt_threshold(0.01, N * 8)
    else:
        fvar = gamma = 0.0
    for max_iter in (1, 3, 40):
        got = [
            DetectionList.from_pursuit(found, N, train.doppler_grid(), PRI)
            for found in focused_omp_batch(
                np.stack(list(maps.values())), f_kappa, [gamma] * len(maps),
                [fvar] * len(maps), max_iter, f_adj=f_kappa.conj().T,
            )
        ]
        got = dict(zip(maps, got))
        for name, psi in maps.items():
            focused = FocusedMatrix(psi=psi, doppler_grid=train.doppler_grid(), pri=PRI)
            assert got[name] == focused_omp_one_map(focused, f_kappa, gamma, fvar, max_iter)
            assert got[name] == focused_omp_refit_all(focused, f_kappa, gamma, fvar, max_iter)
        assert got["zero"] == DetectionList(detections=())
        assert got["loud"].truncated and len(got["loud"]) == max_iter
        if noise_var > 0:
            assert got["quiet"].gamma_trace and len(got["quiet"].gamma_trace) == 1
            assert len(got["quiet"]) == 0
        if max_iter == 40 and not noise_var and seed % 2:
            # full band: each scene is recovered and its residual vanishes
            assert [len(got[n]) for n in ("one", "two", "three")] == [1, 2, 3]
            assert not any(got[n].truncated for n in ("one", "two", "three"))


class _CountingNumpy:
    """numpy for specx.radar, logging each back-projection formed in full:
    its magnitudes are the one np.abs call written into the stack."""

    def __init__(self, log):
        self.log = log

    def __getattr__(self, name):
        return getattr(np, name)

    def abs(self, x, *args, **kwargs):
        if "out" in kwargs:
            self.log.append(("full",))
        return np.abs(x, *args, **kwargs)


def test_lockstep_pursuit_refits_once_per_support_size_per_step(monkeypatch):
    """Each greedy step makes one stacked refit call per atom count among the
    columns refit in that step, in increasing order, and no np.linalg.lstsq
    call. The first step forms every live map's back-projection in full; a
    later one forms only those whose ceilings ask for it, so some steps form
    fewer maps in full than are live."""
    rng = np.random.default_rng(7)
    wave, train, kappa = setup(FrequencySet([(-B_H / 2, -B_H / 2 + 12 * B_H / N)]))
    f_kappa = partial_fourier(kappa)
    maps = _lockstep_maps(rng, kappa, f_kappa, train, wave)
    fvar = focused_noise_var(0.5, wave, kappa, train)
    gamma = glrt_threshold(0.01, N * 8)
    log = []
    stack = specx.radar._lstsq_stack

    def counted(a, y):
        log.append(("refit", a.shape[0], a.shape[2]))
        return stack(a, y)

    def no_lstsq(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(specx.radar, "_lstsq_stack", counted)
    monkeypatch.setattr(specx.radar, "np", _CountingNumpy(log))
    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    got = [
        DetectionList.from_pursuit(found, N, train.doppler_grid(), PRI)
        for found in focused_omp_batch(
            np.stack(list(maps.values())), f_kappa, [gamma] * len(maps), [fvar] * len(maps),
            6, f_adj=f_kappa.conj().T,
        )
    ]
    monkeypatch.undo()
    steps = max(len(d.gamma_trace) for d in got)
    refreshes = []  # (step, maps formed in full, live maps)
    pos = 0
    for step in range(steps):
        live = sum(len(d.gamma_trace) > step for d in got)
        sizes = []  # atoms in each column refit at this step
        for dets in got:
            if len(dets) > step:
                columns = [d.doppler_bin for d in dets.detections[: step + 1]]
                sizes.append(columns.count(columns[-1]))
        want = [("refit", sizes.count(m), m) for m in sorted(set(sizes))]
        full = 0
        while pos < len(log) and log[pos] == ("full",):
            full, pos = full + 1, pos + 1
        refreshes.append((step, full, live))
        assert log[pos:pos + len(want)] == want
        pos += len(want)
    assert pos == len(log)
    assert refreshes[0][1] == refreshes[0][2] == len(maps) - 1  # all but the zero map
    assert any(0 < full < live for _, full, live in refreshes[1:])
    assert max(event[2] for event in log if event[0] == "refit") > 1


def test_min_requirements():
    req = min_requirements(10, 400, B_H, [B_H])
    assert (req.k_min, req.p_min, req.total_min) == (20, 20, 400)
    assert req.b_tot_bins == 400 and req.feasible
    tight = min_requirements(3, 162, 1.62e6, (90e3,) * 4)
    assert tight.b_tot_bins == 36 and tight.feasible
    nope = min_requirements(5, 16, B_H, [B_H / 16])
    assert not nope.feasible


# -- scoring ------------------------------------------------------------------


def det_list(pairs, train, n=N):
    dets = tuple(
        Detection(
            delay=r * PRI / n,
            doppler=float(train.doppler_grid()[q]),
            amplitude=1.0 + 0j,
            statistic=math.inf,
            delay_bin=r,
            doppler_bin=q,
        )
        for r, q in pairs
    )
    return DetectionList(detections=dets)


def test_hit_or_miss_exact_and_near():
    train = PulseTrainSpec(pri=PRI, n_pulses=8)
    truth = on_grid_scene(train, [4, 20], [1, 5], [1.0, 1.0])
    rate, flags = hit_or_miss(det_list([(4, 1), (20, 5)], train), truth, B_H, train)
    assert rate == 1.0 and flags == (True, True)
    # two delay bins off is inside the 3/B_H ellipse axis
    rate, _ = hit_or_miss(det_list([(6, 1), (20, 5)], train), truth, B_H, train)
    assert rate == 1.0
    # four bins off is outside
    rate, flags = hit_or_miss(det_list([(8, 1), (20, 5)], train), truth, B_H, train)
    assert rate == 0.5 and flags == (False, True)


def test_hit_or_miss_wraps_around():
    train = PulseTrainSpec(pri=PRI, n_pulses=8)
    truth = on_grid_scene(train, [0], [0], [1.0])
    # a detection at the far edge is one bin away modulo the ambiguity
    rate, _ = hit_or_miss(det_list([(N - 1, 0)], train), truth, B_H, train)
    assert rate == 1.0


def test_hit_or_miss_one_detection_claims_one_target():
    train = PulseTrainSpec(pri=PRI, n_pulses=8)
    truth = on_grid_scene(train, [4, 5], [1, 1], [1.0, 1.0])
    rate, flags = hit_or_miss(det_list([(4, 1)], train), truth, B_H, train)
    assert rate == 0.5 and sum(flags) == 1
    assert hit_or_miss(det_list([], train), truth, B_H, train)[0] == 0.0
    empty_truth = TargetScene(
        delays=np.zeros(0), dopplers=np.zeros(0), amplitudes=np.zeros(0, complex)
    )
    assert hit_or_miss(det_list([(1, 1)], train), empty_truth, B_H, train)[0] == 1.0


def test_delay_to_range():
    assert delay_to_range_m(1e-6) == pytest.approx(SPEED_OF_LIGHT / 2 * 1e-6)
    assert SPEED_OF_LIGHT == 299792458.0


def test_kappa_set_round_trip():
    kappa = KappaSet(indices=(0, 14, 15), n=16)
    assert kappa.k == 3
    np.testing.assert_array_equal(np.sort(kappa.centered()), [-2, -1, 0])
    np.testing.assert_array_equal(np.sort(kappa.to_array()), [0, 14, 15])
    # KappaSet lives in freqs; the radar module re-exports it
    assert specx.radar.KappaSet is specx.freqs.KappaSet is KappaSet
