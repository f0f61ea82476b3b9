"""Synthesis of communication, radar, and noise signals on the analysis grids.

Spectra are represented as complex amplitudes on discrete frequency grids.
For the wideband input, the representation of record is the slice stack: an
(n_slices, n_grid) array whose row i holds X(f + (i - N/2) f_p) for f on the
in-slice grid. Rows of the stack are views of one dense global grid, so
conjugate symmetry of real signals is enforced at the dense level and
overlapping rows (f_s > f_p) stay consistent automatically.

Power bookkeeping convention: a band carrying total power P (both spectral
sides combined) satisfies sum(|X_bin|^2) * delta_f = P in expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .freqs import FrequencyInterval, FrequencySet, GridSpec, KappaSet, SliceSupport, frozen
from .rng import derive_rng

__all__ = [
    "CommTransmissionSpec",
    "SliceSpectrum",
    "RadarWaveformSpec",
    "TargetScene",
    "PulseTrainSpec",
    "gen_comm_slices",
    "gen_comm_slices_batch",
    "comm_occupancy",
    "design_radar_waveform",
    "radar_fourier_coeffs",
    "radar_fourier_coeffs_batch",
    "radar_slices",
    "RadarEmission",
    "radar_emission",
    "draw_radar_emission",
    "draw_radar_emission_batch",
]

_SHAPES = ("flat", "raised-cosine")


@dataclass(frozen=True)
class CommTransmissionSpec:
    """One communication band: carrier, width, total two-sided power, PSD shape."""

    carrier: float
    bandwidth: float
    power: float = 1.0
    shape: str = "flat"

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.power < 0:
            raise ValueError("power must be nonnegative")
        if self.shape not in _SHAPES:
            raise ValueError(f"shape must be one of {_SHAPES}")


@dataclass(frozen=True, eq=False)
class SliceSpectrum:
    """Slice-stacked spectrum; values has shape (n_slices, n_grid)."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", v := frozen(self.values, np.complex128))
        if v.shape != (self.grid.n_slices, self.grid.n_grid):
            raise ValueError(
                f"values shape {v.shape} does not match grid "
                f"({self.grid.n_slices}, {self.grid.n_grid})"
            )

    def __add__(self, other: "SliceSpectrum") -> "SliceSpectrum":
        if other.grid != self.grid:
            raise ValueError("grids differ")
        return SliceSpectrum(self.values + other.values, self.grid)


def _band_weights(freqs: np.ndarray, spec: CommTransmissionSpec, delta_f: float) -> np.ndarray:
    """Per-bin variance profile integrating to power/2 over the given bins."""
    if spec.shape == "flat":
        w = np.ones_like(freqs)
    else:
        # Hann-shaped PSD, zero at band edges
        w = 0.5 * (1.0 + np.cos(2.0 * math.pi * (freqs - spec.carrier) / spec.bandwidth))
    total = w.sum() * delta_f
    if total <= 0:
        return np.zeros_like(freqs)
    return w * (spec.power / 2.0) / total


def _comm_bands(
    specs: Sequence[CommTransmissionSpec], grid: GridSpec
) -> Iterator[tuple[int, CommTransmissionSpec, float, float, np.ndarray]]:
    """(index, spec, lo, hi, dense positions) of each transmission's band,
    clipped to +-f_nyq/2, skipping a band that holds no dense bin. The
    positions are those whose frequency lies in [lo, hi), found by binary
    search on the ascending dense frequencies, less any without a mirror."""
    half_nyq = grid.f_nyq / 2.0
    for tx in specs:
        if abs(tx.carrier) > half_nyq:
            raise ValueError(f"carrier {tx.carrier} outside +-f_nyq/2")
        if tx.bandwidth > grid.f_p:
            raise ValueError(
                f"bandwidth {tx.bandwidth} exceeds the per-band cap f_p={grid.f_p}"
            )
    freqs = grid.dense_freqs()
    mirror_all = grid.dense_mirror()
    for idx, tx in enumerate(specs):
        lo = max(tx.carrier - tx.bandwidth / 2.0, -half_nyq)
        hi = min(tx.carrier + tx.bandwidth / 2.0, half_nyq)
        if lo >= hi:
            continue
        pos = np.arange(*np.searchsorted(freqs, (lo, hi)))
        pos = pos[mirror_all[pos] >= 0]
        if pos.size:
            yield idx, tx, lo, hi, pos


def _two_sided(lo: float, hi: float) -> tuple[FrequencyInterval, FrequencyInterval]:
    return FrequencyInterval(lo, hi), FrequencyInterval(-hi, -lo)


def comm_occupancy(specs: Sequence[CommTransmissionSpec], grid: GridSpec) -> FrequencySet:
    """The occupied frequency set F_C that gen_comm_slices returns for specs
    on grid, without drawing the spectrum."""
    return FrequencySet(
        iv for _, _, lo, hi, _ in _comm_bands(specs, grid) for iv in _two_sided(lo, hi)
    )


def gen_comm_slices(
    specs: Sequence[CommTransmissionSpec],
    grid: GridSpec,
    noise_psd: float = 0.0,
    seed: int = 0,
) -> tuple[SliceSpectrum, FrequencySet, SliceSupport]:
    """Draw a multiband communication spectrum.

    Each transmission is band-limited complex Gaussian noise with the
    requested PSD shape, mirrored to negative frequencies so the underlying
    signal is real. Ambient noise of per-bin variance noise_psd is added on
    top (also conjugate-symmetric).

    Returns (slice spectrum, occupied frequency set F_C, true slice support
    S_C). The support reflects signal content only, not ambient noise. This
    is the one-draw call of gen_comm_slices_batch.
    """
    values, occupied = gen_comm_slices_batch([specs], grid, noise_psd, [seed])
    return (
        SliceSpectrum(values[0], grid),
        comm_occupancy(specs, grid),
        SliceSupport(np.flatnonzero(occupied[0])),
    )


def gen_comm_slices_batch(
    specs: Sequence[Sequence[CommTransmissionSpec]],
    grid: GridSpec,
    noise_psd: float,
    seeds: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """gen_comm_slices of each transmission list in specs, draw b seeded by
    seeds[b], as a (B, n_slices, n_grid) slice stack and a (B, n_slices)
    mask of the slices each draw's transmissions occupy.

    Each band's bins are drawn from its own seeded stream, as a lone draw
    takes them, and the bands are added onto the dense stack in spec order,
    each as one scatter over every draw, so overlapping bands sum in the
    order they do in a lone draw and each draw holds its bits.
    """
    n_draws, size = len(specs), grid.dense_size
    freqs, mirror_all = grid.dense_freqs(), grid.dense_mirror()
    dense = np.zeros((n_draws, size), dtype=np.complex128)
    occupied = np.zeros((n_draws, size), dtype=bool)
    # per spec index, the (draw, band) pairs holding bins, in draw order
    by_index: dict[int, list[tuple[int, CommTransmissionSpec, np.ndarray]]] = {}
    for b, draw_specs in enumerate(specs):
        for idx, tx, _, _, pos in _comm_bands(draw_specs, grid):
            by_index.setdefault(idx, []).append((b, tx, pos))
    flat_dense, flat_occupied = dense.reshape(-1), occupied.reshape(-1)
    for idx in sorted(by_index):
        bands = by_index[idx]
        scale = np.concatenate(
            [np.sqrt(_band_weights(freqs[pos], tx, grid.delta_f) / 2.0) for _, tx, pos in bands]
        )
        unit = np.concatenate([
            derive_rng(seeds[b], "comm", idx).standard_normal((2, pos.size))
            for b, _, pos in bands
        ], axis=1)
        draw = scale * (unit[0] + 1j * unit[1])
        at = np.concatenate([b * size + pos for b, _, pos in bands])
        at_mirror = np.concatenate([b * size + mirror_all[pos] for b, _, pos in bands])
        flat_dense[at] += draw
        flat_dense[at_mirror] += np.conj(draw)
        flat_occupied[at] = True
        flat_occupied[at_mirror] = True

    if noise_psd > 0:
        flat = _emission(grid, np.full(size, float(noise_psd)), mirror_all >= 0)
        dense += _draw_dense(flat, seeds, "comm-noise")

    index_map = grid.dense_index_map()
    return dense[:, index_map], occupied[:, index_map].any(axis=2)


# ---------------------------------------------------------------------------
# radar waveform and echoes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RadarWaveformSpec:
    """Multiband radar pulse spectrum confined to an agreed band set.

    base_spectrum holds the reference wideband spectrum H(f), normalized to
    total power p_t, sampled on len(base_spectrum) bins spanning
    [-b_h/2, b_h/2). spectrum is the transmitted version: beta * H on the
    band set and zero elsewhere, so total transmit power stays p_t.
    """

    b_h: float
    bands: FrequencySet
    beta: float
    base_spectrum: np.ndarray
    p_t: float

    def __post_init__(self) -> None:
        base = frozen(self.base_spectrum, np.complex128)
        object.__setattr__(self, "base_spectrum", base)
        if self.b_h <= 0 or self.p_t <= 0:
            raise ValueError("b_h and p_t must be positive")
        if base.ndim != 1 or base.size < 2 or base.size % 2:
            raise ValueError("base_spectrum must be a 1-D array of even length")
        if not self.bands:
            raise ValueError("band set is empty")
        if not self.bands.within(-self.b_h / 2, self.b_h / 2, tol=1e-9 * self.b_h):
            raise ValueError("bands must lie within [-b_h/2, b_h/2]")

    @property
    def n_bins(self) -> int:
        return self.base_spectrum.size

    @property
    def delta(self) -> float:
        return self.b_h / self.n_bins

    def bin_freqs(self) -> np.ndarray:
        return (np.arange(self.n_bins) - self.n_bins // 2) * self.delta

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Transmitted spectrum: beta * base on the bands, zero off them.

        Computed on first use and kept, read-only: every field it reads is
        frozen, so the cached array cannot go stale.
        """
        mask = self.bands.contains_array(self.bin_freqs())
        return frozen(np.where(mask, self.beta * self.base_spectrum, 0.0))

    def values_at(self, k_centered: np.ndarray) -> np.ndarray:
        """Transmitted spectrum at centered coefficient indices."""
        return self.spectrum[np.asarray(k_centered) + self.n_bins // 2]

    def values_on(self, kappa: KappaSet) -> np.ndarray:
        """Transmitted spectrum on kappa's coefficients, which must all be
        nonzero there: the receiver divides by it."""
        h = self.values_at(kappa.centered())
        if np.any(h == 0):
            raise ValueError("kappa includes coefficients where the spectrum is zero")
        return h


def design_radar_waveform(
    base_spectrum: np.ndarray,
    b_h: float,
    bands: FrequencySet,
    p_t: float,
) -> RadarWaveformSpec:
    """Restrict a wideband spectrum to the given bands at constant power.

    The base spectrum is first scaled so its total power (sum |H|^2 * delta)
    equals p_t, then boosted by beta = sqrt(p_t / in-band power) so the
    transmitted multiband pulse still radiates p_t.
    """
    base = np.asarray(base_spectrum, dtype=np.complex128)
    if base.ndim != 1 or base.size < 2 or base.size % 2:
        raise ValueError("base_spectrum must be a 1-D array of even length")
    if p_t <= 0:
        raise ValueError("p_t must be positive")
    if bands.measure() <= 0:
        raise ValueError("band set has zero measure")
    delta = b_h / base.size
    total = float(np.sum(np.abs(base) ** 2)) * delta
    if total <= 0:
        raise ValueError("base spectrum is identically zero")
    base = base * math.sqrt(p_t / total)
    freqs = (np.arange(base.size) - base.size // 2) * delta
    mask = bands.contains_array(freqs)
    in_band = float(np.sum(np.abs(base[mask]) ** 2)) * delta
    if in_band <= 0:
        raise ValueError("bands carry no base-spectrum energy")
    beta = math.sqrt(p_t / in_band)
    return RadarWaveformSpec(b_h=b_h, bands=bands, beta=beta, base_spectrum=base, p_t=p_t)


@dataclass(frozen=True)
class PulseTrainSpec:
    """Uniform pulse train: pri seconds between pulses, n_pulses pulses."""

    pri: float
    n_pulses: int

    def __post_init__(self) -> None:
        if self.pri <= 0:
            raise ValueError("pri must be positive")
        if self.n_pulses < 1:
            raise ValueError("n_pulses must be >= 1")

    @property
    def doppler_bin(self) -> float:
        return 1.0 / (self.n_pulses * self.pri)

    def doppler_grid(self) -> np.ndarray:
        """Unambiguous Doppler grid -1/(2 pri) + p/(n_pulses pri), cycles/s."""
        p = np.arange(self.n_pulses)
        return -0.5 / self.pri + p * self.doppler_bin


@dataclass(frozen=True, eq=False)
class TargetScene:
    """Point targets as parallel arrays: delays (s), dopplers (cycles/s), amplitudes."""

    delays: np.ndarray
    dopplers: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("delays", float), ("dopplers", float), ("amplitudes", np.complex128)):
            object.__setattr__(self, name, np.atleast_1d(frozen(getattr(self, name), dtype)))
        check_scenes(self.delays[None], self.dopplers[None], self.amplitudes[None])

    def __len__(self) -> int:
        return self.delays.size


def check_scenes(delays: np.ndarray, dopplers: np.ndarray, amplitudes: np.ndarray) -> None:
    """TargetScene's checks on (B, L) stacks of B scenes, row b holding scene
    b's targets."""
    if not (delays.shape == dopplers.shape == amplitudes.shape) or delays.ndim != 2:
        raise ValueError("delays, dopplers, amplitudes must be 1-D of equal length")
    if np.any(delays < 0):
        raise ValueError("delays must be nonnegative")


def check_scenes_in_train(delays: np.ndarray, dopplers: np.ndarray, train: PulseTrainSpec) -> None:
    """Check that targets with these delays and Dopplers, arrays of any
    shape, sit in train's unambiguous range and Doppler span."""
    if np.any(delays >= train.pri):
        raise ValueError("delays must be < pri (unambiguous range)")
    if np.any(np.abs(dopplers) > 0.5 / train.pri + 1e-12 / train.pri):
        raise ValueError("dopplers must be within +-1/(2 pri)")


def radar_fourier_coeffs(
    scene: TargetScene,
    waveform: RadarWaveformSpec,
    train: PulseTrainSpec,
    kappa: KappaSet,
    noise_var: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Noisy Fourier coefficients of the received echoes, shape (K, n_pulses).

    Entry (k, p) = (1/pri) H[k] sum_l alpha_l exp(-2j pi k tau_l / pri)
    * exp(-2j pi nu_l p pri) plus white complex Gaussian noise of variance
    noise_var. Doppler is in cycles/s. H is the transmitted spectrum, which
    must be nonzero on every requested coefficient. This is the one-scene
    call of radar_fourier_coeffs_batch.
    """
    if not isinstance(kappa, KappaSet):
        raise TypeError("kappa must be a KappaSet")
    n = kappa.n
    expected = train.pri * waveform.b_h
    if abs(expected - n) > 1e-6 * max(1.0, n):
        raise ValueError(
            f"kappa grid size {n} inconsistent with pri*b_h = {expected:g}"
        )
    if n != waveform.n_bins:
        raise ValueError("kappa grid size must match waveform resolution")
    h = waveform.values_on(kappa)
    return radar_fourier_coeffs_batch(
        scene.delays[None], scene.dopplers[None], scene.amplitudes[None],
        h, kappa.centered(), train, [noise_var], [seed],
    )[0]


def radar_fourier_coeffs_batch(
    delays: np.ndarray,
    dopplers: np.ndarray,
    amplitudes: np.ndarray,
    h: np.ndarray,
    k_c: np.ndarray,
    train: PulseTrainSpec,
    noise_vars: Sequence[float],
    seeds: Sequence[int],
) -> np.ndarray:
    """radar_fourier_coeffs of B scenes on one coefficient set, as a
    (B, K, n_pulses) stack. The scenes come as (B, L) stacks of delays,
    Dopplers and amplitudes, row b holding scene b's targets (TargetScene's
    checks are the caller's, check_scenes); they are checked against train
    here. k_c holds the centered coefficient indices, h the transmitted
    spectrum on them, and scene b's noise, of variance noise_vars[b], is
    drawn from seeds[b].

    The noiseless stack takes one exp per phase factor, one stacked matmul
    and one in-place product; every entry of those is the float operation
    a lone scene's call does on the same operands, in the same order, so
    each slice holds that call's bits. Each scene's noise is one draw of
    its real parts, then its imaginary parts, scaled in place and added
    through a float view of the stack, with no complex temporary.
    """
    check_scenes_in_train(delays, dopplers, train)
    p = np.arange(train.n_pulses)
    delay_phase = np.exp(
        -2j * math.pi * (k_c[None, :, None] * delays[:, None, :]) / train.pri
    )
    dopp_phase = np.exp(
        -2j * math.pi * (dopplers[:, :, None] * p[None, None, :]) * train.pri
    )
    coeffs = (delay_phase * amplitudes[:, None, :]) @ dopp_phase
    np.multiply((h / train.pri)[:, None], coeffs, out=coeffs)

    parts = np.moveaxis(coeffs.view(np.float64).reshape(*coeffs.shape, 2), -1, 1)
    for part, noise_var, seed in zip(parts, noise_vars, seeds):
        if noise_var > 0:
            noise = derive_rng(seed, "coeffs").standard_normal(part.shape)
            noise *= math.sqrt(noise_var / 2.0)
            part += noise
    return coeffs


class RadarEmission(NamedTuple):
    """The seed-independent part of radar_slices on one grid: the dense
    positions the emission occupies and the standard deviation drawn at
    each. All arrays are read-only and empty when the emission carries no
    power. The pipeline builds one per radar band selection and draws each
    sensing pass's radar from it with draw_radar_emission_batch. The same
    profile carries ambient noise: gen_comm_slices_batch draws its flat
    per-bin noise_psd through one."""

    grid: GridSpec
    pairs: np.ndarray  # positions drawn as complex values, below their mirrors
    pair_mirrors: np.ndarray  # the mirror of each, which gets the conjugate
    pair_scale: np.ndarray  # sqrt(variance / 2) at each pair position
    self_paired: np.ndarray  # positions that are their own mirror (real draws)
    self_scale: np.ndarray  # sqrt(variance) at each of them


def radar_emission(
    waveform: RadarWaveformSpec,
    carrier: float,
    grid: GridSpec,
    power_scale: float,
) -> RadarEmission:
    """Variance profile of radar_slices: total power power_scale spread over
    the radar bands shifted to the carrier and their mirror image, each
    dense bin weighted by its cell's overlap with the bands."""
    half_nyq = grid.f_nyq / 2.0
    bands_abs = waveform.bands.shifted(carrier)
    if not bands_abs.within(-half_nyq, half_nyq, tol=1e-9 * grid.f_nyq):
        raise ValueError("radar bands fall outside the receiver Nyquist range")
    two_sided = bands_abs.union(bands_abs.mirrored())

    overlap = np.zeros(grid.dense_size)
    if power_scale > 0:
        freqs = grid.dense_freqs()
        half_cell = grid.delta_f / 2.0
        for lo, hi in two_sided.to_pairs():
            overlap += np.clip(
                np.minimum(hi, freqs + half_cell) - np.maximum(lo, freqs - half_cell),
                0.0, None,
            )
        overlap[grid.dense_mirror() < 0] = 0.0
    total = overlap.sum()
    var = power_scale * overlap / (total * grid.delta_f) if total > 0 else overlap
    return _emission(grid, var, overlap > 0)


def _emission(grid: GridSpec, var: np.ndarray, on: np.ndarray) -> RadarEmission:
    """The RadarEmission drawing variance var[p] at each dense position p
    marked in on that has a mirror: a complex value at p below its mirror,
    whose mirror gets the conjugate, and a real value at p its own mirror."""
    pos, mirror = np.arange(grid.dense_size), grid.dense_mirror()
    half = on & (mirror > pos)
    self_paired = on & (mirror == pos)
    arrays = (
        np.flatnonzero(half), mirror[half], np.sqrt(var[half] / 2.0),
        np.flatnonzero(self_paired), np.sqrt(var[self_paired]),
    )
    return RadarEmission(grid, *map(frozen, arrays))


def draw_radar_emission(emission: RadarEmission, seed: int = 0) -> SliceSpectrum:
    """One seeded draw of the radar emission as the sensing receiver sees it:
    conjugate-symmetric band-limited complex Gaussian noise. This is the
    one-draw call of draw_radar_emission_batch."""
    return SliceSpectrum(draw_radar_emission_batch(emission, [seed])[0], emission.grid)


def draw_radar_emission_batch(emission: RadarEmission, seeds: Sequence[int]) -> np.ndarray:
    """draw_radar_emission of each seed in seeds, as a (B, n_slices, n_grid)
    slice stack (_draw_dense on each seed's "radar-slices" stream)."""
    return _draw_dense(emission, seeds, "radar-slices")[:, emission.grid.dense_index_map()]


def _draw_dense(emission: RadarEmission, seeds: Sequence[int], stream: str) -> np.ndarray:
    """One draw of the profile emission per seed in seeds, as a (B,
    dense_size) stack on the dense grid. Draw b takes its pair values' real
    parts, their imaginary parts and then its self-paired values from one
    stream, derive_rng(seeds[b], stream), in that order, as a lone draw
    does."""
    dense = np.zeros((len(seeds), emission.grid.dense_size), dtype=np.complex128)
    n, n_self = emission.pairs.size, emission.self_paired.size
    if n or n_self:
        unit = np.empty((len(seeds), 2 * n + n_self))
        for row, seed in zip(unit, seeds):
            derive_rng(seed, stream).standard_normal(out=row)
        draw = emission.pair_scale * (unit[:, :n] + 1j * unit[:, n : 2 * n])
        dense[:, emission.pairs] = draw
        dense[:, emission.pair_mirrors] = np.conj(draw)
        dense[:, emission.self_paired] = emission.self_scale * unit[:, 2 * n :]
    return dense


def radar_slices(
    waveform: RadarWaveformSpec,
    carrier: float,
    grid: GridSpec,
    power_scale: float,
    seed: int = 0,
) -> SliceSpectrum:
    """Radar emission as seen by the wideband sensing receiver.

    Modeled as band-limited noise of total power power_scale confined to the
    radar bands shifted to the carrier (plus the mirror image). Per-bin power
    is proportional to the band overlap with each bin's cell, so bands much
    narrower than the bin spacing still carry their full power. Only the
    slice support of this spectrum matters downstream. This is
    draw_radar_emission of radar_emission, bit for bit; the pipeline builds
    the profile with radar_emission and draws from it with
    draw_radar_emission_batch, so that a run drawing many times from one
    emission builds its profile once.
    """
    return draw_radar_emission(radar_emission(waveform, carrier, grid, power_scale), seed)
