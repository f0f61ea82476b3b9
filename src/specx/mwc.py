"""Modulated wideband converter front-end.

M channels mix the input against periodic +-1 chip sequences, low-pass to
[-f_s/2, f_s/2], and sample at f_s. In the frequency domain each channel
observes a weighted sum of the spectrum slices, z(f) = A x(f), where the
weights are conjugated Fourier-series coefficients of the chip sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .freqs import GridSpec, SliceSupport, slice_count
from .rng import derive_rng
from .signals import SliceSpectrum

__all__ = [
    "MixingSequenceSet",
    "SensingMatrix",
    "ChannelSamples",
    "RateAccounting",
    "compute_n_slices",
    "gen_mixing_sequences",
    "build_sensing_matrix",
    "xample",
    "total_rate",
]


def compute_n_slices(f_nyq: float, f_s: float, f_p: float) -> int:
    """Slice count N = 2 ceil((f_nyq + f_s) / (2 f_p)); N f_p covers the input band."""
    if f_s < f_p:
        raise ValueError("f_s must be >= f_p")
    return slice_count(f_nyq, f_s, f_p)


@dataclass(frozen=True)
class MixingSequenceSet:
    """Periodic +-1 chip sequences, one row per channel.

    Each sequence holds n_chips equal-width chips per period t_p. The number
    of chips bounds how many slice weights are independent, so n_chips must
    be at least the slice count the matrix is built for.
    """

    signs: np.ndarray
    t_p: float = 1.0

    def __post_init__(self) -> None:
        s = np.asarray(self.signs, dtype=np.int8).copy()
        if s.ndim != 2 or s.shape[0] < 1:
            raise ValueError("signs must be (m, n_chips) with m >= 1")
        if not np.all(np.abs(s) == 1):
            raise ValueError("chip values must be +-1")
        if self.t_p <= 0:
            raise ValueError("t_p must be positive")
        s.flags.writeable = False
        object.__setattr__(self, "signs", s)

    @property
    def m(self) -> int:
        return self.signs.shape[0]

    @property
    def n_chips(self) -> int:
        return self.signs.shape[1]


def gen_mixing_sequences(m: int, n_chips: int, seed: int = 0, t_p: float = 1.0) -> MixingSequenceSet:
    """Draw m independent uniform +-1 chip sequences."""
    if m < 1 or n_chips < 1:
        raise ValueError("m and n_chips must be >= 1")
    rng = derive_rng(seed, "mixing")
    signs = rng.integers(0, 2, size=(m, n_chips)) * 2 - 1
    return MixingSequenceSet(signs=signs.astype(np.int8), t_p=t_p)


@dataclass(frozen=True)
class SensingMatrix:
    """Channel-to-slice weight matrix A with A[i, n] = conj(c_{i, n - N/2}).

    c_{i,l} are the Fourier-series coefficients of channel i's chip sequence.
    """

    a: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.complex128).copy()
        if a.ndim != 2:
            raise ValueError("a must be 2-D")
        a.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "_basis", None)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]

    # The caches below are built on first use and kept read-only; a is
    # frozen, so they cannot go stale.

    @cached_property
    def col_norms(self) -> np.ndarray:
        """Euclidean norm of each column."""
        norms = np.linalg.norm(self.a, axis=0)
        norms.flags.writeable = False
        return norms

    @cached_property
    def matched_filters(self) -> np.ndarray:
        """(n, m) unit-norm matched filters: row j is a_j^H / ||a_j||, or
        zeros for an all-zero column."""
        live = self.col_norms > 0
        filters = np.zeros((self.n, self.m), dtype=np.complex128)
        filters[live] = self.a.conj().T[live] / self.col_norms[live, None]
        filters.flags.writeable = False
        return filters

    def column_basis(self, cols: SliceSupport) -> tuple[float, np.ndarray]:
        """Condition number and orthonormal basis (reduced QR factor) of the
        columns cols. The last cols asked for is kept: a sweep asks one
        matrix for one known support."""
        if self._basis is None or self._basis[0] != cols:
            sub = self.a[:, list(cols)]
            q = np.linalg.qr(sub)[0]
            q.flags.writeable = False
            object.__setattr__(self, "_basis", (cols, float(np.linalg.cond(sub)), q))
        return self._basis[1:]


def sequence_fourier_coeffs(seqs: MixingSequenceSet, ell: np.ndarray) -> np.ndarray:
    """Fourier-series coefficients c_{i,l} of the chip sequences at indices ell.

    For a piecewise-constant period the coefficient is the sign-vector DFT
    sampled at l mod n_chips times a half-chip phase and a sinc envelope:
    c_l = exp(-j pi l / Nc) sinc(l / Nc) / Nc * S[l mod Nc].
    """
    nc = seqs.n_chips
    ell = np.asarray(ell, dtype=int)
    spectrum = np.fft.fft(seqs.signs.astype(float), axis=1)
    envelope = np.exp(-1j * math.pi * ell / nc) * np.sinc(ell / nc) / nc
    return envelope[None, :] * spectrum[:, ell % nc]


def build_sensing_matrix(seqs: MixingSequenceSet, n: int) -> SensingMatrix:
    """Sensing matrix for n slices; column j weights the slice centered at (j - n/2) f_p."""
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    if n > seqs.n_chips:
        raise ValueError(
            f"n_chips={seqs.n_chips} cannot resolve {n} slices (need n_chips >= n)"
        )
    ell = np.arange(n) - n // 2
    return SensingMatrix(a=np.conj(sequence_fourier_coeffs(seqs, ell)))


@dataclass(frozen=True)
class ChannelSamples:
    """Per-channel low-rate observations, stored in the frequency domain.

    z has shape (m, n_grid): channel spectra on the in-slice grid spanning
    [-f_s/2, f_s/2). The time-domain sequence is the unitary-DFT companion,
    time_samples = ifft(ifftshift(z)); physical sample amplitudes scale by
    n_grid relative to it.
    """

    z: np.ndarray
    grid: GridSpec

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=np.complex128).copy()
        if z.ndim != 2 or z.shape[1] != self.grid.n_grid:
            raise ValueError(f"z must be (m, {self.grid.n_grid})")
        z.flags.writeable = False
        object.__setattr__(self, "z", z)

    @property
    def m(self) -> int:
        return self.z.shape[0]

    def time_samples(self) -> np.ndarray:
        return np.fft.ifft(np.fft.ifftshift(self.z, axes=-1), axis=-1)

    @classmethod
    def from_time(cls, zt: np.ndarray, grid: GridSpec) -> "ChannelSamples":
        return cls(np.fft.fftshift(np.fft.fft(zt, axis=-1), axes=-1), grid)


def xample(
    x: SliceSpectrum,
    a: SensingMatrix,
    noise_var: float = 0.0,
    seed: int = 0,
) -> ChannelSamples:
    """Apply the channel model z(f) = A x(f) bin-wise, plus receiver noise.

    noise_var is the per-entry complex variance added to each channel bin.
    """
    if a.n != x.grid.n_slices:
        raise ValueError(
            f"sensing matrix has {a.n} columns but grid has {x.grid.n_slices} slices"
        )
    z = a.a @ x.values
    if noise_var > 0:
        rng = derive_rng(seed, "xample")
        z = z + math.sqrt(noise_var / 2.0) * (
            rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape)
        )
    return ChannelSamples(z=z, grid=x.grid)


@dataclass(frozen=True)
class RateAccounting:
    """Aggregate sampling-rate summary for a channel bank."""

    f_total: float
    channel_ratio: float | None = None
    nyquist_ratio: float | None = None


def total_rate(m: int, f_s: float, grid: GridSpec | None = None) -> RateAccounting:
    """Aggregate rate m * f_s, with ratios m/N and f_total/f_nyq when a grid is given."""
    if m < 1 or f_s <= 0:
        raise ValueError("m must be >= 1 and f_s positive")
    f_total = m * f_s
    if grid is None:
        return RateAccounting(f_total=f_total)
    return RateAccounting(
        f_total=f_total,
        channel_ratio=m / grid.n_slices,
        nyquist_ratio=f_total / grid.f_nyq,
    )
