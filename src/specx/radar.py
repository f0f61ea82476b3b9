"""Delay-Doppler recovery from a sparse set of Fourier coefficients.

The receiver observes K Fourier coefficients per pulse, confined to the
agreed transmit bands. Doppler focusing coherently combines the P pulses
onto a Doppler grid, concentrating each target's energy in one focused
column; a greedy pursuit with a GLRT stopping rule then extracts targets
from the joint delay-Doppler map without knowing their number in advance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .freqs import FrequencySet, KappaSet
from .signals import PulseTrainSpec, RadarWaveformSpec, TargetScene

__all__ = [
    "KappaSet",
    "FocusedMatrix",
    "Detection",
    "DetectionList",
    "MinRequirements",
    "make_kappa",
    "partial_fourier",
    "doppler_focus",
    "focused_noise_var",
    "glrt_threshold",
    "focused_omp",
    "min_requirements",
    "hit_or_miss",
    "delay_to_range_m",
]

SPEED_OF_LIGHT = 299792458.0
_EPS = float(np.finfo(float).eps)
_ABS_SLACK = 1.0 + 4.0 * _EPS  # relative rounding slack of np.abs
_DOT_SLACK = 16.0 * _EPS  # per term of a unit-modulus complex dot product


def make_kappa(f_r: FrequencySet, b_h: float, n: int) -> KappaSet:
    """Coefficient indices covered by the band set.

    A frequency f maps to the centered index floor(f * n / b_h); every index
    touched by a band interval is retained, then mapped to nonnegative DFT
    indices. The full band [-b_h/2, b_h/2) yields all n indices.
    """
    if not f_r:
        raise ValueError("empty band set")
    if not f_r.within(-b_h / 2.0, b_h / 2.0, tol=1e-9 * b_h):
        raise ValueError("bands outside [-b_h/2, b_h/2]")
    eps = 1e-9
    centered = set()
    for iv in f_r:
        lo = math.floor(iv.lo * n / b_h + eps)
        hi = math.ceil(iv.hi * n / b_h - eps)
        for k in range(lo, hi):
            if -n // 2 <= k < n // 2:
                centered.add(k)
    return KappaSet(indices=tuple(k % n for k in centered), n=n)


def partial_fourier(kappa: KappaSet) -> np.ndarray:
    """Rows kappa of the n x n DFT matrix, n = kappa.n, (K, n): entry
    exp(-2j pi k r / n)."""
    n = kappa.n
    k = kappa.to_array()
    r = np.arange(n)
    return np.exp(-2j * math.pi * np.outer(k, r) / n)


@dataclass(frozen=True)
class FocusedMatrix:
    """Doppler-focused coefficient map, shape (K, P), plus its Doppler grid."""

    psi: np.ndarray
    doppler_grid: np.ndarray
    pri: float

    def __post_init__(self) -> None:
        psi = np.asarray(self.psi, dtype=np.complex128).copy()
        grid = np.asarray(self.doppler_grid, dtype=float).copy()
        if psi.ndim != 2 or grid.shape != (psi.shape[1],):
            raise ValueError("psi must be (K, P) with a matching Doppler grid")
        psi.flags.writeable = False
        grid.flags.writeable = False
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "doppler_grid", grid)


def doppler_focus(
    coeffs: np.ndarray,
    waveform: RadarWaveformSpec,
    kappa: KappaSet,
    train: PulseTrainSpec,
) -> FocusedMatrix:
    """Focus the per-pulse coefficients onto the unambiguous Doppler grid.

    Column q holds Psi_nu[k] = pri / (P H[k]) * sum_p c_p[k] e^{2j pi nu_q p pri}
    for nu_q = -1/(2 pri) + q/(P pri); the sum over pulses is one inverse FFT
    along slow time after the half-band modulation by (-1)^p. For an on-grid
    unit target the focused value at its cell equals its amplitude.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    p = train.n_pulses
    if coeffs.shape != (kappa.k, p):
        raise ValueError(f"coeffs must be ({kappa.k}, {p})")
    h = waveform.values_at(kappa.centered())
    if np.any(h == 0):
        raise ValueError("spectrum is zero on a retained coefficient")
    signs = np.where(np.arange(p) % 2 == 0, 1.0, -1.0)
    summed = p * np.fft.ifft(coeffs * signs[None, :], axis=1)
    psi = (train.pri / (p * h))[:, None] * summed
    return FocusedMatrix(psi=psi, doppler_grid=train.doppler_grid(), pri=train.pri)


def focused_noise_var(
    noise_var: float,
    waveform: RadarWaveformSpec,
    kappa: KappaSet,
    train: PulseTrainSpec,
) -> float:
    """Per-entry complex variance of the focused map for white coefficient noise.

    Exact for flat in-band spectra; for shaped spectra this returns the mean
    across the retained coefficients.
    """
    h2 = np.abs(waveform.values_at(kappa.centered())) ** 2
    return float(noise_var * train.pri**2 / train.n_pulses * np.mean(1.0 / h2))


def per_test_level(p_fa: float, n: int) -> float:
    """Per-test false-alarm level 1 - (1 - p_fa)^(1/n) of a bank of n tests
    at scene-level p_fa. It rounds to 0 once p_fa falls below about
    n * eps / 2, where no threshold exists."""
    return 1.0 - (1.0 - p_fa) ** (1.0 / n)


def glrt_threshold(
    p_fa: float,
    n: int,
    rho: float = 0.0,
    model: str = "central",
) -> float:
    """Detection threshold for a bank of n GLRT tests at scene-level p_fa.

    The per-test level is 1 - (1 - p_fa)^(1/n); the threshold is the upper
    quantile of a chi-square with 2 degrees of freedom, central or noncentral
    with noncentrality rho. The central quantile has the closed form
    -2 ln(per_test); SciPy is imported only for the noncentral one.
    """
    if not 0.0 < p_fa < 1.0:
        raise ValueError("p_fa must be in (0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    per_test = per_test_level(p_fa, n)
    if per_test <= 0.0:
        raise ValueError(
            f"p_fa = {p_fa:g} over n = {n} tests rounds to a per-test level of 0"
        )
    if model == "central":
        return -2.0 * math.log(per_test)
    if model == "noncentral":
        if rho < 0:
            raise ValueError("rho must be nonnegative")
        from scipy import stats

        return float(stats.ncx2.isf(per_test, df=2, nc=rho))
    raise ValueError("model must be 'central' or 'noncentral'")


@dataclass(frozen=True)
class Detection:
    """One recovered target."""

    delay: float
    doppler: float
    amplitude: complex
    statistic: float
    delay_bin: int
    doppler_bin: int


@dataclass(frozen=True)
class DetectionList:
    """Recovered targets in detection order."""

    detections: tuple[Detection, ...]
    truncated: bool = False
    gamma_trace: tuple[float, ...] = ()

    def __len__(self) -> int:
        return len(self.detections)

    def __iter__(self):
        return iter(self.detections)

    def delays(self) -> np.ndarray:
        return np.asarray([d.delay for d in self.detections])

    def dopplers(self) -> np.ndarray:
        return np.asarray([d.doppler for d in self.detections])


def focused_omp(
    focused: FocusedMatrix,
    f_kappa: np.ndarray,
    gamma: float,
    noise_var: float,
    max_iter: int,
) -> DetectionList:
    """Greedy delay-Doppler extraction with a GLRT stopping rule.

    Each iteration back-projects the residual map through the partial Fourier
    frame f_kappa (unit-modulus entries), takes the largest cell (ties to the
    lexicographically smallest delay, Doppler pair), and tests its normalized
    matched-filter energy Gamma = |a^H r|^2 / ((noise_var / 2) ||a||^2)
    against gamma; noise_var is the per-entry complex variance of the focused
    map, so Gamma is chi^2 with 2 degrees of freedom under the null. Accepted
    atoms are refit jointly by least squares within each Doppler column.
    noise_var = 0 disables the test and stops on a vanishing residual instead.

    The back-projection f_kappa^H R is formed in full once. A refit changes
    one residual column, so only that column's magnitudes are then updated,
    by a matrix-vector product. That product can differ from the full
    product's column in its last bits, so each column refit since the last
    full product keeps a ceiling: its largest magnitude plus a rigorous
    bound on that difference. When the largest cell lies in such a column,
    or a ceiling reaches it, the full product is formed again before the
    pick. Every pick, statistic and amplitude is therefore bit-identical to
    forming the full product on every step.

    Returns the detections flagged truncated when max_iter was exhausted with
    the stopping rule still unsatisfied.
    """
    psi = focused.psi
    k_count, p_count = psi.shape
    if f_kappa.shape[0] != k_count:
        raise ValueError("f_kappa row count must match psi")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    n_delay = f_kappa.shape[1]
    atom_energy = float(np.sum(np.abs(f_kappa[:, 0]) ** 2))
    psi_norm = np.linalg.norm(psi)
    if psi_norm == 0:
        return DetectionList(detections=())

    f_adj = f_kappa.conj().T
    selected: list[tuple[int, int]] = []
    col_atoms: dict[int, list[int]] = {}
    amplitudes: dict[tuple[int, int], complex] = {}
    trace: list[float] = []
    resid = psi.copy()
    truncated = False
    corr = f_adj @ resid
    mag = np.abs(corr)
    # Doppler column -> ceiling on the magnitudes the full product would give
    # it, for each column refit since corr was last formed in full
    ceilings: dict[int, float] = {}

    while True:
        if noise_var <= 0 and np.linalg.norm(resid) <= 1e-10 * psi_norm:
            break
        flat = int(np.argmax(mag))
        r_idx, q_idx = divmod(flat, p_count)
        if ceilings and (q_idx in ceilings or max(ceilings.values()) >= mag[r_idx, q_idx]):
            # a refit column could hold, or tie, the full product's maximum
            corr = f_adj @ resid
            mag = np.abs(corr)
            ceilings.clear()
            flat = int(np.argmax(mag))
            r_idx, q_idx = divmod(flat, p_count)
        # a column of a full product depends only on that column of resid, so
        # the columns outside ceilings hold the bits a full product would give
        # now; the pick, its tie-break and its statistic are then all its own
        if noise_var > 0:
            stat = float(
                np.abs(corr[r_idx, q_idx]) ** 2 / ((noise_var / 2.0) * atom_energy)
            )
            trace.append(stat)
            if stat <= gamma:
                break
        if (r_idx, q_idx) in amplitudes:
            # residual cannot improve on a repeated cell; numerical dead end
            break
        if len(selected) >= max_iter:
            truncated = True
            break
        selected.append((r_idx, q_idx))
        rows = col_atoms.setdefault(q_idx, [])
        rows.append(r_idx)

        # the joint refit decouples per Doppler column, and only column q_idx
        # gained an atom; every other column's fit is unchanged
        sub = f_kappa[:, rows]
        sol, *_ = np.linalg.lstsq(sub, psi[:, q_idx], rcond=None)
        col = psi[:, q_idx] - sub @ sol
        resid[:, q_idx] = col
        for r, val in zip(rows, sol):
            amplitudes[(r, q_idx)] = complex(val)

        # Ceiling on column q_idx of abs(f_adj @ resid) from the column alone.
        # Each part of a complex K-term dot product is a real sum of 2K
        # products, so any summation order, blocked or fused, is within
        # gamma_2K * sum_k |f[k]| |r[k]| <= ~K eps * sum_k |r[k]| per part
        # (unit-modulus f, gamma_n = n (eps/2) / (1 - n eps/2)) and within
        # sqrt(2) times that in modulus; two evaluations are within twice
        # that, under 3 K eps * sum|r|. 16 (K + 4) eps * sum|r| covers it, and
        # the rounding of the sum and of this ceiling, with a wide margin.
        # np.abs is within an ulp or two of the true modulus, so the full
        # product's magnitude is at most this column's (1 + 4 eps) times,
        # plus that slack.
        mag[:, q_idx] = np.abs(f_adj @ col)
        ceilings[q_idx] = float(np.max(mag[:, q_idx])) * _ABS_SLACK + (
            _DOT_SLACK * (k_count + 4) * float(np.sum(np.abs(col)))
        )

    detections = tuple(
        Detection(
            delay=focused.pri * r / n_delay,
            doppler=float(focused.doppler_grid[q]),
            amplitude=amplitudes[(r, q)],
            statistic=trace[i] if i < len(trace) else math.inf,
            delay_bin=r,
            doppler_bin=q,
        )
        for i, (r, q) in enumerate(selected)
    )
    return DetectionList(
        detections=detections,
        truncated=truncated,
        gamma_trace=tuple(trace),
    )


@dataclass(frozen=True)
class MinRequirements:
    """Sample-count feasibility summary for recovering l targets."""

    k_min: int
    p_min: int
    total_min: int
    b_tot_bins: int
    feasible: bool


def min_requirements(
    l: int,
    n: int,
    b_h: float,
    band_widths: Sequence[float],
) -> MinRequirements:
    """Minimal coefficient and pulse counts for l targets.

    Needs K >= 2l coefficients, P >= 2l pulses (4l^2 samples in total), and a
    band set wide enough to cover 2l coefficient bins: sum_i ceil(w_i n / b_h)
    >= 2l.
    """
    if l < 0 or n < 1 or b_h <= 0:
        raise ValueError("invalid arguments")
    b_tot = int(sum(math.ceil(w * n / b_h - 1e-9) for w in band_widths))
    return MinRequirements(
        k_min=2 * l,
        p_min=2 * l,
        total_min=4 * l * l,
        b_tot_bins=b_tot,
        feasible=b_tot >= 2 * l,
    )


def _wrapped(delta: np.ndarray, period: float) -> np.ndarray:
    d = np.abs(delta) % period
    return np.minimum(d, period - d)


def hit_or_miss(
    est: DetectionList,
    truth: TargetScene,
    b_h: float,
    train: PulseTrainSpec,
) -> tuple[float, tuple[bool, ...]]:
    """Elliptical hit scoring of detections against the true scene.

    A detection hits a target when (dtau / (3/b_h))^2 + (dnu / (3/(P pri)))^2
    <= 1, with both differences wrapped to the unambiguous ranges. Pairs are
    matched greedily nearest first and each detection can claim one target.
    Returns (hit rate, per-target hit flags); an empty truth scores 1.
    """
    l = len(truth)
    if l == 0:
        return 1.0, ()
    axis_tau = 3.0 / b_h
    axis_nu = 3.0 / (train.n_pulses * train.pri)
    n_est = len(est)
    flags = [False] * l
    if n_est == 0:
        return 0.0, tuple(flags)

    d_tau = _wrapped(
        est.delays()[:, None] - truth.delays[None, :], train.pri
    )
    d_nu = _wrapped(
        est.dopplers()[:, None] - truth.dopplers[None, :], 1.0 / train.pri
    )
    dist2 = (d_tau / axis_tau) ** 2 + (d_nu / axis_nu) ** 2
    order = np.argsort(dist2, axis=None)
    used_est = set()
    used_truth = set()
    for flat in order:
        e, t = divmod(int(flat), l)
        if dist2[e, t] > 1.0:
            break
        if e in used_est or t in used_truth:
            continue
        used_est.add(e)
        used_truth.add(t)
        flags[t] = True
    return sum(flags) / l, tuple(flags)


def delay_to_range_m(delay: float | np.ndarray) -> float | np.ndarray:
    """Two-way propagation delay to range in meters."""
    return SPEED_OF_LIGHT * np.asarray(delay) / 2.0
