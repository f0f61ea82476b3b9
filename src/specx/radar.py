"""Delay-Doppler recovery from a sparse set of Fourier coefficients.

The receiver observes K Fourier coefficients per pulse, confined to the
agreed transmit bands. Doppler focusing coherently combines the P pulses
onto a Doppler grid, concentrating each target's energy in one focused
column; a greedy pursuit with a GLRT stopping rule then extracts targets
from the joint delay-Doppler map without knowing their number in advance.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .freqs import FrequencySet, KappaSet, frozen
from .signals import PulseTrainSpec, RadarWaveformSpec, TargetScene

__all__ = [
    "KappaSet",
    "FocusedMatrix",
    "Detection",
    "DetectionList",
    "Pursuit",
    "MinRequirements",
    "make_kappa",
    "partial_fourier",
    "doppler_focus",
    "doppler_focus_batch",
    "focus_weights",
    "focused_noise_var",
    "glrt_threshold",
    "focused_omp",
    "focused_omp_batch",
    "min_requirements",
    "hit_or_miss",
    "hit_or_miss_batch",
    "wrapped_gaps",
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


@dataclass(frozen=True, eq=False)
class FocusedMatrix:
    """Doppler-focused coefficient map, shape (K, P), plus its Doppler grid."""

    psi: np.ndarray
    doppler_grid: np.ndarray
    pri: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "psi", psi := frozen(self.psi, np.complex128))
        object.__setattr__(self, "doppler_grid", grid := frozen(self.doppler_grid, float))
        if psi.ndim != 2 or grid.shape != (psi.shape[1],):
            raise ValueError("psi must be (K, P) with a matching Doppler grid")


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
    unit target the focused value at its cell equals its amplitude. This is
    the one-map call of doppler_focus_batch.
    """
    coeffs = np.array(coeffs, dtype=np.complex128)  # a copy, focused in place
    p = train.n_pulses
    if coeffs.shape != (kappa.k, p):
        raise ValueError(f"coeffs must be ({kappa.k}, {p})")
    signs, scale = focus_weights(waveform.values_on(kappa), train)
    psi = doppler_focus_batch(coeffs[None], signs, scale)[0]
    return FocusedMatrix(psi=psi, doppler_grid=train.doppler_grid(), pri=train.pri)


def focus_weights(h: np.ndarray, train: PulseTrainSpec) -> tuple[np.ndarray, np.ndarray]:
    """The slow-time signs (-1)^p and per-coefficient scales pri / (P H[k])
    of Doppler focusing, for the transmitted spectrum h on the retained
    coefficients."""
    p = train.n_pulses
    signs = np.where(np.arange(p) % 2 == 0, 1.0, -1.0)
    return signs, train.pri / (p * h)


def doppler_focus_batch(
    coeffs: np.ndarray, signs: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """The focused maps of a (B, K, P) stack of coefficient sets on one
    coefficient set, written over the stack, which is returned; signs and
    scale come from focus_weights. One slow-time inverse FFT serves the
    stack, and it transforms each row on its own, so each slice holds the
    bits of doppler_focus on that slice. Every step works in place, keeping
    the operand order of scale * (P * ifft(coeffs * signs)), so the stack
    costs no array beyond coeffs."""
    p = coeffs.shape[-1]
    np.multiply(coeffs, signs, out=coeffs)
    np.fft.ifft(coeffs, axis=-1, out=coeffs)
    np.multiply(p, coeffs, out=coeffs)
    return np.multiply(scale[:, None], coeffs, out=coeffs)


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


class Pursuit(NamedTuple):
    """What focused_omp_batch finds on one map: each picked (delay bin,
    Doppler bin) cell with its amplitude, in pick order, the GLRT statistic
    of every step, and whether max_iter cut the pursuit short."""

    amplitudes: dict[tuple[int, int], complex]
    gamma_trace: list[float]
    truncated: bool


@dataclass(frozen=True)
class DetectionList:
    """Recovered targets in detection order."""

    detections: tuple[Detection, ...]
    truncated: bool = False
    gamma_trace: tuple[float, ...] = ()

    @classmethod
    def from_pursuit(
        cls, found: Pursuit, n_delay: int, doppler_grid: np.ndarray, pri: float
    ) -> "DetectionList":
        """The detections of a pursuit over n_delay delay bins and the Doppler
        grid of a train with this pri."""
        trace = found.gamma_trace
        return cls(
            detections=tuple(
                Detection(
                    delay=pri * r / n_delay,
                    doppler=float(doppler_grid[q]),
                    amplitude=amplitude,
                    statistic=trace[i] if i < len(trace) else math.inf,
                    delay_bin=r,
                    doppler_bin=q,
                )
                for i, ((r, q), amplitude) in enumerate(found.amplitudes.items())
            ),
            truncated=found.truncated,
            gamma_trace=tuple(trace),
        )

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
    by a product of the column alone. That product can differ from the full
    product's column in its last bits, so each column refit since the last
    full product keeps a ceiling: its largest magnitude plus a rigorous
    bound on that difference. When the largest cell lies in such a column,
    or a ceiling reaches it, the full product is formed again before the
    pick. Every pick, statistic and amplitude is therefore bit-identical to
    forming the full product on every step.

    Returns the detections flagged truncated when max_iter was exhausted with
    the stopping rule still unsatisfied. This is the one-map call of
    focused_omp_batch. Called on its own, it runs on the caller's BLAS
    settings; the single-shot runs and sweeps cap BLAS at one thread around
    it (engine.one_blas_thread).
    """
    found = focused_omp_batch(
        focused.psi[None], f_kappa, [gamma], [noise_var], max_iter, f_adj=f_kappa.conj().T
    )[0]
    return DetectionList.from_pursuit(
        found, f_kappa.shape[1], focused.doppler_grid, focused.pri
    )


def focused_omp_batch(
    psi: np.ndarray,
    f_kappa: np.ndarray,
    gammas: Sequence[float],
    noise_vars: Sequence[float],
    max_iter: int,
    *,
    f_adj: np.ndarray,
) -> list[Pursuit]:
    """focused_omp on each (K, P) map of a (B, K, P) stack focused on one
    frame f_kappa, whose adjoint f_adj is f_kappa.conj().T, map b with its
    own GLRT threshold gammas[b] and noise variance noise_vars[b]. Returns each
    map's Pursuit: its picks in pick order with their amplitudes, its
    statistic trace and its truncated flag, which DetectionList.from_pursuit
    makes into detections; a sweep scores the picks without them.

    The maps take their greedy steps in lockstep, each with its own picks,
    ceilings, refreshes, stopping rule and early exit. A step takes one
    argmax over the magnitude stack (row-major first occurrence, the lone
    call's tie-break) and one _lstsq_stack refit, with lone lstsq's bits,
    per atom count of its refit columns. A map's back-projection is formed
    in full, as its own product, at its first step and when a ceiling asks.
    """
    b_count, k_count, p_count = psi.shape
    if f_kappa.shape[0] != k_count:
        raise ValueError("f_kappa row count must match psi")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    n_delay = f_kappa.shape[1]
    col_energy = float(np.sum(np.abs(f_kappa[:, 0]) ** 2))
    scales = [(noise_var / 2.0) * col_energy for noise_var in noise_vars]
    norms = [np.linalg.norm(m) for m in psi]
    # per map: picked cell -> amplitude, in pick order, and Doppler column -> the
    # column's residual after its last refit
    amplitudes: list[dict[tuple[int, int], complex]] = [{} for _ in psi]
    cols: list[dict[int, np.ndarray]] = [{} for _ in psi]
    traces: list[list[float]] = [[] for _ in psi]
    truncated = [False] * b_count
    mag = np.zeros((b_count, n_delay, p_count))
    flat_mag, every = mag.reshape(b_count, -1), np.arange(b_count)
    # map, Doppler column -> ceiling on the magnitudes the full product would give
    # the column, for each column refit since the map's magnitudes were formed in
    # full; the infinite ones make the first step form every map's in full
    ceilings = np.full((b_count, p_count), np.inf)

    def residual(b: int) -> np.ndarray:
        resid = psi[b].copy()
        for q, col in cols[b].items():
            resid[:, q] = col
        return resid

    live = [b for b in range(b_count) if norms[b] != 0]
    while live:
        live = [
            b for b in live
            if noise_vars[b] > 0 or not np.linalg.norm(residual(b)) <= 1e-10 * norms[b]
        ]
        picks = flat_mag.argmax(axis=1)
        # a refit column could hold, or tie, the full product's maximum
        due = ceilings[every, picks % p_count] > -np.inf
        due |= ceilings.max(axis=1) >= flat_mag[every, picks]
        for b in [b for b in live if due[b]]:
            np.abs(f_adj @ residual(b), out=mag[b])
            ceilings[b] = -np.inf
            picks[b] = mag[b].argmax()
        # a column of a full product depends only on that column of the residual, so
        # the columns without a ceiling hold the bits a full product would give now;
        # the pick, its tie-break and its statistic are then all its own
        took = []  # (map, Doppler column, the column's atoms' delay bins)
        for b in live:
            r_idx, q_idx = divmod(int(picks[b]), p_count)
            if noise_vars[b] > 0:
                traces[b].append(float(mag[b, r_idx, q_idx] ** 2 / scales[b]))
                if traces[b][-1] <= gammas[b]:
                    continue
            if (r_idx, q_idx) in amplitudes[b]:
                continue  # residual cannot improve on a repeated cell; numerical dead end
            if len(amplitudes[b]) >= max_iter:
                truncated[b] = True
                continue
            took.append((b, q_idx, [r for r, q in amplitudes[b] if q == q_idx] + [r_idx]))
        if not took:
            break
        # the joint refit decouples per Doppler column, and only the column that
        # gained an atom changes; columns of one atom count are refit as one stack
        took.sort(key=lambda t: len(t[2]))
        refit = []
        for _, group in itertools.groupby(took, key=lambda t: len(t[2])):
            maps, qs, atoms = zip(*group)
            # each slice has the strides of a lone f_kappa[:, rows], so sub @ sol is its own
            sub = f_kappa.T[list(atoms)].transpose(0, 2, 1)
            rhs = psi[maps, :, qs]
            sol = _lstsq_stack(sub, rhs)
            refit.append(rhs - (sub @ sol[..., None])[..., 0])
            for b, q, rows, vals, col in zip(maps, qs, atoms, sol, refit[-1]):
                cols[b][q] = col
                # the picked cell is the one new key, so the keys stay in pick order
                amplitudes[b].update({(r, q): complex(v) for r, v in zip(rows, vals)})
        live, qs, _ = (list(t) for t in zip(*took))
        refit = np.concatenate(refit)
        # Ceiling on each refit column of abs(f_adj @ resid) from the column alone.
        # Each part of a complex K-term dot product is a real sum of 2K products, so
        # any summation order, blocked or fused, is within gamma_2K * sum_k |f[k]|
        # |r[k]| <= ~K eps * sum_k |r[k]| per part (unit-modulus f, gamma_n = n
        # (eps/2) / (1 - n eps/2)) and within sqrt(2) times that in modulus; two
        # evaluations are within twice that, under 3 K eps * sum|r|. 16 (K + 4) eps
        # * sum|r| covers it, and the rounding of the sum and of this ceiling, with a
        # wide margin. np.abs is within an ulp or two of the true modulus, so the
        # full product's magnitude is at most this column's (1 + 4 eps) times, plus
        # that slack.
        col_mag = np.abs(f_adj @ refit.T)
        mag[live, :, qs] = col_mag.T
        ceilings[live, qs] = col_mag.max(axis=0) * _ABS_SLACK + (
            _DOT_SLACK * (k_count + 4) * np.abs(refit).sum(axis=1)
        )

    return [Pursuit(*found) for found in zip(amplitudes, traces, truncated)]


@functools.cache
def _lstsq_gufunc():
    """NumPy's private lstsq gufunc and the error callback lstsq runs it
    under, or None when this NumPy has either under another name. Looked up
    at first use, so importing specx never depends on them."""
    try:
        from numpy.linalg import _umath_linalg
        from numpy.linalg._linalg import _raise_linalgerror_lstsq
        return _umath_linalg.lstsq, _raise_linalgerror_lstsq
    except (ImportError, AttributeError):
        return None


def _lstsq_stack(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.linalg.lstsq(a[g], y[g], rcond=None)[0], bit for bit, for each g of
    a (G, K, m) complex stack and a (G, K) one. lstsq wraps the private NumPy
    gufunc numpy.linalg._umath_linalg.lstsq, which runs LAPACK's gelsd on
    each slice on its own; one call with lstsq's signature, rcond and error
    state skips the wrapper's cost per call. Without that gufunc each slice
    is its own lstsq call.
    """
    found = _lstsq_gufunc()
    if found is None:
        return np.stack([np.linalg.lstsq(a[g], y[g], rcond=None)[0] for g in range(len(a))])
    lstsq, raise_error = found
    rcond = _EPS * max(a.shape[-2:])
    with np.errstate(call=raise_error, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        x = lstsq(a, y[..., None], rcond, signature="DDd->Ddid")[0]
    return x[..., 0]


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


def wrapped_gaps(
    delays: np.ndarray,
    dopplers: np.ndarray,
    truth_delays: np.ndarray,
    truth_dopplers: np.ndarray,
    pri: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Delay and Doppler gaps between B trials' detections, (B, M) stacks,
    and their targets, (B, L) stacks, as two (B, M, L) stacks: entry
    (b, e, t) is |detection e - target t| of trial b, wrapped to the
    unambiguous range pri in delay and 1/pri in Doppler. Rows past a trial's
    detection count may hold anything; its scores never read them."""
    d_tau = _wrapped(delays[:, :, None] - truth_delays[:, None, :], pri)
    d_nu = _wrapped(dopplers[:, :, None] - truth_dopplers[:, None, :], 1.0 / pri)
    return d_tau, d_nu


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
    Returns (hit rate, per-target hit flags); an empty truth scores 1. This
    is the one-trial call of hit_or_miss_batch.
    """
    gaps = wrapped_gaps(
        est.delays()[None], est.dopplers()[None], truth.delays[None], truth.dopplers[None],
        train.pri,
    )
    return hit_or_miss_batch(*gaps, [len(est)], b_h, train)[0]


def hit_or_miss_batch(
    d_tau: np.ndarray,
    d_nu: np.ndarray,
    counts: Sequence[int],
    b_h: float,
    train: PulseTrainSpec,
) -> list[tuple[float, tuple[bool, ...]]]:
    """hit_or_miss of B trials from their wrapped_gaps stacks, trial b
    holding counts[b] detections.

    The normalized squared distances are formed once for the stack, each
    entry by the operations a lone trial does on it. The nearest-first
    matching argsorts each trial's own (counts[b], L) block, the array a
    lone call sorts, since the order argsort gives tied distances depends on
    the block it is given.
    """
    l = d_tau.shape[2]
    if l == 0:
        return [(1.0, ())] * len(counts)
    axis_tau = 3.0 / b_h
    axis_nu = 3.0 / (train.n_pulses * train.pri)
    dist2 = (d_tau / axis_tau) ** 2 + (d_nu / axis_nu) ** 2
    scores = []
    for block, n_est in zip(dist2, counts):
        flags = [False] * l
        if n_est:
            block = block[:n_est]
            dist = block.ravel().tolist()
            used_est = set()
            used_truth = set()
            for flat in np.argsort(block, axis=None).tolist():
                if dist[flat] > 1.0:
                    break
                e, t = divmod(flat, l)
                if e in used_est or t in used_truth:
                    continue
                used_est.add(e)
                used_truth.add(t)
                flags[t] = True
        scores.append((sum(flags) / l, tuple(flags)))
    return scores


def delay_to_range_m(delay: float | np.ndarray) -> float | np.ndarray:
    """Two-way propagation delay to range in meters."""
    return SPEED_OF_LIGHT * np.asarray(delay) / 2.0
