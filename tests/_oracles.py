"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written against the math, not against the
library internals: the channel oracle integrates the mixed waveform chip by
chip in closed form, and the focusing oracle evaluates the slow-time DFT as
an explicit double sum. Neither touches FFTs, sinc envelopes, or any other
shortcut the production code relies on. The greedy solvers' first versions,
which refit every selected column by least squares on every step, and the
first, per-band mask_comm are kept here as references for the faster
versions. So are gen_comm_slices and radar_slices as first written, which
rebuilt the dense-grid geometry and the radar variance profile on every
call.
"""

import numpy as np

TWO_PI = 2.0 * np.pi


def mixed_channel_spectrum(x, seqs, grid):
    """Spectrum of lowpass(p_i(t) * x(t)) on the in-slice grid, per channel.

    x is a SliceSpectrum on a grid with f_s == f_p (slices abut exactly).
    The underlying signal is the finite tone sum defined by the dense grid;
    each channel multiplies it by its periodic chip waveform and the result
    is projected back onto the tones inside [-f_s/2, f_s/2).  The projection
    integral is evaluated exactly on every chip interval.
    """
    from specx import dense_from_slices

    if abs(grid.f_s - grid.f_p) > 1e-9 * grid.f_p:
        raise ValueError("oracle assumes f_s == f_p")
    dense = dense_from_slices(x.values, grid)
    pos = np.flatnonzero(dense)
    tones = dense[pos]
    f_b = grid.dense_freqs()[pos]

    delta_f = grid.delta_f
    t_total = 1.0 / delta_f
    t_p = 1.0 / grid.f_p  # chip period is one slice width by construction
    # chip grid covering one full period of the composite signal
    periods = int(round(t_total / t_p))
    n_tot = seqs.n_chips * periods
    w = t_p / seqs.n_chips
    edges = np.arange(n_tot + 1) * w

    g_j = (np.arange(grid.n_grid) - grid.n_grid // 2) * delta_f
    delta = f_b[None, :] - g_j[:, None]          # (n_out, n_tones)

    phase = np.exp(TWO_PI * 1j * delta[:, :, None] * edges[None, None, :])
    seg = np.diff(phase, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        seg = seg / (TWO_PI * 1j * delta[:, :, None])
    seg[np.abs(delta) < 1e-6 * delta_f, :] = w   # stationary tone: plain width

    # collapse tones first, then weight by the per-channel chip signs
    seg_x = np.tensordot(seg, tones, axes=([1], [0]))      # (n_out, n_tot)
    signs = np.tile(seqs.signs.astype(float), (1, periods))  # (m, n_tot)
    return (signs @ seg_x.T) / t_total


def chip_fourier_series_quad(signs, ell, t_p=1.0):
    """Fourier-series coefficients of one chip sequence by adaptive quadrature."""
    from scipy.integrate import quad

    nc = len(signs)
    width = t_p / nc
    out = np.empty(len(ell), dtype=complex)
    for j, l in enumerate(ell):
        re = im = 0.0
        for k, s in enumerate(signs):
            a, b = k * width, (k + 1) * width
            re += s * quad(lambda t: np.cos(TWO_PI * l * t / t_p), a, b)[0]
            im -= s * quad(lambda t: np.sin(TWO_PI * l * t / t_p), a, b)[0]
        out[j] = (re + 1j * im) / t_p
    return out


def focus_direct(coeffs, waveform, kappa, train):
    """Doppler focusing as an explicit O(K P^2) double sum."""
    h = waveform.values_at(kappa.centered())
    p = train.n_pulses
    nu = train.doppler_grid()
    pulses = np.arange(p)
    steer = np.exp(TWO_PI * 1j * np.outer(pulses, nu) * train.pri)  # (P, P)
    summed = coeffs @ steer
    return (train.pri / (p * h))[:, None] * summed


def focused_omp_refit_all(focused, f_kappa, gamma, noise_var, max_iter):
    """focused_omp as first written: every greedy step refits every Doppler
    column that holds an atom, not just the one that gained it."""
    import math

    from specx.radar import Detection, DetectionList

    psi = focused.psi
    p_count = psi.shape[1]
    n_delay = f_kappa.shape[1]
    atom_energy = float(np.sum(np.abs(f_kappa[:, 0]) ** 2))
    psi_norm = np.linalg.norm(psi)
    if psi_norm == 0:
        return DetectionList(detections=())

    selected = []
    col_atoms = {}
    amplitudes = {}
    trace = []
    resid = psi.copy()
    truncated = False

    while True:
        if noise_var <= 0 and np.linalg.norm(resid) <= 1e-10 * psi_norm:
            break
        corr = f_kappa.conj().T @ resid
        flat = int(np.argmax(np.abs(corr)))
        r_idx, q_idx = divmod(flat, p_count)
        if noise_var > 0:
            stat = float(
                np.abs(corr[r_idx, q_idx]) ** 2 / ((noise_var / 2.0) * atom_energy)
            )
            trace.append(stat)
            if stat <= gamma:
                break
        if (r_idx, q_idx) in amplitudes:
            break
        if len(selected) >= max_iter:
            truncated = True
            break
        selected.append((r_idx, q_idx))
        col_atoms.setdefault(q_idx, []).append(r_idx)
        amplitudes[(r_idx, q_idx)] = 0.0

        for q, rows in col_atoms.items():
            sub = f_kappa[:, rows]
            sol, *_ = np.linalg.lstsq(sub, psi[:, q], rcond=None)
            resid[:, q] = psi[:, q] - sub @ sol
            for r, val in zip(rows, sol):
                amplitudes[(r, q)] = complex(val)

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
    return DetectionList(detections=detections, truncated=truncated, gamma_trace=tuple(trace))


def _correlations(a, resid, col_norms):
    """Column-normalized matched-filter energies ||a_j^H R|| / ||a_j||."""
    scores = np.linalg.norm(a.conj().T @ resid, axis=1)
    safe = np.where(col_norms > 0, col_norms, 1.0)
    return np.where(col_norms > 0, scores / safe, 0.0)


def omp_pks_refit_all(v, a, s_r, k_extra, res_tol=1e-6):
    """omp_pks as first written: every greedy step re-solves the joint least
    squares on all selected columns."""
    from specx import FrameMatrix, SliceSupport
    from specx.sensing import _COND_LIMIT

    vv = v.v if isinstance(v, FrameMatrix) else np.asarray(v, dtype=np.complex128)
    amat = a.a
    m, n = amat.shape
    if vv.shape[0] != m:
        raise ValueError("frame and sensing matrix row counts differ")
    s_r.validate(n)
    if m < len(s_r) + 1:
        raise ValueError(f"need at least {len(s_r) + 1} channels, have {m}")
    if k_extra < 0:
        raise ValueError("k_extra must be nonnegative")

    selected = list(s_r)
    v_norm = np.linalg.norm(vv)
    if v_norm == 0 or vv.shape[1] == 0:
        return SliceSupport(selected)

    if selected:
        sub = amat[:, selected]
        if np.linalg.cond(sub) > _COND_LIMIT:
            raise ValueError("known-support columns are ill-conditioned")
        coef, *_ = np.linalg.lstsq(sub, vv, rcond=None)
        resid = vv - sub @ coef
    else:
        resid = vv

    col_norms = np.linalg.norm(amat, axis=0)
    for _ in range(k_extra):
        if np.linalg.norm(resid) < res_tol * v_norm:
            break
        scores = _correlations(amat, resid, col_norms)
        if selected:
            scores[np.asarray(selected)] = -1.0
        j = int(np.argmax(scores))
        if scores[j] <= 0:
            break
        selected.append(j)
        sub = amat[:, selected]
        coef, *_ = np.linalg.lstsq(sub, vv, rcond=None)
        resid = vv - sub @ coef
    return SliceSupport(selected)


def mask_comm_per_band(rem, f_c):
    """mask_comm's energies as first written: one FrequencySet per REM band,
    masked when its intersection with f_c has positive measure."""
    from specx import FrequencySet

    energies = np.array(rem.energies)
    for i in range(rem.q):
        iv = rem.band_interval(i)
        band = FrequencySet([(iv.lo, iv.hi)])
        if band.intersection(f_c).measure() > 0:
            energies[i] = np.inf
    return energies


def _support_blocks(support):
    """Number of contiguous runs in a set of indices."""
    idx = sorted(support)
    if not idx:
        return 0
    return 1 + sum(1 for a, b in zip(idx, idx[1:]) if b - a > 1)


def struct_omp_refit_all(y_inv, d, n_b, span_width, zero_fitted_bands=False):
    """struct_omp as first written: every greedy step refits the selected
    support by least squares, and candidate gains and block counts are
    evaluated one candidate at a time.

    The refit leaves rounding-level residual (about 1e-17) on bands it has
    already fitted; on a map with several columns per band that residual can
    pass the gain floor and draw more columns into a fitted band.
    zero_fitted_bands=True sets those bands to exactly zero after each refit,
    which is the residual of the exact least-squares fit.
    """
    import math

    from specx import BandSelectionError, BlockSparseVector, FrequencySet

    y_inv = np.asarray(y_inv, dtype=float)
    if y_inv.shape != (d.q,):
        raise ValueError(f"y_inv must have length q={d.q}")
    if np.any(y_inv < 0) or not np.all(np.isfinite(y_inv)):
        raise ValueError("y_inv must be finite and nonnegative")
    if n_b < 1:
        raise ValueError("n_b must be >= 1")
    if span_width <= 0:
        raise ValueError("span_width must be positive")

    p = d.p
    band_of = d.band_of()
    dmat = d.d
    b_w = span_width / p

    support = []
    in_support = np.zeros(p, dtype=bool)
    resid = y_inv.copy()
    log_p = math.log(p)

    while len(support) < p:
        gains = np.full(p, -np.inf)
        for i in range(p):
            if in_support[i]:
                continue
            num = resid[band_of[i]] ** 2
            left = in_support[i - 1] if i > 0 else False
            right = in_support[i + 1] if i + 1 < p else False
            if left and right:
                dg = -1
            elif left or right:
                dg = 0
            else:
                dg = 1
            delta_c = dg * log_p + 1.0
            gains[i] = num / delta_c
        best = int(np.argmax(gains))
        if gains[best] <= 1e-300:
            break
        candidate = support + [best]
        if _support_blocks(candidate) > n_b:
            break
        support = candidate
        in_support[best] = True
        sub = dmat[:, support]
        coef, *_ = np.linalg.lstsq(sub, y_inv, rcond=None)
        resid = y_inv - sub @ coef
        if zero_fitted_bands:
            resid[band_of[support]] = 0.0

    g_final = _support_blocks(support)
    if g_final < n_b:
        raise BandSelectionError(
            f"only {g_final} usable regions available, {n_b} bands requested",
            feasible_blocks=g_final,
        )

    w = np.zeros(p)
    if support:
        sub = dmat[:, support]
        coef, *_ = np.linalg.lstsq(sub, y_inv, rcond=None)
        w[np.asarray(support)] = coef

    half = span_width / 2.0
    intervals = []
    idx = sorted(support)
    run_start = idx[0]
    prev = idx[0]
    for j in idx[1:] + [None]:
        if j is not None and j == prev + 1:
            prev = j
            continue
        intervals.append((run_start * b_w - half, (prev + 1) * b_w - half))
        if j is not None:
            run_start = prev = j
    return BlockSparseVector(w=w, b_w=b_w), FrequencySet(intervals)


def _dense_geometry(grid):
    """Dense frequencies, positions, mirrors and slice index map, built anew."""
    pos = np.arange(grid.dense_size)
    freqs = (pos + grid.dense_offset) * grid.delta_f
    index_map = np.arange(grid.n_slices)[:, None] * grid.slice_step + np.arange(grid.n_grid)
    return freqs, pos, grid.mirror_position(pos), index_map


def gen_comm_slices_per_call(specs, grid, noise_psd=0.0, seed=0):
    """gen_comm_slices as first written, with its noise helper inlined."""
    import math

    from specx import FrequencyInterval, FrequencySet, SliceSpectrum, SliceSupport
    from specx.rng import derive_rng
    from specx.signals import _band_weights

    half_nyq = grid.f_nyq / 2.0
    freqs, pos_all, mirror_all, index_map = _dense_geometry(grid)
    dense = np.zeros(grid.dense_size, dtype=np.complex128)
    occupied = np.zeros(grid.dense_size, dtype=bool)
    intervals = []
    for idx, tx in enumerate(specs):
        lo = max(tx.carrier - tx.bandwidth / 2.0, -half_nyq)
        hi = min(tx.carrier + tx.bandwidth / 2.0, half_nyq)
        if lo >= hi:
            continue
        in_band = (freqs >= lo) & (freqs < hi) & (mirror_all >= 0)
        pos = pos_all[in_band]
        if pos.size == 0:
            continue
        w = _band_weights(freqs[pos], tx, grid.delta_f)
        rng = derive_rng(seed, "comm", idx)
        draw = np.sqrt(w / 2.0) * (
            rng.standard_normal(pos.size) + 1j * rng.standard_normal(pos.size)
        )
        dense[pos] += draw
        dense[mirror_all[pos]] += np.conj(draw)
        occupied[pos] = True
        occupied[mirror_all[pos]] = True
        intervals.append(FrequencyInterval(lo, hi))
        intervals.append(FrequencyInterval(-hi, -lo))

    if noise_psd > 0:
        rng = derive_rng(seed, "comm-noise")
        noise = np.zeros(grid.dense_size, dtype=np.complex128)
        half = mirror_all > pos_all
        draw = math.sqrt(noise_psd / 2.0) * (
            rng.standard_normal(half.sum()) + 1j * rng.standard_normal(half.sum())
        )
        noise[pos_all[half]] = draw
        noise[mirror_all[half]] = np.conj(draw)
        self_paired = mirror_all == pos_all
        noise[self_paired] = math.sqrt(noise_psd) * rng.standard_normal(self_paired.sum())
        dense += noise

    support = SliceSupport(np.flatnonzero(occupied[index_map].any(axis=1)))
    return SliceSpectrum(dense[index_map], grid), FrequencySet(intervals), support


def radar_slices_per_call(waveform, carrier, grid, power_scale, seed=0):
    """radar_slices as first written: the overlap profile and the draw in one
    pass."""
    from specx import SliceSpectrum
    from specx.rng import derive_rng

    half_nyq = grid.f_nyq / 2.0
    bands_abs = waveform.bands.shifted(carrier)
    if not bands_abs.within(-half_nyq, half_nyq, tol=1e-9 * grid.f_nyq):
        raise ValueError("radar bands fall outside the receiver Nyquist range")
    two_sided = bands_abs.union(bands_abs.mirrored())

    freqs, pos_all, mirror, index_map = _dense_geometry(grid)
    dense = np.zeros(grid.dense_size, dtype=np.complex128)
    if power_scale > 0:
        half_cell = grid.delta_f / 2.0
        overlap = np.zeros(grid.dense_size)
        for lo, hi in two_sided.to_pairs():
            overlap += np.clip(
                np.minimum(hi, freqs + half_cell) - np.maximum(lo, freqs - half_cell),
                0.0, None,
            )
        overlap[mirror < 0] = 0.0
        total = overlap.sum()
        if total > 0:
            var = power_scale * overlap / (total * grid.delta_f)
            rng = derive_rng(seed, "radar-slices")
            half = (overlap > 0) & (mirror > pos_all)
            draw = np.sqrt(var[half] / 2.0) * (
                rng.standard_normal(half.sum()) + 1j * rng.standard_normal(half.sum())
            )
            dense[pos_all[half]] = draw
            dense[mirror[half]] = np.conj(draw)
            self_paired = (overlap > 0) & (mirror == pos_all)
            dense[self_paired] = np.sqrt(var[self_paired]) * rng.standard_normal(
                self_paired.sum()
            )
    return SliceSpectrum(dense[index_map], grid)
