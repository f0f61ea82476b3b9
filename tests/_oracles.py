"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written against the math, not against the
library internals: the channel oracle integrates the mixed waveform chip by
chip in closed form, and the focusing oracle evaluates the slow-time DFT as
an explicit double sum. Neither touches FFTs, sinc envelopes, or any other
shortcut the production code relies on.
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
