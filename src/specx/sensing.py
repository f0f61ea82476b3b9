"""Support recovery and spectrum reconstruction from low-rate channel samples.

The continuous-to-finite step collapses the infinite measurement problem to
one multiple-measurement-vector system: a frame V with span(V) = span(z) is
built from the sample autocorrelation, and greedy MMV solvers recover which
spectrum slices are active. When part of the support is known in advance
(the radar bands), the greedy search starts from it, which lowers the number
of channels needed for exact recovery to 2K + |known support|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .freqs import FrequencyInterval, FrequencySet, GridSpec, SliceSupport
from .mwc import ChannelSamples, SensingMatrix
from .signals import dense_from_slices

__all__ = [
    "FrameMatrix",
    "SliceEstimate",
    "SensingResult",
    "build_frame",
    "somp",
    "omp_pks",
    "radar_slice_support",
    "recover_slices",
    "support_to_freqs",
    "refine_support_by_energy",
    "nyquist_reconstruct",
    "sense_spectrum",
]

_COND_LIMIT = 1e12
# a new column whose orthogonal part is below this times m times its norm
# already lies in the span of the selected columns
_SPAN_TOL = np.finfo(float).eps


@dataclass(frozen=True)
class FrameMatrix:
    """Basis V for the sampled signal subspace; V @ V^H recovers the retained
    part of the sample autocorrelation."""

    v: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.v, dtype=np.complex128).copy()
        if v.ndim != 2:
            raise ValueError("v must be 2-D")
        v.flags.writeable = False
        object.__setattr__(self, "v", v)

    @property
    def m(self) -> int:
        return self.v.shape[0]

    @property
    def rank(self) -> int:
        return self.v.shape[1]


def build_frame(z: ChannelSamples, eig_tol: float = 1e-6) -> FrameMatrix:
    """Eigendecompose Q = sum_n z[n] z[n]^H and keep the significant directions.

    Eigenvalues above eig_tol times the largest survive; V scales the kept
    eigenvectors by sqrt(eigenvalue) so V V^H = Q on the retained subspace.
    An all-zero input yields a rank-0 frame.
    """
    zz = z.z
    q = zz @ zz.conj().T
    if not np.any(q):
        return FrameMatrix(np.zeros((z.m, 0), dtype=np.complex128))
    w, u = np.linalg.eigh(q)
    w = np.maximum(w, 0.0)
    keep = w > eig_tol * w[-1]
    # descending eigenvalue order for a stable column layout
    order = np.argsort(w[keep])[::-1]
    v = u[:, keep][:, order] * np.sqrt(w[keep][order])
    return FrameMatrix(v)


def somp(
    v: FrameMatrix | np.ndarray,
    a: SensingMatrix,
    max_sparsity: int,
    res_tol: float = 1e-6,
) -> SliceSupport:
    """Simultaneous OMP over the MMV system V = A U: omp_pks with no known
    support and a budget of max_sparsity columns.

    Greedily adds the column most correlated with the residual (ties break to
    the lowest index), projects its new direction out of the residual, and
    stops at max_sparsity columns or when the residual Frobenius norm drops
    below res_tol times ||V||.
    """
    if max_sparsity < 0 or max_sparsity > a.n:
        raise ValueError("max_sparsity out of range")
    return omp_pks(v, a, SliceSupport(), max_sparsity, res_tol)


def omp_pks(
    v: FrameMatrix | np.ndarray,
    a: SensingMatrix,
    s_r: SliceSupport,
    k_extra: int,
    res_tol: float = 1e-6,
) -> SliceSupport:
    """OMP with partially known support.

    The known indices s_r enter the support unconditionally and their span is
    projected out of V before any greedy step; ordinary OMP then adds at most
    k_extra further columns. The residual is always V minus its projection
    onto the selected columns, the same as a joint least-squares refit, but
    it is kept by an orthonormal basis Q of those columns: each new column is
    orthogonalized against Q (Gram-Schmidt with one reorthogonalization
    pass), appended, and its direction removed from the residual. A column
    already in the span (orthogonal part at rounding level) joins the
    support and leaves the residual as it is. The column norms, matched
    filters and the known columns' basis are cached on a, so a matrix reused
    across calls builds them once. Returns the union of s_r and the
    discovered indices. Raises if the known columns are ill-conditioned
    (condition number above 1e12) or if fewer channels than |s_r| + 1 are
    available.
    """
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

    # Q (orthonormal columns spanning the selected columns) and its rows Q^H
    basis = np.empty((m, m), dtype=np.complex128)
    basis_h = np.empty((m, m), dtype=np.complex128)
    rank = len(selected)
    if selected:
        cond, q = a.column_basis(s_r)
        if cond > _COND_LIMIT:
            raise ValueError("known-support columns are ill-conditioned")
        basis[:, :rank] = q
        basis_h[:rank] = basis[:, :rank].conj().T
        resid = vv - basis[:, :rank] @ (basis_h[:rank] @ vv)
    else:
        resid = vv.copy()

    # unit-norm matched filters a_j^H / ||a_j||; a selected or all-zero
    # column has a zero row, so it scores 0 and is never picked
    col_norms = a.col_norms
    filters = a.matched_filters.copy()
    filters[selected] = 0.0
    span_tol = _SPAN_TOL * m
    for _ in range(k_extra):
        if math.sqrt(np.vdot(resid, resid).real) < res_tol * v_norm:
            break
        g = (filters @ resid).view(np.float64)
        scores = np.einsum("ij,ij->i", g, g)  # squared ||a_j^H R|| / ||a_j||
        j = int(scores.argmax())
        if scores[j] <= 0:
            break
        selected.append(j)
        filters[j] = 0.0
        if rank == m:
            continue
        q, q_h = basis[:, :rank], basis_h[:rank]
        u = amat[:, j] - q @ (q_h @ amat[:, j])
        u -= q @ (q_h @ u)
        u_norm = math.sqrt(np.vdot(u, u).real)
        if u_norm <= span_tol * col_norms[j]:
            continue
        u /= u_norm
        basis[:, rank] = u
        basis_h[rank] = u.conj()
        resid -= u[:, None] * (basis_h[rank] @ resid)
        rank += 1
    return SliceSupport(selected)


def radar_slice_support(f_r: FrequencySet, grid: GridSpec) -> SliceSupport:
    """Slice indices a transmission on bands f_r can reach, mirrors included.

    Slice n is hit by a band of width b centered at f_ctr exactly when
    |slice_center(n) - f_ctr| < (f_s + b) / 2, evaluated for the bands and
    their negative-frequency images.
    """
    half_nyq = grid.f_nyq / 2.0
    if not f_r.within(-half_nyq, half_nyq, tol=1e-9 * grid.f_nyq):
        raise ValueError("bands outside the receiver Nyquist range")
    two_sided = f_r.union(f_r.mirrored())
    n = np.arange(grid.n_slices)
    centers = grid.slice_center(n)
    hit = np.zeros(grid.n_slices, dtype=bool)
    for iv in two_sided:
        hit |= np.abs(centers - iv.center) < (grid.f_s + iv.width) / 2.0
    return SliceSupport(np.flatnonzero(hit))


@dataclass(frozen=True)
class SliceEstimate:
    """Recovered slice stack; rows outside the support are identically zero."""

    x_hat: np.ndarray
    support: SliceSupport
    grid: GridSpec

    def __post_init__(self) -> None:
        x = np.asarray(self.x_hat, dtype=np.complex128).copy()
        if x.shape != (self.grid.n_slices, self.grid.n_grid):
            raise ValueError("x_hat shape does not match grid")
        x.flags.writeable = False
        object.__setattr__(self, "x_hat", x)


def recover_slices(z: ChannelSamples, a: SensingMatrix, s: SliceSupport) -> SliceEstimate:
    """Least-squares slice contents on a known support, zero elsewhere.

    A support wider than the channel count is underdetermined; the
    minimum-norm solution is returned so downstream energy ranking still
    works on over-complete greedy supports.
    """
    s.validate(a.n)
    x_hat = np.zeros((a.n, z.z.shape[1]), dtype=np.complex128)
    if len(s) > 0:
        cols = s.to_array()
        sub = a.a[:, cols]
        if np.linalg.matrix_rank(sub) < min(len(s), a.m):
            raise ValueError("sensing columns on the support are rank-deficient")
        sol, *_ = np.linalg.lstsq(sub, z.z, rcond=None)
        x_hat[cols] = sol
    grid = z.grid
    return SliceEstimate(x_hat=x_hat, support=s, grid=grid)


def support_to_freqs(s: SliceSupport, grid: GridSpec) -> FrequencySet:
    """Frequency content implied by a slice support: one f_p-wide interval per slice."""
    s.validate(grid.n_slices)
    return FrequencySet(
        (grid.slice_center(i) - grid.f_p / 2.0, grid.slice_center(i) + grid.f_p / 2.0)
        for i in s
    )


def refine_support_by_energy(
    est: SliceEstimate,
    s: SliceSupport,
    grid: GridSpec,
    thresh_db: float,
) -> FrequencySet:
    """Tighten slice-level support to sub-slice intervals by PSD thresholding.

    Bins whose PSD stays within thresh_db of the peak over the scanned slices
    are kept; contiguous kept runs become intervals. thresh_db = inf keeps
    whole slices and reduces to support_to_freqs granularity.
    """
    s.validate(grid.n_slices)
    if not s:
        return FrequencySet()
    psd = np.abs(est.x_hat) ** 2
    rows = s.to_array()
    ref = float(psd[rows].max())
    freqs = grid.slice_freqs()
    half_bin = grid.delta_f / 2.0
    intervals: list[FrequencyInterval] = []
    for i in rows:
        if math.isinf(thresh_db):
            keep = np.ones(grid.n_grid, dtype=bool)
        else:
            cutoff = ref * 10.0 ** (-thresh_db / 10.0)
            keep = psd[i] >= cutoff if cutoff > 0 else psd[i] > 0
        if not keep.any():
            continue
        center = grid.slice_center(int(i))
        edges = np.flatnonzero(np.diff(np.concatenate(([0], keep.view(np.int8), [0]))))
        for lo_idx, hi_idx in zip(edges[::2], edges[1::2]):
            intervals.append(
                FrequencyInterval(
                    center + freqs[lo_idx] - half_bin,
                    center + freqs[hi_idx - 1] + half_bin,
                )
            )
    return FrequencySet(intervals)


def nyquist_reconstruct(est: SliceEstimate, grid: GridSpec) -> np.ndarray:
    """Dense-rate time samples of the recovered signal.

    Each slice is an f_s-wide piece of spectrum at its slice center; placing
    the pieces on the dense global grid and inverting yields the time signal
    at rate dense_size * delta_f, the discrete equivalent of interpolating
    the per-slice sequences and remodulating by the slice carriers.
    """
    dense = dense_from_slices(est.x_hat, grid)
    full = np.zeros(grid.dense_size, dtype=np.complex128)
    pos = (np.arange(grid.dense_size) + grid.dense_offset) % grid.dense_size
    full[pos] = dense
    return np.fft.ifft(full) * grid.dense_size


@dataclass(frozen=True)
class SensingResult:
    """Outcome of one sensing pass."""

    support: SliceSupport
    comm_support: SliceSupport
    f_c: FrequencySet
    estimate: SliceEstimate
    frame_rank: int


def sense_spectrum(
    z: ChannelSamples,
    a: SensingMatrix,
    grid: GridSpec,
    s_r: SliceSupport = SliceSupport(),
    n_sig_cap: int = 2,
    res_tol: float = 1e-6,
    eig_tol: float = 1e-6,
    refine_db: float | None = None,
) -> SensingResult:
    """Full sensing pass: frame, support recovery seeded with the radar
    slices, symmetrization, slice reconstruction, and carrier readout.

    Each of the n_sig_cap transmissions can occupy up to four slices (two
    spectral sides, possible boundary straddling), which sets the greedy
    budget.
    """
    frame = build_frame(z, eig_tol=eig_tol)
    support = omp_pks(frame, a, s_r, k_extra=4 * n_sig_cap, res_tol=res_tol)
    support = support.symmetrized(grid.n_slices)
    est = recover_slices(z, a, support)
    comm = support.difference(s_r)
    if refine_db is None:
        f_c = support_to_freqs(comm, grid)
    else:
        f_c = refine_support_by_energy(est, comm, grid, refine_db)
    return SensingResult(
        support=support,
        comm_support=comm,
        f_c=f_c,
        estimate=est,
        frame_rank=frame.rank,
    )
