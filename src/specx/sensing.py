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
from typing import NamedTuple, Sequence

import numpy as np

from .freqs import FrequencyInterval, FrequencySet, GridSpec, SliceSupport
from .mwc import ChannelSamples, SensingMatrix

__all__ = [
    "FrameMatrix",
    "SliceEstimate",
    "SensingResult",
    "build_frame",
    "somp",
    "omp_pks",
    "omp_pks_batch",
    "radar_slice_support",
    "recover_slices",
    "recover_slices_batch",
    "support_to_freqs",
    "refine_support_by_energy",
    "sense_spectrum",
]

_COND_LIMIT = 1e12
# a frame keeps eigen-directions above this times the largest eigenvalue
_EIG_TOL = 1e-6
# a greedy pursuit stops once its residual falls below this times ||V||
_RES_TOL = 1e-6
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


def build_frame(z: ChannelSamples) -> FrameMatrix:
    """Eigendecompose Q = sum_n z[n] z[n]^H and keep the significant directions.

    Eigenvalues above 1e-6 times the largest survive; V scales the kept
    eigenvectors by sqrt(eigenvalue) so V V^H = Q on the retained subspace.
    An all-zero input yields a rank-0 frame.
    """
    zz = z.z
    q = zz @ zz.conj().T
    if not np.any(q):
        return FrameMatrix(np.zeros((z.m, 0), dtype=np.complex128))
    w, u = np.linalg.eigh(q)
    w = np.maximum(w, 0.0)
    keep = w > _EIG_TOL * w[-1]
    # descending eigenvalue order for a stable column layout
    order = np.argsort(w[keep])[::-1]
    v = u[:, keep][:, order] * np.sqrt(w[keep][order])
    return FrameMatrix(v)


def somp(v: FrameMatrix, a: SensingMatrix, max_sparsity: int) -> SliceSupport:
    """Simultaneous OMP over the MMV system V = A U: omp_pks with no known
    support and a budget of max_sparsity columns, as a one-frame call of
    omp_pks_batch.

    Greedily adds the column most correlated with the residual (ties break to
    the lowest index), projects its new direction out of the residual, and
    stops at max_sparsity columns or when the residual Frobenius norm drops
    below 1e-6 times ||V||.
    """
    if max_sparsity < 0 or max_sparsity > a.n:
        raise ValueError("max_sparsity out of range")
    return omp_pks_batch([v], a, SliceSupport(), max_sparsity)[0]


def omp_pks(v: FrameMatrix, a: SensingMatrix, s_r: SliceSupport, k_extra: int) -> SliceSupport:
    """OMP with partially known support, as a one-frame call of omp_pks_batch.

    The known indices s_r enter the support unconditionally and their span is
    projected out of V before any greedy step; ordinary OMP then adds at most
    k_extra further columns, stopping early once the residual Frobenius norm
    drops below 1e-6 times ||V||. The residual is always V minus its projection
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
    return omp_pks_batch([v], a, s_r, k_extra)[0]


class _Stack(NamedTuple):
    """Pursuits that run in step: their frames have one rank and their bases
    `rank` columns, so each array holds one entry per pursuit along axis 0."""

    ids: np.ndarray  # the frames' positions in the caller's list
    tols: np.ndarray  # the stop level of each, 1e-6 times ||V||
    rank: int
    resid: np.ndarray  # the residuals
    basis: np.ndarray  # Q in the first `rank` columns
    basis_h: np.ndarray  # Q^H in the first `rank` rows
    filters: np.ndarray  # matched filters, a selected column's row zeroed

    def take(self, rows: np.ndarray) -> "_Stack":
        """The pursuits at rows (a mask or indices) of this stack."""
        return _Stack(
            self.ids[rows], self.tols[rows], self.rank,
            self.resid[rows], self.basis[rows], self.basis_h[rows], self.filters[rows],
        )


def omp_pks_batch(
    frames: Sequence[FrameMatrix], a: SensingMatrix, s_r: SliceSupport, k_extra: int
) -> list[SliceSupport]:
    """omp_pks on every frame in frames, run as one stacked pursuit; returns
    one support per frame.

    Pursuits whose frames have equal rank and whose bases equal column
    counts run in step. Each greedy step is one stacked matched-filter
    product, one score sum over stacked rows, one argmax per row and one
    stacked Gram-Schmidt pass, each pursuit against its own basis. A
    pursuit leaves its stack when it stops; where a new column lies in the
    span of a pursuit's basis, or the basis is full, the pursuit goes on in
    a stack of its own rank. Every pursuit does the float operations a lone
    omp_pks does, on the same operands at the same strides, so each support
    is the one omp_pks returns for its frame.
    """
    amat = a.a
    m, n = amat.shape
    if any(v.m != m for v in frames):
        raise ValueError("frame and sensing matrix row counts differ")
    s_r.validate(n)
    if m < len(s_r) + 1:
        raise ValueError(f"need at least {len(s_r) + 1} channels, have {m}")
    if k_extra < 0:
        raise ValueError("k_extra must be nonnegative")

    known = list(s_r)
    picks: list[list[int]] = [[] for _ in frames]
    v_norms = np.array([np.linalg.norm(v.v) for v in frames])
    by_rank: dict[int, list[int]] = {}
    for t, v in enumerate(frames):
        if v_norms[t] != 0 and v.rank != 0:
            by_rank.setdefault(v.rank, []).append(t)
    if by_rank and known:
        cond, q = a.column_basis(s_r)
        if cond > _COND_LIMIT:
            raise ValueError("known-support columns are ill-conditioned")

    stacks = []
    rank = len(known)
    for ids in by_rank.values():
        vv = np.stack([frames[t].v for t in ids])
        basis = np.empty((len(ids), m, m), dtype=np.complex128)
        basis_h = np.empty((len(ids), m, m), dtype=np.complex128)
        if known:
            basis[:, :, :rank] = q
            basis_h[:, :rank] = basis[:, :, :rank].conj().transpose(0, 2, 1)
            resid = vv - basis[:, :, :rank] @ (basis_h[:, :rank] @ vv)
        else:
            resid = vv
        filters = np.repeat(a.matched_filters[None], len(ids), axis=0)
        filters[:, known] = 0.0
        ids = np.array(ids)
        stacks.append(_Stack(ids, _RES_TOL * v_norms[ids], rank, resid, basis, basis_h, filters))

    for _ in range(k_extra):
        stacks = [out for st in stacks for out in _greedy_step(st, a, picks)]
        if not stacks:
            break
    return [SliceSupport(known + p) for p in picks]


def _norms(x: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each x[i], as sqrt(vdot(x[i], x[i]).real)
    computes it (vecdot and vdot make the same BLAS call)."""
    flat = x.reshape(len(x), -1)
    return np.sqrt(np.vecdot(flat, flat).real)


def _greedy_step(st: _Stack, a: SensingMatrix, picks: list[list[int]]) -> list[_Stack]:
    """One greedy step of each pursuit in st; a pick goes to picks. Returns
    the stacks that go on, split by basis rank."""
    live = ~(_norms(st.resid) < st.tols)
    if not live.all():
        if not live.any():
            return []
        st = st.take(live)
    g = (st.filters @ st.resid).view(np.float64)
    scores = np.einsum("bij,bij->bi", g, g)  # squared ||a_j^H R|| / ||a_j||
    cols = scores.argmax(axis=1)
    rows = np.arange(len(cols))
    live = ~(scores[rows, cols] <= 0)
    if not live.all():
        if not live.any():
            return []
        st, cols = st.take(live), cols[live]
        rows = rows[: len(cols)]
    for t, j in zip(st.ids.tolist(), cols.tolist()):
        picks[t].append(j)
    st.filters[rows, cols] = 0.0
    rank, m = st.rank, a.m
    if rank == m:
        return [st]

    q, q_h = st.basis[:, :, :rank], st.basis_h[:, :rank]
    # the picked columns, n entries apart as in A: a BLAS dot product may
    # round differently at another stride, and Q^H a_j is one at rank 1
    a_j = np.empty((len(cols), m, a.n), dtype=np.complex128)[:, :, :1]
    a_j[:, :, 0] = a.a.T[cols]
    u = a_j - q @ (q_h @ a_j)
    u -= q @ (q_h @ u)
    u = u[:, :, 0]
    norms = _norms(u)
    in_span = norms <= _SPAN_TOL * m * a.col_norms[cols]
    out = []
    if in_span.any():
        out.append(st.take(in_span))
        if in_span.all():
            return out
        grow = ~in_span
        st, u, norms = st.take(grow), u[grow], norms[grow]
    u /= norms[:, None]
    st.basis[:, :, rank] = u
    st.basis_h[:, rank] = u.conj()
    resid = st.resid
    resid -= u[:, :, None] * (st.basis_h[:, rank : rank + 1] @ resid)
    out.append(st._replace(rank=rank + 1))
    return out


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
    """Least-squares slice contents on a known support, zero elsewhere, as
    a one-trial call of recover_slices_batch.

    A support wider than the channel count is underdetermined; the
    minimum-norm solution is returned so downstream energy ranking still
    works on over-complete greedy supports.
    """
    return recover_slices_batch([z], a, [s])[0]


def recover_slices_batch(
    zs: Sequence[ChannelSamples], a: SensingMatrix, supports: Sequence[SliceSupport]
) -> list[SliceEstimate]:
    """recover_slices on each (z, support) pair of zs and supports, whose
    sample sets share one grid; returns one estimate per pair.

    Pairs whose supports have one size k share one stacked SVD of their
    column blocks A[:, S] = U diag(sigma) V^H, and each solution is
    x = V (sigma^-1 (U^H z)), by stacked matmuls: the least-squares fit for
    k <= m and the minimum-norm one for k > m. Each pair's bits are those
    of its batch-of-one call. Raises if a block's smallest of min(k, m)
    singular values is at most eps * max(m, k) times its largest, the cut
    lstsq and matrix_rank make.
    """
    m, n = a.a.shape
    if len(zs) != len(supports):
        raise ValueError("need one support per sample set")
    for s in supports:
        s.validate(n)
    x_hat = np.zeros((len(zs), n, zs[0].z.shape[1] if zs else 0), dtype=np.complex128)
    by_size: dict[int, list[int]] = {}
    for b, s in enumerate(supports):
        if len(s) > 0:
            by_size.setdefault(len(s), []).append(b)
    eps = np.finfo(float).eps
    for k, ids in by_size.items():
        cols = np.array([supports[b].indices for b in ids])
        u, sigma, vh = np.linalg.svd(a.a.T[cols].transpose(0, 2, 1), full_matrices=False)
        if np.any(sigma[:, -1] <= eps * max(m, k) * sigma[:, 0]):
            raise ValueError("sensing columns on the support are rank-deficient")
        zz = np.stack([zs[b].z for b in ids])
        x_hat[np.array(ids)[:, None], cols] = vh.conj().transpose(0, 2, 1) @ (
            (u.conj().transpose(0, 2, 1) @ zz) / sigma[:, :, None]
        )
    return [
        SliceEstimate(x_hat=x, support=s, grid=z.grid)
        for x, s, z in zip(x_hat, supports, zs)
    ]


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


@dataclass(frozen=True)
class SensingResult:
    """Outcome of one sensing pass: the raw greedy support, radar slices
    included, and the refit on it; comm_support is support less the radar
    slices, symmetrized, and f_c its slice-granular frequency content,
    support_to_freqs(comm_support, grid)."""

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
) -> SensingResult:
    """Full sensing pass: frame, support recovery seeded with the radar
    slices, slice reconstruction on the raw greedy support, then the comm
    slices (the support less s_r, symmetrized) and their slice-granular
    frequency content.

    Each of the n_sig_cap transmissions can occupy up to four slices (two
    spectral sides, possible boundary straddling), which sets the greedy
    budget. The frame and the pursuit use their fixed tolerances (1e-6 of
    the largest eigenvalue, 1e-6 of ||V||). A mirror slice the pursuit
    did not pick has a zero row in the estimate. Pruning and sub-slice
    refinement are left to the caller, which reads them off the estimate
    (refine_support_by_energy).
    """
    frame = build_frame(z)
    support = omp_pks(frame, a, s_r, k_extra=4 * n_sig_cap)
    est = recover_slices(z, a, support)
    comm = support.difference(s_r).symmetrized(grid.n_slices)
    return SensingResult(
        support=support,
        comm_support=comm,
        f_c=support_to_freqs(comm, grid),
        estimate=est,
        frame_rank=frame.rank,
    )
