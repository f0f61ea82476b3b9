"""Interference-aware selection of radar transmit bands.

A radio environment map (REM) scores interference energy per candidate band
across the shared span. Bands occupied by detected communication signals are
masked outright; the remaining preferences are inverted (quiet bands score
high) and a block-sparse greedy pursuit picks a support of at most n_b
contiguous blocks, trading fit against a structured coding complexity
c(F) = g ln(p) + |F| with g the block count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .freqs import FrequencySet, frozen, mask_runs

__all__ = [
    "RemGrid",
    "MappingMatrix",
    "BlockSparseVector",
    "BandSelectionError",
    "mask_comm",
    "struct_omp",
    "count_blocks",
    "select_bands",
]

EPS_REM = 1e-12


class BandSelectionError(ValueError):
    """Raised when the REM cannot supply the requested number of bands."""

    def __init__(self, message: str, feasible_blocks: int = 0):
        super().__init__(message)
        self.feasible_blocks = feasible_blocks


@dataclass(frozen=True, eq=False)
class RemGrid:
    """Interference energies on q uniform bands of width b_y.

    The grid spans a contiguous window of width q * b_y centered at zero (the
    radar's baseband frame); band i covers [i b_y - span/2, (i+1) b_y - span/2).
    Entries are nonnegative; +inf marks an unusable band.
    """

    energies: np.ndarray
    b_y: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "energies", e := frozen(self.energies, float))
        if e.ndim != 1 or e.size < 1:
            raise ValueError("energies must be a nonempty 1-D array")
        if np.any(np.isnan(e)) or np.any(e < 0):
            raise ValueError("energies must be nonnegative (inf allowed)")
        if self.b_y <= 0:
            raise ValueError("b_y must be positive")

    @property
    def q(self) -> int:
        return self.energies.size

    @property
    def width(self) -> float:
        return self.q * self.b_y

    @property
    def span(self) -> FrequencySet:
        return FrequencySet([(-self.width / 2.0, self.width / 2.0)])


def mask_comm(rem: RemGrid, f_c: FrequencySet) -> RemGrid:
    """Set REM entries to +inf on every band intersecting the comm support.

    A band meets an interval of f_c in positive measure exactly when each
    starts below the other's end.
    """
    energies = np.array(rem.energies)
    lo = np.arange(rem.q) * rem.b_y - rem.width / 2.0
    hi = lo + rem.b_y
    hit = np.zeros(rem.q, dtype=bool)
    for iv in f_c:
        hit |= (lo < iv.hi) & (iv.lo < hi)
    energies[hit] = np.inf
    return RemGrid(energies=energies, b_y=rem.b_y)


@dataclass(frozen=True, eq=False)
class MappingMatrix:
    """Binary map from p selectable frequencies to q REM bands.

    Each column carries exactly one 1: selectable frequency j contributes to
    a single band. The identity map (p = q) selects whole REM bands.
    """

    d: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", d := frozen(self.d, float))
        if d.ndim != 2:
            raise ValueError("d must be 2-D")
        if not np.all((d == 0) | (d == 1)):
            raise ValueError("d must be binary")
        if not np.all(d.sum(axis=0) == 1):
            raise ValueError("each column must map to exactly one band")

    @property
    def q(self) -> int:
        return self.d.shape[0]

    @property
    def p(self) -> int:
        return self.d.shape[1]

    def band_of(self) -> np.ndarray:
        return np.argmax(self.d, axis=0)

    @classmethod
    def identity(cls, q: int) -> "MappingMatrix":
        return cls(np.eye(q))


@dataclass(frozen=True, eq=False)
class BlockSparseVector:
    """Selection weights over the p selectable frequencies plus the block width."""

    w: np.ndarray
    b_w: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", frozen(self.w, float))
        if self.w.ndim != 1:
            raise ValueError("w must be 1-D")

    @property
    def blocks(self) -> int:
        return count_blocks(self.w)


def count_blocks(w: np.ndarray | Sequence[float]) -> int:
    """Number of contiguous nonzero runs."""
    return len(mask_runs(np.asarray(w) != 0))


def struct_omp(
    y_inv: np.ndarray,
    d: MappingMatrix,
    n_b: int,
    span_width: float,
) -> tuple[BlockSparseVector, FrequencySet]:
    """Greedy block-structured pursuit of the inverted REM.

    Each step scores candidate frequency i by the residual energy its band
    explains divided by the coding-complexity increment of adding i, selects
    the best (ties to the lowest index), and zeroes its band in the residual.
    Every column of d holds a single 1, so that residual is exactly the
    least-squares residual of the selected support, and the minimum-norm
    weight of a selected column is its band's value shared equally among
    the selected columns in that band. Growth stops when a selection would
    create block n_b + 1 (that index is dropped) or when no candidate
    reduces the residual.

    Masked frequencies (preference 0) are never selected, so the returned
    band set avoids the communication support by construction. Raises
    BandSelectionError when fewer than n_b usable regions exist.
    """
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
    b_w = span_width / p

    support: list[int] = []
    in_support = np.zeros(p, dtype=bool)
    neighbours = np.zeros(p, dtype=np.intp)
    resid = y_inv.copy()
    log_p = math.log(p)
    # complexity increment by selected-neighbour count: a new block, an
    # extension, or a merge of two blocks
    delta_c = np.array([dg * log_p + 1.0 for dg in (1, 0, -1)])
    blocks = 0

    while len(support) < p:
        gains = resid[band_of] ** 2 / delta_c[neighbours]
        gains[in_support] = -np.inf
        best = int(np.argmax(gains))
        if gains[best] <= 1e-300:
            break
        if blocks + 1 - neighbours[best] > n_b:
            break
        blocks += 1 - int(neighbours[best])
        support.append(best)
        in_support[best] = True
        if best > 0:
            neighbours[best - 1] += 1
        if best + 1 < p:
            neighbours[best + 1] += 1
        resid[band_of[best]] = 0.0

    if blocks < n_b:
        raise BandSelectionError(
            f"only {blocks} usable regions available, {n_b} bands requested",
            feasible_blocks=blocks,
        )

    w = np.zeros(p)
    sel = np.asarray(support)
    sel_bands = band_of[sel]
    w[sel] = y_inv[sel_bands] / np.bincount(sel_bands, minlength=d.q)[sel_bands]

    half = span_width / 2.0
    intervals = [(lo * b_w - half, hi * b_w - half) for lo, hi in mask_runs(in_support)]
    return BlockSparseVector(w=w, b_w=b_w), FrequencySet(intervals)


def select_bands(
    rem: RemGrid, f_c: FrequencySet, n_b: int
) -> tuple[BlockSparseVector, FrequencySet]:
    """Mask, invert, and run the block pursuit in one step.

    REM energies are floored at EPS_REM so measured maps with zeros stay
    usable, then inverted to preferences 1 / energy, which is 0 on the
    masked (inf) bands. The pursuit selects whole REM bands (identity map).
    """
    y_inv = 1.0 / np.maximum(mask_comm(rem, f_c).energies, EPS_REM)
    return struct_omp(y_inv, MappingMatrix.identity(rem.q), n_b, span_width=rem.width)
