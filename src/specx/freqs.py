"""Frequency-interval set algebra, sampling-grid bookkeeping, and the index
sets built on them: spectrum-slice supports and radar coefficient sets.

All frequencies are in Hz. Spectra are two-sided: a real signal occupying
[lo, hi) also occupies [-hi, -lo). Intervals are half-open so that abutting
bands merge cleanly and points sit in exactly one interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "FrequencyInterval",
    "FrequencySet",
    "GridSpec",
    "KappaSet",
    "SliceSupport",
    "slice_count",
]

# relative guard against float fuzz when a ratio lands exactly on an integer
_REL_EPS = 1e-9


@dataclass(frozen=True, order=True)
class FrequencyInterval:
    """Half-open interval [lo, hi) on the frequency axis."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"empty or inverted interval [{self.lo}, {self.hi})")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)


class FrequencySet:
    """Finite union of disjoint half-open intervals, kept sorted and merged.

    Construction normalizes: overlapping or exactly abutting intervals are
    merged, so two FrequencySets covering the same points compare equal.
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[FrequencyInterval | Sequence[float]] = ()):
        items = []
        for iv in intervals:
            if not isinstance(iv, FrequencyInterval):
                lo, hi = iv
                iv = FrequencyInterval(float(lo), float(hi))
            items.append(iv)
        items.sort()
        merged: list[FrequencyInterval] = []
        for iv in items:
            if merged and iv.lo <= merged[-1].hi:
                last = merged[-1]
                if iv.hi > last.hi:
                    merged[-1] = FrequencyInterval(last.lo, iv.hi)
            else:
                merged.append(iv)
        object.__setattr__(self, "_intervals", tuple(merged))

    def __setattr__(self, name, value):
        raise AttributeError("FrequencySet is immutable")

    def __reduce__(self):  # pickle and copy rebuild it through __init__
        return (FrequencySet, (self._intervals,))

    @property
    def intervals(self) -> tuple[FrequencyInterval, ...]:
        return self._intervals

    def __iter__(self) -> Iterator[FrequencyInterval]:
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FrequencySet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:
        body = ", ".join(f"[{iv.lo:g}, {iv.hi:g})" for iv in self._intervals)
        return f"FrequencySet({body})"

    def measure(self) -> float:
        """Total width in Hz (Lebesgue measure)."""
        return sum(iv.width for iv in self._intervals)

    def union(self, other: "FrequencySet") -> "FrequencySet":
        return FrequencySet(self._intervals + other._intervals)

    def intersection(self, other: "FrequencySet") -> "FrequencySet":
        out = []
        for a in self._intervals:
            for b in other._intervals:
                lo = max(a.lo, b.lo)
                hi = min(a.hi, b.hi)
                if lo < hi:
                    out.append(FrequencyInterval(lo, hi))
        return FrequencySet(out)

    def contains_array(self, f: np.ndarray) -> np.ndarray:
        """Vectorized membership test on an array of frequencies."""
        mask = np.zeros(np.shape(f), dtype=bool)
        for iv in self._intervals:
            mask |= (f >= iv.lo) & (f < iv.hi)
        return mask

    def shifted(self, df: float) -> "FrequencySet":
        return FrequencySet((iv.lo + df, iv.hi + df) for iv in self._intervals)

    def mirrored(self) -> "FrequencySet":
        """Reflection through f = 0 (the negative-frequency image)."""
        return FrequencySet((-iv.hi, -iv.lo) for iv in self._intervals)

    def within(self, lo: float, hi: float, tol: float = 0.0) -> bool:
        return all(iv.lo >= lo - tol and iv.hi <= hi + tol for iv in self._intervals)

    def to_pairs(self) -> list[list[float]]:
        """Serialize as [[lo_hz, hi_hz], ...] for configs and reports."""
        return [[iv.lo, iv.hi] for iv in self._intervals]


def slice_count(f_nyq: float, f_s: float, f_p: float) -> int:
    """Number of spectrum slices needed to cover the Nyquist span.

    N = 2 * ceil((f_nyq + f_s) / (2 f_p)); always even, so the slice with
    index N/2 is the baseband slice.
    """
    if f_p <= 0 or f_s <= 0 or f_nyq <= 0:
        raise ValueError("rates must be positive")
    ratio = (f_nyq + f_s) / (2.0 * f_p)
    return 2 * math.ceil(ratio - _REL_EPS * max(1.0, ratio))


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the analog model.

    The two-sided input band is [-f_nyq/2, f_nyq/2]. Each of the n_slices
    spectrum slices is f_p wide with center (i - n_slices/2) * f_p for slice
    index i in {0..n_slices-1}; n_slices is derived from the rates
    (slice_count). Within a slice, spectra are sampled on n_grid bins
    spanning [-f_s/2, f_s/2). A single dense frequency grid of spacing
    f_s/n_grid underlies all slices, which requires f_p to be an integer
    number of dense bins.
    """

    f_nyq: float
    f_p: float
    f_s: float
    n_grid: int
    n_slices: int = field(init=False)

    def __post_init__(self) -> None:
        if self.f_p <= 0 or self.f_nyq <= 0:
            raise ValueError("f_nyq and f_p must be positive")
        if self.f_s < self.f_p:
            raise ValueError(f"f_s ({self.f_s}) must be >= f_p ({self.f_p})")
        if self.n_grid < 2 or self.n_grid % 2:
            raise ValueError("n_grid must be even and >= 2")
        object.__setattr__(self, "n_slices", slice_count(self.f_nyq, self.f_s, self.f_p))
        step = self.f_p / self.delta_f
        if abs(step - round(step)) > _REL_EPS * self.n_grid:
            raise ValueError("f_p must be an integer multiple of f_s/n_grid")

    # -- derived geometry ---------------------------------------------------

    @property
    def delta_f(self) -> float:
        """Dense grid spacing in Hz."""
        return self.f_s / self.n_grid

    @property
    def slice_step(self) -> int:
        """Slice-to-slice offset in dense bins."""
        return round(self.f_p / self.delta_f)

    @property
    def center_slice(self) -> int:
        return self.n_slices // 2

    def slice_center(self, i: int | np.ndarray) -> float | np.ndarray:
        """Center frequency of slice i."""
        return (np.asarray(i) - self.center_slice) * self.f_p

    def slice_freqs(self) -> np.ndarray:
        """In-slice bin frequencies spanning [-f_s/2, f_s/2)."""
        return (np.arange(self.n_grid) - self.n_grid // 2) * self.delta_f

    # -- dense global grid --------------------------------------------------

    @property
    def dense_size(self) -> int:
        return (self.n_slices - 1) * self.slice_step + self.n_grid

    @property
    def dense_offset(self) -> int:
        """Global bin index of dense position 0 (bin k sits at k * delta_f)."""
        return -(self.center_slice * self.slice_step) - self.n_grid // 2

    @cached_property
    def _dense_geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(frequencies, mirror positions, slice index map) of the dense grid,
        built on first use and kept read-only; every field they depend on is
        frozen, so they cannot go stale."""
        freqs = (np.arange(self.dense_size) + self.dense_offset) * self.delta_f
        mirror = self.mirror_position(np.arange(self.dense_size))
        rows = np.arange(self.n_slices)[:, None] * self.slice_step
        index_map = rows + np.arange(self.n_grid)[None, :]
        for arr in (freqs, mirror, index_map):
            arr.flags.writeable = False
        return freqs, mirror, index_map

    def dense_freqs(self) -> np.ndarray:
        """Frequency of every dense position (read-only)."""
        return self._dense_geometry[0]

    def dense_mirror(self) -> np.ndarray:
        """mirror_position of every dense position (read-only)."""
        return self._dense_geometry[1]

    def dense_index_map(self) -> np.ndarray:
        """(n_slices, n_grid) array of dense positions backing each slice bin
        (read-only)."""
        return self._dense_geometry[2]

    def mirror_position(self, pos: np.ndarray) -> np.ndarray:
        """Dense position holding -f for the position holding f.

        Returns -1 where the mirror falls off the grid (only possible beyond
        the Nyquist band).
        """
        mirror = -2 * self.dense_offset - np.asarray(pos)
        ok = (mirror >= 0) & (mirror < self.dense_size)
        return np.where(ok, mirror, -1)


@dataclass(frozen=True)
class SliceSupport:
    """Sorted set of active slice indices in {0..n_slices-1}."""

    indices: tuple[int, ...]

    def __init__(self, indices: Iterable[int] = ()):
        uniq = tuple(sorted({int(i) for i in indices}))
        if uniq and uniq[0] < 0:
            raise ValueError("slice indices must be nonnegative")
        object.__setattr__(self, "indices", uniq)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, i: int) -> bool:
        return i in set(self.indices)

    def __bool__(self) -> bool:
        return bool(self.indices)

    def validate(self, n_slices: int) -> "SliceSupport":
        if self.indices and self.indices[-1] >= n_slices:
            raise ValueError(f"slice index {self.indices[-1]} out of range (N={n_slices})")
        return self

    def union(self, other: "SliceSupport") -> "SliceSupport":
        return SliceSupport(self.indices + other.indices)

    def difference(self, other: "SliceSupport") -> "SliceSupport":
        drop = set(other.indices)
        return SliceSupport(i for i in self.indices if i not in drop)

    def intersection(self, other: "SliceSupport") -> "SliceSupport":
        keep = set(other.indices)
        return SliceSupport(i for i in self.indices if i in keep)

    def symmetrized(self, n_slices: int) -> "SliceSupport":
        """Add the mirror slice N - i of every member.

        Slice i and N - i hold conjugate content for a real signal. Index 0
        has no in-range mirror and is kept alone.
        """
        self.validate(n_slices)
        out = set(self.indices)
        for i in self.indices:
            j = n_slices - i
            if 0 <= j < n_slices:
                out.add(j)
        return SliceSupport(out)

    def to_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=int)


@dataclass(frozen=True)
class KappaSet:
    """Fourier-coefficient indices retained by the receiver.

    indices are nonnegative DFT indices in {0..n-1}; n is the delay-grid size
    (pri * b_h bins). Centered (physical) indices follow the usual aliasing
    k_c = ((k + n/2) mod n) - n/2, so frequencies are k_c / pri.
    """

    indices: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        idx = tuple(sorted(set(int(i) for i in self.indices)))
        if self.n < 2 or self.n % 2:
            raise ValueError("n must be even and >= 2")
        if idx and (idx[0] < 0 or idx[-1] >= self.n):
            raise ValueError("kappa indices out of range")
        if not idx:
            raise ValueError("kappa is empty")
        object.__setattr__(self, "indices", idx)

    @property
    def k(self) -> int:
        return len(self.indices)

    def centered(self) -> np.ndarray:
        k = np.asarray(self.indices)
        return ((k + self.n // 2) % self.n) - self.n // 2

    def to_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=int)
