"""Combinatorics of the invariant coordinate set.

Holds the permutation structure (which coordinates may be exchanged), exact
multiplicity counts of multi-indices, canonical sorted representatives, and
the Ryser permanent engine used for symmetrized product sums.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "PermStructure",
    "multiplicity",
    "normalize_to_nabla",
    "permanent_batch",
    "permanent_bounds",
    "PermanentBounds",
    "PermanentCapError",
    "PERMANENT_CAP",
]

# Ryser with 2^s subsets stays sub-second in compiled code up to s = 24; the
# pure-Python loop here is comfortable to s ~ 20.  Callers hitting the cap
# should fall back to truncated spectral sums.
PERMANENT_CAP = 24
_UNIT_ROUNDOFF = 2.0 ** -53


def _gamma(k: int) -> float:
    """Higham's gamma_k = k*u / (1 - k*u) for the float64 unit roundoff u."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _frac(t):
    """Fractional part t - floor(t) in [0, 1], bitwise equal to
    np.mod(t, 1.0) and many times faster.  Exact for t >= 0; for t < 0 the
    exact value is rounded once, to 1.0 when -u/2 <= t < 0."""
    return t - np.floor(t)


class PermanentCapError(ValueError):
    """Invariant block too large for dense permanent evaluation."""


@dataclass(frozen=True)
class PermStructure:
    """Dimension d with a set of mutually exchangeable coordinates (1-based)."""

    d: int
    invariant: tuple[int, ...] = ()

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        inv = tuple(sorted(set(int(i) for i in self.invariant)))
        if inv != tuple(self.invariant):
            object.__setattr__(self, "invariant", inv)
        if self.invariant and (self.invariant[0] < 1 or self.invariant[-1] > self.d):
            raise ValueError("invariant coordinates must lie in {1..d}")

    @staticmethod
    def full(d: int) -> "PermStructure":
        return PermStructure(d, tuple(range(1, d + 1)))

    @staticmethod
    def empty(d: int) -> "PermStructure":
        return PermStructure(d, ())

    @property
    def size(self) -> int:
        """Number of exchangeable coordinates."""
        return len(self.invariant)

    @property
    def group_order(self) -> int:
        """Exact order of the coordinate-exchange group (big integer)."""
        return math.factorial(self.size)

    @property
    def invariant_idx(self) -> np.ndarray:
        """Zero-based numpy index array of the invariant coordinates."""
        return np.asarray([i - 1 for i in self.invariant], dtype=np.intp)

    @property
    def free_idx(self) -> np.ndarray:
        """Zero-based indices of the non-exchangeable coordinates."""
        inv = set(self.invariant)
        return np.asarray([i for i in range(self.d) if i + 1 not in inv], dtype=np.intp)


def multiplicity(k: Sequence[int], ps: PermStructure) -> int:
    """Number of admissible coordinate exchanges fixing the multi-index k.

    Equals the product of c! over the repetition counts c of values appearing
    among the exchangeable coordinates of k; exact big integer.
    """
    k = tuple(k)
    if len(k) != ps.d:
        raise ValueError(f"k has length {len(k)}, expected {ps.d}")
    counts: dict[int, int] = {}
    for i in ps.invariant:
        v = k[i - 1]
        counts[v] = counts.get(v, 0) + 1
    out = 1
    for c in counts.values():
        out *= math.factorial(c)
    return out


def normalize_to_nabla(k: Sequence[int], ps: PermStructure) -> tuple[int, ...]:
    """Canonical orbit representative: exchangeable coordinates sorted ascending."""
    k = list(k)
    if len(k) != ps.d:
        raise ValueError(f"k has length {len(k)}, expected {ps.d}")
    vals = sorted(k[i - 1] for i in ps.invariant)
    for i, v in zip(ps.invariant, vals):
        k[i - 1] = v
    return tuple(k)


def _gray_code(s: int):
    """Ryser's walk over the nonempty column sets S of an s x s matrix in
    Gray-code order: each step adds or removes one column.  Yields
    (column, added, |S|) per step; both permanent passes take this order."""
    mask = 0
    size = 0
    for code in range(1, 1 << s):
        j = (code & -code).bit_length() - 1
        bit = 1 << j
        added = not mask & bit
        size += 1 if added else -1
        mask ^= bit
        yield j, added, size


def _check_cap(s: int) -> None:
    if s > PERMANENT_CAP:
        raise PermanentCapError(
            f"invariant block of size {s} exceeds the permanent cap {PERMANENT_CAP}; "
            "use the truncated spectral evaluation instead"
        )


def permanent_batch(A) -> np.ndarray:
    """Permanents of a stack of square matrices, shape (batch, s, s).

    The per(A)-only Ryser pass: the same Gray-code order and the same
    arithmetic on per(A) as ``permanent_bounds``, so the two results are
    bitwise equal, without the |A| row sums, the padded terms and the
    rounding sum.  Eigenfunction values use it; their phases have modulus
    one, so per(|A|) would be s! exactly.  The loop runs batch-last, on
    ``A`` with its batch axis moved last: a batch-last array passed through
    ``np.moveaxis(B, -1, 0)`` is read without a copy.
    """
    A = np.asarray(A)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError("A must have shape (batch, s, s)")
    b, s, _ = A.shape
    _check_cap(s)
    dtype = A.dtype if A.dtype.kind in "cf" else np.float64
    if s == 0:
        return np.ones(b, dtype=dtype)
    cols = np.moveaxis(A, 0, -1)
    per = np.zeros(b, dtype=dtype)
    row = np.zeros((s, b), dtype=dtype)
    term = np.empty(b, dtype=dtype)
    for j, added, size in _gray_code(s):
        if added:
            row += cols[:, j]
        else:
            row -= cols[:, j]
        np.multiply.reduce(row, axis=0, out=term)
        if size & 1:
            per -= term
        else:
            per += term
    return -per if s & 1 else per


class PermanentBounds(NamedTuple):
    """Per-matrix results of one fused Ryser pass over a batch-last stack."""

    per: np.ndarray       # per(A)
    per_abs: np.ndarray   # per(|A|)
    per_pad: np.ndarray   # per(|A| + c), c added to every entry
    rounding: np.ndarray  # bound on the rounding error of each of the three


def permanent_bounds(A, c: float = 0.0) -> PermanentBounds:
    """Ryser permanents of a batch-last stack A of shape (s, s, batch).

    One Gray-code pass over the 2^s column sets S yields per(A), per(|A|)
    and per(|A| + c).  The row sums of |A| + c over S are the row sums of |A|
    plus c*|S|, so the padded permanent costs no extra row updates.

    ``rounding`` is gamma_k * sum_S prod_i (rowabs_i(S) + c*|S|),
    gamma_k = k*u/(1 - k*u) with k = 2s + 2^s: the standard bound for the
    signed sum of the 2^s - 1 terms, each a product of s row sums, when every
    row sum is treated as accumulated in at most 2^s additions (the Gray-code
    updates).  The padded terms dominate the others, so it bounds the
    rounding of per(A), per(|A|) and per(|A| + c) alike.
    """
    A = np.asarray(A)
    if A.ndim != 3 or A.shape[0] != A.shape[1]:
        raise ValueError("A must have shape (s, s, batch)")
    s, _, b = A.shape
    _check_cap(s)
    dtype = A.dtype if A.dtype.kind in "cf" else np.float64
    if s == 0:
        return PermanentBounds(np.ones(b, dtype=dtype), np.ones(b), np.ones(b), np.zeros(b))
    absA = np.abs(A).astype(float, copy=False)
    row = np.zeros((s, b), dtype=dtype)
    rowabs = np.zeros((s, b))
    padded = np.empty((s, b))
    term_abs = np.empty(b)
    term_pad = np.empty(b)
    per = np.zeros(b, dtype=dtype)
    per_abs = np.zeros(b)
    per_pad = np.zeros(b)
    unsigned = np.zeros(b)
    for j, added, size in _gray_code(s):
        if added:
            row += A[:, j]
            rowabs += absA[:, j]
        else:
            row -= A[:, j]
            rowabs -= absA[:, j]
        term = np.prod(row, axis=0)
        np.multiply.reduce(rowabs, axis=0, out=term_abs)
        np.add(rowabs, c * size, out=padded)
        np.multiply.reduce(padded, axis=0, out=term_pad)
        unsigned += term_pad
        if size & 1:
            per -= term
            per_abs -= term_abs
            per_pad -= term_pad
        else:
            per += term
            per_abs += term_abs
            per_pad += term_pad
    if s & 1:
        per, per_abs, per_pad = -per, -per_abs, -per_pad
    return PermanentBounds(per, per_abs, per_pad, _gamma(2 * s + (1 << s)) * unsigned)
