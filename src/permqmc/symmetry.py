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
    "multiplicity_array",
    "normalize_to_nabla",
    "permanent_batch",
    "permanent_bounds",
    "PermanentBounds",
    "PermanentCapError",
    "PERMANENT_CAP",
]

# Largest invariant block that a Ryser pass (2^s - 1 terms) accepts.  A
# larger one raises PermanentCapError, a ValueError, before any term is
# summed.  No route falls back to another evaluation: the error reaches the
# caller, and the CLI prints it and exits 2.
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


def multiplicity_array(h, ps: PermStructure) -> np.ndarray:
    """Multiplicity M(h)! of each row of an integer array h of shape (m, d):
    the number of admissible coordinate exchanges fixing the row, the
    product of c! over the repetition counts c of the values among its
    exchangeable coordinates.  A float array, exact for s <= 18, where
    s! < 2^53."""
    h = np.asarray(h, dtype=np.int64)
    if ps.size == 0:
        return np.ones(h.shape[0])
    inv_sorted = np.sort(h[:, ps.invariant_idx], axis=1)
    mult = np.ones(h.shape[0])
    run = np.ones(h.shape[0])
    for i in range(1, ps.size):
        eq = inv_sorted[:, i] == inv_sorted[:, i - 1]
        run = np.where(eq, run + 1, 1.0)
        mult = np.where(eq, mult * run, mult)
    return mult


def normalize_to_nabla(k: Sequence[int], ps: PermStructure) -> tuple[int, ...]:
    """Canonical orbit representative: exchangeable coordinates sorted ascending."""
    k = list(k)
    if len(k) != ps.d:
        raise ValueError(f"k has length {len(k)}, expected {ps.d}")
    vals = sorted(k[i - 1] for i in ps.invariant)
    for i, v in zip(ps.invariant, vals):
        k[i - 1] = v
    return tuple(k)


def _check_cap(s: int) -> None:
    if s > PERMANENT_CAP:
        raise PermanentCapError(
            f"invariant block of size {s} exceeds the permanent cap {PERMANENT_CAP}; "
            f"shrink the invariant set to at most {PERMANENT_CAP} coordinates"
        )


def _ryser(cols, pad=None):
    """Ryser's signed sum over a batch-last stack ``cols`` of shape (s, s, b):
    per(cols) = sum over the column sets S of (-1)^(s - |S|) prod_i row_i(S),
    row_i(S) the sum of cols[i, j] over j in S.

    The walk takes the nonempty S in Gray-code order, so each step adds or
    removes one column of the row sums; the empty set's term is 1 at s = 0
    and 0 otherwise.  With ``pad`` = c the same walk also yields the padded
    terms prod_i (row_i(S) + c*|S|), whose row sums are those of cols + c,
    and returns (per(cols), per(cols + c), the unsigned sum of the padded
    terms).  This is the only Ryser pass of the package; both permanent
    functions call it.
    """
    s, _, b = cols.shape
    _check_cap(s)
    dtype = cols.dtype if cols.dtype.kind in "cf" else np.float64
    k = 1 if pad is None else 2
    sums = np.full((k, b), float(s == 0), dtype=dtype)
    terms = np.empty((k, b), dtype=dtype)
    row = np.zeros((s, b), dtype=dtype)
    if pad is not None:
        padded = np.empty((s, b), dtype=dtype)
        unsigned = np.zeros(b, dtype=dtype)
    mask = size = 0
    for code in range(1, 1 << s):
        j = (code & -code).bit_length() - 1
        if mask >> j & 1:
            row -= cols[:, j]
            size -= 1
        else:
            row += cols[:, j]
            size += 1
        mask ^= 1 << j
        np.multiply.reduce(row, axis=0, out=terms[0])
        if pad is not None:
            np.add(row, pad * size, out=padded)
            np.multiply.reduce(padded, axis=0, out=terms[1])
            unsigned += terms[1]
        if size & 1:
            sums -= terms
        else:
            sums += terms
    if s & 1:
        np.negative(sums, out=sums)
    return sums[0] if pad is None else (sums[0], sums[1], unsigned)


def permanent_batch(A) -> np.ndarray:
    """Permanents of a stack of square matrices, shape (batch, s, s).

    One ``_ryser`` pass over ``A`` with its batch axis moved last (a
    batch-last array passed through ``np.moveaxis(B, -1, 0)`` is read
    without a copy), so each result is bitwise ``permanent_bounds(...).per``
    of the same matrix.  Eigenfunction values use it: their entries are
    phases of modulus one, so per(|A|) would be s! exactly and needs no pass.
    """
    A = np.asarray(A)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError("A must have shape (batch, s, s)")
    return _ryser(np.moveaxis(A, 0, -1))


class PermanentBounds(NamedTuple):
    """Per-matrix permanents of a batch-last stack and their rounding bound."""

    per: np.ndarray       # per(A)
    per_abs: np.ndarray   # per(|A|)
    per_pad: np.ndarray   # per(|A| + c), c added to every entry
    rounding: np.ndarray  # bound on the rounding error of each of the three


def permanent_bounds(A, c: float = 0.0) -> PermanentBounds:
    """Ryser permanents of a batch-last stack A of shape (s, s, batch).

    Two ``_ryser`` passes: one over A for per(A), one over |A| that yields
    per(|A|) and, from the same row sums plus c*|S|, per(|A| + c) and the
    unsigned sum of its terms.

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
    s = A.shape[0]
    per = _ryser(A)
    per_abs, per_pad, unsigned = _ryser(np.abs(A).astype(float, copy=False), c)
    return PermanentBounds(per, per_abs, per_pad, _gamma(2 * s + (1 << s)) * unsigned)
