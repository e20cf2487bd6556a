"""Combinatorics of the invariant coordinate set.

Holds the permutation structure (which coordinates may be exchanged), exact
multiplicity counts of multi-indices, canonical sorted representatives, and
the permanent engine (Glynn's formula) used for symmetrized product sums,
with an a priori bound on its rounding that reads only entry magnitudes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "PermStructure",
    "multiplicity_array",
    "normalize_to_nabla",
    "permanent_batch",
    "permanent_bound",
    "PermanentCapError",
    "PERMANENT_CAP",
]

# Largest invariant block that a permanent pass (2^(s-1) terms) accepts.  A
# larger one raises PermanentCapError, a ValueError, before any term is
# summed.  No route falls back to another evaluation: the error reaches the
# caller, and the CLI prints it and exits 2.
PERMANENT_CAP = 24
_UNIT_ROUNDOFF = 2.0 ** -53
_TINY = np.finfo(float).tiny     # smallest normal double


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


def _ryser(cols):
    """Permanents of a batch-last stack ``cols`` of shape (s, s, b) by
    Glynn's formula (Eur. J. Combin. 31 (2010)), in the half-row form of
    Nijenhuis and Wilf (Combinatorial Algorithms, 2nd ed., 1978, ch. 23):
    per(A) = 2 sum_delta (prod_k delta_k) prod_i r_i(delta) with
    r_i(delta) = (1/2) sum_j delta_j a_ij, over the N = 2^(s-1) sign vectors
    delta with delta_0 = +1.  The walk sums the columns for delta = (+1, ...,
    +1), then takes the others in Gray-code order: each step adds or
    subtracts one column and flips the term's sign.  Halving and doubling
    are exact, so every rounding is that of Glynn's row sums.
    This is the only permanent pass of the package.
    """
    s, _, b = cols.shape
    _check_cap(s)
    dtype = np.complex128 if cols.dtype.kind == "c" else np.float64   # summed in double
    total = np.full(b, float(s == 0), dtype=dtype)
    if s:
        row = np.zeros((s, b), dtype=dtype)           # half row sums
        for j in range(s):
            row += cols[:, j]
        row *= 0.5
        term = np.empty_like(total)
        flips = 0                       # the columns whose delta is -1
        for code in range(1 << (s - 1)):
            if code:
                j = (code & -code).bit_length()
                (np.add if flips >> j & 1 else np.subtract)(row, cols[:, j], out=row)
                flips ^= 1 << j
            np.multiply.reduce(row, axis=0, out=term)
            (np.subtract if code & 1 else np.add)(total, term, out=total)
        total *= 2.0
    return total


def permanent_batch(A) -> np.ndarray:
    """Permanents of a stack of square matrices, shape (batch, s, s).

    One ``_ryser`` pass over ``A`` with its batch axis moved last (a
    batch-last array passed through ``np.moveaxis(B, -1, 0)`` is read
    without a copy), summed in double whatever A's dtype.  Eigenfunction
    values use it on phases, |a_ij| = 1.  There the bound of
    ``permanent_bound``'s derivation at M = J, the all-ones matrix, and
    c = 0 has R_i = s and ||m_i||^2 = s, and a complex product counts three
    roundings (Higham, Lemma 3.5), so k = 3s + 2^(s-1) - 4 replaces K: the
    rounding is at most the constant C_s = gamma_k (1 + 1/s) Q s^s
    (1 + gamma_k)^s, Q = (1 + sqrt(s) gamma_k)^2 / (1 + gamma_k)^2
    (1 + Q in place of (1 + 1/s) Q at s = 2, and 0 at s <= 1).  To first
    order C_s = gamma_k (s + 1) s^(s-1): 3.6e-14, 5.7e-13, 1.1e-11 and
    2.8e-10 at s = 3...6, where s! = 6...720.
    """
    A = np.asarray(A)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError("A must have shape (batch, s, s)")
    return _ryser(np.moveaxis(A, 0, -1))


def permanent_bound(M, c: float = 0.0):
    """A bound on |per(T) - p| for every real matrix A with |A| <= M
    entrywise, p its permanent by ``_ryser``, and every table T with
    |T - A| <= c entrywise, barring underflow.  M holds entry magnitudes,
    M >= 0, of shape (s, s) or batch-last (s, s, batch); the bound has shape
    M.shape[2:].  No permanent is evaluated.

    In Glynn's form, with R_i = sum_j M_ij >= sum_j |a_ij|, ||m_i|| =
    sqrt(sum_j M_ij^2) >= ||a_i||_2, N = 2^(s-1), K = s + N - 2 and the full
    row sums rho_i(delta) = sum_j delta_j a_ij:
    * a computed row sum is reached by s - 1 additions and at most N - 1
      Gray steps, each with an exact result in [-R_i, R_i], so it errs by at
      most gamma_K R_i, whatever columns came and went before (a bound
      relative to the current partial misses what a large column leaves);
      the row sum of T differs from that of A by at most s c.  So the row
      radius e_i = gamma_K R_i + s c covers both;
    * with y_i = |rho_i| + e_i, above the computed row sum and that of T, a
      term errs by at most gamma_K prod_i y_i + sum_i e_i prod_(l != i) y_l:
      the row radii, then s - 1 products and N - 1 additions,
      gamma_(s-1) + gamma_(N-1) (1 + gamma_(s-1)) <= gamma_K;
    * sum_delta rho_i^2 = N ||a_i||_2^2 (cross terms cancel), so sum_delta
      y_i^2 <= N h_i^2, h_i = ||m_i|| + e_i; with g_i = R_i + e_i >= y_i,
      AM-GM gives over p >= 2 rows
      sum_delta prod_(l in T) y_l <= N prod_(l in T) g_l mean_(l in T) q_l,
      q_l = (h_l / g_l)^2 <= 1, and over p = 1 row Cauchy-Schwarz gives
      N h_l <= N g_l (1 + q_l) / 2.
    With t_i = e_i / g_i and Q = sum_i q_i, p = 2^(1-s) sum_delta errs by
    at most prod_i g_i (gamma_K Q / s + sum_i t_i W_i), where W_i =
    (Q - q_i) / (s - 1), or (1 + Q - q_i) / 2 at s = 2 and 1 at s = 1 (where
    gamma_K = 0).  Every step bounds R_i and ||a_i|| from above only, so one
    matrix of entry maxima covers a whole stack.  The radius is raised by
    the smallest normal double, so that a zero row at c = 0 has g_i > 0 and
    the bound stays finite.  A factor 1 + 2^-40 covers the bound's own
    evaluation.  Near the all-ones matrix Q is near 1, so at c = 0 the bound
    is about gamma_K (1 + 1/s) prod_i g_i.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[0] != M.shape[1]:
        raise ValueError("M must have shape (s, s) or (s, s, batch)")
    s = M.shape[0]
    _check_cap(s)
    if not s:
        return np.zeros(M.shape[2:])
    gk = _gamma(s + (1 << (s - 1)) - 2)
    rows = np.empty((3,) + M.shape[1:])
    g, h, e = rows
    g[:] = M[:, 0]
    np.square(g, out=h)
    for j in range(1, s):
        g += M[:, j]
        np.square(M[:, j], out=e)
        h += e
    np.sqrt(h, out=h)                               # g = R_i, h = ||m_i||
    np.multiply(g, gk, out=e)
    e += s * c + _TINY                              # e_i > 0, so no g_i is 0
    rows[:2] += e                                   # g_i, h_i
    rows[1:] /= g                                   # h_i / g_i, t_i
    h *= h                                          # q_i
    Q, tsum = rows[1:].sum(axis=1)
    W = tsum * (Q + (s <= 2)) - np.einsum("i...,i...->...", h, e)   # sum_i t_i W_i
    W /= s - 1 if s > 2 else s
    return (1.0 + 2.0 ** -40) * np.prod(g, axis=0) * (gk / s * Q + W)
