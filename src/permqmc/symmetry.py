"""Combinatorics of the invariant coordinate set.

Holds the permutation structure (which coordinates may be exchanged), exact
multiplicity counts of multi-indices, canonical sorted representatives, and
the Ryser permanent engine used for symmetrized product sums.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "PermStructure",
    "multiplicity",
    "normalize_to_nabla",
    "orbit",
    "restriction_constant",
    "permanent",
    "permanent_batch",
    "permanent_bounds",
    "PermanentBounds",
    "sym_perm_sum",
    "set_partitions",
    "PermanentCapError",
    "PERMANENT_CAP",
]

# Ryser with 2^s subsets stays sub-second in compiled code up to s = 24; the
# pure-Python loop here is comfortable to s ~ 20.  Callers hitting the cap
# should fall back to truncated spectral sums.
PERMANENT_CAP = 24


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

    def restrict(self, subset: Iterable[int]) -> "PermStructure":
        """Structure induced on a coordinate subset (1-based labels kept)."""
        sub = tuple(sorted(set(int(i) for i in subset)))
        if not sub or sub[0] < 1 or sub[-1] > self.d:
            raise ValueError("subset must be a nonempty subset of {1..d}")
        inv = tuple(i for i in sub if i in set(self.invariant))
        # relabel to 1..len(sub) preserving order
        pos = {c: i + 1 for i, c in enumerate(sub)}
        return PermStructure(len(sub), tuple(pos[i] for i in inv))


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


def orbit(k: Sequence[int], ps: PermStructure) -> set[tuple[int, ...]]:
    """All distinct images of k under the coordinate-exchange group."""
    k = tuple(k)
    inv = ps.invariant
    out = set()
    for perm in permutations(range(len(inv))):
        kk = list(k)
        for slot, src in zip(inv, perm):
            kk[slot - 1] = k[inv[src] - 1]
        out.add(tuple(kk))
    return out


def restriction_constant(subset: Iterable[int], ps: PermStructure, beta0: float) -> float:
    """Normalizer beta0^(#u) * binom(#I, #(I & u)) of a coordinate subset u."""
    u = set(int(i) for i in subset)
    if not u:
        raise ValueError("subset must be nonempty")
    overlap = len(u & set(ps.invariant))
    return beta0 ** len(u) * math.comb(ps.size, overlap)


def permanent(A, cap: int = PERMANENT_CAP):
    """Permanent of a square matrix by Ryser inclusion-exclusion, O(2^s * s).

    Gray-code subset updates keep each step at one column add/subtract.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    return permanent_bounds(A[:, :, None], cap=cap).per[0]


def permanent_batch(A, cap: int = PERMANENT_CAP) -> np.ndarray:
    """Permanents of a stack of square matrices, shape (batch, s, s).

    Runs the batch-last Gray-code loop of ``permanent_bounds`` on the
    transposed stack and returns its per(A); the result is bitwise equal to
    a batch-first Ryser pass on real input.
    """
    A = np.asarray(A)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError("A must have shape (batch, s, s)")
    return permanent_bounds(np.moveaxis(A, 0, -1), cap=cap).per


class PermanentBounds(NamedTuple):
    """Per-matrix results of one fused Ryser pass over a batch-last stack."""

    per: np.ndarray       # per(A)
    per_abs: np.ndarray   # per(|A|)
    per_pad: np.ndarray   # per(|A| + c), c added to every entry
    rounding: np.ndarray  # bound on the rounding error of per and per_abs


def permanent_bounds(A, c: float = 0.0, cap: int = PERMANENT_CAP) -> PermanentBounds:
    """Ryser permanents of a batch-last stack A of shape (s, s, batch).

    One Gray-code pass over the 2^s column sets S yields per(A), per(|A|)
    and per(|A| + c).  The row sums of |A| + c over S are the row sums of |A|
    plus c*|S|, so the padded permanent costs no extra row updates.

    ``rounding`` is gamma_k * sum_S prod_i rowabs_i(S), gamma_k = k*u/(1 - k*u)
    with k = 2s + 2^s: the standard bound for the signed sum of the 2^s - 1
    terms, each a product of s row sums, when every row sum is treated as
    accumulated in at most 2^s additions (the Gray-code updates).
    """
    A = np.asarray(A)
    if A.ndim != 3 or A.shape[0] != A.shape[1]:
        raise ValueError("A must have shape (s, s, batch)")
    s, _, b = A.shape
    if s > cap:
        raise PermanentCapError(
            f"invariant block of size {s} exceeds the permanent cap {cap}; "
            "use the truncated spectral evaluation instead"
        )
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
    mask = 0
    size = 0
    for code in range(1, 1 << s):
        j = (code & -code).bit_length() - 1
        bit = 1 << j
        if mask & bit:
            row -= A[:, j]
            rowabs -= absA[:, j]
            size -= 1
        else:
            row += A[:, j]
            rowabs += absA[:, j]
            size += 1
        mask ^= bit
        term = np.prod(row, axis=0)
        np.multiply.reduce(rowabs, axis=0, out=term_abs)
        np.add(rowabs, c * size, out=padded)
        np.multiply.reduce(padded, axis=0, out=term_pad)
        unsigned += term_abs
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
    k = 2 * s + (1 << s)
    u = np.finfo(float).eps / 2.0
    return PermanentBounds(per, per_abs, per_pad, k * u / (1.0 - k * u) * unsigned)


def sym_perm_sum(A, fixed: Sequence = (), cap: int = PERMANENT_CAP):
    """Symmetrized product sum: permanent(A) times the product of fixed factors.

    Computes sum over all exchanges P of prod_l A[P(l), l], times the scalar
    contribution of the non-exchangeable coordinates.
    """
    scale = 1.0
    for f in fixed:
        scale = scale * f
    return permanent(A, cap=cap) * scale


@lru_cache(maxsize=32)
def set_partitions(s: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All set partitions of {0..s-1} as tuples of sorted blocks.

    Enumerated via restricted-growth strings; Bell(s) partitions.  Used by the
    exchange-fixed-point expansions where a sum over permutations collapses to
    a sum over partitions weighted by (block size - 1)! per block.
    """
    if s == 0:
        return ((),)
    out: list[tuple[tuple[int, ...], ...]] = []

    def grow(prefix: list[int], max_label: int):
        i = len(prefix)
        if i == s:
            blocks: dict[int, list[int]] = {}
            for idx, lab in enumerate(prefix):
                blocks.setdefault(lab, []).append(idx)
            out.append(tuple(tuple(b) for b in blocks.values()))
            return
        for lab in range(max_label + 2):
            prefix.append(lab)
            grow(prefix, max(max_label, lab))
            prefix.pop()

    grow([], -1)
    return tuple(out)
