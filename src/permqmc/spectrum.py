"""Eigenvalue spectrum of the embedding operator on the invariant space.

Everything here is of the unit space (``KernelSpec.unit``), whose eigenvalues
are those of the space over beta0^d.  The univariate spectrum consists of the
constant-mode mass 1 and the oscillatory masses rho/R(m)^(2*alpha), each of
multiplicity two.  The
multivariate eigenvalues are products of univariate ones over index tuples
whose entries on the exchangeable coordinates are non-decreasing; they are
enumerated best-first through a max-heap.  The decay constants and the
bootstrap rate constants live here as well; every univariate factor, tail
sum and contraction constant is read from ``weights``.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, _sum_depth, symmetrized_mass
from .symmetry import normalize_to_nabla
from .weights import Enclosure, SpectralWeight, _factor_roundings, _rounded, r_weight_inv_factors

__all__ = [
    "EigenSpectrum",
    "TailConstants",
    "spectrum_tail_constants",
    "RateConstants",
    "rate_constants",
    "c_prime",
]


def univariate_labeled(w: SpectralWeight, count: int) -> list[tuple[float, int]]:
    """(eigenvalue, frequency) pairs sorted by descending eigenvalue.

    Order is deterministic: ties resolve by |frequency|, positive first.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    m_max = count + len(getattr(w.generator, "table", ())) + 8
    fac = r_weight_inv_factors(np.arange(m_max + 1), w)
    entries = [(float(fac[abs(k)]), k) for k in range(-m_max, m_max + 1)]
    entries.sort(key=lambda e: (-e[0], abs(e[1]), 0 if e[1] >= 0 else 1))
    return entries[:count]


class EigenSpectrum:
    """Lazily enumerated multivariate eigenvalues with canonical labels.

    Labels are frequency vectors in the sorted fundamental domain of the
    exchange group.  The stream is non-increasing; ties break on the index
    tuple, so the order is reproducible.

    Each index tuple t != 0 is pushed once, by its canonical parent t - e_f,
    f the first nonzero position of t: a popped tuple pushes t + e_j for
    j <= f (every j at t = 0) where the exchangeable entries stay
    non-decreasing.  The univariate list is non-increasing and a rounded
    product is monotone in each positive factor, so a parent's value is
    never below its child's, and at a tie the parent's tuple sorts first:
    every tuple pops after its parent, in the (-value, tuple) order of all
    admissible tuples.
    """

    def __init__(self, spec: KernelSpec):
        self.spec = spec
        self._univ: list[tuple[float, int]] = univariate_labeled(spec.unit.weight, 64)
        inv = [int(i) - 1 for i in spec.perm.invariant]
        # the exchangeable position after each exchangeable one, None elsewhere
        self._next: list[int | None] = [None] * spec.d
        for a, b in zip(inv, inv[1:]):
            self._next[a] = b
        start = tuple([0] * spec.d)
        self._heap: list[tuple[float, tuple[int, ...]]] = [(-self._value(start), start)]
        self._values: list[float] = []
        self._labels: list[tuple[int, ...]] = []
        self._trace: Enclosure | None = None

    def _value(self, index: tuple[int, ...]) -> float:
        return math.prod(self._univ[idx][0] for idx in index)

    def ensure(self, m: int) -> None:
        univ, nxt, perm = self._univ, self._next, self.spec.perm
        while len(self._values) < m:
            neg, index = heapq.heappop(self._heap)
            self._values.append(-neg)
            self._labels.append(normalize_to_nabla(tuple(univ[idx][1] for idx in index), perm))
            f = next((j for j, idx in enumerate(index) if idx), len(index) - 1)
            for j in range(f + 1):
                if nxt[j] is not None and index[nxt[j]] <= index[j]:
                    continue
                if index[j] + 1 == len(univ):
                    univ = self._univ = univariate_labeled(self.spec.unit.weight, 2 * len(univ))
                succ = index[:j] + (index[j] + 1,) + index[j + 1:]
                heapq.heappush(self._heap, (-self._value(succ), succ))

    def entry(self, i: int) -> tuple[float, tuple[int, ...]]:
        """i-th (zero-based) eigenvalue with its canonical frequency label."""
        self.ensure(i + 1)
        return self._values[i], self._labels[i]

    @property
    def trace(self) -> Enclosure:
        """Total spectral mass; equals the diagonal kernel integral."""
        if self._trace is None:
            self._trace = symmetrized_mass(self.spec)
        return self._trace

    def partial_sum(self, m: int) -> float:
        self.ensure(m)
        return float(np.sum(self._values[:m]))

    def tail_after(self, m: int) -> Enclosure:
        """Enclosure of the spectral mass beyond the first m modes: the trace
        minus an enclosure of the partial sum.  Each of its m terms is a
        product of d weight factors (``weights._factor_roundings`` each);
        the products add d - 1 and numpy's sum ``_sum_depth(m)``.
        """
        d = self.spec.d
        k = d * _factor_roundings(self.spec.unit.weight) + d - 1 + _sum_depth(m)
        rest = self.trace + _rounded(self.partial_sum(m), k).scale(-1.0)
        return Enclosure(max(rest.lo, 0.0), max(rest.hi, 0.0))


@dataclass(frozen=True)
class TailConstants:
    """Decay data for the spectral tail at a given exponent tau: the two
    constants the approximation chain reads, p_d and C_d."""

    tau: float
    p_d: float
    C_d: Enclosure


def spectrum_tail_constants(spec: KernelSpec, tau: float) -> TailConstants:
    """Decay constants: tail of the ordered spectrum past m modes is at most
    C_d / (m+1)^(p_d) with p_d = tau - 1 and C_d = 2^(tau-1)/(tau-1) * (sum lambda^(1/tau))^tau,
    for every tau in (1, 2 alpha), of the unit space.  The chain's tail
    offset U* and its rho* are paper constants that only the tests compute
    (``min_contraction_order`` and ``eta_star`` at tau).
    """
    alpha = spec.weight.alpha
    if not (1.0 < tau < 2.0 * alpha):
        raise ValueError(f"tau must lie in (1, 2*alpha) = (1, {2 * alpha})")
    scale = 2.0 ** (tau - 1.0) / (tau - 1.0)
    return TailConstants(tau=tau, p_d=tau - 1.0,
                         C_d=symmetrized_mass(spec, tau).power(tau).scale(scale))


@dataclass(frozen=True)
class RateConstants:
    """Constants of the sample-doubling approximation scheme at rate p."""

    p: float
    y_p: float
    omega_y: float
    K_p: int
    c_p: float


def rate_constants(p: float) -> RateConstants:
    if p <= 0:
        raise ValueError("p must be positive")
    y = p ** (1.0 / (p + 1.0))
    omega = y + y ** (-p)
    threshold = 2.0 ** (p + 1.0) * omega ** (1.0 + 1.0 / p)
    K = int(math.floor(math.log2(threshold) + 1e-12))
    while 2.0 ** (K + 1) <= threshold:
        K += 1
    while 2.0 ** K > threshold:
        K -= 1
    c_p = 2.0 ** (p * (p + 1.0)) * (1.0 + p) * (1.0 + 1.0 / p) ** p
    return RateConstants(p=p, y_p=y, omega_y=omega, K_p=K, c_p=c_p)


def c_prime(tau: float) -> float:
    """Leading constant of the assembled-rule bound expressed through tau."""
    if tau <= 1.0:
        raise ValueError("tau must exceed 1")
    return 2.0 ** (tau * (tau ** 2 - 1.0)) * (tau / (tau - 1.0)) ** tau
