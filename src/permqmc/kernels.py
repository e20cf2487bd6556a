"""Reproducing kernels of the exchange-invariant periodic spaces.

Three kernels are evaluated here:

* the univariate kernel  K1(x, y) = 1 + 2*rho * sum_m cos(2*pi*m*(x-y)) / R(m)^(2*alpha),
* the d-variate exchange-invariant kernel, an average of tensor products of
  K1 over all admissible coordinate exchanges (a permanent on the invariant
  block),
* its shift average, which collapses to a multiplicity-weighted cosine series
  in the difference argument.

Every kernel here but ``kernel_perminv_gram`` is that of the unit space
(beta0 = 1, ``KernelSpec.unit``); ``KernelSpec.scaled`` gives the space's.

Every univariate series has two evaluation paths: an exact closed form via
Bernoulli polynomials (linear generator, integer smoothness) whose
certificate is its a priori rounding bound, and a truncated series carrying
a certified remainder bound.  The closed form's coefficients are exact
rationals rounded once, so it depends on no runtime input; the tests check
it against the certified series and against high-precision arithmetic.

Sums weighted by the multiplicity of a multi-index expand over the fixed
points of coordinate exchanges: grouping permutations by the partition their
cycles induce turns such a sum into a partition sum of "power kernels"
kappa_c, the univariate kernels with all weights raised to the c-th power.
That expansion is what makes the shift-averaged kernel and every
multiplicity-weighted constant exactly computable.  On a rank-1 lattice the
summed coordinates of a block at node j are the grid point (j * S_B mod n)/n,
so kappa_c - 1 is tabulated once per (space, n) on the grid g/n and one
bitmask DP, ``_partition_sums``, gives the partition sums at every node: it
evaluates the shift-averaged kernel less 1 at the lattice nodes
(``shift_invariant_profile``) and the CBC objective (``errors.cbc_step_objectives``).

The Gram mean of a shifted lattice rule, the core of its worst-case error,
has two routes: pair permanents over n*(n//2 + 1) node pairs
(``lattice_gram_mean``), and for s <= 2 or d = 3 a sum over an explicit list
of exchanges in which each term is a direct sum of n products or one FFT
correlation (``_lattice_gram_mean_fft``, which gives the mean less 1
directly, on the zero-mean K1 tables).  Every FFT of the package, here
and in the CBC step, runs in ``_cyclic_correlation``: zero-padded
power-of-two real transforms, which one rounding bound (``_fft_rho``) covers.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .lattice import LatticeRule
from .symmetry import _UNIT_ROUNDOFF, PermStructure, _frac, _gamma, _ryser, permanent_bound
from .weights import (Enclosure, SpectralWeight, _bernoulli, _rounded, _up,
                      spectral_mass, tail_sum)

__all__ = [
    "KernelSpec",
    "kernel_perminv_gram",
    "lattice_gram_mean",
    "power_kernel",
    "power_kernel_table",
    "permutation_power_sum",
    "symmetrized_mass",
]

_SERIES_CAP = 2_000_000
# doubles per temporary of the cosine series: a chunk of terms times the
# number of points stays at about this many
_SERIES_ELEMS = 1_000_000
# pairs per permanent pass: node pairs in the Gram routes, (mode, point)
# pairs in the eigenfunction values; bounds their memory
_PAIR_CHUNK = 8192
# doubles per stack of the mask stages (the partition DP's gathered terms,
# the CBC step's rest rows): 128 KiB, so that glibc serves a stack from its
# heap, not from fresh pages, and a few of them fit a core's cache
_MASK_STACK = 1 << 14
# pi to 60 significant digits (error below 1e-59)
_PI = Fraction("3.14159265358979323846264338327950288419716939937510582097494")


def _sum_depth(n: int) -> int:
    """Most roundings a term meets in numpy's float64 sum of n terms.

    ``np.add.reduce`` sums pairwise within blocks of at most 8192 terms: a
    leaf of at most 128 terms puts a term through at most 15 additions into
    one of 8 partial sums, 3 to combine them and 7 for the leftover terms,
    and every halving above it adds one.  Blocks are added one after
    another.  The bound gamma_depth * sum |x_i| then covers the sum
    (Higham 2002, section 4.2).
    """
    return 25 + max(1, n - 1).bit_length() + -(-n // 8192)


@lru_cache(maxsize=8)
def _fft_rho(N: int) -> float:
    """Relative rounding bound of a length-N cyclic correlation done by
    numpy's real FFTs, N a power of two.

    The computed correlation c of x and y has error of 2-norm at most
    rho * sqrt(N) * ||x||_2 * ||y||_2.  Higham, *Accuracy and Stability of
    Numerical Algorithms* (2nd ed. 2002), Thm 24.2: an FFT of t stages of
    butterflies a +- w b, each twiddle w computed within mu, has relative
    2-norm error at most e = t*eta / (1 - t*eta), eta = mu + gamma_4 *
    (sqrt(2) + mu).  numpy's pocketfft runs N = 2^m as floor(m/2) radix-4
    passes and m mod 2 radix-2 passes.  A radix-4 pass is two stages: the
    first pairs (x0, w^2k x2) and (w^k x1, w^3k x3), the twiddles applied
    before it; a twiddle error on both operands lies along the orthogonal
    (1, 1) and (1, -1), so the stage still errs by eta * ||stage||.  The
    second multiplies by +-1 and +-i, exactly.  The real-data passes compute
    these butterflies for half the indices (the rest are conjugates), and
    the middle one's product of x1 -+ x3 with sqrt(1/2) errs by gamma_3 <
    eta.  So t = log2 N.  mu = u is an assumption: pocketfft's twiddles are
    products of two table entries, not correctly rounded.  Two forward
    transforms, the complex products (sqrt(2) * gamma_2) and the inverse,
    whose scaling by 1/N is exact, give
    rho = (1 + e)^3 * (1 + sqrt(2) * gamma_2) - 1.
    """
    if N < 1 or N & (N - 1):
        raise ValueError(f"FFT length {N} is not a power of two")
    u = _UNIT_ROUNDOFF
    t = N.bit_length() - 1
    eta = u + _gamma(4) * (math.sqrt(2.0) + u)
    e = t * eta / (1.0 - t * eta)
    return (1.0 + e) ** 3 * (1.0 + math.sqrt(2.0) * _gamma(2)) - 1.0


def _cyclic_correlation(y: np.ndarray):
    """Cyclic correlation with the fixed operand y of length L, or with each
    row of a stack y, by zero-padded real FFTs of power-of-two length
    N = 2^ceil(log2 2L).

    Returns correlate(x, rows=None) -> (r, err): r(tau) = sum_p x[p] *
    y[(p + tau) mod L] for tau = 0..L-1 and a bound on the 2-norm of its
    error; for a stack x, row i against y[rows[i]], each row transformed as
    it would be alone.  y is transformed once, and x is not when it is y.
    The linear correlation c
    holds lag tau at tau mod N, so r = c[:L] + c[N - L:]: two disjoint parts
    of c's error, at most rho * sqrt(N) * ||x|| ||y|| (``_fft_rho``), and
    one rounding, u * ||r|| with |r(tau)| <= ||x|| ||y|| and L <= N / 2,
    whose slack also covers the rounding of the norms.  They come from
    numpy's sum: a long BLAS dot may start a thread pool.
    """
    L = y.shape[-1]
    N = 2 << (L - 1).bit_length()
    y_hat = np.fft.rfft(y, N)
    scale = ((math.sqrt(2.0) * _fft_rho(N) + _UNIT_ROUNDOFF)
             * np.sqrt(N * np.square(y).sum(axis=-1)))

    def correlate(x: np.ndarray, rows=None) -> tuple[np.ndarray, float | np.ndarray]:
        yh, sc = (y_hat, scale) if rows is None else (y_hat[rows], scale[rows])
        x_hat = yh if x is y else np.fft.rfft(x, N)
        c = np.fft.irfft(np.conj(x_hat) * yh, N)
        err = sc * np.sqrt(np.square(x).sum(axis=-1))
        return c[..., :L] + c[..., N - L:], err if x.ndim > 1 else float(err)

    return correlate


# ---------------------------------------------------------------------------
# closed-form cosine series via Bernoulli polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _cosine_poly_coeffs(n: int) -> np.ndarray:
    """Ascending coefficients of the degree-2n polynomial equal to
    sum_{m>=1} cos(2*pi*m*t) / m^(2n) on [0, 1], the Bernoulli polynomial
    (-1)^(n+1) (2 pi)^(2n) / (2 (2n)!) * sum_j C(2n, j) B_(2n-j) t^j.  Exact
    rationals (pi from ``_PI``), each rounded once by ``float``; read-only."""
    B = _bernoulli(2 * n)
    scale = (-1) ** (n + 1) * (2 * _PI) ** (2 * n) / (2 * math.factorial(2 * n))
    out = np.array([float(math.comb(2 * n, j) * B[2 * n - j] * scale)
                    for j in range(2 * n + 1)])
    out.flags.writeable = False
    return out


def _cosine_closed(n: int, t: np.ndarray) -> np.ndarray:
    coeffs = _cosine_poly_coeffs(n)
    frac = _frac(t)
    out = np.full_like(frac, coeffs[-1])      # Horner in place; 0 * t + c = c
    for c in coeffs[-2::-1]:
        out *= frac
        out += c
    return out


@lru_cache(maxsize=64)
def _cosine_closed_error(n: int) -> tuple[float, float]:
    """A priori bounds on |_cosine_closed(n, t) - P(t)| and on
    |_cosine_closed(n, t)|, P the exact sum, uniform over t.  Higham (2002)
    section 5.1: the coefficients round by u |c_j|, Horner's rule by
    gamma_4n * sum |c_j| (Eq. 5.3), and t - floor(t), one rounding and only
    for t < 0, by u times the Lipschitz bound sum j |c_j| of P;
    |P| <= c_0 = zeta(2n)."""
    c = np.abs(_cosine_poly_coeffs(n))
    err = _gamma(4 * n + 4) * float(c.sum()) + 2.0 * _UNIT_ROUNDOFF * float(c @ np.arange(c.size))
    return err, c[0] * (1.0 + _gamma(2)) + err


def _cosine_series(w: SpectralWeight, s_exp: float, t: np.ndarray,
                   terms: int) -> tuple[np.ndarray, float]:
    """Partial sum  sum_{m=1}^{terms} R(m)^(-s_exp) * cos(2*pi*m*t), in chunks
    of about ``_SERIES_ELEMS`` (point, term) pairs, and a bound on its
    rounding error, uniform over ``t``.

    R(m) meets at most two roundings, which the power multiplies by s_exp,
    and the power one more: 2*ceil(s_exp) + 1 in each weight.  The argument
    2*pi*m*t meets three roundings (2*pi and two products), which the cosine
    passes on as gamma_3 * 2*pi*|t|*m; the cosine itself (4u absolute), the
    weight, its product with the cosine, the dot product of a chunk and the
    sum over chunks add gamma_k * sum w(m) (Higham 2002, section 3.1).  One
    more rounding in each term covers the accumulation of sum w(m) and
    sum m*w(m).
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    step = max(1, _SERIES_ELEMS // max(t.size, 1))
    sum_w = sum_mw = 0.0
    for lo in range(1, terms + 1, step):
        m = np.arange(lo, min(terms, lo + step - 1) + 1, dtype=float)
        arg = np.multiply.outer(t, m)
        arg *= 2.0 * math.pi
        wm = np.asarray(w.generator(m.astype(np.int64)), dtype=float) ** (-s_exp)
        out += np.cos(arg, out=arg) @ wm
        sum_w += float(wm.sum())
        sum_mw += float(m @ wm)
    k = 4 + (2 * math.ceil(s_exp) + 1) + 1 + min(step, terms) + -(-terms // step) + 1
    t_max = float(np.max(np.abs(t), initial=0.0))
    return out, _gamma(4) * 2.0 * math.pi * t_max * sum_mw + _gamma(k) * sum_w


def _series_remainder_bound(w: SpectralWeight, s_exp: float, terms: int,
                            t: np.ndarray) -> np.ndarray:
    """Bound at each point t on |sum_{m > terms} R(m)^(-s_exp) cos(2 pi m t)|.

    The tail sum of the coefficients (``tail_sum``) always applies; for
    linear generators the Dirichlet-kernel bound 1/|sin(pi t)| sharpens it
    away from t = 0.
    """
    mono = tail_sum(w, exponent=s_exp / 2.0, start=terms + 1).hi
    if not w.generator.is_linear:
        return np.full(t.shape, mono)
    lead = w.generator.linear_slope ** (-s_exp)
    sin_t = np.abs(np.sin(math.pi * _frac(t)))
    with np.errstate(divide="ignore"):
        return np.minimum(mono, lead * (terms + 1) ** (-s_exp) / sin_t)


# ---------------------------------------------------------------------------
# power kernels kappa_c
# ---------------------------------------------------------------------------

_MODES = ("auto", "spectral")


def _closed_available(w: SpectralWeight) -> bool:
    return w.generator.is_linear and w.has_integer_alpha


def power_kernel(w: SpectralWeight, power: int, t, mode: str = "auto",
                 tol: float = 1e-10) -> tuple[np.ndarray, float]:
    """The zero-mean power kernel 2*beta1^c * sum_m R(m)^(-2*alpha*c) *
    cos(2*pi*m*t) of order c = ``power`` >= 1, kappa_c less its constant
    mode, and a bound on its error uniform over ``t``.  Mode "auto" takes
    the closed form (its a priori rounding bound) whenever the generator is
    linear and alpha an integer, and the certified series (its tail bound
    to ``tol`` plus its rounding bound) otherwise; "spectral" always takes
    the series, the second route the tests compare against."""
    if power < 1:
        raise ValueError("power must be >= 1")
    if mode not in _MODES:
        raise ValueError(f"unknown eval mode {mode!r}")
    t_arr = np.asarray(t, dtype=float)
    amp = 2.0 * w.beta1 ** power
    if mode == "auto" and _closed_available(w):
        n = round(w.alpha * power)
        err, top = _cosine_closed_error(n)
        scale = amp * w.generator.linear_slope ** (-2.0 * n)
        # scale: slope (u, to the power 2n), two pows (1 ulp each), a product;
        # two more for the product with P
        cert = abs(scale) * ((1.0 + _gamma(2 * n + 5)) * err + _gamma(2 * n + 7) * top)
        return scale * _cosine_closed(n, t_arr), cert
    # certified truncated series
    s_exp = 2.0 * w.alpha * power
    if s_exp <= 1.0:
        raise ValueError("series divergent: 2*alpha*power must exceed 1")
    terms = _choose_terms(w, s_exp, amp, tol, t_arr)
    series, rounding = _cosine_series(w, s_exp, t_arr, terms)
    tail = float(np.max(_series_remainder_bound(w, s_exp, terms, t_arr), initial=0.0))
    # a pow counts as two roundings: amp is one pow, then the product with
    # the series (4)
    peak = float(np.max(np.abs(series), initial=0.0)) + rounding
    return amp * series, amp * (tail + rounding + _gamma(4) * peak)


def _choose_terms(w: SpectralWeight, s_exp: float, amp: float, tol: float,
                  t: np.ndarray) -> int:
    """Fewest terms, doubling from 64 up to ``_SERIES_CAP``, whose tail bound
    meets ``tol``; raises ValueError, before any term is summed, when even
    the cap's does not."""
    terms = 64
    while True:
        tail = amp * float(np.max(_series_remainder_bound(w, s_exp, terms, t), initial=0.0))
        if tail <= tol:
            return terms
        if terms == _SERIES_CAP:
            raise ValueError(
                f"series tolerance tol={tol:g} is out of reach: the certificate is at "
                f"least {tail:.3g} at the cap of {_SERIES_CAP} terms; raise tol to that")
        terms = min(2 * terms, _SERIES_CAP)


@lru_cache(maxsize=1)
def power_kernel_table(spec: KernelSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The zero-mean power kernels kappa_c - 1 of the unit space at the grid
    points g/n, g = 0..n-1, for c = 1..max(1, s), in the spec's mode and tol.

    Returns (table, certs) with table of shape (max(1, s), n).  Both are
    read-only: the steps of a CBC construction, and a fixed-point E2 at the
    same (space, n), share the cached pair, keyed on the ``KernelSpec.unit``.
    """
    grid = np.arange(n, dtype=float) / n
    c_max = max(1, spec.perm.size)
    table = np.empty((c_max, n))
    certs = np.empty(c_max)
    for c in range(1, c_max + 1):
        table[c - 1], certs[c - 1] = power_kernel(spec.unit.weight, c, grid, spec.mode, spec.tol)
    table.flags.writeable = certs.flags.writeable = False
    return table, certs


# ---------------------------------------------------------------------------
# partition sums over exchange fixed points
# ---------------------------------------------------------------------------

class _MaskPlan:
    """The 2^k masks of k coordinates by popcount: ``pc[U]``, ``levels[p]``
    the masks of popcount p ascending, and for the blocks B >= 1 their
    kernel order less 1, |B| - 1, and factor (|B|-1)! (``order``, ``fact``)."""

    def __init__(self, k: int):
        self.pc = self.sums([1] * k, k + 1)
        self.levels = np.split(np.argsort(self.pc, kind="stable"),
                               np.cumsum(np.bincount(self.pc))[:-1])
        self.order = self.pc[1:, None] - 1
        self.fact = np.array([float(math.factorial(c)) for c in range(max(k, 1))])[self.order]
        for a in (self.pc, self.order, self.fact, *self.levels):   # shared by every caller
            a.flags.writeable = False

    @staticmethod
    def sums(zs: Sequence[int], n: int) -> np.ndarray:
        """S[B] = sum of zs[i] over the bits i of B, mod n, for every mask B."""
        S = np.zeros(1 << len(zs), dtype=np.int64)
        for i, z in enumerate(zs):
            S[1 << i: 2 << i] = (S[: 1 << i] + z) % n
        return S

    @staticmethod
    def submasks(sets: np.ndarray, q: int) -> np.ndarray:
        """Row t: the t-th submask, ascending, of each q-bit set (bit j of t
        picks the set's j-th lowest bit, so row t has popcount(t) bits)."""
        out, rest = np.zeros((1 << q, sets.size), dtype=np.int64), sets.copy()
        for j in range(q):
            low = rest & -rest
            rest ^= low
            np.add(out[: 1 << j], low, out=out[1 << j: 2 << j])
        return out


@lru_cache(maxsize=32)
def _mask_plan(k: int) -> _MaskPlan:
    """The ``_MaskPlan`` of k coordinates, built on first use."""
    return _MaskPlan(k)


def _stack_rows(masks: int, n: int) -> int:
    """n-vectors per stack of the mask stages over ``masks`` masks: at most
    ``_MASK_STACK`` doubles, and one per mask."""
    return max(1, min(_MASK_STACK // n, masks))


def _group_stack(N: int) -> int:
    """Groups per stack of a CBC step's correlations at padded transform
    length N: the transforms of a group hold about 7N doubles, and a stack
    at most four ``_MASK_STACK``."""
    return max(1, 4 * _MASK_STACK // (7 * N))


def _ordered_sums(f: np.ndarray, idx: np.ndarray, g: np.ndarray, gidx: np.ndarray) -> np.ndarray:
    """Row m: 0 + sum over t = 0, 1, ... in order of g[gidx[t, m]] * f[idx[t, m]],
    for index arrays (T, m) (gidx (T, 1) takes one factor per term).  The
    terms go in stacks of ``_stack_rows`` rows of f, each after the first led
    by the sums so far with factor 1, and einsum adds a stack's products in
    order from 0: every row is bitwise the sum of a loop over its terms."""
    tc = max(2, _stack_rows(f.shape[0], f.shape[1]) // idx.shape[1])   # terms per stack
    X, Y = g[gidx[:tc]], f[idx[:tc]]
    acc = np.einsum("tmj,tmj->mj", X, Y)
    for a in range(tc, idx.shape[0], tc - 1):
        e = min(tc - 1, idx.shape[0] - a) + 1
        X[0], Y[0] = 1.0, acc
        np.take(g, gidx[a:a + tc - 1], axis=0, out=X[1:e], mode="clip")
        np.take(f, idx[a:a + tc - 1], axis=0, out=Y[1:e], mode="clip")
        acc = np.einsum("tmj,tmj->mj", X[:e], Y[:e])
    return acc


def _partition_sums(zs: list[int], n: int, table: np.ndarray) -> np.ndarray:
    """Partition sums of power kernels over every mask U of k = len(zs)
    exchangeable lattice coordinates, at every node j = 0..n-1.

    f[U, j] is the sum over partitions of U into blocks B of
    prod_B (|B|-1)! * kappa_|B|[j * S_B mod n], S_B the sum of the generators
    in B and ``table[c - 1]`` kappa_c on the grid g/n; the recurrence runs
    over the block B = U ^ C holding U's lowest coordinate, f[U] = 0 + sum
    of block[B] * f[C] over the submasks C of U less its lowest bit,
    ascending, O(3^k * n).  Summed over
    all permutations of U, a product of per-cycle values that depend only on
    the cycle's support is this partition sum (a free coordinate, a
    singleton in every partition, is a product factor: ``_free_excess``).
    The blocks come from one gather, and the recurrence runs a popcount
    level of ``_mask_plan(k)`` at a time, a stack of masks per
    ``_ordered_sums``: each f[U] is bitwise the per-mask loop's.  f is the
    first half of one buffer (``f.base``) whose second half held the
    blocks, which a caller may reuse.
    Each term of f[U, j] meets at most |U| + 2^|U| - 1 roundings: two
    products per block and one addition per other block with the same
    lowest coordinate, over at most |U| levels.  Bounds that depend only on
    |U| come from ``permutation_power_sum``.
    """
    k = len(zs)
    f, blk = np.empty((2 << k, n)).reshape(2, 1 << k, n)
    f[0] = 1.0
    if not k:
        return f
    plan = _mask_plan(k)
    idx = f[1:].view(np.int64)   # f's rows hold the blocks' indices until the DP writes them
    np.multiply.outer(plan.sums(zs, n)[1:], np.arange(n, dtype=np.int64), out=idx)
    idx %= n
    idx += n * plan.order
    np.take(table, idx, out=blk[1:], mode="clip")
    blk[1:] *= plan.fact   # block[B] = (|B|-1)! * kappa_|B|[j * S_B mod n]
    rows = _stack_rows(1 << k, n)
    for p in range(1, k + 1):
        m = max(1, rows >> (p - 1))   # masks per stack
        for a in range(0, plan.levels[p].size, m):
            U = plan.levels[p][a:a + m]
            C = plan.submasks(U ^ (U & -U), p - 1)
            f[U] = _ordered_sums(f, C, blk, U ^ C)
    return f


def _free_excess(vals: Iterable[np.ndarray], top: float,
                 c1: float) -> tuple[np.ndarray | float, float, float]:
    """q = prod_i (1 + g_i) - 1 over k coordinates, g_i the i-th of ``vals``,
    their zero-mean K1 values at the same points (on a grid, row[j z_i mod
    n]; an iterable, so gathered one at a time), by q <- q (1 + g) + g, which
    holds no term 1 (q is the scalar 0 at k = 0).  Returns (q, cert, bound).
    With c_1 bounding each value's error and T = ``top`` >= 1 + max|g_i| +
    c_1, |q| and the computed q lie within T^k - 1 + E_k, E_k the error,
    E_(k+1) = (1 + gamma_3) T E_k + T^k c_1 + gamma_3 (T^(k+1) - 1): a step
    rounds three times, and |q| |1 + g| + |g| <= T^(k+1) - 1."""
    k, q, q_cert = 0, 0.0, 0.0
    for k, g in enumerate(vals, 1):
        q = q * (1.0 + g) + g
        q_cert = ((1.0 + _gamma(3)) * top * q_cert + top ** (k - 1) * c1
                  + _gamma(3) * (top ** k - 1.0))
    return q, q_cert, top ** k - 1.0 + q_cert


def permutation_power_sum(p: Sequence[float], e: Sequence[float] | None = None):
    """N[m], m = 0..s: the sum over permutations of m elements of the product
    over cycles of p[len - 1], by the first-element recurrence
    N[m] = sum_c C(m-1, c-1) (c-1)! p[c-1] N[m-c] in O(s^2) (N[m] / m! is
    the sum over multisets).  Given e, also E[m], the sum over permutations
    and cycles C of e[|C|-1] times the other cycles' p, by the same
    recurrence on p[c-1] E[m-c] + e[c-1] N[m-c].  At p = max|kappa_c| + cert
    and e = cert, N[|U|] bounds |f[U]| of ``_partition_sums`` and its sum
    |terms|, E[|U|] its first-order table error.
    """
    s = len(p)
    N, E = [1.0] + [0.0] * s, [0.0] * (s + 1)
    for m in range(1, s + 1):
        for c in range(1, m + 1):
            wt = math.comb(m - 1, c - 1) * math.factorial(c - 1)
            N[m] += wt * p[c - 1] * N[m - c]
            if e is not None:
                E[m] += wt * (p[c - 1] * E[m - c] + e[c - 1] * N[m - c])
    return np.array(N) if e is None else (np.array(N), np.array(E))


# ---------------------------------------------------------------------------
# kernel specification and public kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Kernel of the exchange-invariant space over a weight system.

    mode "auto" resolves to the closed form whenever the generator is linear
    and the smoothness an integer, and to certified truncated series
    otherwise; mode "spectral" always takes the series (``power_kernel``).

    r(k)^(-1) is beta0^d times that of the weight (alpha, 1, rho =
    beta1/beta0, R, c_R): every kernel value, error, eigenvalue and bound
    constant is beta0^d times its value in that unit space, and the CBC
    argmin and the approximation chain depend on rho alone.  So the spec
    normalizes once: ``unit`` is the unit space's spec (itself at beta0 =
    1), which every engine reads, and ``scale`` is beta0^d; ``weight``
    stays the caller's.  A beta0^d, a power 2 rho^c of the tables (c <=
    max(1, s)) or a rho^d that is not a finite normal double (rho^d only
    where it overflows) raises ValueError naming beta0, beta1 and d.
    """

    weight: SpectralWeight
    perm: PermStructure
    mode: str = "auto"
    tol: float = 1e-10
    unit: KernelSpec = field(init=False, repr=False, compare=False)
    scale: float = field(init=False, repr=False, compare=False)
    rho_exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown eval mode {self.mode!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        w, d, c = self.weight, self.perm.d, np.arange(1, max(1, self.perm.size) + 1)
        rho = w.beta1 / w.beta0
        with np.errstate(over="ignore", under="ignore"):   # pows that refuse the space
            scale, rho_d, tables = np.float64(w.beta0) ** d, np.float64(rho) ** d, 2.0 * rho ** c
        for name, v in [(f"beta0^{d}", scale), (f"rho^{d}", max(rho_d, 1.0)), *zip(c, tables)]:
            if not sys.float_info.min <= v < math.inf:
                name = name if isinstance(name, str) else f"2 rho^{name}"
                raise ValueError(f"the space (beta0, beta1) = ({w.beta0!r}, {w.beta1!r}) at d = {d} "
                                 f"is out of range: {name} = {float(v)!r} is not a finite normal "
                                 "double (rho = beta1/beta0)")
        unit = self if w.beta0 == 1.0 else KernelSpec(
            SpectralWeight(w.alpha, 1.0, rho, w.generator, w.c_R), self.perm, self.mode, self.tol)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "scale", float(scale))
        object.__setattr__(self, "rho_exact", Fraction(rho) * Fraction(w.beta0) == Fraction(w.beta1))

    @property
    def d(self) -> int:
        return self.perm.d

    def univariate(self, t) -> tuple[np.ndarray, float]:
        """K1 of the unit space at t: 1 plus the zero-mean ``power_kernel``;
        the sum adds 3u on the closed form and gamma_3 on the series."""
        u = self.unit
        vals, cert = power_kernel(u.weight, 1, t, u.mode, u.tol)
        closed = u.mode == "auto" and _closed_available(u.weight)
        return 1.0 + vals, cert + (3.0 * _UNIT_ROUNDOFF if closed else _gamma(3))

    def rho_cert(self, value, cert: float, bound: float | None = None) -> float:
        """The certificate of a unit result at the exact rho, not the rounded
        rho-hat = rho (1 + e) of ``unit``: rho^j = rho-hat^j (1 + e)^(-j) lies
        within gamma_d of rho-hat^j for j <= d.  A nonnegative spectral sum
        sum_j c_j rho^j, c_j >= 0 (E2, e^2, the eigenvalues, the masses, the
        bound constants, the CBC objectives), so moves by gamma_d (|value| +
        cert); a signed kernel or Gram value by gamma_d times the sum of its
        terms' magnitudes, at most the unit diagonal bound ``bound``."""
        if self.rho_exact:
            return cert
        if bound is None:
            bound = float(np.max(np.abs(value), initial=0.0)) + cert
        return _up(cert + _gamma(self.d) * bound)

    def scaled(self, value, cert: float, bound: float | None = None):
        """A unit result (value, cert) of degree d in the space: the inputs
        when it is its unit space; else the value times ``scale``, and
        ``rho_cert`` times ``scale``, rounded up, plus gamma_3 |scaled value|
        for the pow beta0^d (one ulp, two roundings) and the product."""
        if self.unit is self:
            return value, cert
        cert = self.rho_cert(value, cert, bound)
        value = value * self.scale
        return value, _up(_up(cert * self.scale) + _gamma(3) * float(np.max(np.abs(value), initial=0.0)))


def _gram_cert(M, cert1: float, f: int, top: float, certf: float) -> float:
    """One a priori bound on the error of every kernel value per * F / s!,
    F = 1 + q over f free coordinates (q their ``_free_excess`` at
    radius certf under ``top``; F = 1 exactly at f = 0), per computed by
    ``_ryser`` on tables whose entries lie within M (s, s) in magnitude and
    within cert1 of the exact K1 tables T.  Then per(T) F_T - per F =
    (per(T) - per) F_T + per (F_T - F): |per(T) - per| is at most B =
    ``permanent_bound(M, cert1)``, |per| at most s! max(M)^s + B and |F| at
    most 1 + |q|'s bound; F adds a sum, the value two.  No
    value enters: ``_free_excess``' bounds depend on the count f alone."""
    s = len(M)
    fact = float(math.factorial(s))
    bound = float(permanent_bound(M, cert1))
    per_abs = fact * float(M.max(initial=0.0)) ** s + bound
    _, q_cert, q_abs = _free_excess([0.0] * f, top, certf)
    F_abs = 1.0 + q_abs
    F_cert = q_cert + _gamma(1) * F_abs if f else 0.0
    return (bound * (F_abs + F_cert) + per_abs * (F_cert + _gamma(2) * F_abs)) / fact


def _fill_gram(out: np.ndarray, X: np.ndarray, Y: np.ndarray, spec: KernelSpec,
               start: int | None = None) -> float:
    """Write K(X[i], Y[j]) into ``out`` by row tiles, rows lo:hi by columns
    c0:, about ``_PAIR_CHUNK`` pairs (or one row) per ``_ryser`` pass; return
    the largest tile certificate.  With ``start`` None the tiles cover every
    pair.  Else Y is X, out[:start, :start] holds the Gram of X[:start], and
    a tile, c0 = max(lo, start), is mirrored, its diagonal square's lower
    triangle from the upper: extending is rebuilding.  Values are those of
    the unit space (``KernelSpec.unit``).  A tile's certificate
    is a priori, as on the lattice route: |K1| <= K1(0), the mass, so every
    entry lies within M = mass + c1 (c1 K1's certificate) in magnitude
    (``_gram_cert``)."""
    inv, free, fact = spec.perm.invariant_idx, spec.perm.free_idx, float(spec.perm.group_order)
    Xinv, Yinv, Xfree, Yfree = X[:, inv].T, Y[:, inv].T, X[:, free], Y[:, free]
    # 1 + |K1(t) - 1| is at most the mass at every t too
    u = spec.unit
    s, mass = len(inv), spectral_mass(u.weight).hi
    (nx, ny), cert, lo = out.shape, 0.0, 0
    while lo < nx and ny > (start or 0):     # some pair left to write
        c0 = 0 if start is None else max(lo, start)
        hi = min(nx, lo + max(1, _PAIR_CHUNK // (ny - c0)))
        # diffs[a, b, i, j] = x_i[inv_a] - y_j[inv_b], fd[i, j] = x_i[free] - y_j[free]
        diffs = Xinv[:, None, lo:hi, None] - Yinv[None, :, None, c0:]
        fd = Xfree[lo:hi, None] - Yfree[None, c0:]
        vals, cert1 = u.univariate(diffs.reshape(-1))
        gf, certf = power_kernel(u.weight, 1, fd.reshape(-1), u.mode, u.tol) if len(free) else (fd, 0.0)
        per = _ryser(vals.reshape(s, s, (hi - lo) * (ny - c0))).reshape(hi - lo, ny - c0)
        # q alone: its bounds enter the certificate (``_gram_cert``)
        q = _free_excess(np.moveaxis(gf.reshape(fd.shape), -1, 0), 0.0, 0.0)[0]
        values = per * (1.0 + q) / fact
        out[lo:hi, c0:] = values
        if start is not None:       # mirrored, then the diagonal square's upper triangle again
            out[c0:, lo:hi] = values.T
            for r in range(c0, hi):
                out[r, r + 1:hi] = values[r - lo, r + 1 - c0:hi - c0]
        cert = max(cert, _gram_cert(np.full((s, s), mass + cert1), cert1, len(free),
                                    mass + 2.0 * certf, certf))
        lo = hi
    return cert


def kernel_perminv_gram(X, Y, spec: KernelSpec) -> tuple[np.ndarray, float]:
    """Gram matrix G of the exchange-invariant kernel of the space on point
    sets X, Y: the unit space's by ``_fill_gram``, ``KernelSpec.scaled`` with
    the unit diagonal bound mass^d (every entry is a mean of products of d
    values of K1, each at most the mass); with ``Y is X`` exactly symmetric.
    Returns (G, cert), cert bounding every entry's error a priori, per row
    tile: K1's certificate, as the tables' entrywise radius, and every
    rounding (``_gram_cert``)."""
    upper = Y is X
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = X if upper else np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != spec.d or Y.shape[1] != spec.d:
        raise ValueError("point dimension does not match the kernel")
    gram = np.empty((X.shape[0], Y.shape[0]))
    cert = _fill_gram(gram, X, Y, spec, 0 if upper else None)
    return spec.scaled(gram, cert, spectral_mass(spec.unit.weight).hi ** spec.d)


def lattice_gram_mean(rule: LatticeRule, spec: KernelSpec) -> tuple[float, float, int]:
    """Mean of the exchange-invariant Gram matrix of the unit space over all
    node pairs of a (shifted) rank-1 lattice rule, without forming the n x n
    matrix.

    Node k has coordinates {k*z_i/n + shift_i}, so the invariant block of the
    pair (k, l) is K1 at (k*z_i - l*z_j mod n)/n + shift_i - shift_j, tabulated
    once as T_ij[g].  The pair (l, k) has the transposed block (K1 is even),
    so pairs are indexed by (k, m = l - k mod n) with m in 0..n//2 only, and
    every m != -m mod n counts twice.  The free-coordinate factor depends on
    m alone.  m streams in chunks of about ``_PAIR_CHUNK`` pairs, one
    ``_ryser`` pass each: memory is O(_PAIR_CHUNK * s^2 + n * s^2).

    n is prime, so for z_i != z_j entry (i, j) of the pair (k, m) is
    P_ij[(k - m*c_ij) mod n], with P_ij[u] = T_ij[u*(z_i - z_j) mod n] and
    c_ij = z_j / (z_i - z_j) mod n: the n rows k of one m are the window of
    the doubled P_ij that starts at n - (m*c_ij mod n), and a chunk's block
    is one index into those windows.  For z_i = z_j (the diagonal, at least)
    the entry is T_ij[-m*z_j mod n] for every k.  Every block lies within
    M_ij = max_g |T_ij[g]| in magnitude, so ``_gram_cert`` bounds every
    entry's error a priori, once, from the one matrix M.

    Returns (mean, cert, pairs): cert bounds the error of the mean, that of
    every Gram entry plus the rounding of the accumulation; pairs counts the
    pair permanents evaluated.
    """
    n, inv, free = rule.n, spec.perm.invariant_idx, spec.perm.free_idx
    s, fact = len(inv), float(spec.perm.group_order)
    z = np.asarray(rule.z, dtype=np.int64)
    shift = np.zeros(rule.d) if rule.shift is None else np.asarray(rule.shift)
    grid = np.arange(n, dtype=float) / n
    zi = z[inv]
    dshift = shift[inv][:, None] - shift[inv][None, :]
    u = spec.unit
    table, cert1 = u.univariate(grid + dshift[:, :, None])        # (s, s, n)
    # the free coordinates' zero-mean K1 on the grid
    fg, certf = power_kernel(u.weight, 1, grid, u.mode, u.tol) if len(free) else (grid, 0.0)
    cert = _gram_cert(np.abs(table).max(axis=2), cert1, len(free),
                      1.0 + float(np.max(np.abs(fg))) + certf, certf)
    diff = (zi[:, None] - zi[None, :]) % n
    c = np.array([[zj * pow(d, -1, n) % n if d else 0 for zj, d in zip(zi.tolist(), row)]
                  for row in diff.tolist()], dtype=np.int64).reshape(s, s)
    P = np.take_along_axis(table, diff[:, :, None] * np.arange(n) % n, axis=2)
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([P, P], 2), n, axis=2)
    ii, jj = np.arange(s)[:, None, None], np.arange(s)[None, :, None]
    di, dj = np.nonzero(diff == 0)
    half = n // 2
    step = max(1, _PAIR_CHUNK // n)
    total = total_abs = 0.0
    for lo in range(0, half + 1, step):
        m = np.arange(lo, min(lo + step, half + 1), dtype=np.int64)
        block = windows[ii, jj, n - c[:, :, None] * m % n]          # (s, s, len(m), n)
        block[di, dj] = table[di[:, None], dj[:, None], -zi[dj][:, None] * m % n][..., None]
        per = _ryser(block.reshape(s, s, len(m) * n)).reshape(len(m), n)
        q = _free_excess([fg.take(m[:, None] * zi % n) for zi in z[free]], 0.0, 0.0)[0]
        rows = per * (1.0 + q) / fact
        mult = np.where((m == 0) | (2 * m == n), 1.0, 2.0)
        total += float(mult @ rows.sum(axis=1))
        total_abs += float(mult @ np.abs(rows).sum(axis=1))
    # a value meets a row sum, the product with mult, a dot of at most step
    # terms, one addition per chunk and the division
    depth = _sum_depth(n) + min(step, half + 1) + -(-(half + 1) // step) + 2
    return (total / float(n) ** 2, cert + _gamma(depth) * (total_abs / float(n) ** 2),
            n * (half + 1))


# The exchanges of s <= 3 exchangeable coordinates, as images
# (sigma(0), ..., sigma(s-1)), each with the number of exchanges whose sum it
# stands for: (2, 0, 1) is the inverse of (1, 2, 0), and K(x, y) = K(y, x)
# gives the two the same sum.
_EXCHANGES = {
    0: (((), 1),),
    1: (((0,), 1),),
    2: (((0, 1), 1), ((1, 0), 1)),
    3: (((0, 1, 2), 1), ((1, 0, 2), 1), ((2, 1, 0), 1), ((0, 2, 1), 1), ((1, 2, 0), 2)),
}


def _correlation_sum(factors: list[tuple[int, int]], g: np.ndarray, gx: np.ndarray,
                     gy: np.ndarray, top: float, lag: int) -> tuple[float, float, int]:
    """S - 1 for S = n^-2 sum_x P(x) R(lag * x mod n), P = 1 + p the product
    of the k factors 1 + g[r](c x) over (r, c) in ``factors`` (p their
    excess, from ``_free_excess``) and R(tau) = sum_p fx(p) fy(p + tau) the
    cyclic correlation of fx = 1 + gx and fy = 1 + gy on Z_n; with its
    error bound and the number of FFTs (two when gy is gx).  R = n + Ro, Ro =
    (sum gx + sum gy) + Rg, Rg the correlation of the oscillatory parts
    (``_cyclic_correlation``), so the value, n^-2 sum_x [P(x) Ro(lag x) +
    n p(x)], holds no term 1.

    The error of Rg has 2-norm at most the helper's bound, and x -> lag * x
    permutes Z_n (lag != 0 mod n): by Cauchy-Schwarz it reaches the sum
    through ||P||_2.  The sums of gx and gy and Ro's two roundings err
    uniformly over Ro.  P errs by p's error and the addition.  And
    gamma_k * sum |terms| covers the products, the sum and the division.
    """
    n, x = gx.size, np.arange(gx.size, dtype=np.int64)
    p, p_cert, p_abs = _free_excess((g[r].take(c * x % n) for r, c in factors), top, 0.0)
    rg, rg_err = _cyclic_correlation(gy)(gx)
    sx, sy = float(gx.sum()), float(gy.sum())
    ro = (sx + sy) + rg
    P = 1.0 + p
    t1, t2 = P * ro.take(lag * x % n), float(n) * p
    depth = _sum_depth(n)
    p_err = p_cert + _gamma(1) * (1.0 + p_abs)
    P_abs = float(np.abs(P).sum()) + n * p_err
    P_l2 = math.sqrt(float(np.square(P).sum())) + math.sqrt(n) * p_err
    ro_err = (_gamma(depth) * float(np.abs(gx).sum() + np.abs(gy).sum())
              + _gamma(2) * (abs(sx) + abs(sy) + float(np.max(np.abs(rg)))))
    err = (rg_err * P_l2 + ro_err * P_abs
           + n * (p_err * float(np.max(np.abs(ro))) + p_cert * n)
           + _gamma(depth + 3) * float(np.abs(t1).sum() + np.abs(t2).sum()))
    nn = float(n) ** 2
    return float((t1 + t2).sum()) / nn, err / nn, 2 if gy is gx else 3


def _lattice_gram_mean_fft(rule: LatticeRule, spec: KernelSpec) -> tuple[float, float, int]:
    """Mean of the exchange-invariant Gram matrix of the unit space of a
    (shifted) rank-1 lattice rule less 1, its squared worst-case error, in
    O(n log n + n * d), for s <= 2 or d = 3 (n is prime, as for every
    ``LatticeRule``).

    The mean is (1/s!) sum_sigma S_sigma over the exchanges in
    ``_EXCHANGES``, with S_sigma = n^-2 sum_{k,l} prod_i f_i(k z_i - l z_sigma(i)),
    f_i(x) = 1 + g_i(x) and g_i(x) = K1(x/n + Delta_i - Delta_sigma(i)) - 1
    on Z_n; their weights sum to 1, so each contributes S_sigma - 1,
    expanded around 1.  Factor i reads its K1 row at the form a k + b l,
    (a, b) = +-(z_i, -z_sigma(i)) mod n (K1 is even), which is c_i times its
    line, the form over its first nonzero entry c_i; a zero form is a
    constant factor.  By the number of lines:

    * at most one: S_sigma - 1 is the mean over x of the product
      excess of the f_i(c_i x) (``_free_excess``), O(n * d);
    * two: (x, y) = (L1, L2) is a bijection of Z_n^2, so S_sigma is a
      product of two line means, (1 + u)(1 + v), whose excess is
      u + v + u v;
    * three: L3 = alpha L1 + beta L2 (alpha, beta != 0), and p = c_3 beta y
      gives n^-2 sum_x P(x) R(c_3 alpha x), P L1's factors and the
      constants, R the correlation of L2's factor at step c_2 / (c_3 beta)
      with L3's (``_correlation_sum``; one operand if both are one row at
      step 1).

    Lines go by most factors, ties toward a line whose row no other line
    shares.  The fixed coordinates read row 0 on the line (1, -1), so under
    s <= 2 or d = 3 three lines leave one factor each on L2 and L3.

    K1 - 1 is tabulated once at g/n + Delta_a - Delta_b for every pair
    a < b that an exchange moves (``power_kernel``), so every sum runs on
    the oscillatory parts and no term holds 1.  Returns
    (value, cert, ffts): cert adds the table certificate through the
    products of d factors, each exchange's rounding and FFT bounds, and the
    rounding of the final sum; ffts counts the transforms.
    """
    n, d = rule.n, rule.d
    z = [int(v) % n for v in rule.z]
    shift = [0.0] * d if rule.shift is None else [float(v) for v in rule.shift]
    inv = spec.perm.invariant_idx.tolist()
    maps = []
    for images, mult in _EXCHANGES[len(inv)]:
        p = list(range(d))
        for a, b in zip(inv, images):
            p[a] = inv[b]
        maps.append((p, mult))
    moved = sorted({(min(i, p[i]), max(i, p[i])) for p, _ in maps for i in range(d) if p[i] != i})
    row_of = {pair: r + 1 for r, pair in enumerate(moved)}
    theta = np.array([0.0] + [shift[a] - shift[b] for a, b in moved])
    grid = np.arange(n, dtype=float) / n
    unit = spec.unit
    g, cert_g = power_kernel(unit.weight, 1, grid + theta[:, None], unit.mode, unit.tol)
    top = 1.0 + float(np.max(np.abs(g)))
    x = np.arange(n, dtype=np.int64)

    def line(factors):
        # the mean of the product excess (the table taken as exact), its rounding
        q, q_cert, _ = _free_excess((g[r].take(c * x % n) for r, c in factors), top, 0.0)
        return float(q.sum()) / n, q_cert + _gamma(_sum_depth(n) + 1) * float(np.abs(q).sum()) / n

    total = total_abs = err = 0.0
    ffts = 0
    for p, mult in maps:
        factors, lines = [], {}     # (row, c) per coordinate; the factors of each line
        for i in range(d):
            a, b = (z[i], -z[p[i]] % n) if i <= p[i] else (-z[i] % n, z[p[i]])
            factors.append((row_of.get((min(i, p[i]), max(i, p[i])), 0), a or b))
            if a or b:
                L = (1, b * pow(a, -1, n) % n) if a else (0, 1)
                lines.setdefault(L, []).append(factors[-1])
        consts = [f for f in factors if not f[1]]
        rows = [r for L in lines for r in {r for r, _ in lines[L]}]
        order = sorted(lines, key=lambda L: (-len(lines[L]),
                                             any(rows.count(r) > 1 for r, _ in lines[L])))
        k = 0
        if len(order) <= 1:
            val, e = line(factors)
        elif len(order) == 2:
            f1, f2 = lines[order[0]] + consts, lines[order[1]]
            (u, eu), (v, ev) = line(f1), line(f2)
            val = u + v + u * v
            # a term rounds at most twice
            e = (eu + ev + abs(u) * ev + eu * (abs(v) + ev)
                 + _gamma(2) * (abs(u) + abs(v) + abs(u * v)))
        else:
            L1, L2, L3 = order
            inv_det = pow((L1[0] * L2[1] - L1[1] * L2[0]) % n, -1, n)
            alpha = (L3[0] * L2[1] - L3[1] * L2[0]) * inv_det % n
            beta = (L1[0] * L3[1] - L1[1] * L3[0]) * inv_det % n
            [(r2, c2)], [(r3, c3)] = lines[L2], lines[L3]
            step = c2 * pow(c3 * beta, -1, n) % n
            gy = g[r3]
            gx = gy if (r2, step) == (r3, 1) else g[r2].take(step * x % n)
            val, e, k = _correlation_sum(lines[L1] + consts, g, gx, gy, top, c3 * alpha % n)
        ffts += k
        total += mult * val
        total_abs += mult * abs(val)
        err += mult * e
    fact = float(spec.perm.group_order)
    table = d * cert_g * (top + cert_g) ** (d - 1) * (1.0 + _gamma(d + 2))
    # up to five additions and the division
    return total / fact, float(table + (err + _gamma(6) * total_abs) / fact), ffts


def shift_invariant_profile(rule: LatticeRule, spec: KernelSpec) -> tuple[np.ndarray, float]:
    """Shift-averaged kernel of the unit space less 1 at the n unshifted
    nodes j*z/n of a lattice rule, in memory O(2^s * n).

    The multiplicity-weighted frequency sum expands over exchange fixed
    points: per partition of the invariant set I, a block B of size c gives
    kappa_c = 1 + o_c at node j's grid point (j * S_B mod n)/n, o_c the
    zero-mean table (``power_kernel_table``).  The blocks taking the 1
    cover some I \\ V, and the partitions of m coordinates weighted by
    prod (|B|-1)! number m!, so the invariant factor is 1 + p, with
    p = sum_(V != {}) w_V f[V], w_V = (s-|V|)! / s! and f the partition
    sums of the o_c (``_partition_sums``).  The free coordinates give 1 + q,
    q from ``_free_excess``.  The value is q + p + p q: no term holds 1, so
    its rounding scales with the o_c.

    Returns (values, cert), cert a bound uniform over the nodes.  With N, E
    the size recurrence of ``permutation_power_sum``, p errs by
    E_p = sum_V w_V (E[|V|] + g_V N[|V|]), g_V the gamma of the engine's
    |V| + 2^|V| - 1 roundings, w_V's 3 (two factorials to float and the
    division) and the weighted sum's 2^s - 1; |p| <= sum_V w_V N[|V|] + E_p.
    q and |q| are bounded by ``_free_excess``.  The value's product and two
    sums add gamma_3 times their bounds.
    """
    n = rule.n
    inv = spec.perm.invariant_idx
    s = len(inv)
    z = np.asarray(rule.z, dtype=np.int64)
    table, tcerts = power_kernel_table(spec.unit, n)
    tmax = np.max(np.abs(table), axis=1) + tcerts
    f = _partition_sums(z[inv].tolist(), n, table)
    fv, fe = permutation_power_sum(tmax[:s], tcerts[:s])
    size = np.array([V.bit_count() for V in range(1, 1 << s)], dtype=np.int64)
    wts = np.array([float(math.factorial(s - v)) for v in size]) / float(math.factorial(s))
    p = np.einsum("i,ij->j", wts, f[1:])   # einsum, not BLAS: see cbc_step_objectives
    g_V = _gamma(size + (1 << size) + (1 << s) + 1)
    p_cert = float(wts @ (fe[size] + g_V * fv[size]))
    p_abs = float(wts @ fv[size]) + p_cert
    fvals = (table[0].take(np.arange(n) * zi % n) for zi in z[spec.perm.free_idx])
    q, q_cert, q_abs = _free_excess(fvals, 1.0 + float(tmax[0]), tcerts[0])
    cert = (q_cert + p_cert + p_abs * q_cert + q_abs * p_cert
            + _gamma(3) * (q_abs + p_abs + p_abs * q_abs))
    return q + p + p * q, float(cert)


def symmetrized_mass(spec: KernelSpec, tau: float = 1.0) -> Enclosure:
    """Enclosure of sum_j lambda_j^(1/tau) over the whole multivariate
    spectrum of the unit space.

    At tau = 1 this is the diagonal integral of the exchange-invariant
    kernel, the multiplicity-weighted total spectral mass.  It splits into
    the tensor factor over free coordinates and the sorted-tuple sum over the
    exchangeable block; the latter is the fixed-point recurrence applied to
    the per-order scalar masses spectral_mass(w, c / tau).
    """
    w = spec.unit.weight
    s = spec.perm.size
    d_free = spec.d - s
    masses = [spectral_mass(w, c / tau) for c in range(1, s + 1)]
    lo = permutation_power_sum([m.lo for m in masses])[s]
    hi = permutation_power_sum([m.hi for m in masses])[s]
    fact = float(math.factorial(s))
    # N[m] of the recurrence has m(m + 5)/2 roundings: each term 3 (the
    # integer weight to float and two products) on top of N[m - c], and the
    # sum m - 1; s! to float and the division add 2
    k = s * (s + 5) // 2 + 2
    base = Enclosure(_rounded(lo / fact, k).lo, _rounded(hi / fact, k).hi)
    if d_free:
        base = base * spectral_mass(w, 1.0 / tau).power(d_free)
    return base
