"""Spectral weight systems for periodic function spaces.

A weight system penalizes each integer frequency vector ``k`` with

    r(k) = prod_l ( delta_{0,k_l} / beta0 + (1 - delta_{0,k_l}) * R(|k_l|)^(2*alpha) / beta1 ),

where ``R`` is a generating function growing linearly, ``alpha > 1/2`` is the
smoothness, and ``(beta0, beta1)`` scale the constant and oscillatory modes.
All scalar constants derived from tail sums of ``R^(-2*alpha)`` are
two-sided enclosures that hold including floating-point rounding: every tail
is a finite table part plus a multiple of the Hurwitz zeta function, which
``_hurwitz_zeta`` encloses by Euler-Maclaurin summation with a rigorous
remainder, and enclosure arithmetic rounds its ends outward.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .symmetry import _gamma

__all__ = [
    "Enclosure",
    "GeneratorSpec",
    "SpectralWeight",
    "r_weight_inv_factors",
    "tail_sum",
    "spectral_mass",
    "eta_star",
    "min_contraction_order",
    "weight_to_config",
    "weight_from_config",
]

# Bernoulli corrections of the Euler-Maclaurin formula in ``_hurwitz_zeta``
_EM_TERMS = 10


def _down(x: float) -> float:
    """One step toward -inf, except at +0.0: a sum rounds to +0.0 only when
    it is exactly zero, and a product or power only when its exact value is
    >= 0 (an underflowing product keeps its sign)."""
    if x == 0.0 and math.copysign(1.0, x) > 0.0:
        return x
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


@dataclass(frozen=True)
class Enclosure:
    """Two-sided bracket ``lo <= value <= hi`` for a nonnegative scalar.

    Arithmetic rounds the ends outward: one ``nextafter`` step covers a
    rounded IEEE sum or product, two cover a ``pow``, which is within one
    ulp.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"empty enclosure [{self.lo}, {self.hi}]")

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def scale(self, factor: float) -> "Enclosure":
        if factor >= 0:
            return Enclosure(_down(self.lo * factor), _up(self.hi * factor))
        return Enclosure(_down(self.hi * factor), _up(self.lo * factor))

    def __add__(self, other: "Enclosure | float") -> "Enclosure":
        if isinstance(other, Enclosure):
            return Enclosure(_down(self.lo + other.lo), _up(self.hi + other.hi))
        return Enclosure(_down(self.lo + other), _up(self.hi + other))

    __radd__ = __add__

    def __mul__(self, other: "Enclosure | float") -> "Enclosure":
        if isinstance(other, Enclosure):
            cands = (self.lo * other.lo, self.lo * other.hi,
                     self.hi * other.lo, self.hi * other.hi)
            return Enclosure(_down(min(cands)), _up(max(cands)))
        return self.scale(float(other))

    __rmul__ = __mul__

    def power(self, exponent: float) -> "Enclosure":
        if self.lo < 0:
            raise ValueError("power only supported for nonnegative enclosures")
        a, b = self.lo ** exponent, self.hi ** exponent
        return Enclosure(_down(_down(min(a, b))), _up(_up(max(a, b))))


def _rounded(value: float, k: int) -> Enclosure:
    """Enclosure of a nonnegative quantity whose computed value met at most
    k roundings: value * (1 -+ gamma_k), rounded outward."""
    g = _gamma(k)
    return Enclosure(_down(value * (1.0 - g)), _up(value * (1.0 + g)))


@lru_cache(maxsize=8)
def _bernoulli(n: int) -> tuple[Fraction, ...]:
    """Exact Bernoulli numbers B_0..B_n (B_1 = -1/2), from the recurrence
    sum_{k=0}^{j} C(j+1, k) B_k = 0."""
    B = [Fraction(1)]
    for j in range(1, n + 1):
        B.append(-sum(math.comb(j + 1, k) * B[k] for k in range(j)) / (j + 1))
    return tuple(B)


# B_2k / (2k)! for k = 1.._EM_TERMS, each rounded once
_EM_COEFFS = tuple(float(_bernoulli(2 * _EM_TERMS)[2 * k] / math.factorial(2 * k))
                   for k in range(1, _EM_TERMS + 1))


def _hurwitz_zeta(s: float, a: int) -> Enclosure:
    """Enclosure of zeta(s, a) = sum_{m >= 0} (a + m)^(-s), real s > 1 and
    integer a >= 1.

    Euler-Maclaurin summation after N direct terms, N the least with
    X = a + N >= 12 + s, and M = ``_EM_TERMS`` corrections:

        zeta(s, a) = sum_{m < N} (a + m)^(-s) + X^(1-s) / (s - 1) + X^(-s) / 2
                     + sum_{k=1}^{M} B_2k / (2k)! * g_k + R,
        g_k = (s)_{2k-1} X^(-s-2k+1),   (s)_j = s (s + 1) ... (s + j - 1),

    with |R| <= 4 (s)_{2M} / (2 pi)^(2M) * X^(-s-2M+1) / (s + 2M - 1)
    = 4 g_M / (2 pi)^(2M) (Johansson, Numer. Algorithms 69 (2015) 253-270,
    Theorem 1).

    Rounding, counted in units of u with a pow (within one ulp) as two:
    a direct term is one pow (2); P = X^(-s) is one pow, and no exponent is
    rounded, because every other power of X is P times integer powers of X;
    X^(1-s) / (s - 1) = P * X / (s - 1) has 4 (s - 1 is exact) and
    X^(-s) / 2 has 2; g_1 = s * P / X has 4, each step
    g_(k+1) = g_k * (s + 2k - 1) * (s + 2k) / X / X adds 6, and the
    coefficient and its product 2 more, so the k-th correction has 6k.  The
    remainder bound 4 * g_M * (2 pi)^(-2M) has 6M - 2 + 4: math.pi is below
    pi, which only raises the constant.  ``math.fsum`` rounds the sum once.
    So the error is at most gamma_(6M+1) * S + (1 + gamma_(6M+2)) * |R|, S
    the sum of the absolute terms; k = 6M + 6 also covers the fsum of S and
    the four operations that form the pad, and the last one is rounded
    outward.

    Underflow: each operation that underflows adds an absolute error of at
    most one subnormal ulp, 2^-1074.  The N direct terms and the integral
    and half terms meet N + 6 such errors.  In a correction each later
    step multiplies an earlier error by ((s + 2k)/X)^2 < (21/13)^2, at most
    2^14 over the M steps, and the coefficients are below 1/12, so the 6M
    operations of the corrections and the remainder add less than 2^20
    ulps.  The pad includes (N + 2^20) * 2^-1074, so hi stays above the
    exact value, and lo stays >= 0, when the terms underflow.
    """
    if not s > 1.0:
        raise ValueError(f"divergent zeta: exponent {s} <= 1")
    if a < 1:
        raise ValueError("zeta(s, a) needs an integer a >= 1")
    N = max(0, math.ceil(12.0 + s - a))
    X = float(a + N)
    terms = [float(a + m) ** -s for m in range(N)]
    P = X ** -s
    terms += [P * X / (s - 1.0), 0.5 * P]
    g = s * P / X
    for k, coeff in enumerate(_EM_COEFFS, start=1):
        if k > 1:
            g = g * (s + 2 * k - 3) * (s + 2 * k - 2) / X / X
        terms.append(coeff * g)
    rem = 4.0 * g * (2.0 * math.pi) ** (-2 * _EM_TERMS)
    value = math.fsum(terms)
    g_k = _gamma(6 * _EM_TERMS + 6)
    pad = (g_k * math.fsum(map(abs, terms)) + (1.0 + g_k) * rem
           + math.ldexp(N + (1 << 20), -1074))
    return Enclosure(max(_down(value - pad), 0.0), _up(value + pad))


@dataclass(frozen=True)
class GeneratorSpec:
    """Generating function R on [1, oo).

    kind:
        ``korobov_linear``  R(m) = 2*pi*m
        ``plain_linear``    R(m) = m
        ``custom``          tabulated values with a linear asymptote:
                            R(m) = table[m-1] for m <= len(table), else slope*m.
    """

    kind: str = "korobov_linear"
    table: tuple[float, ...] = ()
    slope: float = 0.0

    def __post_init__(self):
        if self.kind not in ("korobov_linear", "plain_linear", "custom"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == "custom":
            if not self.table or self.slope <= 0:
                raise ValueError("custom generator needs a value table and a positive slope")
            if any(v <= 0 for v in self.table):
                raise ValueError("generator values must be positive")

    @staticmethod
    def korobov() -> "GeneratorSpec":
        return GeneratorSpec("korobov_linear")

    @property
    def is_linear(self) -> bool:
        return self.kind in ("korobov_linear", "plain_linear")

    @property
    def linear_slope(self) -> float:
        """Exact slope rho with R(m) = rho*m (linear kinds only)."""
        if self.kind == "korobov_linear":
            return 2.0 * math.pi
        if self.kind == "plain_linear":
            return 1.0
        raise ValueError("custom generator has no exact slope")

    def __call__(self, m):
        """Evaluate R at integer arguments m >= 1, vectorized."""
        m_arr = np.asarray(m)
        if np.any(m_arr < 1):
            raise ValueError("R is defined on m >= 1")
        if self.kind == "korobov_linear":
            return 2.0 * math.pi * m_arr.astype(float)
        if self.kind == "plain_linear":
            return m_arr.astype(float)
        table = np.asarray(self.table)
        out = self.slope * m_arr.astype(float)
        small = m_arr <= len(table)
        if np.any(small):
            out = np.where(small, table[np.minimum(m_arr, len(table)) - 1], out)
        return out

    def power_tail(self, s: float, start: int) -> Enclosure:
        """Enclosure of sum_{m >= start} R(m)^(-s) for s > 1.

        Beyond its table of L values (none for the linear kinds) R is
        slope * m exactly, so the tail is the table part
        sum_{start <= m <= L} table[m-1]^(-s), its rounding bounded, plus
        slope^(-s) * zeta(s, max(start, L + 1)) (``_hurwitz_zeta``).
        """
        if s <= 1.0:
            raise ValueError(f"divergent tail: exponent {s} <= 1")
        if start < 1:
            raise ValueError("start must be >= 1")
        slope = self.linear_slope if self.is_linear else self.slope
        # slope^(-s) is one pow; 2*pi is rounded once, which the power
        # multiplies by s
        k = 2 + (math.ceil(s) if self.kind == "korobov_linear" else 0)
        tail = _hurwitz_zeta(s, max(start, len(self.table) + 1)) * _rounded(slope ** -s, k)
        head = self.table[start - 1:]
        if head:
            # one pow per term and the correctly rounded fsum
            tail = tail + _rounded(math.fsum(v ** -s for v in head), 3)
        return tail


def _check_submultiplicative(gen: GeneratorSpec, c_R: float) -> None:
    """Sampled check of R(m)/c_R <= R(n*m)/n <= R(m)."""
    probes_m = np.arange(1, 33)
    for n in (2, 3, 5, 7, 16, 31):
        lhs = gen(probes_m) / c_R
        mid = gen(n * probes_m) / n
        rhs = gen(probes_m)
        if np.any(mid < lhs * (1 - 1e-12)) or np.any(mid > rhs * (1 + 1e-12)):
            raise ValueError(
                "generator violates the growth certificate "
                f"R(m)/c_R <= R(n*m)/n <= R(m) at n={n}"
            )


@dataclass(frozen=True)
class SpectralWeight:
    """Weight system (alpha, beta0, beta1, R, c_R).

    Parameters
    ----------
    alpha : float
        Smoothness exponent, must exceed 1/2 so that the oscillatory weights
        are square-summable.
    beta0, beta1 : float
        Positive scale of the constant and the oscillatory modes.
    generator : GeneratorSpec
        Generating function R.
    c_R : float
        Growth certificate for R; forced to 1 for the built-in linear kinds.
    """

    alpha: float = 1.0
    beta0: float = 1.0
    beta1: float = 1.0
    generator: GeneratorSpec = field(default_factory=GeneratorSpec.korobov)
    c_R: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0.5:
            raise ValueError("alpha must exceed 1/2")
        if self.beta0 <= 0 or self.beta1 <= 0:
            raise ValueError("beta0 and beta1 must be positive")
        if self.c_R < 1.0:
            raise ValueError("c_R must be >= 1")
        if self.generator.is_linear and self.c_R != 1.0:
            raise ValueError("linear generators force c_R = 1")
        _check_submultiplicative(self.generator, self.c_R)

    @property
    def has_integer_alpha(self) -> bool:
        return abs(self.alpha - round(self.alpha)) < 1e-12


def _factor_roundings(w: SpectralWeight) -> int:
    """Roundings of a factor beta1 * R(m)^(-2 alpha), a pow counted as two:
    R(m) two, which the power multiplies by 2 alpha, the pow and the product."""
    return 2 * math.ceil(2.0 * w.alpha) + 3


def r_weight_inv_factors(k_columns: np.ndarray, w: SpectralWeight) -> np.ndarray:
    """Elementwise reciprocal factors for an integer array of frequencies.

    Returns an array of the same shape holding beta0 (1 on the unit weight
    of ``KernelSpec.unit``) where the entry is zero and beta1*R(|k|)^(-2 alpha)
    otherwise; the reciprocal weight of each row
    is the product of its factors.  The factors of |k| = 0..max|k| (of the
    distinct |k| only, when there are more of those than entries) are formed
    once and gathered.
    """
    k_abs = np.abs(np.asarray(k_columns, dtype=np.int64))
    top = int(k_abs.max(initial=0))
    if top < k_abs.size:
        levels, index = np.arange(top + 1), k_abs
    else:
        levels, index = np.unique(k_abs, return_inverse=True)
    R = np.asarray(w.generator(np.maximum(levels, 1)), dtype=float)
    table = w.beta1 * R ** (-2.0 * w.alpha)
    table[levels == 0] = w.beta0
    return table[index.reshape(k_abs.shape)]


def tail_sum(w: SpectralWeight, exponent: float | None = None, start: int = 1) -> Enclosure:
    """Enclosure of sum_{m >= start} R(m)^(-2*exponent)
    (``GeneratorSpec.power_tail``).

    ``exponent`` defaults to alpha.  Raises for divergent exponents
    (2*exponent <= 1, R growing linearly).
    """
    e = w.alpha if exponent is None else float(exponent)
    return w.generator.power_tail(2.0 * e, start)


def spectral_mass(w: SpectralWeight, power: float = 1.0) -> Enclosure:
    """Enclosure of the univariate mass beta0^power + 2*beta1^power * sum R^(-2*alpha*power)."""
    t = tail_sum(w, exponent=w.alpha * power)
    # beta0^power and 2*beta1^power are one pow each
    return _rounded(w.beta0 ** power, 2) + t * _rounded(2.0 * w.beta1 ** power, 2)


def eta_star(w: SpectralWeight, V: int = 0, tau: float = 1.0) -> Enclosure:
    """Contraction constant 2*(beta1/beta0)^(1/tau) * sum_{m > V} R(m)^(-2*alpha/tau).

    At tau = 1 it is the eta* of the error bounds, at tau > 1 the relative
    spectral tail rho of the approximation chain; both require the upper end
    to drop below one.
    """
    if V < 0:
        raise ValueError("V must be >= 0")
    # a division (or, on a unit weight, the rounding of its beta1 = rho) and
    # a pow, which scales that error by 1/tau <= 1
    factor = _rounded(2.0 * (w.beta1 / w.beta0) ** (1.0 / tau), 3)
    return tail_sum(w, exponent=w.alpha / tau, start=V + 1) * factor


def min_contraction_order(w: SpectralWeight, v_max: int = 100_000, tau: float = 1.0) -> int:
    """Smallest V <= v_max with a certified eta_star(w, V, tau) < 1, found by
    doubling and bisection (eta_star decreases in V) in O(log V) evaluations;
    RuntimeError, after O(log v_max), when there is none."""
    bad, good = -1, 0
    while eta_star(w, good, tau).hi >= 1.0:
        if good >= v_max:
            raise RuntimeError(f"no contraction order found up to V = {v_max}")
        bad, good = good, min(2 * good + 1, v_max)
    while good - bad > 1:
        mid = (bad + good) // 2
        bad, good = (bad, mid) if eta_star(w, mid, tau).hi < 1.0 else (mid, good)
    return good


def weight_to_config(w: SpectralWeight) -> dict:
    """Serialize to the structured config block."""
    gen: dict = {"kind": w.generator.kind}
    if w.generator.kind == "custom":
        gen["table"] = list(w.generator.table)
        gen["slope"] = w.generator.slope
    return {
        "alpha": w.alpha,
        "beta0": w.beta0,
        "beta1": w.beta1,
        "generator": gen,
        "c_R": w.c_R,
    }


def weight_from_config(cfg: dict) -> SpectralWeight:
    gen_cfg = cfg.get("generator", {"kind": "korobov_linear"})
    if isinstance(gen_cfg, str):
        gen_cfg = {"kind": gen_cfg}
    if not isinstance(gen_cfg, dict):
        raise TypeError(f"block 'generator' must be a JSON object or a kind name, "
                        f"got {type(gen_cfg).__name__}")
    gen = GeneratorSpec(
        kind=gen_cfg.get("kind", "korobov_linear"),
        table=tuple(gen_cfg.get("table", ())),
        slope=float(gen_cfg.get("slope", 0.0)),
    )
    return SpectralWeight(
        alpha=float(cfg.get("alpha", 1.0)),
        beta0=float(cfg.get("beta0", 1.0)),
        beta1=float(cfg.get("beta1", 1.0)),
        generator=gen,
        c_R=float(cfg.get("c_R", 1.0)),
    )
