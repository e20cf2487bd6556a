"""Spectral weight systems for periodic function spaces.

A weight system penalizes each integer frequency vector ``k`` with

    r(k) = prod_l ( delta_{0,k_l} / beta0 + (1 - delta_{0,k_l}) * R(|k_l|)^(2*alpha) / beta1 ),

where ``R`` is a generating function growing linearly, ``alpha > 1/2`` is the
smoothness, and ``(beta0, beta1)`` scale the constant and oscillatory modes.
All scalar constants derived from tail sums of ``R^(-2*alpha)`` are computed
with two-sided enclosures so that downstream error bounds stay certified.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import zeta as _zeta

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

# Relative slack applied to values obtained from library special functions;
# they are correct to machine precision but not interval-certified.
_ULP_SLACK = 1e-14

# Default cutoff for direct series summation on custom generators.
DEFAULT_TAIL_CUTOFF = 10**6


@dataclass(frozen=True)
class Enclosure:
    """Two-sided bracket ``lo <= value <= hi`` for a nonnegative scalar."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"empty enclosure [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def scale(self, factor: float) -> "Enclosure":
        if factor >= 0:
            return Enclosure(self.lo * factor, self.hi * factor)
        return Enclosure(self.hi * factor, self.lo * factor)

    def __add__(self, other: "Enclosure | float") -> "Enclosure":
        if isinstance(other, Enclosure):
            return Enclosure(self.lo + other.lo, self.hi + other.hi)
        return Enclosure(self.lo + other, self.hi + other)

    __radd__ = __add__

    def __mul__(self, other: "Enclosure | float") -> "Enclosure":
        if isinstance(other, Enclosure):
            cands = (self.lo * other.lo, self.lo * other.hi,
                     self.hi * other.lo, self.hi * other.hi)
            return Enclosure(min(cands), max(cands))
        return self.scale(float(other))

    __rmul__ = __mul__

    def power(self, exponent: float) -> "Enclosure":
        if self.lo < 0:
            raise ValueError("power only supported for nonnegative enclosures")
        a, b = self.lo ** exponent, self.hi ** exponent
        return Enclosure(min(a, b), max(a, b))

    @staticmethod
    def exact(value: float, rel: float = _ULP_SLACK) -> "Enclosure":
        pad = abs(value) * rel
        return Enclosure(value - pad, value + pad)


def _as_exact(value: float) -> Enclosure:
    return Enclosure.exact(float(value))


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

    @staticmethod
    def plain() -> "GeneratorSpec":
        return GeneratorSpec("plain_linear")

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

    def power_tail(self, s: float, start: int, c_R: float,
                   cutoff: int = DEFAULT_TAIL_CUTOFF) -> Enclosure:
        """Enclosure of sum_{m >= start} R(m)^(-s) for s > 1.

        Linear generators use the Hurwitz zeta function directly.  Custom
        generators sum the table range exactly and bracket the remainder with
        integral bounds using R(1)*m/c_R <= R(m) <= R(1)*m.
        """
        if s <= 1.0:
            raise ValueError(f"divergent tail: exponent {s} <= 1")
        if start < 1:
            raise ValueError("start must be >= 1")
        if self.is_linear:
            rho = self.linear_slope
            val = rho ** (-s) * float(_zeta(s, start))
            return Enclosure.exact(val)
        # custom: exact partial sum to cutoff, integral bracket beyond
        r1 = float(self(1))
        m_hi = int(cutoff)
        if start > m_hi:
            m_hi = start  # degenerate partial range; bounds below still valid
            partial = 0.0
            last = start - 1
        else:
            ms = np.arange(start, m_hi + 1)
            partial = float(np.sum(self(ms) ** (-s)))
            last = m_hi
        # remainder over m > last; terms decreasing in m
        tail_int = (last + 1) ** (1.0 - s) / (s - 1.0)
        rem_hi = (c_R / r1) ** s * ((last + 1) ** (-s) + tail_int)
        rem_lo = (1.0 / r1) ** s * tail_int
        return Enclosure(partial + rem_lo, partial + rem_hi)


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
        # N_R(alpha) must be finite; probing the tail raises on divergence.
        self.generator.power_tail(2.0 * self.alpha, 1, self.c_R, cutoff=16)

    @property
    def has_integer_alpha(self) -> bool:
        return abs(self.alpha - round(self.alpha)) < 1e-12

    def oscillatory_weight_inv(self, m):
        """beta1 * R(m)^(-2*alpha) for integer m >= 1, vectorized."""
        return self.beta1 * np.asarray(self.generator(m), dtype=float) ** (-2.0 * self.alpha)


def r_weight_inv_factors(k_columns: np.ndarray, w: SpectralWeight) -> np.ndarray:
    """Elementwise reciprocal factors for an integer array of frequencies.

    Returns an array of the same shape holding beta0 where the entry is zero
    and beta1*R(|k|)^(-2 alpha) otherwise; the reciprocal weight of each row
    is the product of its factors.
    """
    k_arr = np.asarray(k_columns, dtype=np.int64)
    out = np.full(k_arr.shape, w.beta0, dtype=float)
    nz = k_arr != 0
    if np.any(nz):
        out[nz] = w.oscillatory_weight_inv(np.abs(k_arr[nz]))
    return out


def tail_sum(w: SpectralWeight, exponent: float | None = None, start: int = 1,
             cutoff: int = DEFAULT_TAIL_CUTOFF) -> Enclosure:
    """Enclosure of sum_{m >= start} R(m)^(-2*exponent).

    ``exponent`` defaults to alpha.  Raises for divergent exponents
    (2*exponent <= 1 for linearly growing R).
    """
    e = w.alpha if exponent is None else float(exponent)
    return w.generator.power_tail(2.0 * e, start, w.c_R, cutoff=cutoff)


def spectral_mass(w: SpectralWeight, power: float = 1.0) -> Enclosure:
    """Enclosure of the univariate mass beta0^power + 2*beta1^power * sum R^(-2*alpha*power)."""
    t = tail_sum(w, exponent=w.alpha * power)
    return _as_exact(w.beta0 ** power) + t.scale(2.0 * w.beta1 ** power)


def eta_star(w: SpectralWeight, V: int = 0) -> Enclosure:
    """Contraction constant 2*beta1/beta0 * sum_{m > V} R(m)^(-2*alpha).

    The associated error bounds require the upper end to drop below one.
    """
    if V < 0:
        raise ValueError("V must be >= 0")
    return tail_sum(w, start=V + 1).scale(2.0 * w.beta1 / w.beta0)


def _first_below_one(enclosure: Callable[[int], Enclosure], cap: int) -> int | None:
    """Smallest index V in 0..cap with enclosure(V).hi < 1, for an
    enclosure whose upper end decreases in V, or None when there is none.

    Doubling and then bisection: O(log V) evaluations, and
    O(log cap) before giving up.
    """
    def admissible(V: int) -> bool:
        return enclosure(V).hi < 1.0

    bad, good = -1, 0
    while not admissible(good):
        if good >= cap:
            return None
        bad, good = good, min(2 * good + 1, cap)
    while good - bad > 1:
        mid = (bad + good) // 2
        if admissible(mid):
            good = mid
        else:
            bad = mid
    return good


def min_contraction_order(w: SpectralWeight, v_max: int = 100_000) -> int:
    """Smallest V <= v_max with a certified eta_star(w, V) < 1
    (``_first_below_one``: eta_star decreases in V)."""
    V = _first_below_one(lambda v: eta_star(w, v), v_max)
    if V is None:
        raise RuntimeError(f"no contraction order found up to V = {v_max}")
    return V


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
