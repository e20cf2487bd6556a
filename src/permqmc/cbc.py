"""Component-by-component construction of shifted rank-1 lattice rules.

The generating vector is grown one coordinate at a time by minimizing the
per-coordinate objective (or by accepting the first candidate beating the
average, which certifies the same family of bounds for smaller exponents).
A shift realizing at-most-average squared error is then found by seeded
random search; the mean-value argument guarantees such shifts exist, so the
search is retried with doubled budgets before flagging.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ErrorReport,
    bound_constant,
    cbc_step_objectives,
    mean_sq_error,
    worst_case_error_sq,
)
from .kernels import KernelSpec, power_kernel_table
from .lattice import LatticeRule, is_prime
from .weights import Enclosure

__all__ = [
    "CbcResult",
    "cbc_construct",
    "shift_search",
    "ShiftSearchResult",
    "construct_shifted",
]


@dataclass
class CbcResult:
    """Outcome of the component-by-component search."""

    rule: LatticeRule
    per_step_objective: list[float]
    certified_bound: float
    achieved_E2: float
    achieved_E2_certificate: float
    mode: str
    lam: float
    achieved_e2_shifted: float | None = None
    shift_seed: int | None = None
    shift_flagged: bool = False

    def to_json(self) -> dict:
        return {
            "n": self.rule.n,
            "z": list(self.rule.z),
            "shift": None if self.rule.shift is None else list(self.rule.shift),
            "per_step_objective": self.per_step_objective,
            "certified_bound": self.certified_bound,
            "achieved_E2": self.achieved_E2,
            "achieved_E2_certificate": self.achieved_E2_certificate,
            "achieved_e2_shifted": self.achieved_e2_shifted,
            "mode": self.mode,
            "lambda": self.lam,
            "shift_seed": self.shift_seed,
            "shift_flagged": self.shift_flagged,
        }


def cbc_construct(spec: KernelSpec, n: int, mode: str = "minimize",
                  lam: float = 1.0) -> CbcResult:
    """Build a generating vector for the n-point rule coordinate by coordinate.

    The first component is fixed to 1 (all nonzero choices are equivalent).
    ``mode="minimize"`` takes the exact argmin of the objective at every step
    (ties broken toward the smallest candidate); ``mode="better_than_average"``
    accepts the first candidate whose objective^(1/lambda) is at most the
    average over all candidates.
    """
    if mode not in ("minimize", "better_than_average"):
        raise ValueError(f"unknown mode {mode!r}")
    if not is_prime(n):
        raise ValueError(f"n = {n} is not prime")
    if n < spec.weight.c_R:
        raise ValueError(f"n = {n} must be at least c_R = {spec.weight.c_R}")
    d = spec.d
    c_max = max(1, min(spec.perm.size, d))
    tables = power_kernel_table(spec.weight, n, c_max, include_constant=False,
                                mode=spec.mode, tol=spec.tol)
    z: list[int] = [1]
    per_step: list[float] = []
    vals, _ = cbc_step_objectives([], n, spec, tables)
    per_step.append(float(vals[1]))
    for _ell in range(2, d + 1):
        vals, _ = cbc_step_objectives(z, n, spec, tables)
        if mode == "minimize":
            choice = int(np.argmin(vals))
        else:
            scaled = vals ** (1.0 / lam)
            choice = int(np.argmax(scaled <= np.mean(scaled)))
        z.append(choice)
        per_step.append(float(vals[choice]))
    rule = LatticeRule(n, tuple(z))
    e2 = mean_sq_error(rule, spec, method="fixed_point")
    cbound = float(
        (1.0 + spec.weight.c_R) ** lam
        * bound_constant(spec, lam).hi
        * max(1, spec.perm.size)
        / n ** lam
    )
    return CbcResult(
        rule=rule,
        per_step_objective=per_step,
        certified_bound=cbound,
        achieved_E2=e2.value,
        achieved_E2_certificate=e2.truncation_certificate,
        mode=mode,
        lam=lam,
    )


@dataclass
class ShiftSearchResult:
    rule: LatticeRule
    e2_shifted: float
    e2_certificate: float
    E2: float
    E2_certificate: float
    certified: bool
    trials_used: int
    seed: int


def shift_search(rule: LatticeRule, spec: KernelSpec, trials: int = 64,
                 seed: int = 0, max_doublings: int = 3) -> ShiftSearchResult:
    """Find a shift whose squared error is at most the shift average.

    The zero shift is always candidate 0, so the result is never worse than
    the unshifted rule.  If no drawn shift beats the certified shift average
    the budget is doubled up to ``max_doublings`` times; failing that, the
    best candidate is returned flagged (no exception: existence is only
    guaranteed on average).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    E2 = mean_sq_error(rule, spec, method="fixed_point")
    rng = np.random.Generator(np.random.Philox(seed))
    best_val = math.inf
    best_cert = 0.0
    best_shift: tuple[float, ...] | None = None
    used = 0
    budget = trials
    for round_idx in range(max_doublings + 1):
        draws = rng.uniform(size=(budget, rule.d))
        if round_idx == 0:
            draws[0] = 0.0
        for delta in draws:
            shifted = rule.with_shift(tuple(delta))
            rep = worst_case_error_sq(shifted, spec)
            used += 1
            if rep.value < best_val:
                best_val = rep.value
                best_cert = rep.truncation_certificate
                best_shift = tuple(delta)
        if best_val <= E2.value + E2.truncation_certificate + best_cert:
            break
        budget *= 2
    certified = best_val <= E2.value + E2.truncation_certificate + best_cert
    return ShiftSearchResult(
        rule=rule.with_shift(best_shift),
        e2_shifted=best_val,
        e2_certificate=best_cert,
        E2=E2.value,
        E2_certificate=E2.truncation_certificate,
        certified=certified,
        trials_used=used,
        seed=seed,
    )


def construct_shifted(spec: KernelSpec, n: int, trials: int = 64, seed: int = 0,
                      mode: str = "minimize", lam: float = 1.0) -> CbcResult:
    """Convenience: CBC construction followed by the shift search."""
    res = cbc_construct(spec, n, mode=mode, lam=lam)
    sh = shift_search(res.rule, spec, trials=trials, seed=seed)
    res.rule = sh.rule
    res.achieved_e2_shifted = sh.e2_shifted
    res.shift_seed = seed
    res.shift_flagged = not sh.certified
    return res
