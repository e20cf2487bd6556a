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
from dataclasses import dataclass

import numpy as np

from .errors import (
    _check_step_bytes,
    bound_constant,
    cbc_step_objectives,
    mean_sq_error,
    worst_case_error_sq,
)
from .kernels import KernelSpec
from .lattice import LatticeRule, is_prime
from .symmetry import _gamma
from .weights import _up

__all__ = [
    "CbcResult",
    "cbc_construct",
    "shift_search",
    "ShiftSearchResult",
    "construct_shifted",
]

MAX_DOUBLINGS = 3


@dataclass
class CbcResult:
    """Outcome of the component-by-component search."""

    rule: LatticeRule
    per_step_objective: list[float]
    per_step_certificate: list[float]
    certified_bound: float
    achieved_E2: float
    achieved_E2_certificate: float
    mode: str
    lam: float
    achieved_e2_shifted: float | None = None
    achieved_e2_shifted_certificate: float | None = None
    shift_seed: int | None = None
    shift_trials_used: int | None = None
    shift_flagged: bool = False

    def scaled(self, spec: KernelSpec) -> "CbcResult":
        """This unit result in the space of ``spec``, in place: the errors and
        the bound by ``KernelSpec.scaled``, the step certificates (degree 0)
        by ``KernelSpec.rho_cert``."""
        self.achieved_E2, self.achieved_E2_certificate = spec.scaled(
            self.achieved_E2, self.achieved_E2_certificate)
        bound, cert = spec.scaled(self.certified_bound, 0.0)
        self.certified_bound = _up(bound + cert) if cert else bound
        self.per_step_certificate = list(map(spec.rho_cert, self.per_step_objective,
                                             self.per_step_certificate))
        if self.achieved_e2_shifted is not None:
            self.achieved_e2_shifted, self.achieved_e2_shifted_certificate = spec.scaled(
                self.achieved_e2_shifted, self.achieved_e2_shifted_certificate)
        return self

    def to_json(self) -> dict:
        out = {k: v for k, v in vars(self).items() if k not in ("rule", "lam")}
        shift = self.rule.shift
        return {**out, "n": self.rule.n, "z": list(self.rule.z), "lambda": self.lam,
                "shift": None if shift is None else list(shift)}


def cbc_construct(spec: KernelSpec, n: int, mode: str = "minimize",
                  lam: float = 1.0) -> CbcResult:
    """Build a generating vector for the n-point rule coordinate by coordinate.

    The first component is fixed to 1 (all nonzero choices are equivalent).
    ``mode="minimize"`` takes the exact argmin of the objective at every step
    (ties broken toward the smallest candidate); ``mode="better_than_average"``
    accepts the first candidate whose objective^(1/lambda) is at most the
    average over the candidates 1..n-1 (z = 0 collapses the coordinate and
    lies outside the averaging argument of ``certified_bound``).

    n must be prime, and lambda in [1, 2*alpha) (``bound_constant``, computed
    before the first step).  Each step evaluates all n candidates at once by
    fast CBC (``cbc_step_objectives``): O(3^s_l * n + 2^s_l * n log n + ell * n)
    time and O(2^s_l * n) memory at step ell, s_l the number of exchangeable
    coordinates before it, on power-kernel tables that every step shares.
    The predicted working sets of the last step and of the last
    exchangeable one are checked before the first step runs, so an
    oversized (d, s, n) fails at once with a ValueError.  At step 2 the exact ties
    B(z) = B(-z) = B(1/z) (z not in {0, 1, -1}), and at a later free
    candidate B(z) = B(-z), get bitwise-equal values, so the smallest member
    of the best orbit is chosen, independent of rounding.  ``per_step_certificate`` holds each step's objective
    certificate.  Every nonempty coordinate set has one largest coordinate,
    so E2 = sum_ell B_ell(z_1..z_(ell-1); z_ell): E2 sums each step's direct
    value at its chosen z and its certificate (no FFT term), plus the d - 1
    additions, clamped at 0 as ``mean_sq_error``; no second DP runs.  The
    steps and E2 run in the unit space, scaled once.
    """
    if mode not in ("minimize", "better_than_average"):
        raise ValueError(f"unknown mode {mode!r}")
    if not is_prime(n):
        raise ValueError(f"n = {n} is not prime")
    if n < spec.weight.c_R:
        raise ValueError(f"n = {n} must be at least c_R = {spec.weight.c_R}")
    d, unit = spec.d, spec.unit
    inv = spec.perm.invariant
    for ell in (d, max(inv, default=d)):   # the largest steps: the last, the last exchangeable
        _check_step_bytes(ell, sum(c < ell for c in inv), n, ell in inv)
    C = bound_constant(unit, lam)   # refuses a lambda outside [1, 2*alpha)
    z: list[int] = []
    per_step, per_cert, steps = [], [], []

    def choose(vals: np.ndarray) -> int:
        if not z:
            return 1
        if mode == "minimize":
            return int(np.argmin(vals))
        scaled = vals[1:] ** (1.0 / lam)
        return 1 + int(np.argmax(scaled <= np.mean(scaled)))

    for _ell in range(d):
        vals, cert, (choice, value, value_cert) = cbc_step_objectives(z, n, unit, choose)
        z.append(choice)
        per_step.append(float(vals[choice]))
        per_cert.append(cert)
        steps.append((value, value_cert))
    values, certs = zip(*steps)
    rule = LatticeRule(n, tuple(z))
    cbound = float((1.0 + spec.weight.c_R) ** lam * C.hi * max(1, spec.perm.size) / n ** lam)
    return CbcResult(
        rule=rule,
        per_step_objective=per_step,
        per_step_certificate=per_cert,
        certified_bound=cbound,
        achieved_E2=max(sum(values), 0.0),
        achieved_E2_certificate=sum(certs) + _gamma(d - 1) * sum(map(abs, values)),
        mode=mode,
        lam=lam,
    ).scaled(spec)


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
                 seed: int = 0, E2: tuple[float, float] | None = None) -> ShiftSearchResult:
    """Find a shift whose squared error is at most the shift average.

    The zero shift is always candidate 0, so the result is never worse than
    the unshifted rule.  If no drawn shift beats the certified shift average
    the budget is doubled up to ``MAX_DOUBLINGS`` times; failing that, the
    best candidate is returned flagged (no exception: existence is only
    guaranteed on average).  ``E2`` is the unshifted rule's shift average
    and its certificate in the unit space, when the caller has them already
    (``construct_shifted`` passes the construction's sum of steps); without
    it the search computes the fixed-point E2 (``mean_sq_error``).  The
    search compares unit errors and scales what it reports.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    unit = spec.unit
    if E2 is None:
        rep = mean_sq_error(rule, unit)
        E2 = (rep.value, rep.truncation_certificate)
    E2_value, E2_cert = E2
    rng = np.random.Generator(np.random.Philox(seed))
    best_val, best_cert, best_shift, used, budget = math.inf, 0.0, None, 0, trials
    for round_idx in range(MAX_DOUBLINGS + 1):
        draws = rng.uniform(size=(budget, rule.d))
        if round_idx == 0:
            draws[0] = 0.0
        for delta in draws:
            rep = worst_case_error_sq(rule.with_shift(tuple(delta)), unit)
            used += 1
            if rep.value < best_val:
                best_val, best_cert, best_shift = rep.value, rep.truncation_certificate, tuple(delta)
        certified = best_val <= E2_value + E2_cert + best_cert
        if certified:
            break
        budget *= 2
    (best_val, best_cert), (E2_value, E2_cert) = spec.scaled(best_val, best_cert), spec.scaled(*E2)
    return ShiftSearchResult(rule=rule.with_shift(best_shift), e2_shifted=best_val,
                             e2_certificate=best_cert, E2=E2_value,
                             E2_certificate=E2_cert, certified=certified,
                             trials_used=used, seed=seed)


def construct_shifted(spec: KernelSpec, n: int, trials: int = 64, seed: int = 0,
                      mode: str = "minimize", lam: float = 1.0) -> CbcResult:
    """Convenience: CBC construction followed by the shift search.

    The result keeps the search's best shifted error, its certificate and the
    number of trials used.  The search reuses the construction's unit E2."""
    res = cbc_construct(spec.unit, n, mode=mode, lam=lam)
    sh = shift_search(res.rule, spec.unit, trials=trials, seed=seed,
                      E2=(res.achieved_E2, res.achieved_E2_certificate))
    res.rule = sh.rule
    res.achieved_e2_shifted = sh.e2_shifted
    res.achieved_e2_shifted_certificate = sh.e2_certificate
    res.shift_seed = seed
    res.shift_trials_used = sh.trials_used
    res.shift_flagged = not sh.certified
    return res.scaled(spec)
