"""Worst-case error engine.

Every quantity of interest (squared worst-case error of a cubature rule, the
shift-averaged squared error of a lattice rule, the per-coordinate search
objective, and the named bound constants) is computable by at least two
independent routes:

* an exact route that expands multiplicity-weighted frequency sums over the
  fixed points of coordinate exchanges (partition sums of power kernels), and
* a truncated spectral route that enumerates a frequency box and tests dual
  membership directly, carrying a certified bound on the omitted mass.

Route agreement within the combined certificates is the engine's basic
correctness contract.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .kernels import (
    KernelSpec,
    kernel_perminv_gram,
    lattice_gram_mean,
    partition_sum_masked,
    power_kernel,
    power_kernel_table,
    shift_invariant_profile,
    symmetrized_mass,
)
from .lattice import LatticeRule, WeightedCubature
from .symmetry import PermStructure, restriction_constant
from .weights import Enclosure, SpectralWeight, eta_star, min_contraction_order, r_weight_inv_factors, tail_sum

__all__ = [
    "ErrorReport",
    "BoundConstants",
    "initial_error_sq",
    "worst_case_error_sq",
    "worst_case_error_sq_spectral",
    "mean_sq_error",
    "cbc_objective",
    "cbc_step_objectives",
    "bound_constant",
    "bound_constants",
    "box_frequencies",
    "multiplicity_array",
    "SUBSET_CAP",
]

SUBSET_CAP = 20


@dataclass
class ErrorReport:
    """Squared-error value with its evaluation route and certificate."""

    value: float
    method: str
    truncation_certificate: float
    wall_time: float = 0.0
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "method": self.method,
            "value": self.value,
            "certificate": self.truncation_certificate,
        }
        out.update({k: v for k, v in self.details.items()})
        return out


@dataclass(frozen=True)
class BoundConstants:
    """Constants entering the certified error bounds."""

    C_dl: Enclosure
    V_star: int
    eta_star: Enclosure
    lam: float


def initial_error_sq(spec: KernelSpec) -> float:
    """Squared error of the empty rule: the squared norm of the integral functional."""
    return spec.weight.beta0 ** spec.d


# ---------------------------------------------------------------------------
# worst-case error of a general weighted cubature rule
# ---------------------------------------------------------------------------

def worst_case_error_sq(rule: LatticeRule | WeightedCubature, spec: KernelSpec) -> ErrorReport:
    """Three-term kernel formula for the squared worst-case error.

    Both integrals of the kernel reduce to the constant-mode mass beta0^d
    because every oscillatory frequency integrates to zero over the cube.
    A ``LatticeRule`` takes the lattice route (``lattice_gram_mean``: no
    n x n Gram matrix, n*(n//2 + 1) pair permanents); any other rule the
    general route through the full Gram matrix.  ``details`` records the
    route and the number of pair permanents evaluated.
    """
    t0 = time.perf_counter()
    b0d = initial_error_sq(spec)
    if rule.n == 0:
        return ErrorReport(b0d, "kernel", 0.0, time.perf_counter() - t0,
                           details={"route": "general", "pairs": 0})
    if rule.d != spec.d:
        raise ValueError("rule dimension does not match the kernel")
    if isinstance(rule, LatticeRule):
        quad, gcert, pairs = lattice_gram_mean(rule, spec)
        wsum = wabs = 1.0
        route = "lattice"
    else:
        gram, gcert = kernel_perminv_gram(rule.nodes, rule.nodes, spec)
        rw = rule.raw_weights
        quad, wsum, wabs = float(rw @ gram @ rw), float(rw.sum()), float(np.abs(rw).sum())
        pairs = rule.n ** 2
        route = "general"
    raw = b0d - 2.0 * b0d * wsum + quad
    cert = gcert * wabs ** 2 + 1e-14 * b0d
    value = max(raw, 0.0)
    return ErrorReport(value, "kernel", cert, time.perf_counter() - t0,
                       details={"raw_value": raw, "route": route, "pairs": pairs})


def box_frequencies(d: int, half_width: int, drop_zero: bool = True) -> np.ndarray:
    """All integer vectors in [-H, H]^d, optionally without the origin."""
    axes = [np.arange(-half_width, half_width + 1)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    if drop_zero:
        grid = grid[np.any(grid != 0, axis=1)]
    return grid.astype(np.int64)


def multiplicity_array(h: np.ndarray, ps: PermStructure) -> np.ndarray:
    """Vectorized multiplicity M(h)! over the rows of an integer array."""
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


def _box_tail_certificate(spec: KernelSpec, half_width: int, inv_lambda: float = 1.0) -> float:
    """Bound on the weight mass sum r^(-inv_lambda) outside the box, using a
    per-coordinate union bound (multiplicity ratios never exceed one)."""
    w = spec.weight
    d = spec.d
    exp = w.alpha * inv_lambda
    coord_tail = 2.0 * w.beta1 ** inv_lambda * tail_sum(w, exponent=exp, start=half_width + 1).hi
    full = (w.beta0 ** inv_lambda
            + 2.0 * w.beta1 ** inv_lambda * tail_sum(w, exponent=exp).hi)
    return d * coord_tail * full ** (d - 1)


def worst_case_error_sq_spectral(rule: LatticeRule, spec: KernelSpec,
                                 half_width: int = 20) -> ErrorReport:
    """Squared worst-case error of a (shifted) lattice rule by direct
    enumeration of the frequency box.

    Sums r^(-1)(h) |T(h)|^2 / (#S)^2 over the box, where T collects the
    exchange images of h that land in the dual lattice, weighted by the node
    shift phase.  Independent of the kernel route.
    """
    t0 = time.perf_counter()
    from itertools import permutations as _perms

    d, n = rule.d, rule.n
    ps = spec.perm
    hs = box_frequencies(d, half_width)
    z = np.asarray(rule.z, dtype=np.int64)
    shift = np.zeros(d) if rule.shift is None else np.asarray(rule.shift)
    inv = ps.invariant_idx
    T = np.zeros(hs.shape[0], dtype=complex)
    for sigma in _perms(range(ps.size)):
        ph = hs.copy()
        if ps.size:
            ph[:, inv] = hs[:, inv[list(sigma)]]
        member = (ph @ z) % n == 0
        T += member * np.exp(2j * math.pi * (ph @ shift))
    fac = np.prod(r_weight_inv_factors(hs, spec.weight), axis=1)
    order = float(ps.group_order)
    value = float(np.sum(fac * np.abs(T) ** 2)) / order ** 2
    cert = _box_tail_certificate(spec, half_width)
    return ErrorReport(value, "spectral_dual_sum", cert, time.perf_counter() - t0,
                       details={"half_width": half_width})


# ---------------------------------------------------------------------------
# mean squared error over all shifts
# ---------------------------------------------------------------------------

def mean_sq_error(rule: LatticeRule, spec: KernelSpec, method: str = "fixed_point",
                  half_width: int = 12) -> ErrorReport:
    """Squared worst-case error averaged over all uniform shifts.

    method "fixed_point": exact lattice average of the shift-averaged kernel
    (the shift drops out of node differences).  method "spectral": truncated
    multiplicity-weighted sum over dual-lattice members of a frequency box.
    """
    t0 = time.perf_counter()
    if rule.d != spec.d:
        raise ValueError("rule dimension does not match the kernel")
    degenerate = all(v % rule.n == 0 for v in rule.z)
    if method == "fixed_point":
        pts = rule.with_shift(None).points()
        prof, cert = shift_invariant_profile(pts, spec)
        b0d = initial_error_sq(spec)
        value = float(np.mean(prof)) - b0d
        report = ErrorReport(max(value, 0.0), "kernel_sum", cert + 1e-14 * b0d,
                             time.perf_counter() - t0,
                             details={"raw_value": value, "degenerate": degenerate})
        return report
    if method != "spectral":
        raise ValueError(f"unknown method {method!r}")
    hs = box_frequencies(rule.d, half_width)
    member = (hs @ np.asarray(rule.z, dtype=np.int64)) % rule.n == 0
    hs = hs[member]
    fac = np.prod(r_weight_inv_factors(hs, spec.weight), axis=1)
    mult = multiplicity_array(hs, spec.perm)
    value = float(np.sum(fac * mult)) / float(spec.perm.group_order)
    cert = _box_tail_certificate(spec, half_width)
    return ErrorReport(value, "spectral_dual_sum", cert, time.perf_counter() - t0,
                       details={"half_width": half_width, "degenerate": degenerate})


# ---------------------------------------------------------------------------
# per-coordinate search objective
# ---------------------------------------------------------------------------

def _subsets_containing_last(ell: int):
    """Subsets of {1..ell} containing ell, as sorted tuples of 1-based coords."""
    rest = list(range(1, ell))
    for mask in range(1 << len(rest)):
        members = [rest[i] for i in range(len(rest)) if mask >> i & 1]
        yield tuple(members + [ell])


def _step_partitions(subset: tuple[int, ...], ps: PermStructure):
    """Partitions of a coordinate subset into exchange blocks.

    Only coordinates in the invariant set may share a block; the rest are
    forced singletons.  Yields tuples of blocks (each a tuple of coords).
    """
    from .symmetry import set_partitions

    inv = [c for c in subset if c in set(ps.invariant)]
    free = [c for c in subset if c not in set(ps.invariant)]
    for part in set_partitions(len(inv)):
        blocks = [tuple(inv[i] for i in blk) for blk in part]
        blocks += [(c,) for c in free]
        yield tuple(blocks)


def cbc_step_objectives(prefix: Sequence[int], n: int, spec: KernelSpec,
                        tables: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, float]:
    """Objective values B(prefix, z) for every candidate z in Z_n at once.

    Uses the lattice character property to turn each dual-membership sum into
    an average over the n lattice nodes of partition sums of zero-mean power
    kernels sampled on the grid {0, 1/n, ..., (n-1)/n}.  Exact up to the
    power-kernel table certificates.

    Returns (values over z = 0..n-1, certificate).
    """
    ell = len(prefix) + 1
    if ell > spec.d:
        raise ValueError("prefix already has length d")
    if ell > SUBSET_CAP:
        raise ValueError(f"subset enumeration above cap {SUBSET_CAP}")
    ps = spec.perm
    w = spec.weight
    c_max = max(1, min(ps.size, ell))
    if tables is None:
        tables = power_kernel_table(w, n, c_max, include_constant=False,
                                    mode=spec.mode, tol=spec.tol)
    table, tcerts = tables
    tmax = np.max(np.abs(table), axis=1) + tcerts
    j = np.arange(n, dtype=np.int64)
    cand = np.arange(n, dtype=np.int64)
    zs = {c: int(prefix[c - 1]) % n for c in range(1, ell)}
    total = np.zeros(n)
    cert = 0.0
    for subset in _subsets_containing_last(ell):
        c_u = restriction_constant(subset, ps, w.beta0)
        s_u = len([c for c in subset if c in set(ps.invariant)])
        norm = 1.0 / (c_u * math.factorial(s_u) * n)
        for blocks in _step_partitions(subset, ps):
            rest = np.ones(n)
            cand_block = None
            weight = 1.0
            for blk in blocks:
                size = len(blk)
                weight *= math.factorial(size - 1)
                if ell in blk:
                    cand_block = blk
                    continue
                S = sum(zs[c] for c in blk) % n
                rest = rest * table[size - 1][(j * S) % n]
            size = len(cand_block)
            S_rest = sum(zs[c] for c in cand_block if c != ell) % n
            idx = (np.multiply.outer(j, (S_rest + cand) % n)) % n
            contrib = rest @ table[size - 1][idx]
            total += weight * norm * contrib
            # certificate: one block at its table certificate, others at max
            sizes = [len(b) for b in blocks]
            prod_max = np.prod([tmax[s - 1] for s in sizes])
            c_term = sum(
                tcerts[s - 1] / tmax[s - 1] * prod_max if tmax[s - 1] > 0 else 0.0
                for s in sizes
            )
            cert += weight * norm * n * c_term
    return total, cert


def cbc_objective(z_prefix: Sequence[int], n: int, spec: KernelSpec,
                  method: str = "fixed_point", half_width: int = 12) -> ErrorReport:
    """Search objective for the last coordinate of a generating-vector prefix.

    "fixed_point" evaluates the exact node-average form; "spectral" sums the
    truncated frequency boxes of every subset directly (oracle route).
    """
    t0 = time.perf_counter()
    z_prefix = [int(v) for v in z_prefix]
    ell = len(z_prefix)
    if ell < 1:
        raise ValueError("prefix must be nonempty")
    if method == "fixed_point":
        vals, cert = cbc_step_objectives(z_prefix[:-1], n, spec)
        return ErrorReport(float(vals[z_prefix[-1] % n]), "fixed_point", cert,
                           time.perf_counter() - t0)
    if method != "spectral":
        raise ValueError(f"unknown method {method!r}")
    if ell > SUBSET_CAP:
        raise ValueError(f"subset enumeration above cap {SUBSET_CAP}")
    ps = spec.perm
    w = spec.weight
    nz = np.concatenate([np.arange(-half_width, 0), np.arange(1, half_width + 1)])
    total = 0.0
    cert = 0.0
    nonzero_mass = 2.0 * w.beta1 * tail_sum(w).hi
    coord_tail = 2.0 * w.beta1 * tail_sum(w, start=half_width + 1).hi
    for subset in _subsets_containing_last(ell):
        k = len(subset)
        sub_ps = ps.restrict(subset)
        axes = [nz] * k
        hs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
        zsub = np.asarray([z_prefix[c - 1] for c in subset], dtype=np.int64)
        member = (hs @ zsub) % n == 0
        hs = hs[member]
        fac = np.prod(r_weight_inv_factors(hs, w), axis=1)
        mult = multiplicity_array(hs, sub_ps)
        c_u = restriction_constant(subset, ps, w.beta0)
        total += float(np.sum(fac * mult)) / (float(sub_ps.group_order) * c_u)
        cert += k * coord_tail * nonzero_mass ** (k - 1) / c_u
    return ErrorReport(total, "spectral_dual_sum", cert, time.perf_counter() - t0,
                       details={"half_width": half_width})


# ---------------------------------------------------------------------------
# bound constants
# ---------------------------------------------------------------------------

def bound_constant(spec: KernelSpec, lam: float = 1.0,
                   half_width: int = 16) -> Enclosure:
    """The multiplicity-weighted spectral constant raised to lambda.

    lambda = 1 is evaluated exactly (it equals the symmetrized mass minus the
    constant mode); spaces without exchangeable pairs reduce to an exact
    univariate tensor power; otherwise a certified box sum is used.
    """
    w = spec.weight
    if not (1.0 <= lam < 2.0 * w.alpha):
        raise ValueError(f"lambda must lie in [1, 2*alpha) = [1, {2 * w.alpha})")
    d = spec.d
    b0d_l = w.beta0 ** (d / lam)
    if lam == 1.0:
        m2 = symmetrized_mass(spec)
        return Enclosure(max(m2.lo - initial_error_sq(spec), 0.0),
                         m2.hi - initial_error_sq(spec))
    if spec.perm.size <= 1:
        uni = (Enclosure.exact(w.beta0 ** (1.0 / lam))
               + tail_sum(w, exponent=w.alpha / lam).scale(2.0 * w.beta1 ** (1.0 / lam)))
        inner = Enclosure(uni.lo ** d - b0d_l, uni.hi ** d - b0d_l)
        return inner.power(lam)
    hs = box_frequencies(d, half_width)
    fac = np.prod(r_weight_inv_factors(hs, w), axis=1)
    mult = multiplicity_array(hs, spec.perm)
    inner = float(np.sum((mult / float(spec.perm.group_order) * fac) ** (1.0 / lam)))
    tail = _box_tail_certificate(spec, half_width, inv_lambda=1.0 / lam)
    return Enclosure(inner, inner + tail).power(lam)


def bound_constants(spec: KernelSpec, lam: float = 1.0) -> BoundConstants:
    """All constants of the certified bounds at a given lambda."""
    V = min_contraction_order(spec.weight)
    return BoundConstants(
        C_dl=bound_constant(spec, lam),
        V_star=V,
        eta_star=eta_star(spec.weight, V),
        lam=lam,
    )
