"""Worst-case error engine.

The squared worst-case error of a cubature rule and the shift-averaged
squared error of a lattice rule are computable by two independent routes:

* an exact route that expands multiplicity-weighted frequency sums over the
  fixed points of coordinate exchanges: partition sums of power kernels,
  tabulated on the lattice grid g/n and gathered at the nodes j*z/n by the
  one partition-sum engine ``kernels._partition_sums`` (the per-coordinate
  search objective runs on the same engine, and its correlations on the one
  power-of-two FFT correlation ``kernels._cyclic_correlation``), and
* a truncated spectral route that enumerates the dual-lattice members of a
  frequency box directly (``_dual_box``, meet in the middle), carrying a
  certified bound on the omitted mass.

Route agreement within the combined certificates is the engine's basic
correctness contract.  The per-coordinate search objective and the bound
constants have their second routes as oracles in the test suite
(``tests/oracles.py`` and the brute-force sums of ``tests/test_errors.py``);
so does the FFT route of the shifted lattice error, whose oracles are the
pair route ``kernels.lattice_gram_mean`` and a long-double pair sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .kernels import (
    KernelSpec,
    _cyclic_correlation,
    _free_excess,
    _group_stack,
    _lattice_gram_mean_fft,
    _mask_plan,
    _ordered_sums,
    _partition_sums,
    _stack_rows,
    _sum_depth,
    kernel_perminv_gram,
    lattice_gram_mean,
    permutation_power_sum,
    power_kernel_table,
    shift_invariant_profile,
    symmetrized_mass,
)
from .lattice import LatticeRule, WeightedCubature, is_prime
from .symmetry import _gamma, multiplicity_array
from .weights import (Enclosure, _down, _factor_roundings, _rounded, _up, eta_star,
                      min_contraction_order, r_weight_inv_factors, spectral_mass, tail_sum)

__all__ = [
    "ErrorReport",
    "BoundConstants",
    "worst_case_error_sq",
    "worst_case_error_sq_spectral",
    "mean_sq_error",
    "cbc_step_objectives",
    "bound_constant",
    "bound_constants",
    "STEP_BYTES_CAP",
    "BOX_HALF_WIDTH",
]

# Working-set cap in bytes of one CBC step, one spectral frequency box and one
# approximation level; a larger one is refused before anything is allocated.
STEP_BYTES_CAP = 1 << 30
# default half-width H of the spectral routes' frequency box [-H, H]^d
BOX_HALF_WIDTH = 12
# entries of |gram| held at once by the general route's certificate
_ABS_BLOCK_ELEMS = 1 << 16


@dataclass
class ErrorReport:
    """Squared-error value with its evaluation route and certificate."""

    value: float
    method: str
    truncation_certificate: float
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"method": self.method, "value": self.value,
                "certificate": self.truncation_certificate, **self.details}


@dataclass(frozen=True)
class BoundConstants:
    """Constants entering the certified error bounds."""

    C_dl: Enclosure
    V_star: int
    eta_star: Enclosure
    lam: float


def _scaled_enclosure(spec: KernelSpec, enc: Enclosure) -> Enclosure:
    """A unit enclosure in the space: each end ``KernelSpec.scaled``."""
    if spec.unit is spec:
        return enc
    (lo, lo_cert), (hi, hi_cert) = spec.scaled(enc.lo, 0.0), spec.scaled(enc.hi, 0.0)
    return Enclosure(max(_down(lo - lo_cert), 0.0), _up(hi + hi_cert))


# ---------------------------------------------------------------------------
# worst-case error of a general weighted cubature rule
# ---------------------------------------------------------------------------

def worst_case_error_sq(rule: LatticeRule | WeightedCubature, spec: KernelSpec,
                        gram: tuple[np.ndarray, float] | None = None) -> ErrorReport:
    """Squared worst-case error of a cubature rule.

    Every route runs in the unit space, then ``KernelSpec.scaled``.  Both
    integrals of the kernel reduce to the constant-mode mass 1, so for
    weights w the error is 1 - 2 sum w + w . G . w, and for a lattice rule
    the Gram mean less 1.  A ``LatticeRule`` with at most two exchangeable
    coordinates or d = 3 takes the FFT route (``_lattice_gram_mean_fft``,
    O(n log n + n*d) on the zero-mean K1 tables: the mean less 1, with no
    term 1); any other ``LatticeRule`` the lattice route
    (``lattice_gram_mean``, n*(n//2 + 1) pair permanents); any other rule
    the general route (the symmetric Gram, n(n+1)/2 pair permanents) and the
    three-term formula.  ``details`` records the route ("lattice-fft",
    "lattice" or "general"), the pair permanents and the FFTs.

    The certificate is the FFT route's own (table, FFT and summation
    bounds), or the Gram certificate (kernel and permanent errors, and on
    the lattice route the rounding of the mean) plus an a priori rounding
    bound gamma_k * sum |terms| of the quadratic form and the formula.
    ``gram`` is the general route's unit (Gram, certificate) when the caller
    has it (``approx.assemble_rule`` grows one); the lattice routes ignore it.
    """
    unit = spec.unit
    if rule.n == 0:
        value, cert = spec.scaled(1.0, 0.0)
        return ErrorReport(value, "kernel", cert, details={"route": "general", "pairs": 0})
    if rule.d != spec.d:
        raise ValueError("rule dimension does not match the kernel")
    if isinstance(rule, LatticeRule) and (spec.perm.size <= 2 or spec.d == 3):
        raw, cert, ffts = _lattice_gram_mean_fft(rule, unit)
        details = {"route": "lattice-fft", "ffts": ffts, "pairs": 0}
    elif isinstance(rule, LatticeRule):
        quad, qcert, pairs = lattice_gram_mean(rule, unit)
        # the subtraction rounds once
        raw, cert = quad - 1.0, qcert + _gamma(1) * (1.0 + abs(quad))
        details = {"route": "lattice", "pairs": pairs}
    else:
        gram, gcert = gram or kernel_perminv_gram(rule.nodes, rule.nodes, unit)
        rw = rule.raw_weights
        arw = np.abs(rw)
        quad, wsum, wabs = float(rw @ gram @ rw), float(rw.sum()), float(arw.sum())
        # w_j / n rounds once; two products of n terms each, in whatever
        # order BLAS takes
        qcert = gcert * wabs ** 2 + _gamma(2 * rule.n + 2) * _abs_quadratic_form(gram, arw)
        wround = _gamma(_sum_depth(rule.n) + 1) * wabs
        raw = 1.0 - 2.0 * wsum + quad
        # the formula adds two roundings
        cert = qcert + 2.0 * wround + _gamma(2) * (1.0 + 2.0 * wabs + abs(quad))
        details = {"route": "general", "pairs": rule.n * (rule.n + 1) // 2}
    raw, cert = spec.scaled(raw, cert)
    return ErrorReport(max(raw, 0.0), "kernel", cert, details={"raw_value": raw, **details})


def _abs_quadratic_form(gram: np.ndarray, v: np.ndarray) -> float:
    """v . |gram| . v over blocks of rows, so that no second n x n array
    is built."""
    step = max(1, _ABS_BLOCK_ELEMS // max(gram.shape[1], 1))
    return sum(float(np.abs(gram[lo:lo + step]) @ v @ v[lo:lo + step])
               for lo in range(0, gram.shape[0], step))


def _box_rows(index: np.ndarray, d: int, half_width: int) -> np.ndarray:
    """The rows of [-H, H]^d at the given positions of its lexicographic
    order: the mixed-radix digits of ``index`` in base 2H + 1, less H."""
    side = 2 * half_width + 1
    rows = np.empty((len(index), d), dtype=np.int64)
    for j in range(d):
        rows[:, j] = index // side ** (d - 1 - j) % side - half_width
    return rows


def _box_index(rows: np.ndarray, half_width: int) -> np.ndarray:
    """Inverse of ``_box_rows``: the lexicographic position of each row of
    [-H, H]^d, sum_j (h_j + H) * (2H + 1)^(d - 1 - j)."""
    side = 2 * half_width + 1
    assert side ** rows.shape[1] < 2 ** 63, "box positions overflow int64"
    index = np.zeros(len(rows), dtype=np.int64)
    for col in rows.T:
        index = index * side + (col + half_width)
    return index


def _dual_box(rule: LatticeRule, half_width: int) -> np.ndarray:
    """The dual-lattice members (h . z = 0 mod n) of [-H, H]^d other than
    the origin, in the lexicographic order of the box.

    Meet in the middle: the box splits into a head of the first floor(d/2)
    coordinates and a tail of the rest.  The tail tuples t are grouped by
    their residue t . z_tail mod n (a stable sort keeps each group in
    lexicographic order), and each head tuple a, in lexicographic order, is
    followed by the group of residue -a . z_head mod n.  Time
    O((2H + 1)^ceil(d/2) + m * d) for m members; neither a prime n nor an
    invertible generator is needed.

    The working set is predicted in two steps, each refused with ValueError
    above ``STEP_BYTES_CAP``: first 8 bytes per entry of the two half grids
    and their index vectors; then, with the member count m known and before
    any member row is allocated, 8 * (7d + 12) more bytes per member.  That
    bounds the tracemalloc peak of the spectral pass downstream, which
    reaches about 8 * (6d + 11) with no exchangeable coordinates and a
    tabulated generator (``tests/test_errors.py`` checks it).
    """
    d, n, H = rule.d, rule.n, half_width
    if H < 0:
        raise ValueError(f"half_width must be >= 0, got {H}")
    side = 2 * H + 1
    k = d // 2
    what = f"frequency box [-{H}, {H}]^{d}"
    grids = 8 * (side ** k * (k + 4) + side ** (d - k) * (d - k + 3) + 2 * n)
    _refuse_above_cap(grids, what, "; lower half_width")
    z = np.asarray(rule.z, dtype=np.int64) % n
    head = _box_rows(np.arange(side ** k), k, H)
    tail = _box_rows(np.arange(side ** (d - k)), d - k, H)
    residue = tail @ z[k:] % n
    order = np.argsort(residue, kind="stable")
    counts = np.bincount(residue, minlength=n)
    need = -(head @ z[:k]) % n
    group = counts[need]
    members = int(group.sum()) - 1   # the origin is always a member
    _refuse_above_cap(grids + 8 * (7 * d + 12) * members, what,
                      f": it holds {members} dual-lattice members; lower half_width")
    first = np.cumsum(group) - group
    # entry p of head a's block is entry p - first[a] of its group in ``order``
    head_of = np.repeat(np.arange(len(head)), group)
    tail_of = order[np.arange(members + 1)
                    + np.repeat((np.cumsum(counts) - counts)[need] - first, group)]
    # the origin: the middle head tuple, with the zero tail tuple of group 0
    origin = first[len(head) // 2] + np.count_nonzero(residue[:len(tail) // 2] == 0)
    head_of, tail_of = np.delete(head_of, origin), np.delete(tail_of, origin)
    hs = np.empty((members, d), dtype=np.int64)
    hs[:, :k] = head[head_of]
    hs[:, k:] = tail[tail_of]
    return hs


def _box_tail_certificate(spec: KernelSpec, half_width: int, inv_lambda: float = 1.0) -> float:
    """Bound on the unit space's weight mass sum r^(-inv_lambda) outside the
    box, using a per-coordinate union bound (multiplicity ratios never
    exceed one): d * 2 rho^p * sum_{m > H} R(m)^(-2 alpha p) * mass^(d - 1),
    p = inv_lambda and mass = ``spectral_mass(w, p)``, in enclosure
    arithmetic."""
    w = spec.unit.weight
    # 2 * rho^p is one pow
    coord_tail = (tail_sum(w, exponent=w.alpha * inv_lambda, start=half_width + 1)
                  * _rounded(2.0 * w.beta1 ** inv_lambda, 2))
    full = spectral_mass(w, inv_lambda).power(spec.d - 1)
    return (coord_tail * full).scale(spec.d).hi


def worst_case_error_sq_spectral(rule: LatticeRule, spec: KernelSpec, half_width: int = BOX_HALF_WIDTH
                                 ) -> tuple[ErrorReport, ErrorReport]:
    """Squared worst-case error of a lattice rule at its shift and averaged
    over all shifts, from one enumeration of the frequency box.

    The kernel sum is r^(-1)(h) |T(h)|^2 / (#S)^2 over the box, T(h) the sum
    of the shift phases e^(2 pi i h'.shift) over the exchange images h' of h
    that lie in the dual lattice.  An orbit O of s!/M(h)! members has
    T(h) = M(h)! * S_O, S_O the sum of the phases of its dual members, so
    the sum is computed by orbit grouping as
    sum over orbits of r^(-1)(h_O) * M(h_O)! * |S_O|^2 / s!; averaged over
    all shifts, |S_O|^2 becomes count_O, the number of dual members in O.
    The orbits are the distinct box positions (``_box_index``) of the rows
    with sorted invariant coordinates; position order is box order.
    Independent of the kernel route; scaled as above.  Both reports carry
    the box tail certificate and ``details["cert_exceeds_value"]``; the
    average's ``details["degenerate"]`` says whether z = 0 mod n.
    """
    if rule.d != spec.d:
        raise ValueError("rule dimension does not match the kernel")
    ps = spec.perm
    hs = _dual_box(rule, half_width)
    shift = np.zeros(rule.d) if rule.shift is None else np.asarray(rule.shift)
    phase = np.exp(2j * math.pi * (hs @ shift))
    hs[:, ps.invariant_idx] = np.sort(hs[:, ps.invariant_idx], axis=1)
    orbits, orbit_of, count = np.unique(_box_index(hs, half_width), return_inverse=True,
                                        return_counts=True)
    reps = _box_rows(orbits, rule.d, half_width)
    S_O = (np.bincount(orbit_of, phase.real, len(reps))
           + 1j * np.bincount(orbit_of, phase.imag, len(reps)))
    weight = np.prod(r_weight_inv_factors(reps, spec.unit.weight), axis=1) * multiplicity_array(reps, ps)
    tail = _box_tail_certificate(spec, half_width)

    def report(total: float, **details) -> ErrorReport:
        value, cert = spec.scaled(float(total) / float(ps.group_order), tail)
        return ErrorReport(value, "spectral_dual_sum", cert, details={
            "half_width": half_width, **details, "cert_exceeds_value": cert > value})

    return (report(np.sum(weight * np.abs(S_O) ** 2)),
            report(np.sum(weight * count), degenerate=all(v % rule.n == 0 for v in rule.z)))


# ---------------------------------------------------------------------------
# mean squared error over all shifts
# ---------------------------------------------------------------------------

def mean_sq_error(rule: LatticeRule, spec: KernelSpec) -> ErrorReport:
    """Squared worst-case error averaged over all uniform shifts, exactly.

    In the unit space, then ``KernelSpec.scaled``: the average of the
    shift-averaged kernel less 1 over the n unshifted lattice nodes (the
    shift drops out of node differences), ``shift_invariant_profile`` on the
    CBC's zero-mean tables, with no term 1; its certificate is the profile's
    plus the a priori rounding bound of the mean.  A profile whose predicted
    working set exceeds ``STEP_BYTES_CAP`` raises ValueError before anything
    is allocated: the DP's partition sums, blocks and three stacks
    (``_check_step_bytes``) over the 2^s masks of the invariant
    coordinates, the s kernel tables and a few n-vectors.  The spectral
    route of the same average is ``worst_case_error_sq_spectral``'s second
    report.  ``error-eval`` and a ``cbc.shift_search`` given no E2 run it;
    ``cbc.cbc_construct`` sums its steps instead.
    """
    if rule.d != spec.d:
        raise ValueError("rule dimension does not match the kernel")
    degenerate, n, s = all(v % rule.n == 0 for v in rule.z), rule.n, spec.perm.size
    _refuse_above_cap(8 * n * ((2 << s) + 3 * _stack_rows(1 << s, n) + s + 8),
                      f"fixed-point E2 at s = {s}, n = {n}")
    prof, cert = shift_invariant_profile(rule, spec.unit)
    # numpy's sum and the division
    value, cert = spec.scaled(float(np.mean(prof)), cert + _gamma(_sum_depth(prof.size) + 1)
                              * float(np.mean(np.abs(prof))))
    return ErrorReport(max(value, 0.0), "kernel_sum", cert,
                       details={"raw_value": value, "degenerate": degenerate})


# ---------------------------------------------------------------------------
# per-coordinate search objective
# ---------------------------------------------------------------------------

def _refuse_above_cap(need: int, what: str, hint: str = "") -> None:
    """Raise ValueError when a predicted working set of ``need`` bytes
    exceeds ``STEP_BYTES_CAP``."""
    if need > STEP_BYTES_CAP:
        raise ValueError(
            f"{what} needs about {need / 2**30:.1f} GiB ({need} bytes), above "
            f"the cap of {STEP_BYTES_CAP / 2**30:.0f} GiB{hint}")


def _check_step_bytes(ell: int, s_l: int, n: int, exchangeable: bool) -> None:
    """Refuse a CBC step whose predicted working set exceeds the cap.  In
    doubles, with F = 2^s_l n and N the padded transform length: the DP's
    buffer, 2F (the partition sums and the blocks, whose half then holds
    the group rows), lives through the step; on top, the DP holds three
    stacks of ``_stack_rows`` n-vectors (two gathers and the sums), the
    group stage two, and the correlations one transform per kernel order
    and 7N for each group of a stack (``_group_stack``), at a free
    candidate one group and one order; the direct value at the chosen z
    two stacks.  Ten n-vectors come on top, and 512
    bytes per mask for the grouping's Python objects and index arrays.
    """
    N, r = 2 << (n - 2).bit_length(), _stack_rows(1 << s_l, n)
    orders, m = (s_l + 1, _group_stack(N)) if exchangeable else (1, 1)
    _refuse_above_cap(8 * ((2 * n << s_l) + max(3 * r * n, (orders + 7 * m) * N) + 10 * n)
                      + (512 << s_l), f"CBC step {ell} (DP over s_l = {s_l}) at n = {n}")


@lru_cache(maxsize=8)
def _root_powers(n: int) -> np.ndarray:
    """g^a mod n for a = 0..n-2, g the smallest primitive root of the prime n.

    The array is read-only: every caller shares the cached one.
    """
    order = n - 1
    factors = [p for p in range(2, n) if order % p == 0 and is_prime(p)]
    g = next(g for g in range(1, n) if all(pow(g, order // p, n) != 1 for p in factors))
    out = np.fromiter(accumulate(range(order - 1), lambda x, _: x * g % n, initial=1),
                      dtype=np.int64, count=order)
    out.flags.writeable = False
    return out


def _multiplicative_correlation(G: np.ndarray, kappa0: np.ndarray, powers: np.ndarray,
                                correlate, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F(w) = sum_j G[r, j] * kappa[j*w mod n] for every row r of the stack G
    and every w in Z_n, prime n, and a bound on each row's rounding error.

    F(0) = kappa[0] * sum(G[r]).  For w = g^b and j = g^a, g a primitive root,
    the sum over j != 0 is the cyclic correlation sum_a G[r, g^a] *
    kappa[g^(a+b)] of length n - 1; ``correlate`` is
    ``kernels._cyclic_correlation`` of the stack of kappa[powers], row r
    against kernel ``rows[r]``, whose kappa[0] is ``kappa0[r]``.
    """
    n = G.shape[1]
    corr, err = correlate(G.take(powers, axis=1), rows)
    F = np.empty_like(G)
    F[:, 0] = kappa0 * G.sum(axis=1)
    F[:, powers] = (G[:, 0] * kappa0)[:, None] + corr
    return F, err + _gamma(n) * np.abs(kappa0) * np.abs(G).sum(axis=1)


def _tie_orbit_mean(vals: np.ndarray, a: int, n: int, powers: np.ndarray) -> np.ndarray:
    """Replace a step's objective by its mean over each exact-tie orbit.

    With prefix (a), B(z) = B(-z) = B(a^2/z) for z not in {0, a, -a}; with
    a = 0, at a later step's free candidate, the orbit is {z, -z}.  Each
    orbit's values are summed in the order of its sorted members, so the
    members come back bitwise equal and ``argmin`` returns the smallest.
    """
    z = np.arange(n, dtype=np.int64)
    orbit = [z, -z % n]
    if a:
        inverse = np.zeros(n, dtype=np.int64)
        inverse[powers] = powers[-np.arange(n - 1) % (n - 1)]
        t = a * a % n * inverse % n
        orbit += [t, -t % n]
    members = np.sort(np.stack(orbit, axis=1), axis=1)
    mean = vals[members].sum(axis=1) / members.shape[1]
    tied = (z != 0) & (z != a) & (z != -a % n)
    return np.where(tied, mean, vals)


def cbc_step_objectives(prefix: Sequence[int], n: int, spec: KernelSpec, choose=np.argmin
                        ) -> tuple[np.ndarray, float, tuple[int, float, float]]:
    """Objective values B(prefix, z) for every candidate z in Z_n at once.

    The objective has degree 0: it is computed in the unit space, where
    c_u = C(s, |u & I|).  The lattice character property turns each
    dual-membership sum into an average over the n lattice nodes j of
    partition sums of zero-mean power
    kernels kappa_c on the grid {0, 1/n, ..., (n-1)/n} (``power_kernel_table``,
    shared with the fixed-point E2): over every coordinate subset u
    containing the candidate coordinate ell = len(prefix) + 1 and every
    partition of u into blocks B (a block holds more than one coordinate
    only inside the invariant set), the product of
    (|B|-1)! * kappa_|B|[j * S_B mod n], S_B the sum of the generators in B,
    weighted by 1 / (c_u * s_u! * n).  The fast CBC route computes it in
    three stages:

    1. a bitmask DP gives the partition sum f[U] of every mask U of the k
       exchangeable prefix coordinates (``kernels._partition_sums``);
    2. for every set M of them sharing the candidate's block, rest_M = sum
       over U disjoint from M of f[U] / (c_u * s_u! * n) is added, times
       |M|!, into the group of (|M| + 1, S_M), members in descending M, a
       popcount level of ``kernels._mask_plan(k)`` at a time.  The free
       prefix coordinates F are singletons in every partition: their
       subsets v give one factor per node, sum_v prod_v kappa_1 = 1 + q
       (``kernels._free_excess``), with |v| = |F| counted in c_u;
    3. each group G is one multiplicative correlation
       F(w) = sum_j G[j] * kappa_{|M|+1}[j*w mod n], which a primitive root
       of n turns into a cyclic correlation of length n - 1 (Nuyens & Cools,
       Math. Comp. 75 (2006) 903-920), done by ``_cyclic_correlation``: one
       transform of kappa_c per kernel order per step, and a zero-padded
       power-of-two FFT pair per group, the groups in stacks of rows;
       B(z) collects F((S_M + z) mod n).

    Each stage issues its numpy calls per level and per stack of rows
    (``kernels._stack_rows``, ``kernels._group_stack``), not per group or per
    (mask, block) pair, and every value is bitwise that of loops over them.

    Time O(3^k * n + 2^k * n log n + ell * n) and memory O(2^k * n) per
    step.  n must be prime.  A predicted working set (``_check_step_bytes``)
    above ``STEP_BYTES_CAP`` raises ValueError before anything is allocated.

    Tie rule: at ell = 2 with prefix (a), B(z) = B(-z) = B(a^2/z) for z not
    in {0, a, -a}.  The lattices (a, z) and (a, -z) differ by reflecting one
    coordinate, which leaves the multiplicity-weighted dual sums unchanged
    unless both coordinates are exchangeable and z = +-a; (a, a^2/z) is
    (a, z) rescaled with its coordinates swapped, which leaves the {1, 2}
    term unchanged, and the {2} term depends only on z != 0.  Those values
    are replaced by their orbit mean, so the orbit members are bitwise equal
    and ``argmin`` picks the smallest.  At a later step whose candidate is
    free, B(z) = B(-z) for the same reason, and the pair gets its mean.

    Returns (values over z = 0..n-1, certificate, (z, B(z), its
    certificate)), z = ``choose(values)``.  The certificate is the
    first-order effect of the power-kernel table errors (one block at its
    table certificate, every other block at its maximum) plus a priori
    rounding bounds: of the FFT correlations (``_cyclic_correlation``), and
    gamma_k * sum |terms| of the direct sums (the DP, the rest_M products,
    the group and total accumulations), both by the size of each mask from
    ``permutation_power_sum``; the free factor scales both by its bound and
    adds its error times sum |terms|.  B(z) is sum_j G[j] * kappa_(|M|+1)[j *
    (S_M + z) mod n] again, one gathered dot per group and no FFT, certified
    by the same table term, G's a priori count and the dots' rounding.
    """
    ell = len(prefix) + 1
    if ell > spec.d:
        raise ValueError("prefix already has length d")
    if not is_prime(n):
        raise ValueError(f"n = {n} is not prime; the fast CBC step needs a prime n")
    ps = spec.perm
    inv = set(ps.invariant)
    zs = [int(v) % n for v in prefix]
    zi = [z for i, z in enumerate(zs) if i + 1 in inv]
    zf = [z for i, z in enumerate(zs) if i + 1 not in inv]
    k, kf = len(zi), len(zf)
    _check_step_bytes(ell, k, n, ell in inv)
    table, tcerts = power_kernel_table(spec.unit, n)
    tmax = np.max(np.abs(table), axis=1) + tcerts
    f = _partition_sums(zi, n, table)
    fv, fe = permutation_power_sum(tmax[:k], tcerts[:k])
    pf, pmax, pf_cert = None, 1.0, 0.0   # the free factor, its bound and error
    if kf:
        q, q_cert, q_abs = _free_excess((table[0].take(np.arange(n) * z % n) for z in zf),
                                        1.0 + float(tmax[0]), tcerts[0])
        pmax = 1.0 + q_abs
        pf, pf_cert = 1.0 + q, q_cert + _gamma(1) * pmax

    # 1 / (c_u * s_u! * n) by |u & I|, c_u = C(s, |u & I|)
    s = ps.size
    nrm = np.array([1.0 / (float(math.comb(s, b)) * math.factorial(b) * n) for b in range(s + 1)])
    plan, ell_inv = _mask_plan(k), int(ell in inv)
    pc, S = plan.pc.tolist(), plan.sums(zi, n).tolist()
    groups: dict[tuple[int, int], list[int]] = {}   # (|M|, S_M): [row of G, members]
    rows, ranks = [0] * (1 << k), {}   # ranks[a later member, |M|]: masks M, descending
    for M in range((1 << k) - 1, -1, -1) if ell_inv else [0]:
        group = groups.setdefault((pc[M], S[M]), [len(groups), 0])
        ranks.setdefault((group[1] > 0, pc[M]), []).append(M)
        group[1] += 1
        rows[M] = group[0]
    # G's row of a group: 0 + rest_M over its members M in order, rest_M the
    # sum over the masks U disjoint from M, ascending, of |M|! f[U] / (c_u *
    # s_u! * n); the t-th of them has popcount(t).  First members are stored,
    # then the later ones added in order (add.at).  G takes the blocks' half
    # of the DP's buffer (read already), and the rolled correlations f's half.
    rolled, G = f.base.reshape(2, 1 << k, n)[:, :len(groups)]
    rows, pc, wts, terms = np.array(rows), plan.pc, {}, {}
    for p in range(k + 1) if ell_inv else [0]:
        T = 1 << (k - p)
        wts[p] = math.factorial(p) * nrm[pc[:T] + p + ell_inv]
        sv, se = wts[p] @ fv[pc[:T]], wts[p] @ fe[pc[:T]]
        va = n * tmax[p] * sv
        terms[p] = (pmax * n * (tmax[p] * se + tcerts[p] * sv) + pf_cert * va, pmax * va)
    for (later, p), level in sorted(ranks.items()):
        level, t = np.array(level), np.arange(wts[p].size)[:, None]
        m = max(1, _stack_rows(1 << k, n) // t.size)   # masks per stack
        for M in (level[a:a + m] for a in range(0, level.size, m)):
            # einsum, not BLAS: a gemv of length n may start a thread pool
            R = _ordered_sums(f, plan.submasks(((1 << k) - 1) ^ M, k - p), wts[p][:, None], t)
            if later:
                np.add.at(G, rows[M], R)
            else:
                G[rows[M]] = R
    del f
    if kf:
        G *= pf
    # each group's multiplicative correlation, rolled by S_M into its row of
    # ``rolled``, in stacks of groups; total adds those rows in order from 0
    powers, (order, shift) = _root_powers(n), np.array(list(groups)).T
    correlate = _cyclic_correlation(table[: k * ell_inv + 1].take(powers, axis=1))   # kappa_(p+1)
    err = np.empty(len(groups))
    m = _group_stack(2 << (n - 2).bit_length())
    for a in range(0, len(groups), m):
        g = slice(a, a + m)
        F, err[g] = _multiplicative_correlation(G[g], table[order[g], 0], powers, correlate, order[g])
        F = np.concatenate((F, F), axis=1)   # a row rolled by S_M: a window of F, F
        rolled[g] = as_strided(F, (F.shape[0], n + 1, n), (F.strides[0], 8, 8))[np.arange(F.shape[0]), shift[g]]
    total = np.add.reduce(rolled, axis=0, initial=0.0)
    # absum bounds sum |terms| of every total[z]; the table term is also B(z)'s
    cert, table_term, absum, err = 0.0, 0.0, 0.0, err.tolist()
    for (p, _), (g, members) in groups.items():
        for _ in range(members):
            cert += terms[p][0]
            table_term += terms[p][0]
            absum += terms[p][1]
        cert += err[g]
    # a term meets the DP (k + 2^k), its weight (6: four operations, and a
    # factorial that is not exact in a double), the product with f
    # (2^k + 1), the sum over members (2^k), the free product (1): G's
    # rows; then the two products of F and one addition per group
    g_rows = k + 3 * (1 << k) + 7 + (kf > 0)
    cert += _gamma(g_rows + len(groups) + 2) * absum
    if ell == 2 or (ell > 2 and not ell_inv):
        total = _tie_orbit_mean(total, zs[0] if ell == 2 else 0, n, powers)
        cert += _gamma(4) * float(np.max(np.abs(total)))
    # B(z): each group's dot of its row of G with kappa at j * (S_M + z), and
    # its sum of |terms|, in stacks of rows
    z, m, dots = int(choose(total)), _stack_rows(1 << k, n), np.empty((2, len(groups)))
    for a in range(0, len(groups), m):
        g = slice(a, a + m)
        K = table.take(np.multiply.outer((shift[g] + z) % n, np.arange(n)) % n + n * order[g, None]) * G[g]
        dots[:, g] = K.sum(axis=1), np.abs(K).sum(axis=1)
    value_cert = (table_term + _gamma(g_rows) * absum + _gamma(_sum_depth(n) + 1) * dots[1].sum()
                  + _gamma(_sum_depth(len(groups))) * np.abs(dots[0]).sum())
    return total, float(cert), (z, float(dots[0].sum()), float(value_cert))


# ---------------------------------------------------------------------------
# bound constants
# ---------------------------------------------------------------------------

def bound_constant(spec: KernelSpec, lam: float = 1.0,
                   half_width: int = 16) -> Enclosure:
    """The multiplicity-weighted spectral constant raised to lambda.

    lambda = 1 is evaluated exactly (it equals the symmetrized mass minus the
    constant mode); spaces without exchangeable pairs reduce to an exact
    univariate tensor power; otherwise a certified box sum over [-H, H]^d is
    used.  Its terms depend only on how often each value occurs among the s
    exchangeable coordinates, so their sum is one coefficient of a product
    of per-value series: O(H s^2) time and O(H s) memory.  Its rounding is
    bounded by gamma_k * sum |terms| (every term is positive), k counted below.
    In the unit space its constant mode is exactly 1; then scaled.
    """
    w = spec.unit.weight
    if not (1.0 <= lam < 2.0 * w.alpha):
        raise ValueError(f"lambda must lie in [1, 2*alpha) = [1, {2 * w.alpha})")
    d = spec.d
    if lam == 1.0:
        diff = symmetrized_mass(spec) + (-1.0)
        return _scaled_enclosure(spec, Enclosure(max(diff.lo, 0.0), diff.hi))
    if spec.perm.size <= 1:
        inner = spectral_mass(w, 1.0 / lam).power(d) + (-1.0)
        return _scaled_enclosure(spec, Enclosure(max(inner.lo, 0.0), inner.hi).power(lam))
    # a multiset of the s exchangeable values, c_v of them v, stands for
    # s!/prod c_v! box points of share prod c_v!/s!: they sum to
    # (s!)^(1 - 1/lam) prod_v g_(c_v) a_v^(c_v), a_v = r^-1(v)^(1/lam),
    # g_c = (c!)^(1/lam - 1), the x^s coefficient of prod_(v = +-1..+-H)
    # sum_c g_c (a_v x)^c completed by c zeros.  The free coordinates factor
    # out as a power of the per-coordinate sum 1 + osc (a_0 = 1)
    s, f = spec.perm.size, d - spec.perm.size
    a = r_weight_inv_factors(np.arange(half_width + 1), w) ** (1.0 / lam)
    cnt = np.arange(s + 1)
    g = np.array([math.factorial(c) for c in cnt], dtype=float) ** (1.0 / lam - 1.0)
    ser = g * a[:, None] ** cnt   # ser[v, c] = g_c a_v^c
    P = (cnt == 0).astype(float)
    for row in np.repeat(ser[1:], 2, axis=0):
        P = np.convolve(P, row)[: s + 1]
    comp = P[::-1] * ser[0] * float(math.factorial(s)) ** (1.0 - 1.0 / lam)   # c zeros at [c]
    osc = 2.0 * float(np.sum(a[1:]))
    # (1 + osc)^f without the all-zero free vector, free of cancellation
    free_nonzero = osc * sum((1.0 + osc) ** j for j in range(f))
    inner = float(comp[:-1].sum()) * (1.0 + osc) ** f + float(comp[-1]) * free_nonzero
    # roundings along a term, a pow counted as two: a_v has k_w
    # (``_factor_roundings``) + 2, a_v^c c times that + 2, g_c 3 (c! to
    # float and its pow, which shrinks that rounding) and g_c a_v^c 1: at
    # most s (k_w + 8) over sum_v c_v = s (c_v = 0 is an exact 1).  Each of
    # the 2H convolutions adds a product and at most s additions, the zero
    # completion a product and s additions, the scale 4; osc adds the power
    # to its factors and numpy's sum, both free factors are below
    # (f + 1) (k_osc + 4), and their two products and the final sum add 2
    k_w = _factor_roundings(w)
    k_osc = k_w + 2 + _sum_depth(half_width)
    k = s * (k_w + 8) + 2 * half_width * (s + 1) + s + 5 + (f + 1) * (k_osc + 4) + 2
    tail = _box_tail_certificate(spec, half_width, inv_lambda=1.0 / lam)
    return _scaled_enclosure(spec, (_rounded(inner, k) + Enclosure(0.0, tail)).power(lam))


def bound_constants(spec: KernelSpec, lam: float = 1.0) -> BoundConstants:
    """All constants of the certified bounds at a given lambda: C_dl in the
    space, V* and eta* (degree 0) of the unit weight."""
    w = spec.unit.weight
    V = min_contraction_order(w)
    return BoundConstants(
        C_dl=bound_constant(spec, lam),
        V_star=V,
        eta_star=eta_star(w, V),
        lam=lam,
    )
