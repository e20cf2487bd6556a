"""Reference implementations that the tests compare the package against.

The package does not use any of these: each restates, directly and slowly, a
quantity that ``permqmc`` computes by a faster route or needs only inside a
closed formula, or evaluates a quantity that only the tests check.
"""
import heapq
import math
from collections import Counter
from itertools import combinations_with_replacement, islice, permutations
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from permqmc.approx import SymmetricBasis
from permqmc.errors import _box_tail_certificate
from permqmc.kernels import (_cosine_closed, _cosine_series, _series_remainder_bound, _sum_depth,
                             kernel_perminv_gram)
from permqmc.spectrum import univariate_labeled
from permqmc.symmetry import PermStructure, multiplicity_array, normalize_to_nabla
from permqmc.weights import (Enclosure, GeneratorSpec, SpectralWeight, _factor_roundings, _rounded,
                             eta_star, min_contraction_order, r_weight_inv_factors, tail_sum)


def restriction_constant(subset, ps, beta0):
    """Normalizer c_u = beta0^(#u) * binom(#I, #(I & u)) of a coordinate subset u."""
    u = set(int(i) for i in subset)
    if not u:
        raise ValueError("subset must be nonempty")
    overlap = len(u & set(ps.invariant))
    return beta0 ** len(u) * math.comb(ps.size, overlap)


def fix_count(k, ps):
    """M(k)! of one multi-index k: the product of c! over the repetition
    counts c of its exchangeable entries, an exact big integer."""
    counts = Counter(k[i - 1] for i in ps.invariant)
    return math.prod(math.factorial(c) for c in counts.values())


@lru_cache(maxsize=32)
def set_partitions(s):
    """All set partitions of {0..s-1} as tuples of sorted blocks, by
    restricted-growth strings; Bell(s) partitions."""
    if s == 0:
        return ((),)
    out = []

    def grow(prefix, max_label):
        if len(prefix) == s:
            blocks = {}
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


def box_frequencies(d, half_width):
    """All integer vectors in [-H, H]^d except the origin, in lexicographic
    order (the last coordinate fastest)."""
    axes = [np.arange(-half_width, half_width + 1)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return grid[np.any(grid != 0, axis=1)].astype(np.int64)


def dual_membership(h, rule):
    """True iff h . z = 0 (mod n); exact integer arithmetic."""
    if len(h) != rule.d:
        raise ValueError("dimension mismatch")
    return sum(int(hv) * int(zv) for hv, zv in zip(h, rule.z)) % rule.n == 0


def spectral_sums_per_member(rule, spec, half_width):
    """The two spectral sums of a lattice rule by their formulas over the
    dual members of the box (box-and-filter), in the space: the error at
    the shift, sum over orbits O of r^(-1)(h_O) * M(h_O)! * |S_O|^2 / s!,
    S_O the sum of the shift phases of O's members and the orbits those of
    ``np.unique(axis=0)`` on the rows with sorted invariant coordinates; and
    the shift average, r^(-1)(h) * M(h)! / s! summed over the members h."""
    ps, w = spec.perm, spec.unit.weight
    hs = box_frequencies(rule.d, half_width)
    hs = hs[(hs @ np.asarray(rule.z, dtype=np.int64)) % rule.n == 0]
    shift = np.zeros(rule.d) if rule.shift is None else np.asarray(rule.shift)
    phase = np.exp(2j * math.pi * (hs @ shift))
    mean = float(np.sum(np.prod(r_weight_inv_factors(hs, w), axis=1)
                        * multiplicity_array(hs, ps))) / float(ps.group_order)
    hs[:, ps.invariant_idx] = np.sort(hs[:, ps.invariant_idx], axis=1)
    reps, orbit_of = np.unique(hs, axis=0, return_inverse=True)
    orbit_of = orbit_of.ravel()
    S_O = (np.bincount(orbit_of, phase.real, len(reps))
           + 1j * np.bincount(orbit_of, phase.imag, len(reps)))
    fac = np.prod(r_weight_inv_factors(reps, w), axis=1)
    worst = float(np.sum(fac * multiplicity_array(reps, ps) * np.abs(S_O) ** 2))
    return (spec.scaled(worst / float(ps.group_order), 0.0)[0], spec.scaled(mean, 0.0)[0])


def character_average(h, n):
    """Average over j of the lattice character at frequency h for prime n:
    1 if n | h, else 1/n."""
    return Fraction(1) if h % n == 0 else Fraction(1, n)


def spectral_cbc_objective(z_prefix, n, spec, half_width=12):
    """Search objective for the last coordinate of a generating-vector prefix
    by truncated frequency boxes: for every subset u of the prefix
    coordinates containing the last one, the multiplicity-weighted sum of
    r^(-1)(h) over the nonzero-entry dual members h of the box [-H, H]^|u|,
    over c_u * s_u!.  Returns (value, bound on the omitted box tail)."""
    z_prefix = [int(v) for v in z_prefix]
    ell = len(z_prefix)
    ps = spec.perm
    w = spec.weight
    inv = set(ps.invariant)
    nz = np.concatenate([np.arange(-half_width, 0), np.arange(1, half_width + 1)])
    nonzero_mass = 2.0 * w.beta1 * tail_sum(w).hi
    coord_tail = 2.0 * w.beta1 * tail_sum(w, start=half_width + 1).hi
    total = cert = 0.0
    for mask in range(1 << (ell - 1)):
        subset = tuple(c for c in range(1, ell) if mask >> (c - 1) & 1) + (ell,)
        k = len(subset)
        sub_ps = PermStructure(k, tuple(i + 1 for i, c in enumerate(subset) if c in inv))
        hs = np.stack(np.meshgrid(*[nz] * k, indexing="ij"), axis=-1).reshape(-1, k)
        zsub = np.asarray([z_prefix[c - 1] for c in subset], dtype=np.int64)
        hs = hs[(hs @ zsub) % n == 0]
        fac = np.prod(r_weight_inv_factors(hs, w), axis=1)
        c_u = restriction_constant(subset, ps, w.beta0)
        total += float(np.sum(fac * multiplicity_array(hs, sub_ps))) / (sub_ps.group_order * c_u)
        cert += k * coord_tail * nonzero_mass ** (k - 1) / c_u
    return total, cert


def validate_closed_form(n, t=None):
    """Check the closed form for exponent 2n against the certified series of
    the plain generator R(m) = m (100_000 terms for n = 1, else 20_000).

    Raises AssertionError if the closed form leaves the series' tail band by
    more than 1e-9 * (max |series| + 1) at any point of ``t`` (default: 96
    seeded draws in [0.02, 0.98] and 1/4, 1/2, 3/4).  Returns
    max |closed - series| + tail bound.
    """
    if t is None:
        rng = np.random.default_rng(2 * n + 1)
        t = np.concatenate([rng.uniform(0.02, 0.98, size=96), [0.25, 0.5, 0.75]])
    terms = 100_000 if n == 1 else 20_000
    plain = SpectralWeight(alpha=float(n), generator=GeneratorSpec("plain_linear"))
    series, _ = _cosine_series(plain, 2.0 * n, t, terms)
    cert = _series_remainder_bound(plain, 2.0 * n, terms, t)
    diff = np.abs(_cosine_closed(n, t) - series)
    scale = float(np.max(np.abs(series))) + 1.0
    if np.max(diff - cert) > 1e-9 * scale:
        raise AssertionError(
            f"closed-form cosine series failed validation at exponent {2 * n}"
        )
    return float(np.max(diff + cert))


def stream_entries(es, m):
    """The first m eigenvalues of an ``EigenSpectrum`` as an array, and their
    canonical labels, read one ``entry`` at a time."""
    entries = [es.entry(i) for i in range(m)]
    return np.array([lam for lam, _ in entries]), [label for _, label in entries]


def all_successor_stream(spec, m):
    """The first m eigenvalues and canonical labels of ``EigenSpectrum`` by
    the plain best-first search: a heap that pushes every successor t + e_j
    of a popped index tuple t whose exchangeable entries are non-decreasing
    and that it has not seen yet.  Values multiply the univariate list's
    entries left to right, the list doubling from 64 entries as indices
    reach its end, those of the unit space as the stream's.  Returns the
    values, the labels and the heap's length after the m-th pop."""
    univ = univariate_labeled(spec.unit.weight, 64)
    inv = [i - 1 for i in spec.perm.invariant]

    def value(t):
        nonlocal univ
        while max(t) >= len(univ):
            univ = univariate_labeled(spec.unit.weight, 2 * len(univ))
        out = 1.0
        for idx in t:
            out *= univ[idx][0]
        return out

    start = (0,) * spec.d
    heap, seen, values, labels = [(-value(start), start)], {start}, [], []
    while len(values) < m:
        neg, t = heapq.heappop(heap)
        values.append(-neg)
        labels.append(normalize_to_nabla(tuple(univ[idx][1] for idx in t), spec.perm))
        for j in range(spec.d):
            succ = t[:j] + (t[j] + 1,) + t[j + 1:]
            if succ not in seen and all(succ[a] <= succ[b] for a, b in zip(inv, inv[1:])):
                seen.add(succ)
                heapq.heappush(heap, (-value(succ), succ))
    return values, labels, len(heap)


def mode_labels(basis, m):
    """(kind, label) of the first m modes of a ``SymmetricBasis``, kind
    "self", "cos" or "sin", from its per-mode tables."""
    labels, _, kinds = basis._mode_arrays(m)
    return [(("self", "cos", "sin")[kind], tuple(label))
            for kind, label in zip(kinds.tolist(), labels.tolist())]


def check_min_order_matches_linear_scan(w, tau):
    """``min_contraction_order`` at v_max = 0, 5 and 3000 against a linear
    scan of ``eta_star``: the same V, or RuntimeError when the scan finds
    none up to v_max.  At tau = 1 V is the V* of the error bounds, at tau in
    (1, 2 alpha) the tail offset U* of the approximation chain."""
    for v_max in (0, 5, 3000):
        expect = next((V for V in range(v_max + 1) if eta_star(w, V, tau).hi < 1.0), None)
        if expect is None:
            with pytest.raises(RuntimeError, match=f"no contraction order found up to V = {v_max}$"):
                min_contraction_order(w, v_max, tau)
        else:
            assert min_contraction_order(w, v_max, tau) == expect


def sample_density_all_modes(basis, m, count, rng):
    """The spectral-density sampler as it was first written: every one of
    the m eigenfunctions is evaluated at every candidate, and one entry per
    candidate is read.  Same batches, RNG calls and acceptance test as
    ``SymmetricBasis.sample_density``."""
    basis.ensure(m)
    d = basis.spec.d
    bounds = basis.sup_sq_bounds(m)
    out = np.empty((count, d))
    filled = 0
    while filled < count:
        batch = max(4 * (count - filled), 64)
        js = rng.integers(0, m, size=batch)
        xs = rng.uniform(size=(batch, d))
        vals = basis.eval_matrix(xs, m)
        accept_p = vals[js, np.arange(batch)] ** 2 / bounds[js]
        keep = rng.uniform(size=batch) < accept_p
        taken = xs[keep][: count - filled]
        out[filled:filled + taken.shape[0]] = taken
        filled += taken.shape[0]
    return out


@dataclass
class GaussReport:
    """Spectral (Gaussian-average) evaluation of a rule's squared error."""

    value: float
    top_value: float
    shared_tail: float
    independent_certificate: float
    n_modes: int


def gaussian_average_error_sq(rule, spec, n_modes):
    """Squared integration error under the Gaussian model, mode by mode.

    ``top_value`` sums lambda_j (integral_j - Q xi_j)^2 over the enumerated
    modes; ``shared_tail`` closes the remaining mass through the kernel Gram
    matrix; ``independent_certificate`` bounds the dropped mass without the
    kernel route (sup-norm of the eigenfunctions times the analytic spectral
    tail), certifying the top sum on its own.
    """
    basis = SymmetricBasis(spec)
    basis.ensure(n_modes)
    iota = basis.integrals(n_modes)
    if not np.any(iota):
        raise ValueError("constant mode not among the enumerated modes; increase n_modes")
    lam = basis.lambdas(n_modes)
    rw = rule.raw_weights
    xi = basis.eval_matrix(rule.nodes, n_modes)
    qc = xi @ rw
    top = float(np.sum(lam * (iota - qc) ** 2))
    gram, _ = kernel_perminv_gram(rule.nodes, rule.nodes, spec)
    shared = float(rw @ gram @ rw - np.sum(lam * qc ** 2))
    fact = float(spec.perm.group_order)
    dropped = max(basis.stream.trace.hi - float(np.sum(lam)), 0.0)
    cert = 2.0 * fact * float(np.abs(rw).sum()) ** 2 * dropped
    return GaussReport(value=top + shared, top_value=top, shared_tail=shared,
                       independent_certificate=cert, n_modes=n_modes)


def bernoulli_polynomial(m):
    """Ascending exact coefficients of the Bernoulli polynomial B_m(t) =
    sum_j C(m, j) B_(m-j) t^j, the numbers from sum_(j<k) C(k+1, j) B_j = -(k+1) B_k."""
    B = [Fraction(1)]
    for k in range(1, m + 1):
        B.append(-sum(math.comb(k + 1, j) * B[j] for j in range(k)) / (k + 1))
    return [math.comb(m, j) * B[m - j] for j in range(m + 1)]


def _k1_excess_long_double(t, alpha, beta1):
    """K1(t) - beta0 = beta1 (-1)^(alpha+1) B_2alpha(t) / (2 alpha)! on t in
    [0, 1), in long double, from exact rational coefficients by Horner's
    rule."""
    ld = np.longdouble
    scale = Fraction(-1) ** (alpha + 1) / math.factorial(2 * alpha)
    coeffs = [ld(c.numerator) / ld(c.denominator) for c in
              (scale * c for c in bernoulli_polynomial(2 * alpha))]
    g = np.full(t.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        g = g * t + c
    g *= ld(beta1)
    return g


def gram_long_double(X, Y, ps, alpha, beta0=1.0, beta1=1.0):
    """The exchange-invariant Gram matrix of the Korobov space R(m) = 2 pi m
    at integer alpha, in long double: per pair, the mean over the s!
    exchanges of the plain product of the d values beta0 + (K1 - beta0) at
    x_a - y_sigma(a).  The differences are taken in double, as the package
    takes them."""
    ld = np.longdouble
    inv, d = [i - 1 for i in ps.invariant], X.shape[1]
    total = np.zeros((len(X), len(Y)), dtype=ld)
    for images in permutations(inv):
        sigma = list(range(d))
        for a, b in zip(inv, images):
            sigma[a] = b
        prod = np.ones_like(total)
        for a in range(d):
            t = (X[:, a, None] - Y[None, :, sigma[a]]).astype(ld)
            prod *= ld(beta0) + _k1_excess_long_double(t - np.floor(t), alpha, beta1)
        total += prod
    return total / ld(math.factorial(len(inv)))


def lattice_error_sq_long_double(rule, ps, alpha, beta0=1.0, beta1=1.0):
    """Squared worst-case error of a (shifted) rank-1 lattice rule in the
    Korobov space R(m) = 2 pi m at integer alpha, in long double, over all
    n^2 node pairs and all s! exchanges of the invariant coordinates.

    K1(t) - beta0 = beta1 (-1)^(alpha+1) B_2alpha(t) / (2 alpha)! (the
    (2 pi)^(2 alpha) of the cosine sum cancels the generator's), from exact
    rational coefficients; the error is the mean of prod_i K1 - beta0^d, each
    product expanded around beta0 as q <- q (beta0 + g) + beta0^i g.  The
    arguments k z_i - l z_sigma(i) are exact integers mod n.
    """
    ld = np.longdouble
    n, d = rule.n, rule.d
    z = [int(v) % n for v in rule.z]
    shift = [ld(0.0)] * d if rule.shift is None else [ld(float(v)) for v in rule.shift]
    b0 = ld(beta0)
    k, l = np.divmod(np.arange(n * n, dtype=np.int64), n)
    inv = [i - 1 for i in ps.invariant]
    total = ld(0.0)
    for images in permutations(inv):
        sigma = list(range(d))
        for a, b in zip(inv, images):
            sigma[a] = b
        q = np.zeros(n * n, dtype=ld)
        for i in range(d):
            j = sigma[i]
            t = ((k * z[i] - l * z[j]) % n).astype(ld) / ld(n) + (shift[i] - shift[j])
            t -= np.floor(t)
            g = _k1_excess_long_double(t, alpha, beta1)
            q = q * (b0 + g) + b0 ** i * g
        total += q.sum()
    return float(total / ld(n * n) / ld(math.factorial(len(inv))))


def orbit_box_bound_constant(spec, lams, H, chunk=1 << 18):
    """``errors.bound_constant`` at each lambda != 1 of ``lams`` and s >= 2
    as one term per orbit of the s exchangeable coordinates over [-H, H]^s:
    each sorted tuple stands for its s!/M! box points of share M!/s! (M!
    from ``multiplicity_array``), and the f free coordinates factor out as
    (b0 + osc)^f.  C(2H + s, s) terms, enumerated once for all lambdas in
    chunks of ``chunk`` rows so that memory stays bounded; the rounding count
    and the box tail are the orbit sum's own.  Returns one enclosure per
    lambda."""
    w, d, s = spec.weight, spec.d, spec.perm.size
    inv = 1.0 / np.asarray(lams, dtype=float)
    table = r_weight_inv_factors(np.arange(H + 1), w)
    full = PermStructure.full(s)
    tuples = combinations_with_replacement(range(-H, H + 1), s)
    nonzero, zero = np.zeros(len(inv)), np.zeros(len(inv))
    count = 0
    while True:
        reps = np.array(list(islice(tuples, chunk)), dtype=np.int64).reshape(-1, s)
        if not len(reps):
            break
        count += len(reps)
        fac = np.prod(table[np.abs(reps)], axis=1)
        share = multiplicity_array(reps, full) / float(spec.perm.group_order)
        at_zero = ~np.any(reps, axis=1)
        for i, p in enumerate(inv):
            terms = (share * fac) ** p / share
            nonzero[i] += float(terms[~at_zero].sum())
            zero[i] += float(terms[at_zero].sum())
    f = d - s
    k_w = _factor_roundings(w)
    k_osc = k_w + 2 + _sum_depth(H)
    # as the package counted it, plus one addition per chunk for the chunked sum
    k = (s * (k_w + 1) + 7 + _sum_depth(min(count, chunk)) + -(-count // chunk)
         + (f + 1) * (k_osc + 4) + 2)
    out = []
    for i, p in enumerate(inv):
        b0 = w.beta0 ** p
        osc = 2.0 * float(np.sum(table[1:] ** p))
        free_nonzero = osc * sum((b0 + osc) ** j * b0 ** (f - 1 - j) for j in range(f))
        inner = nonzero[i] * (b0 + osc) ** f + zero[i] * free_nonzero
        tail = _box_tail_certificate(spec, H, inv_lambda=p)
        out.append((_rounded(inner, k) + Enclosure(0.0, tail)).power(lams[i]))
    return out


def partition_sums_per_mask(zs, n, table):
    """The partition sums of ``kernels._partition_sums`` by the per-mask
    submask recurrence: for U ascending, f[U] = 0 + sum of block[B] * f[U ^ B]
    over the submasks B of U holding its lowest bit, their remainder
    U ^ B ascending, each product and addition one numpy call."""
    k = len(zs)
    j = np.arange(n, dtype=np.int64)
    blocks = {}
    for B in range(1, 1 << k):
        c = B.bit_count()
        S = sum(z for i, z in enumerate(zs) if B >> i & 1) % n
        blocks[B] = math.factorial(c - 1) * table[c - 1].take(j * S % n)
    f = np.empty((1 << k, n))
    f[0] = 1.0
    term = np.empty(n)
    for U in range(1, 1 << k):
        low = U & -U
        rest = U ^ low
        acc = f[U]
        acc[:] = 0.0
        sub = rest
        while True:   # the submasks of rest, descending: U ^ B ascending
            B = sub | low
            acc += np.multiply(blocks[B], f[U ^ B], out=term)
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return f
