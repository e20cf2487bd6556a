"""Reproducing kernels of the exchange-invariant periodic spaces.

Three kernels are evaluated here:

* the univariate kernel  K1(x, y) = beta0 + 2*beta1 * sum_m cos(2*pi*m*(x-y)) / R(m)^(2*alpha),
* the d-variate exchange-invariant kernel, an average of tensor products of
  K1 over all admissible coordinate exchanges (a permanent on the invariant
  block),
* its shift average, which collapses to a multiplicity-weighted cosine series
  in the difference argument.

Every univariate series has two evaluation paths: an exact closed form via
Bernoulli polynomials (linear Korobov generator, integer smoothness), and a
truncated series carrying a certified remainder bound.  The closed form is
validated against the certified series before first use.

Sums weighted by the multiplicity of a multi-index expand over the fixed
points of coordinate exchanges: grouping permutations by the partition their
cycles induce turns such a sum into a partition sum of "power kernels"
kappa_c, the univariate kernels with all weights raised to the c-th power.
That expansion is what makes the shift-averaged kernel and every
multiplicity-weighted constant exactly computable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .lattice import LatticeRule
from .symmetry import PermStructure, permanent_bounds, set_partitions
from .weights import Enclosure, SpectralWeight, spectral_mass

__all__ = [
    "KernelSpec",
    "kernel_univariate",
    "kernel_perminv",
    "kernel_perminv_gram",
    "lattice_gram_mean",
    "kernel_shift_invariant",
    "power_kernel",
    "power_kernel_table",
    "partition_sum_masked",
    "permutation_power_sum",
    "symmetrized_mass",
    "validate_closed_form",
]

_SERIES_CAP = 2_000_000
_CHUNK = 200_000
# node pairs per fused Ryser pass in the Gram routes; bounds their memory
_PAIR_CHUNK = 8192


# ---------------------------------------------------------------------------
# closed-form cosine series via Bernoulli polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _cosine_poly_coeffs(n: int) -> np.ndarray:
    """Ascending coefficients of the degree-2n polynomial equal to
    sum_{m>=1} cos(2*pi*m*t) / m^(2n) on [0, 1]."""
    import sympy

    x = sympy.symbols("x")
    poly = sympy.Poly(sympy.bernoulli(2 * n, x), x)
    scale = (
        sympy.Integer(-1) ** (n + 1)
        * (2 * sympy.pi) ** (2 * n)
        / (2 * sympy.factorial(2 * n))
    )
    coeffs = [sympy.nsimplify(c) * scale for c in reversed(poly.all_coeffs())]
    return np.array([float(sympy.N(c, 30)) for c in coeffs], dtype=float)


def _cosine_closed(n: int, t: np.ndarray) -> np.ndarray:
    coeffs = _cosine_poly_coeffs(n)
    frac = np.mod(t, 1.0)
    out = np.zeros_like(frac)
    for c in reversed(coeffs):
        out = out * frac + c
    return out


def _cosine_series(weight_of_m: Callable[[np.ndarray], np.ndarray],
                   t: np.ndarray, terms: int) -> np.ndarray:
    """Partial sum  sum_{m=1}^{terms} weight(m) * cos(2*pi*m*t), chunked."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for lo in range(1, terms + 1, _CHUNK):
        hi = min(terms, lo + _CHUNK - 1)
        m = np.arange(lo, hi + 1, dtype=float)
        wm = weight_of_m(m)
        out += np.cos(2.0 * math.pi * np.multiply.outer(t, m)) @ wm
    return out


def _series_remainder_bound(w: SpectralWeight, s_exp: float, terms: int,
                            t: np.ndarray | None) -> float:
    """Certified bound on the dropped cosine tail beyond ``terms``.

    Monotone-coefficient bound always applies; for linear generators the
    Dirichlet-kernel bound 1/|sin(pi t)| sharpens it away from t = 0.
    """
    r1 = float(w.generator(1))
    lead = (w.c_R / r1) ** s_exp
    mono = lead * ((terms + 1) ** (-s_exp) + (terms + 1) ** (1.0 - s_exp) / (s_exp - 1.0))
    if t is None or not w.generator.is_linear or np.size(t) == 0:
        return mono
    frac = np.mod(np.asarray(t, dtype=float), 1.0)
    sin_t = np.abs(np.sin(math.pi * frac))
    with np.errstate(divide="ignore"):
        dirichlet = np.where(sin_t > 0, lead * (terms + 1) ** (-s_exp) / sin_t, np.inf)
    return float(np.max(np.minimum(mono, dirichlet)))


@lru_cache(maxsize=64)
def _closed_form_residual(n: int) -> float:
    """Validate the Bernoulli closed form for exponent 2n against the
    certified series; returns a bound on its pointwise error.

    Raises if the two paths disagree beyond the series certificate, so a bad
    polynomial can never be used silently.
    """
    rng = np.random.default_rng(2 * n + 1)
    t = np.concatenate([rng.uniform(0.02, 0.98, size=96), [0.25, 0.5, 0.75]])
    terms = 100_000 if n == 1 else 20_000
    series = _cosine_series(lambda m: m ** (-2.0 * n), t, terms)
    # remainder of sum cos(2 pi m t)/m^{2n} beyond ``terms``
    mono = (terms + 1) ** (-2.0 * n) + (terms + 1) ** (1.0 - 2.0 * n) / (2.0 * n - 1.0)
    dirichlet = (terms + 1) ** (-2.0 * n) / np.abs(np.sin(math.pi * t))
    cert = np.minimum(mono, dirichlet)
    diff = np.abs(_cosine_closed(n, t) - series)
    slack = np.max(diff - cert)
    scale = float(np.max(np.abs(series))) + 1.0
    if slack > 1e-9 * scale:
        raise AssertionError(
            f"closed-form cosine series failed validation at exponent {2 * n}"
        )
    return float(np.max(cert) + 1e-13 * scale)


def validate_closed_form(n: int, samples: int = 1000, seed: int = 7) -> float:
    """Explicit validation of the closed form at ``samples`` random arguments.

    Returns the maximal observed deviation from the certified series value
    plus the series certificate; used by the test suite.
    """
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.01, 0.99, size=samples)
    terms = 200_000 if n == 1 else 20_000
    series = _cosine_series(lambda m: m ** (-2.0 * n), t, terms)
    mono = (terms + 1) ** (-2.0 * n) + (terms + 1) ** (1.0 - 2.0 * n) / (2.0 * n - 1.0)
    dirichlet = (terms + 1) ** (-2.0 * n) / np.abs(np.sin(math.pi * t))
    cert = float(np.max(np.minimum(mono, dirichlet)))
    return float(np.max(np.abs(_cosine_closed(n, t) - series))) + cert


# ---------------------------------------------------------------------------
# power kernels kappa_c
# ---------------------------------------------------------------------------

def _closed_available(w: SpectralWeight, power: int) -> bool:
    return (
        w.generator.kind == "korobov_linear"
        and w.has_integer_alpha
    )


def power_kernel(w: SpectralWeight, power: int, t, include_constant: bool = True,
                 mode: str = "auto", tol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Evaluate kappa_c(t) = beta0^c + 2*beta1^c * sum_m R(m)^(-2*alpha*c) * cos(2*pi*m*t).

    Parameters
    ----------
    power : int
        The order c >= 1; c = 1 is the univariate kernel itself.
    include_constant : bool
        When False the beta0^c term is dropped (the all-nonzero-frequency
        variant used in the per-coordinate error decomposition).
    mode : {"auto", "closed", "spectral"}
    tol : float
        Certificate target for the spectral path.

    Returns
    -------
    values : ndarray
    certificate : float
        Bound on the absolute evaluation error, uniform over ``t``.
    """
    if power < 1:
        raise ValueError("power must be >= 1")
    t_arr = np.asarray(t, dtype=float)
    const = w.beta0 ** power if include_constant else 0.0
    amp = 2.0 * w.beta1 ** power
    use_closed = mode == "closed" or (mode == "auto" and _closed_available(w, power))
    if use_closed:
        if not _closed_available(w, power):
            raise ValueError("closed form requires the Korobov generator and integer alpha")
        n = round(w.alpha * power)
        rho = w.generator.linear_slope
        vals = const + amp * rho ** (-2.0 * n) * _cosine_closed(n, t_arr)
        cert = amp * rho ** (-2.0 * n) * _closed_form_residual(n)
        return vals, cert
    # certified truncated series
    s_exp = 2.0 * w.alpha * power
    if s_exp <= 1.0:
        raise ValueError("series divergent: 2*alpha*power must exceed 1")
    terms = _choose_terms(w, s_exp, amp, tol, t_arr)
    vals = const + amp * _cosine_series(
        lambda m: np.asarray(w.generator(m), dtype=float) ** (-s_exp), t_arr, terms
    )
    cert = amp * _series_remainder_bound(w, s_exp, terms, t_arr)
    return vals, cert


def _choose_terms(w: SpectralWeight, s_exp: float, amp: float, tol: float,
                  t: np.ndarray) -> int:
    terms = 64
    while terms < _SERIES_CAP:
        if amp * _series_remainder_bound(w, s_exp, terms, t) <= tol:
            return terms
        terms *= 2
    return _SERIES_CAP


def power_kernel_table(w: SpectralWeight, n: int, c_max: int,
                       include_constant: bool = False, mode: str = "auto",
                       tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """kappa_c at the grid points g/n for g = 0..n-1 and c = 1..c_max.

    Returns (table, certs) with table of shape (c_max, n).
    """
    grid = np.arange(n, dtype=float) / n
    table = np.empty((c_max, n))
    certs = np.empty(c_max)
    for c in range(1, c_max + 1):
        table[c - 1], certs[c - 1] = power_kernel(
            w, c, grid, include_constant=include_constant, mode=mode, tol=tol
        )
    return table, certs


# ---------------------------------------------------------------------------
# partition sums over exchange fixed points
# ---------------------------------------------------------------------------

def _submasks_with_lowest(mask: int):
    """Nonempty submasks of ``mask`` containing its lowest set bit."""
    low = mask & -mask
    rest = mask ^ low
    sub = rest
    while True:
        yield sub | low
        if sub == 0:
            return
        sub = (sub - 1) & rest


def partition_sum_masked(block_vals: dict[int, np.ndarray] | Sequence, s: int):
    """Sum over set partitions of {0..s-1} of prod_B (|B|-1)! * value(B).

    ``block_vals`` maps a nonzero bitmask over the s elements to the value of
    that block (scalar or ndarray; shapes must broadcast).  This equals the
    sum over all permutations of s elements of the product of per-cycle
    values, when a cycle's value depends only on its support.
    """
    if s == 0:
        return 1.0
    f: dict[int, np.ndarray | float] = {0: 1.0}
    full = (1 << s) - 1
    for mask in range(1, full + 1):
        low = mask & -mask
        acc = None
        for block in _submasks_with_lowest(mask):
            size = block.bit_count()
            term = math.factorial(size - 1) * np.asarray(block_vals[block]) * f[mask ^ block]
            acc = term if acc is None else acc + term
        f[mask] = acc
    return f[full]


def permutation_power_sum(p: Sequence[float]) -> float:
    """Sum over all permutations of s elements of prod over cycles of p[len].

    ``p[c-1]`` is the common value of every cycle of length c.  Computed by
    the first-element recurrence in O(s^2); dividing by s! gives the matching
    sum over multisets (sorted tuples).
    """
    s = len(p)
    N = [1.0] * (s + 1)
    for m in range(1, s + 1):
        total = 0.0
        for c in range(1, m + 1):
            total += math.comb(m - 1, c - 1) * math.factorial(c - 1) * p[c - 1] * N[m - c]
        N[m] = total
    return N[s]


# ---------------------------------------------------------------------------
# kernel specification and public kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Kernel of the exchange-invariant space over a weight system.

    mode "auto" resolves to the closed form whenever the generator is the
    linear Korobov one with integer smoothness, and to certified truncated
    series otherwise.
    """

    weight: SpectralWeight
    perm: PermStructure
    mode: str = "auto"
    tol: float = 1e-10

    def __post_init__(self):
        if self.mode not in ("auto", "closed", "spectral"):
            raise ValueError(f"unknown eval mode {self.mode!r}")
        if self.mode == "closed" and not _closed_available(self.weight, 1):
            raise ValueError("closed form requires the Korobov generator and integer alpha")

    @property
    def d(self) -> int:
        return self.perm.d

    def univariate(self, t, include_constant: bool = True) -> tuple[np.ndarray, float]:
        return power_kernel(self.weight, 1, t, include_constant=include_constant,
                            mode=self.mode, tol=self.tol)


def kernel_univariate(x, y, w: SpectralWeight, mode: str = "auto",
                      tol: float = 1e-10) -> float:
    """K1(x, y); depends on x - y only."""
    vals, _ = power_kernel(w, 1, np.asarray(x, dtype=float) - np.asarray(y, dtype=float),
                           mode=mode, tol=tol)
    return float(vals) if np.ndim(vals) == 0 else vals


def _free_factor(fvals: np.ndarray, certf: float) -> tuple[np.ndarray, np.ndarray]:
    """Product of the free-coordinate K1 values over the last axis (1 when
    there are none), with its error bound given a uniform per-value
    certificate."""
    free_prod = np.prod(fvals, axis=-1)
    free_hi = np.prod(np.abs(fvals) + certf, axis=-1)
    return free_prod, free_hi - np.abs(free_prod)


def _gram_entries(block: np.ndarray, cert1: float, free_prod: np.ndarray,
                  free_cert: np.ndarray, spec: KernelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Kernel values per(block) * free_prod / s! of a batch-last (s, s, b)
    block and the error bound of each: K1's certificate through per(|A|+c)
    minus per(|A|), Ryser's rounding, and the free-factor certificate."""
    fact = float(spec.perm.group_order)
    pb = permanent_bounds(block, cert1)
    values = pb.per * free_prod / fact
    per_err = pb.per_pad - pb.per_abs + pb.rounding
    certs = (per_err * (np.abs(free_prod) + free_cert) + pb.per_abs * free_cert) / fact
    return values, certs


def kernel_perminv_gram(X, Y, spec: KernelSpec) -> tuple[np.ndarray, float]:
    """Gram matrix of the exchange-invariant kernel on point sets X, Y.

    Rows of X are taken in chunks of about ``_PAIR_CHUNK`` pairs; each chunk
    goes through one fused Ryser pass (``permanent_bounds``), so memory
    beyond G itself is O(_PAIR_CHUNK * s^2).  Returns (G, cert) where cert
    bounds the absolute error of every entry, Ryser's rounding included.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != spec.d or Y.shape[1] != spec.d:
        raise ValueError("point dimension does not match the kernel")
    inv = spec.perm.invariant_idx
    free = spec.perm.free_idx
    s = len(inv)
    nx, ny = X.shape[0], Y.shape[0]
    gram = np.empty((nx, ny))
    cert = 0.0
    Yinv = Y[:, inv].T
    step = max(1, _PAIR_CHUNK // max(ny, 1))
    for lo in range(0, nx, step):
        Xc = X[lo:lo + step]
        cx = Xc.shape[0]
        # diffs[i, j, a, b] = x_a[inv_i] - y_b[inv_j]
        diffs = Xc[:, inv].T[:, None, :, None] - Yinv[None, :, None, :]
        vals, cert1 = spec.univariate(diffs.reshape(-1))
        fd = Xc[:, None, free] - Y[None, :, free]
        fvals, certf = spec.univariate(fd.reshape(-1)) if len(free) else (fd, 0.0)
        free_prod, free_cert = _free_factor(fvals.reshape(fd.shape), certf)
        values, certs = _gram_entries(vals.reshape(s, s, cx * ny), cert1,
                                      free_prod.reshape(-1), free_cert.reshape(-1), spec)
        gram[lo:lo + cx] = values.reshape(cx, ny)
        if certs.size:
            cert = max(cert, float(np.max(certs)))
    return gram, cert


def lattice_gram_mean(rule: LatticeRule, spec: KernelSpec) -> tuple[float, float, int]:
    """Mean of the exchange-invariant Gram matrix over all node pairs of a
    (shifted) rank-1 lattice rule, without forming the n x n matrix.

    Node k has coordinates {k*z_i/n + shift_i}, so the invariant block of the
    pair (k, l) is K1 at (k*z_i - l*z_j mod n)/n + shift_i - shift_j: K1 is
    tabulated once at those n*s^2 arguments and gathered.  The pair (l, k)
    has the transposed block (K1 is even) and the same permanent, so pairs
    are indexed by (k, m = l - k mod n) with m in 0..n//2 only, and every m
    with m != -m mod n counts twice.  The free-coordinate factor depends on
    m alone.  m streams in chunks of about ``_PAIR_CHUNK`` pairs through one
    fused Ryser pass, so memory is O(_PAIR_CHUNK * s^2 + n * s^2).

    Returns (mean, cert, pairs): cert bounds the error of every Gram entry,
    hence of the mean; pairs counts the pair permanents evaluated.
    """
    n = rule.n
    inv = spec.perm.invariant_idx
    free = spec.perm.free_idx
    s = len(inv)
    z = np.asarray(rule.z, dtype=np.int64)
    shift = np.zeros(rule.d) if rule.shift is None else np.asarray(rule.shift)
    grid = np.arange(n, dtype=float) / n
    zi = z[inv]
    dshift = shift[inv][:, None] - shift[inv][None, :]
    table, cert1 = spec.univariate(grid + dshift[:, :, None])        # (s, s, n)
    # the diagonal of the table is K1 on the grid itself
    ftable, certf = (table[0, 0], cert1) if s else spec.univariate(grid)
    # Gather from the flattened table repeated twice along g: entry (i, j, g)
    # sits at (i*s + j)*2n + g and again at + n, so the index of the pair
    # (k, m), (k*(z_i - z_j) mod n) + n - (m*z_j mod n), needs no final mod.
    doubled = np.concatenate([table, table], axis=2).reshape(-1)
    k = np.arange(n, dtype=np.int64)
    base = (np.arange(s * s, dtype=np.int64) * 2 * n + n).reshape(s, s, 1)
    kpart = (zi[:, None, None] - zi[None, :, None]) * k % n + base     # (s, s, n)
    half = n // 2
    step = max(1, _PAIR_CHUNK // n)
    total = 0.0
    cert = 0.0
    for lo in range(0, half + 1, step):
        m = np.arange(lo, min(lo + step, half + 1), dtype=np.int64)
        # batch ordered (m, k)
        idx = kpart[:, :, None, :] - (zi[:, None] * m % n)[None, :, :, None]
        block = doubled.take(idx.reshape(s, s, len(m) * n))
        free_prod, free_cert = _free_factor(ftable[(m[:, None] * z[free]) % n], certf)
        values, certs = _gram_entries(block, cert1, np.repeat(free_prod, n),
                                      np.repeat(free_cert, n), spec)
        mult = np.where((m == 0) | (2 * m == n), 1.0, 2.0)
        total += float(mult @ values.reshape(len(m), n).sum(axis=1))
        cert = max(cert, float(np.max(certs)))
    return total / float(n) ** 2, cert, n * (half + 1)


def kernel_perminv(x, y, spec: KernelSpec) -> float:
    """Exchange-invariant kernel at a single pair of points."""
    g, _ = kernel_perminv_gram(np.asarray(x, dtype=float)[None, :],
                               np.asarray(y, dtype=float)[None, :], spec)
    return float(g[0, 0])


def _shift_invariant_from_diff(diff: np.ndarray, spec: KernelSpec,
                               include_constant: bool = True) -> tuple[np.ndarray, float]:
    """Shift-averaged kernel evaluated at difference vectors (npts, d).

    Expands the multiplicity-weighted frequency sum over exchange fixed
    points: for each partition of the invariant block, every block of size c
    contributes kappa_c at the summed difference of its coordinates.
    """
    diff = np.atleast_2d(np.asarray(diff, dtype=float))
    inv = spec.perm.invariant_idx
    free = spec.perm.free_idx
    s = len(inv)
    kappa_cache: dict[int, tuple[np.ndarray, float]] = {}

    def kappa(c: int, args: np.ndarray) -> tuple[np.ndarray, float]:
        return power_kernel(spec.weight, c, args, include_constant=include_constant,
                            mode=spec.mode, tol=spec.tol)

    if s:
        vals: dict[int, np.ndarray] = {}
        hi: dict[int, np.ndarray] = {}
        for mask in range(1, 1 << s):
            members = [inv[i] for i in range(s) if mask >> i & 1]
            arg = np.mod(diff[:, members].sum(axis=1), 1.0)
            v, c_err = kappa(mask.bit_count(), arg)
            vals[mask] = v
            hi[mask] = np.abs(v) + c_err
        part = partition_sum_masked(vals, s)
        part_hi = partition_sum_masked(hi, s)
        part_cert = part_hi - np.abs(part)
        fact = float(spec.perm.group_order)
        part, part_cert = part / fact, part_cert / fact
    else:
        part = np.ones(diff.shape[0])
        part_cert = np.zeros(diff.shape[0])
    if len(free):
        fv, fc = kappa(1, np.mod(diff[:, free], 1.0).reshape(-1))
        fv = fv.reshape(diff.shape[0], len(free))
        fprod = np.prod(fv, axis=1)
        fhi = np.prod(np.abs(fv) + fc, axis=1)
        total = part * fprod
        cert = np.abs(part) * (fhi - np.abs(fprod)) + part_cert * fhi
    else:
        total = part
        cert = part_cert
    return total, float(np.max(cert)) if np.size(cert) else 0.0


def kernel_shift_invariant(x, y, spec: KernelSpec) -> float:
    """Shift-averaged exchange-invariant kernel; a function of x - y only."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    vals, _ = _shift_invariant_from_diff((x - y)[None, :], spec)
    return float(vals[0])


def shift_invariant_profile(diffs, spec: KernelSpec,
                            include_constant: bool = True) -> tuple[np.ndarray, float]:
    """Vectorized shift-averaged kernel over an array of difference vectors."""
    return _shift_invariant_from_diff(diffs, spec, include_constant=include_constant)


def symmetrized_mass(spec: KernelSpec) -> Enclosure:
    """Diagonal integral of the exchange-invariant kernel.

    Equals the multiplicity-weighted total spectral mass; computed exactly
    from the per-order scalar masses through the fixed-point recurrence.
    """
    w = spec.weight
    s = spec.perm.size
    d_free = spec.d - s
    masses = [spectral_mass(w, c) for c in range(1, s + 1)]
    lo = permutation_power_sum([m.lo for m in masses]) if s else 1.0
    hi = permutation_power_sum([m.hi for m in masses]) if s else 1.0
    fact = float(math.factorial(s))
    base = Enclosure(lo / fact, hi / fact)
    if d_free:
        m1 = spectral_mass(w, 1)
        base = base * m1.power(d_free)
    return base
