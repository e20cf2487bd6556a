"""Approximation-driven weighted cubature.

Pipeline: enumerate the eigen-spectrum of the invariant space, build a
sample-doubling sequence of linear approximation algorithms whose
average-case error halves at a certified rate, then correct the integral of
the approximation with an equal-weight average of residuals on a searched
point set.  Because every algorithm in the chain is linear in its samples,
the final rule collapses to an explicit node/weight list.

Point sets are found semi-constructively: candidates are drawn from the
distribution entering the averaging argument (the spectral density for the
approximation sets, uniform for the integration set), their exactly computed
errors are compared against the averaged bound inflated by a slack factor,
and redraws continue until acceptance or budget exhaustion.  The achieved
slack is recorded with the result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import _refuse_above_cap, _scaled_enclosure, worst_case_error_sq
from .kernels import _PAIR_CHUNK, KernelSpec, _fill_gram
from .lattice import WeightedCubature
from .spectrum import EigenSpectrum, TailConstants, rate_constants, spectrum_tail_constants
from .symmetry import multiplicity_array, normalize_to_nabla, permanent_batch
from .weights import Enclosure

__all__ = [
    "SymmetricBasis",
    "ApproxAlgorithm",
    "build_approx_sequence",
    "AssembledRule",
    "assemble_rule",
    "average_approx_error_sq",
]


class SymmetricBasis:
    """Real orthonormal eigenbasis of the invariant space, with the unit
    space's eigenvalues.

    Conjugate frequency orbits are paired into cosine/sine combinations so
    that all downstream linear algebra (and hence all cubature weights) stays
    real.  Self-conjugate orbits are real already.  Mode j stores its
    eigenvalue, its kind, and the canonical frequency label.
    """

    def __init__(self, spec: KernelSpec):
        self.spec = spec
        self.stream = EigenSpectrum(spec)
        # per mode: eigenvalue, kind (0 self, 1 cos, 2 sin), canonical label
        # row and its multiplicity M(k)!, each computed once in ``ensure``
        self._lam = np.empty(0)
        self._kinds = np.empty(0, dtype=np.intp)
        self._labels = np.empty((0, spec.d), dtype=np.int64)
        self._mults = np.empty(0)
        self._pending: dict[tuple[int, ...], float] = {}
        self._consumed = 0

    def ensure(self, m: int) -> None:
        new: list[tuple[float, int, tuple[int, ...]]] = []
        while self._lam.size + len(new) < m:
            lam, label = self.stream.entry(self._consumed)
            self._consumed += 1
            conj = normalize_to_nabla(tuple(-v for v in label), self.spec.perm)
            if conj == label:
                new.append((lam, 0, label))
            elif conj in self._pending:
                self._pending.pop(conj)
                rep = min(label, conj)
                new += [(lam, 1, rep), (lam, 2, rep)]
            else:
                self._pending[label] = lam
        if new:
            lams, kinds, labels = zip(*new)
            labels = np.asarray(labels, dtype=np.int64).reshape(len(new), self.spec.d)
            self._lam = np.concatenate([self._lam, lams])
            self._kinds = np.concatenate([self._kinds, kinds])
            self._labels = np.concatenate([self._labels, labels])
            self._mults = np.concatenate([self._mults, multiplicity_array(labels, self.spec.perm)])

    def lambdas(self, m: int) -> np.ndarray:
        self.ensure(m)
        return self._lam[:m]

    def integrals(self, m: int) -> np.ndarray:
        """Integral of each normalized eigenfunction: 1 at the constant mode."""
        self.ensure(m)
        return (~self._labels[:m].any(axis=1)).astype(float)

    def sup_sq_bounds(self, m: int) -> np.ndarray:
        """Per-mode bound on sup |xi_j|^2, used for rejection sampling:
        #S / M(k)!, twice that for a cosine or sine mode."""
        self.ensure(m)
        base = float(self.spec.perm.group_order) / self._mults[:m]
        return np.where(self._kinds[:m] == 0, 1.0, 2.0) * base

    def _mode_arrays(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per mode j < m: its label (int64 row), its norm sqrt(#S * M(k)!)
        and its kind (0 self, 1 cos, 2 sin)."""
        self.ensure(m)
        norm = np.sqrt(float(self.spec.perm.group_order) * self._mults[:m])
        return self._labels[:m], norm, self._kinds[:m]

    def _pair_values(self, points, js, p) -> np.ndarray:
        """xi_j(x_p) for the (mode, point) pairs of the broadcast index
        arrays ``js`` and ``p``, in their broadcast shape.

        xi_j(x) = (sum over exchanges of exp(2 pi i k.x)) / sqrt(#S * M(k)!),
        with conjugate pairs mapped to sqrt(2) * (real, imag) parts.  The sum
        is per[exp(2 pi i k_a x_b)] over the invariant coordinates a, b, one
        ``permanent_batch`` pass per chunk of at most ``_PAIR_CHUNK`` pairs
        (or one mode's), times the product of the free coordinates' phases.
        A grid, a column of modes ``js`` by a row of points ``p``, gathers
        whole rows of a phase table over its frequencies and points; other
        pairs (``sample_density``'s) take phases per pair.  Each is
        exp(2 pi i (k * x)): a value does not depend on the other pairs."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        js, p = np.asarray(js, dtype=np.intp), np.asarray(p, dtype=np.intp)
        out = np.empty(np.broadcast_shapes(js.shape, p.shape))
        labels, norm, kinds = self._mode_arrays(int(js.max(initial=0)) + 1)
        inv, free = self.spec.perm.invariant_idx, self.spec.perm.free_idx
        s = inv.size

        def values(block, free_phase, j):   # block[b, a, ...] = exp(2 pi i k_j[a] x[b])
            per = permanent_batch(np.moveaxis(block.reshape(s, s, free_phase.size), -1, 0))
            val = per.reshape(free_phase.shape) * free_phase / norm[j]
            kind = kinds[j]
            if np.any((kind == 0) & (np.abs(val.imag) > 1e-9 * (1.0 + np.abs(val.real)))):
                raise AssertionError("self-conjugate eigenfunction not real")
            return np.where(kind == 0, val.real,
                            math.sqrt(2.0) * np.where(kind == 2, val.imag, val.real))

        if js.ndim == 2 and js.shape[1] == 1 and p.ndim == 1:      # modes x points
            kvals, kidx = np.unique(labels[js[:, 0]], return_inverse=True)
            table = np.exp(2j * math.pi * (kvals[None, :, None] * pts[p].T[:, None, :]))
            step = max(1, _PAIR_CHUNK // max(p.size, 1))
            for lo in range(0, len(js), step):
                k, j = kidx.reshape(len(js), -1)[lo:lo + step], js[lo:lo + step]
                out[lo:lo + step] = values(table[inv[:, None, None], k[:, inv].T[None]],
                                           np.prod(table[free[:, None], k[:, free].T], axis=0), j)
            return out
        (js, p), flat = np.broadcast_arrays(js, p), out.reshape(-1)
        for lo in range(0, flat.size, _PAIR_CHUNK):
            j = js.flat[lo:lo + _PAIR_CHUNK]
            k, x = labels[j], pts[p.flat[lo:lo + _PAIR_CHUNK]]
            flat[lo:lo + _PAIR_CHUNK] = values(
                np.exp(2j * math.pi * (k[:, inv].T[None] * x[:, inv].T[:, None])),
                np.prod(np.exp(2j * math.pi * (k[:, free] * x[:, free])).T, axis=0), j)
        return out

    def eval_matrix(self, points, m: int) -> np.ndarray:
        """Values of the L2-normalized eigenfunctions: shape (m, npoints),
        entry [j, p] = xi_j(x_p) as ``_pair_values`` computes it."""
        npts = np.atleast_2d(np.asarray(points, dtype=float)).shape[0]
        return self._pair_values(points, np.arange(m)[:, None], np.arange(npts))

    def sample_density(self, m: int, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` points from the spectral density by mode mixture
        plus rejection from the uniform proposal."""
        self.ensure(m)
        d = self.spec.d
        bounds = self.sup_sq_bounds(m)
        out = np.empty((count, d))
        filled = 0
        while filled < count:
            batch = max(4 * (count - filled), 64)
            js = rng.integers(0, m, size=batch)
            xs = rng.uniform(size=(batch, d))
            vals = self._pair_values(xs, js, np.arange(batch))
            accept_p = vals ** 2 / bounds[js]
            keep = rng.uniform(size=batch) < accept_p
            taken = xs[keep][: count - filled]
            out[filled:filled + taken.shape[0]] = taken
            filled += taken.shape[0]
        return out


@dataclass
class ApproxAlgorithm:
    """Linear map from samples to coefficients in the eigenbasis."""

    level: int
    m: int
    points: np.ndarray
    coeff_map: np.ndarray
    e_avg_sq: float
    bound_rhs: float
    slack_achieved: float
    slack_bound: float
    certified: bool
    # carried by a chain's latest level, so later ones evaluate only new blocks
    gram: np.ndarray | None = field(default=None, repr=False)
    gram_cert: float = 0.0
    phi: np.ndarray | None = field(default=None, repr=False)
    # the chain's eigenbasis, shared by its levels and the rule built on them
    basis: SymmetricBasis | None = field(default=None, repr=False)

    @property
    def n_samples(self) -> int:
        return self.points.shape[0]

    @staticmethod
    def zero(level: int, d: int, e_avg_sq: float) -> "ApproxAlgorithm":
        return ApproxAlgorithm(
            level=level, m=0, points=np.zeros((0, d)),
            coeff_map=np.zeros((0, 0)), e_avg_sq=e_avg_sq,
            bound_rhs=e_avg_sq, slack_achieved=1.0, slack_bound=1.0,
            certified=True, gram=np.zeros((0, 0)), phi=np.zeros((0, 0)),
        )


def average_approx_error_sq(alg: ApproxAlgorithm, basis: SymmetricBasis,
                            trace: Enclosure) -> float:
    """Exact Gaussian-average squared approximation error of a linear map.

    With coefficients theta = G f(T), the mean squared residual equals
    trace - 2 sum_i lambda_i (G Phi^T)_ii + tr(G K(T,T) G^T), where Phi holds
    eigenfunction values at the samples and K is the kernel Gram matrix:
    the ``phi`` and ``gram`` that ``alg`` carries, which a chain's candidate
    levels always do.
    """
    if alg.m == 0:
        return trace.mid
    lam = basis.lambdas(alg.m)
    cross = float(np.sum(lam * np.einsum("ij,ij->i", alg.coeff_map, alg.phi)))
    quad = float(np.sum((alg.coeff_map @ alg.gram) * alg.coeff_map))
    return trace.mid - 2.0 * cross + quad


def _extend_algorithm(alg: ApproxAlgorithm, new_points: np.ndarray, m: int,
                      basis: SymmetricBasis) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient map of the corrected algorithm on old + new samples, and
    the first max(m, alg.m) eigenfunctions at the new samples."""
    q = new_points.shape[0]
    # a row of eval_matrix does not depend on how many rows are asked for
    vals = basis.eval_matrix(new_points, max(m, alg.m))
    xi_new = vals[:m]                                  # (m, q)
    u = np.mean(xi_new ** 2, axis=0)                   # density at new points
    with np.errstate(divide="ignore", invalid="ignore"):
        V = np.where(u > 0, xi_new / u, 0.0)           # (m, q)
    phi_old = vals[:alg.m]                             # (m_old, q)
    left = (np.eye(m, alg.m) - V @ phi_old.T / q) @ alg.coeff_map
    return np.hstack([left, V / q]), vals


def _carried_phi(prev: ApproxAlgorithm, vals: np.ndarray, m: int,
                 basis: SymmetricBasis) -> np.ndarray:
    """eval_matrix on prev's points and new ones from the new points' ``vals``,
    prev's Phi and the modes it lacks: bitwise, as values are per pair."""
    n_old, k = prev.n_samples, min(m, prev.m)
    phi = np.empty((m, n_old + vals.shape[1]))
    phi[:, n_old:] = vals[:m]
    phi[:k, :n_old] = prev.phi[:k]
    phi[k:, :n_old] = basis._pair_values(prev.points, np.arange(k, m)[:, None], np.arange(n_old))
    return phi


def _grown(alg: ApproxAlgorithm, n: int) -> np.ndarray:
    """The Gram matrix ``alg`` carries, taken (with its Phi) and grown in place
    to n x n, its block leading: a realloc, so the block is not held twice."""
    gram, k, alg.gram, alg.phi = alg.gram, alg.gram.shape[0], None, None
    gram.resize(n * n, refcheck=False)      # no view of a carried Gram outlives its use
    for i in range(k - 1, 0, -1):           # rows move from stride k to stride n
        gram[i * n:i * n + k] = gram[i * k:i * k + k]
    return gram.reshape(n, n)


def build_approx_sequence(spec: KernelSpec, tau: float, k_max: int,
                          search_budget: int = 32, delta: float = 0.5,
                          seed: int = 0,
                          constants: TailConstants | None = None) -> list[ApproxAlgorithm]:
    """Sample-doubling approximation chain up to level ``k_max``, in the unit
    space.

    Levels up to the rate threshold are the zero algorithm.  Each later level
    doubles the sample count, projecting onto the top-m eigenspace with m
    balancing the spectral tail against the inherited error.  Candidate point
    sets are redrawn until the exactly computed error meets the averaged
    bound inflated by (1 + delta); the per-level certified slack compounds
    toward (1 + delta)^(p + 1).  Each level keeps one of its draws, so a
    ``search_budget`` below one raises ValueError before any work.  So does
    a level whose predicted working set exceeds ``errors.STEP_BYTES_CAP``,
    before its modes are enumerated: m grows without bound as tau nears 2 alpha.
    """
    if search_budget < 1:
        raise ValueError(f"search_budget must be >= 1, got {search_budget}")
    if constants is None:
        constants = spectrum_tail_constants(spec, tau)
    p = constants.p_d
    C = constants.C_d.hi
    rc = rate_constants(p)
    basis = SymmetricBasis(spec)
    trace = basis.stream.trace
    rng = np.random.Generator(np.random.Philox(seed))
    algs: list[ApproxAlgorithm] = []
    for k in range(min(rc.K_p, k_max) + 1):
        algs.append(ApproxAlgorithm.zero(k, spec.d, trace.mid))
        algs[-1].basis = basis
    slack = 1.0
    for k in range(rc.K_p + 1, k_max + 1):
        prev = algs[-1]
        m = int(math.floor((C * 2.0 ** (k - 1) / prev.e_avg_sq) ** (1.0 / (p + 1.0)) * rc.y_p))
        if m < 1:
            raise RuntimeError(f"level {k}: computed basis size {m} < 1")
        q = 2 ** (k - 1)
        # before any mode is enumerated: _extend_algorithm's m x m_prev update
        # and m x n_prev map, and the m x q values at the new points and V
        _refuse_above_cap(8 * m * (prev.m + prev.n_samples + 2 * q),
                          f"approximation level {k} (basis size m = {m} at tau = {tau}, "
                          f"N >= {2 ** (k + 1)})", "; lower tau or N")
        rhs = basis.stream.tail_after(m).hi + m / q * prev.e_avg_sq
        target = (1.0 + delta) * rhs
        best_e2 = math.inf
        best = None
        certified = False
        for _ in range(search_budget):
            pts_new = basis.sample_density(m, q, rng)
            points = np.vstack([prev.points, pts_new]) if prev.n_samples else pts_new
            G, vals = _extend_algorithm(prev, pts_new, m, basis)
            gram = np.pad(prev.gram, (0, q))        # new blocks zero until filled
            cand = ApproxAlgorithm(
                level=k, m=m, points=points, coeff_map=G, e_avg_sq=math.nan,
                bound_rhs=rhs, slack_achieved=math.nan, slack_bound=1.0, certified=False,
                gram=gram, phi=_carried_phi(prev, vals, m, basis), gram_cert=max(
                    prev.gram_cert, _fill_gram(gram, points, points, spec, prev.n_samples)),
                basis=basis,
            )
            e2 = average_approx_error_sq(cand, basis, trace)
            if e2 < best_e2:
                best_e2 = e2
                best = cand
            if e2 <= target:
                certified = True
                break
        slack = (1.0 + delta) * slack ** (p / (p + 1.0))
        best.e_avg_sq = best_e2
        best.slack_achieved = best_e2 / rhs if rhs > 0 else math.inf
        best.slack_bound = slack
        best.certified = certified
        prev.gram = prev.phi = None
        algs.append(best)
    return algs


@dataclass
class AssembledRule:
    """Weighted cubature assembled from an approximation level plus a
    residual-averaging point set, with its certification record; the chain
    (``algorithm``) is the unit space's, the errors and C_d the space's."""

    cubature: WeightedCubature
    N: int
    kappa: int
    algorithm: ApproxAlgorithm
    e_wor_sq: float
    e_wor_certificate: float
    residual_target: float
    certified: bool
    slack_chain: float
    constants: TailConstants
    seed: int
    delta: float

    def bound_value(self) -> float:
        """Certified bound on the squared error implied by the chain:
        slack * 2^((p+2)(p+1)) * (1+p) * (1+1/p)^p * C_d / N^(p+1)."""
        p = self.constants.p_d
        lead = 2.0 ** ((p + 2.0) * (p + 1.0)) * (1.0 + p) * (1.0 + 1.0 / p) ** p
        return self.slack_chain * lead * self.constants.C_d.hi * float(self.N) ** (-(p + 1.0))

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "kappa": self.kappa,
            "nodes": self.cubature.n,
            "level_m": self.algorithm.m,
            "e_wor_sq": self.e_wor_sq,
            "e_wor_certificate": self.e_wor_certificate,
            "residual_target": self.residual_target,
            "certified": self.certified,
            "slack_chain": self.slack_chain,
            "tau": self.constants.tau,
            "p_d": self.constants.p_d,
            "C_d": [self.constants.C_d.lo, self.constants.C_d.hi],
            "seed": self.seed,
            "delta": self.delta,
        }


def assemble_rule(spec: KernelSpec, tau: float, N: int,
                  search_budget: int = 32, delta: float = 0.5,
                  seed: int = 0) -> AssembledRule:
    """Assemble the N-budget weighted cubature rule.

    Uses the approximation level kappa = floor(log2 N) - 1 and 2^kappa
    residual nodes; the total node count never exceeds N.  The integration
    point set is searched uniformly at random and accepted once the exact
    squared worst-case error meets the averaged bound times (1 + delta),
    in the unit space; what it reports is scaled once.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if search_budget < 1:
        raise ValueError(f"search_budget must be >= 1, got {search_budget}")
    unit = spec.unit
    constants = spectrum_tail_constants(unit, tau)
    kappa = int(math.floor(math.log2(N))) - 1
    algs = build_approx_sequence(unit, tau, kappa, search_budget=search_budget,
                                 delta=delta, seed=seed, constants=constants)
    alg = algs[kappa]
    r = 2 ** kappa
    target = (1.0 + delta) * alg.e_avg_sq / r
    rng = np.random.Generator(np.random.Philox([seed, 0xA55E]))
    best = best_rep = gram = None
    certified = False
    for _ in range(search_budget):
        int_pts = rng.uniform(size=(r, spec.d))
        cub = _collapse_to_cubature(alg, int_pts, alg.basis)
        # one buffer, made after the first collapse, holds the level's Gram;
        # each draw refills only the blocks of its integration points
        gram = _grown(alg, cub.n) if gram is None else gram
        gcert = max(alg.gram_cert, _fill_gram(gram, cub.nodes, cub.nodes, unit, alg.n_samples))
        rep = worst_case_error_sq(cub, unit, (gram, gcert))
        if best_rep is None or rep.value < best_rep.value:
            best, best_rep = cub, rep
        if rep.value <= target + rep.truncation_certificate:
            best, best_rep = cub, rep
            certified = True
            break
    slack_chain = (1.0 + delta) * alg.slack_bound
    e_wor_sq, e_wor_cert = spec.scaled(best_rep.value, best_rep.truncation_certificate)
    return AssembledRule(
        cubature=best, N=N, kappa=kappa, algorithm=alg,
        e_wor_sq=e_wor_sq, e_wor_certificate=e_wor_cert,
        residual_target=spec.scaled(target, 0.0)[0], certified=certified and alg.certified,
        slack_chain=slack_chain, seed=seed, delta=delta,
        constants=replace(constants, C_d=_scaled_enclosure(spec, constants.C_d)),
    )


def _collapse_to_cubature(alg: ApproxAlgorithm, int_pts: np.ndarray,
                          basis: SymmetricBasis) -> WeightedCubature:
    """Explicit node/weight form of: integrate the approximation exactly,
    then average the residual over the integration points."""
    r = int_pts.shape[0]
    if alg.m == 0:
        return WeightedCubature(int_pts, np.ones(r))
    # (m, r) filled by blocks of points: small phase tables beside the Gram buffer
    x_int, step = np.empty((alg.m, r)), max(1, _PAIR_CHUNK // alg.m)
    for i in range(0, r, step):
        x_int[:, i:i + step] = basis.eval_matrix(int_pts[i:i + step], alg.m)
    w_app_raw = alg.coeff_map.T @ (basis.integrals(alg.m) - x_int.sum(axis=1) / r)
    nodes = np.vstack([alg.points, int_pts])
    raw = np.concatenate([w_app_raw, np.full(r, 1.0 / r)])
    return WeightedCubature(nodes, raw * nodes.shape[0])
