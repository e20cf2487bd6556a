import dataclasses
import math
from itertools import permutations

import numpy as np
import pytest

from permqmc import approx, kernels, symmetry
from permqmc.approx import (
    ApproxAlgorithm,
    SymmetricBasis,
    _carried_phi,
    _collapse_to_cubature,
    assemble_rule,
    average_approx_error_sq,
    build_approx_sequence,
)
from permqmc.errors import worst_case_error_sq
from permqmc.kernels import _PAIR_CHUNK, KernelSpec, kernel_perminv_gram
from permqmc.spectrum import rate_constants, spectrum_tail_constants
from permqmc.symmetry import PermStructure
from permqmc.weights import SpectralWeight, eta_star, min_contraction_order

from oracles import (fix_count, gaussian_average_error_sq, mode_labels, sample_density_all_modes,
                     stream_entries)


@pytest.fixture
def spec_a2_d2():
    """Smoothness-2 space where the quadratic-decay configuration is valid."""
    return KernelSpec(SpectralWeight(alpha=2.0), PermStructure.full(2))


class TestBasis:
    def test_orthonormal_on_grid(self, spec_d2_full):
        basis = SymmetricBasis(spec_d2_full)
        m = 14
        g = np.arange(256) / 256.0
        grid = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        X = basis.eval_matrix(grid, m)
        gram = X @ X.T / grid.shape[0]
        assert np.max(np.abs(gram - np.eye(m))) < 1e-10

    def test_constant_mode_and_integrals(self, spec_d2_full, rng):
        basis = SymmetricBasis(spec_d2_full)
        pts = rng.uniform(size=(7, 2))
        X = basis.eval_matrix(pts, 6)
        assert np.allclose(X[0], 1.0)  # normalized constant eigenfunction
        iota = basis.integrals(6)
        assert iota[0] == 1.0 and np.all(iota[1:] == 0.0)

    def test_mode_tables_built_once(self, monkeypatch):
        # ensure computes each mode's multiplicity once, for the new modes
        # only; the per-mode readers and the eigenfunction values take
        # slices of the tables
        from permqmc import approx

        spec = KernelSpec(SpectralWeight(), PermStructure(4, (1, 2, 4)))
        basis = SymmetricBasis(spec)
        rows = []
        multiplicity_array = approx.multiplicity_array

        def counting(h, ps):
            rows.append(len(h))
            return multiplicity_array(h, ps)

        monkeypatch.setattr(approx, "multiplicity_array", counting)
        basis.ensure(30)
        m0 = len(basis._lam)           # 30, or 31 when a cos/sin pair ends it
        assert rows == [m0]
        pts = np.random.default_rng(4).uniform(size=(5, 4))
        basis.eval_matrix(pts, 30)
        basis.sample_density(30, 10, np.random.default_rng(5))
        bounds, iota = basis.sup_sq_bounds(30), basis.integrals(30)
        assert rows == [m0]
        basis.ensure(60)
        assert rows[0] == m0 and sum(rows) == len(basis._lam) >= 60 and len(rows) == 2
        # the same tables as the per-mode definitions
        labels = mode_labels(basis, 30)
        fact = float(spec.perm.group_order)
        assert bounds.tolist() == [
            fact / fix_count(label, spec.perm) * (1.0 if kind == "self" else 2.0)
            for kind, label in labels]
        assert iota.tolist() == [float(not any(label)) for _, label in labels]

    def test_eigenvalues_match_stream(self, spec_d3_full):
        basis = SymmetricBasis(spec_d3_full)
        lam = basis.lambdas(40)
        assert np.all(np.diff(lam) <= 1e-18)
        stream = stream_entries(basis.stream, 40)[0]
        assert np.allclose(np.sort(lam)[::-1], stream, rtol=1e-12)

    def test_top_eigenvalue_is_constant_mass(self):
        spec = KernelSpec(SpectralWeight(beta0=0.8), PermStructure.full(3))
        basis = SymmetricBasis(spec)
        # the unit space's eigenvalue 1, times the scale 0.8^3
        assert basis.lambdas(1)[0] == 1.0
        assert basis.lambdas(1)[0] * spec.scale == pytest.approx(0.8 ** 3)

    def test_exchange_invariance_of_modes(self, spec_d2_full, rng):
        basis = SymmetricBasis(spec_d2_full)
        pts = rng.uniform(size=(5, 2))
        a = basis.eval_matrix(pts, 10)
        b = basis.eval_matrix(pts[:, ::-1], 10)
        assert np.allclose(a, b, atol=1e-12)

    def test_sup_bounds_hold(self, spec_d2_full, rng):
        basis = SymmetricBasis(spec_d2_full)
        pts = rng.uniform(size=(500, 2))
        X = basis.eval_matrix(pts, 12)
        bounds = basis.sup_sq_bounds(12)
        assert np.all(X ** 2 <= bounds[:, None] * (1 + 1e-12))

    def test_density_sampler(self, spec_d2_full):
        basis = SymmetricBasis(spec_d2_full)
        rng = np.random.Generator(np.random.Philox(5))
        pts = basis.sample_density(6, 200, rng)
        assert pts.shape == (200, 2)
        assert np.all((pts >= 0) & (pts < 1))
        # sampled density is bounded below on its support; importance weights finite
        u = np.mean(basis.eval_matrix(pts, 6) ** 2, axis=0)
        assert np.all(u > 0)


def eval_matrix_oracle(basis, points, m):
    """Eigenfunction values summed over all s! exchanges of every label."""
    basis.ensure(m)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ps = basis.spec.perm
    inv = ps.invariant_idx
    modes = mode_labels(basis, m)
    labels = np.asarray([label for _, label in modes], dtype=float)
    acc = np.zeros((m, pts.shape[0]), dtype=complex)
    for sigma in permutations(range(ps.size)):
        permuted = labels.copy()
        permuted[:, inv] = labels[:, inv[list(sigma)]]
        acc += np.exp(2j * math.pi * (permuted @ pts.T))
    mults = np.asarray([float(fix_count(label, ps)) for _, label in modes])
    acc /= np.sqrt(float(ps.group_order) * mults)[:, None]
    out = np.empty((m, pts.shape[0]))
    for j, (kind, _) in enumerate(modes):
        out[j] = acc[j].real if kind == "self" else math.sqrt(2.0) * (
            acc[j].real if kind == "cos" else acc[j].imag)
    return out


class TestEvalMatrixRyser:
    """eval_matrix (one Ryser permanent per mode and point) against the sum
    over all exchanges."""

    @pytest.mark.parametrize("d, inv, m", [
        (1, (), 40), (3, (), 40), (4, (1, 3), 60), (4, (2,), 30), (5, (1, 2, 3, 4, 5), 80),
    ])
    def test_matches_permutation_sum(self, d, inv, m, rng):
        basis = SymmetricBasis(KernelSpec(SpectralWeight(), PermStructure(d, inv)))
        pts = rng.uniform(size=(25, d))
        got = basis.eval_matrix(pts, m)
        kinds = {kind for kind, _ in mode_labels(basis, m)}
        assert kinds == {"self", "cos", "sin"}
        assert np.max(np.abs(got - eval_matrix_oracle(basis, pts, m))) <= 1e-12

    def test_chunked_batch(self, rng):
        # more (mode, point) pairs than one Ryser chunk holds
        basis = SymmetricBasis(KernelSpec(SpectralWeight(), PermStructure(3, (1, 2))))
        pts = rng.uniform(size=(700, 3))
        got = basis.eval_matrix(pts, 30)
        assert np.max(np.abs(got - eval_matrix_oracle(basis, pts, 30))) <= 1e-12

    def test_invariant_under_exchange_at_s8(self, rng):
        basis = SymmetricBasis(KernelSpec(SpectralWeight(), PermStructure.full(8)))
        pts = rng.uniform(size=(6, 8))
        a = basis.eval_matrix(pts, 40)
        b = basis.eval_matrix(pts[:, rng.permutation(8)], 40)
        assert np.max(np.abs(a)) > 1.0
        assert np.max(np.abs(a - b)) <= 1e-11 * np.max(np.abs(a))


class TestPairValues:
    """The (mode, point) pair routine under eval_matrix and sample_density."""

    @staticmethod
    def assert_matrix_equals_shuffled_pairs(basis, pts, m, rng):
        full = basis.eval_matrix(pts, m)
        assert full.shape == (m, pts.shape[0])
        js, p = np.divmod(rng.permutation(full.size), pts.shape[0])
        got = basis._pair_values(pts, js, p)
        assert got.tobytes() == full[js, p].tobytes()
        # one pair per point, the sampler's case, takes the phases per pair
        one, p = rng.integers(0, m, size=pts.shape[0]), np.arange(pts.shape[0])
        assert basis._pair_values(pts, one, p).tobytes() == full[one, p].tobytes()

    @pytest.mark.parametrize("d, inv, m", [
        (1, (), 40), (3, (), 40), (4, (1, 3), 60), (4, (2,), 30), (5, (1, 2, 3, 4, 5), 80),
        (6, (1, 2, 4, 5, 6), 50),
    ])
    def test_matrix_entries_bitwise_equal_to_shuffled_pairs(self, d, inv, m, rng):
        basis = SymmetricBasis(KernelSpec(SpectralWeight(), PermStructure(d, inv)))
        self.assert_matrix_equals_shuffled_pairs(basis, rng.uniform(size=(25, d)), m, rng)

    def test_more_than_two_chunks(self, rng):
        basis = SymmetricBasis(KernelSpec(SpectralWeight(), PermStructure(3, (1, 2))))
        assert 30 * 700 > 2 * _PAIR_CHUNK
        self.assert_matrix_equals_shuffled_pairs(basis, rng.uniform(size=(700, 3)), 30, rng)

    @pytest.mark.parametrize("chunk, npts", [(50, 20), (50, 7), (10, 25)])
    def test_grid_chunks_of_modes(self, monkeypatch, chunk, npts, rng):
        # mode chunks of chunk // npts modes, or one mode when a row is longer
        basis = SymmetricBasis(KernelSpec(SpectralWeight(), PermStructure(4, (1, 2, 4))))
        pts = rng.uniform(size=(npts, 4))
        whole = basis.eval_matrix(pts, 31)
        monkeypatch.setattr(approx, "_PAIR_CHUNK", chunk)
        assert basis.eval_matrix(pts, 31).tobytes() == whole.tobytes()
        self.assert_matrix_equals_shuffled_pairs(basis, pts, 31, rng)

    def test_collapse_bitwise_equal_to_point_blocks(self, rng):
        # the rule's eigenfunction values at the integration points, against
        # eval_matrix on blocks of _PAIR_CHUNK // m points joined by hstack
        spec = KernelSpec(SpectralWeight(), PermStructure(3, (1, 2, 3)))
        alg = build_approx_sequence(spec, 1.5, 6, search_budget=1, seed=2)[-1]
        r = 1000
        basis, int_pts = alg.basis, rng.uniform(size=(r, 3))
        step = max(1, _PAIR_CHUNK // alg.m)
        assert 2 * step < r
        x_int = np.hstack([basis.eval_matrix(int_pts[i:i + step], alg.m)
                           for i in range(0, r, step)])
        raw = alg.coeff_map.T @ (basis.integrals(alg.m) - x_int.sum(axis=1) / r)
        weights = np.concatenate([raw, np.full(r, 1.0 / r)]) * (alg.n_samples + r)
        cub = _collapse_to_cubature(alg, int_pts, basis)
        assert cub.weights.tobytes() == weights.tobytes()
        assert cub.nodes.tobytes() == np.vstack([alg.points, int_pts]).tobytes()

    def test_pairs_in_any_broadcast_shape(self, spec_d3_full, rng):
        basis = SymmetricBasis(spec_d3_full)
        pts = rng.uniform(size=(9, 3))
        full = basis.eval_matrix(pts, 12)
        assert basis._pair_values(pts, 5, np.arange(9)).tobytes() == full[5].tobytes()
        assert basis._pair_values(pts, np.arange(12)[:, None], 4).shape == (12, 1)
        assert basis._pair_values(pts, np.zeros(0, dtype=int), np.zeros(0, dtype=int)).size == 0
        assert basis.eval_matrix(pts, 0).shape == (0, 9)

    def test_self_conjugate_check_on_each_entry(self, spec_d2_full, rng):
        basis = SymmetricBasis(spec_d2_full)
        pts = rng.uniform(size=(4, 2))
        basis.ensure(10)
        j = next(i for i, (kind, _) in enumerate(mode_labels(basis, 10)) if kind == "sin")
        basis._kinds[j] = 0   # a complex mode posing as real
        with pytest.raises(AssertionError, match="not real"):
            basis._pair_values(pts, j, np.arange(4))

    @pytest.mark.parametrize("d, inv, m, count", [
        (2, (1, 2), 6, 200), (3, (1, 2, 3), 120, 300), (4, (1, 3), 40, 150),
        (5, (1, 2, 3, 4, 5), 60, 100),
    ])
    def test_sampler_bitwise_equal_to_all_mode_reference(self, d, inv, m, count):
        spec = KernelSpec(SpectralWeight(), PermStructure(d, inv))
        rng = np.random.Generator(np.random.Philox(3))
        got = SymmetricBasis(spec).sample_density(m, count, rng)
        rng = np.random.Generator(np.random.Philox(3))
        ref = sample_density_all_modes(SymmetricBasis(spec), m, count, rng)
        assert got.tobytes() == ref.tobytes()

    def test_sampler_does_not_evaluate_every_mode(self, spec_d3_full, monkeypatch):
        def refuse(self, points, m):
            raise AssertionError("eval_matrix called")

        exp_sizes = []

        def exp(x, *args, _exp=np.exp, **kwargs):
            exp_sizes.append(np.size(x))
            return _exp(x, *args, **kwargs)

        monkeypatch.setattr(SymmetricBasis, "eval_matrix", refuse)
        monkeypatch.setattr(np, "exp", exp)
        basis = SymmetricBasis(spec_d3_full)
        pts = basis.sample_density(50, 120, np.random.Generator(np.random.Philox(1)))
        assert pts.shape == (120, 3)
        # 3 x 3 phases per candidate, in batches of at most 4 * 120
        assert exp_sizes and max(exp_sizes) <= 9 * 4 * 120


class TestSequence:
    def test_zero_levels_and_sample_counts(self, spec_a2_d2):
        algs = build_approx_sequence(spec_a2_d2, 2.0, 7, seed=11)
        rc = rate_constants(1.0)
        for k, alg in enumerate(algs):
            assert alg.level == k
            if k <= rc.K_p:
                assert alg.m == 0 and alg.n_samples == 0
            else:
                assert alg.n_samples == 2 ** k - 2 ** rc.K_p
                assert alg.n_samples <= 2 ** k
                assert alg.m >= 1

    def test_error_decreases_and_certified(self, spec_a2_d2):
        algs = build_approx_sequence(spec_a2_d2, 2.0, 7, seed=11)
        errs = [a.e_avg_sq for a in algs]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:]))
        assert all(a.certified for a in algs)

    def test_rate_bound_each_level(self, spec_a2_d2):
        tc = spectrum_tail_constants(spec_a2_d2, 2.0)
        rc = rate_constants(tc.p_d)
        algs = build_approx_sequence(spec_a2_d2, 2.0, 7, seed=11, constants=tc)
        for alg in algs:
            bound = alg.slack_bound * rc.c_p * tc.C_d.hi * 2.0 ** (-alg.level * tc.p_d)
            assert alg.e_avg_sq <= bound

    def test_closed_form_vs_monte_carlo(self, spec_a2_d2):
        # truncated Gaussian model: random functions in the top-J eigenspace
        algs = build_approx_sequence(spec_a2_d2, 2.0, 5, seed=2)
        alg = algs[5]
        basis = SymmetricBasis(spec_a2_d2)
        J = 400
        basis.ensure(J)
        lam = basis.lambdas(J)
        # closed form restricted to the truncated measure: coefficient i of
        # the approximation responds to mode j through B[i, j]
        xiT = basis.eval_matrix(alg.points, J)          # (J, N)
        G = alg.coeff_map
        B = (G @ xiT.T) * np.sqrt(lam)[None, :]         # (m, J)
        target = np.zeros((alg.m, J))
        target[:, : alg.m] = np.diag(np.sqrt(lam[: alg.m]))
        closed_trunc = float(np.sum((target - B) ** 2) + np.sum(lam[alg.m:]))
        rng = np.random.default_rng(77)
        trials = 4000
        g = rng.normal(size=(trials, J))
        samples = g * np.sqrt(lam)  # coefficients of f in the xi basis
        fvals = samples @ xiT       # f at the sample points
        coef = fvals @ G.T
        errs = np.sum((samples[:, : alg.m] - coef) ** 2, axis=1) + np.sum(
            samples[:, alg.m:] ** 2, axis=1
        )
        mc = float(np.mean(errs))
        se = float(np.std(errs, ddof=1) / math.sqrt(trials))
        assert abs(mc - closed_trunc) <= 3.0 * se
        # the truncated closed form sits below the full one by the spectral tail
        full = average_approx_error_sq(alg, basis, basis.stream.trace)
        assert closed_trunc <= full + 1e-9

    def test_basis_size_formula(self, spec_a2_d2):
        tc = spectrum_tail_constants(spec_a2_d2, 2.0)
        rc = rate_constants(tc.p_d)
        algs = build_approx_sequence(spec_a2_d2, 2.0, 6, seed=11, constants=tc)
        prev = algs[rc.K_p]
        for alg in algs[rc.K_p + 1:]:
            m_expected = int(math.floor(
                (tc.C_d.hi * 2.0 ** (alg.level - 1) / prev.e_avg_sq) ** (1.0 / (tc.p_d + 1.0))
                * rc.y_p
            ))
            assert alg.m == m_expected
            prev = alg


class TestAssembledRule:
    def test_zero_path_is_plain_average(self, spec_d2_full):
        res = assemble_rule(spec_d2_full, 1.5, 16, seed=8)
        assert res.algorithm.m == 0
        assert np.all(res.cubature.weights == 1.0)
        assert res.cubature.n == 2 ** res.kappa == 8
        assert np.sum(res.cubature.raw_weights) == pytest.approx(1.0)

    def test_node_budget(self, spec_a2_d2):
        for N in (8, 32, 64, 100):
            res = assemble_rule(spec_a2_d2, 2.0, N, seed=3)
            assert res.cubature.n <= N

    def test_certified_bound(self, spec_a2_d2):
        res = assemble_rule(spec_a2_d2, 2.0, 64, seed=5)
        assert res.certified
        assert res.e_wor_sq <= res.residual_target + res.e_wor_certificate
        assert res.e_wor_sq <= res.bound_value()

    def test_constant_integration_deviation_certified(self, spec_a2_d2):
        # nontrivial correction levels do not reproduce constants exactly,
        # but the deviation obeys the worst-case guarantee
        res = assemble_rule(spec_a2_d2, 2.0, 64, seed=5)
        q1 = float(np.sum(res.cubature.raw_weights))
        norm_one = spec_a2_d2.weight.beta0 ** (-spec_a2_d2.d / 2.0)
        assert abs(q1 - 1.0) <= norm_one * math.sqrt(res.e_wor_sq + res.e_wor_certificate) + 1e-12

    def test_master_cross_check(self, spec_a2_d2):
        res = assemble_rule(spec_a2_d2, 2.0, 32, seed=9)
        kernel = worst_case_error_sq(res.cubature, spec_a2_d2)
        gauss = gaussian_average_error_sq(res.cubature, spec_a2_d2, 3000)
        assert gauss.value == pytest.approx(kernel.value, rel=1e-9)
        assert abs(gauss.top_value - kernel.value) <= gauss.independent_certificate

    def test_gauss_route_requires_constant_mode(self, spec_a2_d2, rng):
        from permqmc.lattice import WeightedCubature

        cub = WeightedCubature(rng.uniform(size=(4, 2)), np.ones(4))
        rep = gaussian_average_error_sq(cub, spec_a2_d2, 50)
        assert rep.value >= 0
        assert rep.shared_tail >= -1e-12

    @pytest.mark.parametrize("d,inv,tau", [(3, (1, 2, 3), 2.0), (3, (1, 2), 1.6)])
    def test_higher_order_bound_chain(self, d, inv, tau):
        # the dimension-explicit form of the certified bound: the power sum
        # expands through the sorted-tuple split into an initial-error factor,
        # a zeta factor over the free coordinates, and the offset geometry
        import math as _m

        import mpmath

        w = SpectralWeight(alpha=2.0)
        spec = KernelSpec(w, PermStructure(d, inv))
        tc = spectrum_tail_constants(spec, tau)
        s = len(inv)
        # the paper's tail offset U* and its rho*
        U = min_contraction_order(w, tau=tau)
        rho = eta_star(w, U, tau).hi
        bracket = 1.0 + 2.0 * (
            w.beta1 * w.c_R ** (2 * w.alpha) / (w.beta0 * float(w.generator(1)) ** (2 * w.alpha))
        ) ** (1.0 / tau) * float(mpmath.zeta(2.0 * w.alpha / tau))
        expanded = (
            w.beta0 ** (d / tau)
            * bracket ** (d - s)
            * (2 * U + 1.0 / (1.0 - rho))
            * max(1, s) ** (2 * U)
        )
        assert kernels.symmetrized_mass(spec, tau).hi <= expanded * (1 + 1e-12)
        res = assemble_rule(spec, tau, 32, seed=13)
        p = tc.p_d
        lead = 2.0 ** ((p + 2) * (p + 1)) * (1 + p) * (1 + 1 / p) ** p
        c_expanded = 2.0 ** (tau - 1.0) / (tau - 1.0) * expanded ** tau
        bound = res.slack_chain * lead * c_expanded * 32.0 ** (-(p + 1))
        assert res.e_wor_sq <= bound


class TestCarriedBlocks:
    """The chain carries the latest level's Gram, certificate and Phi, so
    that the next level and the final rule evaluate only the blocks of new
    points; every value stays bitwise the rebuilt one."""

    @pytest.mark.parametrize("m, prev_m", [(30, 12), (12, 30), (20, 20), (15, 0)])
    def test_carried_phi_bitwise_equal_to_eval_matrix(self, m, prev_m, rng):
        basis = SymmetricBasis(KernelSpec(SpectralWeight(), PermStructure(4, (1, 3))))
        old = rng.uniform(size=(25 if prev_m else 0, 4))
        new = rng.uniform(size=(9, 4))
        prev = dataclasses.replace(ApproxAlgorithm.zero(0, 4, 1.0), m=prev_m, points=old,
                                   phi=basis.eval_matrix(old, prev_m))
        vals = basis.eval_matrix(new, max(m, prev_m))
        got = _carried_phi(prev, vals, m, basis)
        assert got.tobytes() == basis.eval_matrix(np.vstack([old, new]), m).tobytes()

    @pytest.mark.parametrize("d, inv", [(3, (1, 2, 3)), (4, (1, 3)), (3, ())])
    @pytest.mark.parametrize("delta", [0.5, -0.9])
    def test_levels_and_rule_bitwise_equal_to_rebuild(self, d, inv, delta):
        # delta = -0.9 rejects every draw, so each level keeps its best draw,
        # not its last, and the final rule runs its whole budget
        spec = KernelSpec(SpectralWeight(), PermStructure(d, inv))
        algs = build_approx_sequence(spec, 1.5, 6, search_budget=3, delta=delta, seed=4)
        basis = SymmetricBasis(spec)
        for alg in algs[:-1]:       # only the latest level carries blocks
            assert alg.n_samples == 0 or (alg.gram is None and alg.phi is None)
        last = algs[-1]
        gram, cert = kernel_perminv_gram(last.points, last.points, spec)
        assert last.gram.tobytes() == gram.tobytes() and last.gram_cert == cert
        assert last.phi.tobytes() == basis.eval_matrix(last.points, last.m).tobytes()
        for alg in algs:       # each level's error, from a rebuilt Gram and Phi
            rebuilt = dataclasses.replace(
                alg, gram=kernel_perminv_gram(alg.points, alg.points, spec)[0],
                phi=basis.eval_matrix(alg.points, alg.m))
            assert average_approx_error_sq(rebuilt, basis, basis.stream.trace) == alg.e_avg_sq
        res = assemble_rule(spec, 1.5, 128, search_budget=3, delta=delta, seed=4)
        rep = worst_case_error_sq(res.cubature, spec)
        assert (rep.value, rep.truncation_certificate) == (res.e_wor_sq, res.e_wor_certificate)

    def test_each_draw_through_the_public_error(self, monkeypatch):
        # the rule's errors go through errors.worst_case_error_sq, with the
        # grown Gram, so whatever wraps that name sees every draw
        calls = []

        def counted(rule, spec, gram=None):
            calls.append(gram is not None)
            return worst_case_error_sq(rule, spec, gram)

        monkeypatch.setattr(approx, "worst_case_error_sq", counted)
        spec = KernelSpec(SpectralWeight(), PermStructure(3, (1, 2)))
        assemble_rule(spec, 1.5, 128, search_budget=3, delta=-0.9, seed=4)
        assert calls == [True] * 3

    def test_work_is_the_new_blocks_only(self, monkeypatch):
        # one row per tile, so no tile evaluates pairs below the diagonal
        monkeypatch.setattr(kernels, "_PAIR_CHUNK", 1)
        batches, fills, extends, collapses, evals = [], [], [], [], []

        def ryser(cols):
            batches.append(cols.shape[2])
            return symmetry._ryser(cols)

        def spy(fn, log, args):
            def wrapped(*a):
                log.append(args(*a))
                return fn(*a)
            return wrapped

        pair_values = SymmetricBasis._pair_values

        def counted(self, points, js, p):
            if np.ndim(js) == 2:        # Phi blocks, not the sampler's pairs
                evals.append(np.broadcast(js, p).size)
            return pair_values(self, points, js, p)

        monkeypatch.setattr(kernels, "_ryser", ryser)
        monkeypatch.setattr(SymmetricBasis, "_pair_values", counted)
        monkeypatch.setattr(approx, "_fill_gram", spy(
            approx._fill_gram, fills, lambda out, X, Y, spec, start: (out.shape[0], start)))
        monkeypatch.setattr(approx, "_extend_algorithm", spy(
            approx._extend_algorithm, extends,
            lambda alg, new, m, basis: (alg.m, alg.n_samples, new.shape[0], m)))
        monkeypatch.setattr(approx, "_collapse_to_cubature", spy(
            approx._collapse_to_cubature, collapses, lambda alg, pts, basis: alg.m * pts.shape[0]))
        spec = KernelSpec(SpectralWeight(), PermStructure(3, (1, 2)))
        assemble_rule(spec, 1.5, 128, search_budget=3, delta=-0.9, seed=4)
        assert len(fills) == len(extends) + len(collapses) and len(collapses) == 3
        new_pairs = sum(a * (n - a) + (n - a) * (n - a + 1) // 2 for n, a in fills)
        assert sum(batches) == new_pairs < sum(n * (n + 1) // 2 for n, _ in fills)
        phi_new = sum(max(m, pm) * q + max(m - pm, 0) * n for pm, n, q, m in extends)
        assert sum(evals) == phi_new + sum(collapses)
        rebuild = sum(max(m, pm) * q + m * (n + q) for pm, n, q, m in extends)
        assert phi_new < rebuild
