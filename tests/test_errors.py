import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permqmc.errors import (
    bound_constant,
    bound_constants,
    cbc_objective,
    cbc_step_objectives,
    initial_error_sq,
    mean_sq_error,
    multiplicity_array,
    worst_case_error_sq,
    worst_case_error_sq_spectral,
)
from permqmc.kernels import KernelSpec, kernel_perminv
from permqmc.lattice import LatticeRule, WeightedCubature
from permqmc.symmetry import PermStructure, multiplicity
from permqmc.weights import SpectralWeight, r_weight_inv, r_weight_inv_factors, tail_sum


def nabla_box_bound_constant(spec, lam, H):
    """Brute-force orbit-sum oracle for the lambda-power constant."""
    total = 0.0
    order = float(spec.perm.group_order)
    for h in product(range(-H, H + 1), repeat=spec.d):
        if all(v == 0 for v in h):
            continue
        m = multiplicity(h, spec.perm)
        total += (m / order * r_weight_inv(h, spec.weight)) ** (1.0 / lam)
    return total ** lam


class TestWorstCase:
    def test_empty_rule_is_initial_error(self, spec_d2_full):
        rep = worst_case_error_sq(WeightedCubature(np.zeros((0, 2)), np.zeros(0)), spec_d2_full)
        assert rep.value == initial_error_sq(spec_d2_full) == 1.0

    def test_initial_error_scales(self):
        spec = KernelSpec(SpectralWeight(beta0=0.5), PermStructure.full(3))
        assert initial_error_sq(spec) == 0.125

    def test_single_node_rule(self, spec_d2_full, rng):
        t = rng.uniform(size=(1, 2))
        rep = worst_case_error_sq(WeightedCubature(t, np.ones(1)), spec_d2_full)
        expect = kernel_perminv(t[0], t[0], spec_d2_full) - 1.0
        assert expect >= 0
        assert rep.value == pytest.approx(expect, rel=1e-10)

    def test_kernel_vs_spectral_route(self):
        spec = KernelSpec(SpectralWeight(alpha=2.0), PermStructure.full(2))
        rule = LatticeRule(5, (1, 2), (0.37, 0.11))
        a = worst_case_error_sq(rule.cubature(), spec)
        b = worst_case_error_sq_spectral(rule, spec, half_width=40)
        assert abs(a.value - b.value) <= a.truncation_certificate + b.truncation_certificate

    def test_route_agreement_sweep(self):
        # exact kernel route against the box route across small configurations
        cases = [
            (2, (1, 2), 5, 14),
            (2, (), 13, 14),
            (3, (1, 3), 5, 14),
            (3, (1, 2, 3), 13, 14),
            (4, (1, 2, 3, 4), 5, 7),
            (2, (1, 2), 127, 14),
        ]
        for d, inv, n, hw in cases:
            spec = KernelSpec(SpectralWeight(alpha=2.0), PermStructure(d, inv))
            z = tuple(range(1, d + 1))
            rule = LatticeRule(n, z, tuple((0.3 + 0.1 * i) % 1 for i in range(d)))
            a = worst_case_error_sq(rule.cubature(), spec)
            b = worst_case_error_sq_spectral(rule, spec, half_width=hw)
            assert abs(a.value - b.value) <= a.truncation_certificate + b.truncation_certificate


class TestLatticeRoute:
    """The lattice route of worst_case_error_sq against the general route
    on the same nodes (the rule's cubature) as reference."""

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 101])
    @pytest.mark.parametrize("d, inv", [
        (1, (1,)), (1, ()), (2, (1, 2)), (2, ()), (4, (1, 2, 3, 4)), (4, (1, 3)), (4, ()),
    ])
    def test_agrees_with_general_route(self, sobolev, d, inv, n, shifted):
        spec = KernelSpec(sobolev, PermStructure(d, inv))
        shift = tuple((0.37 + 0.29 * i) % 1 for i in range(d)) if shifted else None
        rule = LatticeRule(n, tuple(range(1, d + 1)), shift)
        a = worst_case_error_sq(rule, spec)
        b = worst_case_error_sq(rule.cubature(), spec)
        assert abs(a.value - b.value) <= a.truncation_certificate + b.truncation_certificate
        # n = 2: m = 1 is its own mirror and counts once
        assert a.details["route"] == "lattice"
        assert a.details["pairs"] == n * (n // 2 + 1)
        assert b.details["route"] == "general"
        assert b.details["pairs"] == n * n

    def test_peak_memory_bounded(self):
        import tracemalloc

        spec = KernelSpec(SpectralWeight(), PermStructure.full(5))
        worst_case_error_sq(LatticeRule(3, (1, 2, 0, 1, 2)), spec)  # validate the closed form
        rule = LatticeRule(1009, (1, 286, 53, 80, 500), (0.1, 0.2, 0.3, 0.4, 0.5))
        tracemalloc.start()
        try:
            rep = worst_case_error_sq(rule, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.details["route"] == "lattice"
        assert peak < 128 * 2 ** 20


class TestMeanSquared:
    def test_univariate_exact_value(self, sobolev):
        spec = KernelSpec(sobolev, PermStructure.empty(1))
        rep = mean_sq_error(LatticeRule(5, (1,)), spec)
        assert rep.value == pytest.approx(1.0 / 300.0, abs=1e-14)

    def test_spectral_route_within_certificate(self, sobolev):
        spec = KernelSpec(sobolev, PermStructure.empty(1))
        exact = mean_sq_error(LatticeRule(5, (1,)), spec)
        approx = mean_sq_error(LatticeRule(5, (1,)), spec, method="spectral", half_width=500)
        assert abs(approx.value - exact.value) <= approx.truncation_certificate

    def test_degenerate_zero_vector_flagged(self, spec_d2_full):
        rep = mean_sq_error(LatticeRule(5, (0, 0)), spec_d2_full, method="spectral", half_width=6)
        assert rep.details["degenerate"]
        # dual lattice is everything: the box sum is the full truncated mass
        hs = [h for h in product(range(-6, 7), repeat=2) if h != (0, 0)]
        expect = sum(
            multiplicity(h, spec_d2_full.perm) / 2.0 * r_weight_inv(h, spec_d2_full.weight)
            for h in hs
        )
        assert rep.value == pytest.approx(expect, rel=1e-12)

    def test_shift_does_not_matter(self, spec_d2_full):
        a = mean_sq_error(LatticeRule(13, (1, 5)), spec_d2_full)
        b = mean_sq_error(LatticeRule(13, (1, 5), (0.2, 0.9)), spec_d2_full)
        assert a.value == pytest.approx(b.value, rel=1e-14)

    def test_lower_bound(self):
        # mean squared error is at least c * max(d - #I, 1) * n^(-2 alpha)
        for d, inv in [(1, ()), (2, (1, 2)), (3, (1, 2)), (3, (1, 2, 3))]:
            w = SpectralWeight()
            spec = KernelSpec(w, PermStructure(d, inv))
            n = 13
            z = tuple([1] + [2 + i for i in range(d - 1)])
            rep = mean_sq_error(LatticeRule(n, z), spec)
            c = 2.0 * w.beta1 * tail_sum(w).lo / w.beta0
            lower = c * max(d - len(inv), 1) * n ** (-2.0 * w.alpha)
            # equality holds at d = 1, so compare within the certificate
            assert rep.value + rep.truncation_certificate >= lower * (1 - 1e-12)

    def test_monotone_in_free_dimension(self, sobolev):
        # appending a non-exchangeable coordinate never decreases the error
        spec2 = KernelSpec(sobolev, PermStructure(2, (1, 2)))
        spec3 = KernelSpec(sobolev, PermStructure(3, (1, 2)))
        base = mean_sq_error(LatticeRule(13, (1, 5)), spec2).value
        for z3 in range(13):
            extended = mean_sq_error(LatticeRule(13, (1, 5, z3)), spec3).value
            assert extended >= base - 1e-13


class TestObjectiveDecomposition:
    @pytest.mark.parametrize("inv", [(), (1,), (1, 2), (2, 3), (1, 2, 3)])
    @pytest.mark.parametrize("n", [5, 13])
    def test_identity(self, sobolev, inv, n):
        spec = KernelSpec(sobolev, PermStructure(3, inv))
        z = [1, (n + 2) // 3, n - 2]
        total = 0.0
        for ell in range(3):
            vals, _ = cbc_step_objectives(z[:ell], n, spec)
            total += vals[z[ell] % n]
        total *= sobolev.beta0 ** 3
        e2 = mean_sq_error(LatticeRule(n, tuple(z)), spec)
        assert total == pytest.approx(e2.value, rel=1e-11)

    def test_first_step_closed_form(self, sobolev):
        # dual of a single nonzero coordinate is nZ: the objective is the
        # closed zeta tail 2 * zeta(2) / (4 pi^2 n^2), over the normalizer
        spec = KernelSpec(sobolev, PermStructure.full(3))
        n = 7
        vals, _ = cbc_step_objectives([], n, spec)
        expect = 2.0 * (math.pi ** 2 / 6.0) / (4.0 * math.pi ** 2 * n ** 2)
        c1 = sobolev.beta0 * math.comb(3, 1)
        assert vals[1] == pytest.approx(expect / c1, rel=1e-12)
        assert vals[1] == pytest.approx(vals[3], rel=1e-12)  # nonzero candidates equivalent

    def test_spectral_oracle(self):
        spec = KernelSpec(SpectralWeight(alpha=2.0), PermStructure.full(2))
        for z in [(1, 2), (1, 3), (1, 4)]:
            exact = cbc_objective(list(z), 5, spec, method="fixed_point")
            box = cbc_objective(list(z), 5, spec, method="spectral", half_width=40)
            assert abs(exact.value - box.value) <= exact.truncation_certificate + box.truncation_certificate

    def test_subset_cap(self, sobolev):
        spec = KernelSpec(sobolev, PermStructure.full(25))
        with pytest.raises(ValueError, match="cap"):
            cbc_step_objectives([1] * 24, 5, spec)


class TestBoundConstants:
    def test_univariate_lambda_one(self, sobolev):
        spec = KernelSpec(sobolev, PermStructure.empty(1))
        enc = bound_constant(spec, 1.0)
        assert enc.lo <= 1.0 / 12.0 <= enc.hi

    def test_tensor_power_no_invariance(self):
        # without exchangeable pairs the constant is an exact tensor expression
        w = SpectralWeight(alpha=2.0)
        spec = KernelSpec(w, PermStructure.empty(2))
        lam = 1.5
        enc = bound_constant(spec, lam)
        oracle = nabla_box_bound_constant(spec, lam, 60)
        assert oracle <= enc.hi * (1 + 1e-9)
        assert enc.lo <= oracle + 1e-4

    def test_full_invariance_vs_brute_force(self, sobolev):
        spec = KernelSpec(sobolev, PermStructure.full(3))
        enc = bound_constant(spec, 1.0)
        oracle = nabla_box_bound_constant(spec, 1.0, 40)
        assert oracle <= enc.hi
        assert enc.mid - oracle < 5e-3  # box tail at alpha = 1

    def test_box_route_lambda(self):
        w = SpectralWeight(alpha=2.0)
        spec = KernelSpec(w, PermStructure.full(2))
        enc = bound_constant(spec, 1.5, half_width=24)
        oracle = nabla_box_bound_constant(spec, 1.5, 24)
        assert enc.lo <= oracle * (1 + 1e-9)
        assert oracle <= enc.hi

    def test_divergent_lambda(self, sobolev):
        spec = KernelSpec(sobolev, PermStructure.empty(1))
        with pytest.raises(ValueError):
            bound_constant(spec, 2.0)

    def test_bound_constants_bundle(self, sobolev):
        spec = KernelSpec(sobolev, PermStructure.full(2))
        bc = bound_constants(spec)
        assert bc.V_star == 0
        assert abs(bc.eta_star.mid - 1 / 12) < 1e-10
        assert bc.lam == 1.0


class TestSpectralHelpers:
    def test_multiplicity_array(self, rng):
        ps = PermStructure(4, (1, 2, 4))
        hs = rng.integers(-3, 4, size=(200, 4))
        vec = multiplicity_array(hs, ps)
        for row, m in zip(hs, vec):
            assert m == multiplicity(tuple(row), ps)

    @given(st.lists(st.floats(0, 10), min_size=1, max_size=30), st.data())
    @settings(max_examples=200, deadline=None)
    def test_jensen_inequality(self, seq, data):
        q = data.draw(st.floats(0.1, 2.0))
        p = data.draw(st.floats(q, 4.0))
        a = np.asarray(seq)
        lhs = float(np.sum(a ** p)) ** (1.0 / p)
        rhs = float(np.sum(a ** q)) ** (1.0 / q)
        assert lhs <= rhs * (1 + 1e-9) + 1e-12

    @given(st.integers(1, 40), st.integers(2, 50), st.floats(1.0, 1.9))
    @settings(max_examples=200, deadline=None)
    def test_scaled_frequency_weight_bound(self, k, n, lam):
        # reciprocal weight of n*k is at most (c_R/n) times that of k
        w = SpectralWeight()
        lhs = r_weight_inv((n * k,), w) ** (1.0 / lam)
        rhs = (w.c_R / n) * r_weight_inv((k,), w) ** (1.0 / lam)
        assert lhs <= rhs * (1 + 1e-12)
