import math
import time
import tracemalloc
from itertools import permutations, product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permqmc.errors import (
    _abs_quadratic_form,
    _box_tail_certificate,
    bound_constant,
    bound_constants,
    cbc_step_objectives,
    mean_sq_error,
    worst_case_error_sq,
    worst_case_error_sq_spectral,
)
from permqmc import errors, kernels
from permqmc.kernels import (KernelSpec, _lattice_gram_mean_fft, kernel_perminv_gram,
                             lattice_gram_mean)
from permqmc.lattice import LatticeRule, WeightedCubature
from permqmc.symmetry import _UNIT_ROUNDOFF, PermStructure, multiplicity_array
from permqmc.weights import GeneratorSpec, SpectralWeight, r_weight_inv_factors, tail_sum

from oracles import (box_frequencies, fix_count, gram_long_double, lattice_error_sq_long_double,
                     orbit_box_bound_constant, set_partitions, spectral_cbc_objective,
                     spectral_sums_per_member)


def nabla_box_bound_constant(spec, lam, H):
    """Brute-force orbit-sum oracle for the lambda-power constant."""
    total = 0.0
    order = float(spec.perm.group_order)
    for h in product(range(-H, H + 1), repeat=spec.d):
        if all(v == 0 for v in h):
            continue
        m = fix_count(h, spec.perm)
        total += (m / order * np.prod(r_weight_inv_factors(h, spec.weight))) ** (1.0 / lam)
    return total ** lam


def spectral_permutation_oracle(rule, spec, half_width):
    """The spectral route summed over all s! exchanges of every box frequency:
    sum_h r^(-1)(h) |T(h)|^2 / (s!)^2, T(h) the sum over the exchange images
    of h in the dual lattice of their shift phases."""
    ps = spec.perm
    hs = box_frequencies(rule.d, half_width)
    z = np.asarray(rule.z, dtype=np.int64)
    shift = np.zeros(rule.d) if rule.shift is None else np.asarray(rule.shift)
    inv = ps.invariant_idx
    T = np.zeros(hs.shape[0], dtype=complex)
    for sigma in permutations(range(ps.size)):
        ph = hs.copy()
        ph[:, inv] = hs[:, inv[list(sigma)]]
        member = (ph @ z) % rule.n == 0
        T += member * np.exp(2j * math.pi * (ph @ shift))
    fac = np.prod(r_weight_inv_factors(hs, spec.weight), axis=1)
    return float(np.sum(fac * np.abs(T) ** 2)) / float(ps.group_order) ** 2


class TestWorstCase:
    def test_empty_rule_is_initial_error(self, spec_d2_full):
        rep = worst_case_error_sq(WeightedCubature(np.zeros((0, 2)), np.zeros(0)), spec_d2_full)
        # the empty rule's error is the squared norm of the integral, beta0^d
        assert rep.value == spec_d2_full.scale == 1.0

    def test_initial_error_scales(self):
        spec = KernelSpec(SpectralWeight(beta0=0.5), PermStructure.full(3))
        assert spec.scale == 0.125
        rep = worst_case_error_sq(WeightedCubature(np.zeros((0, 3)), np.zeros(0)), spec)
        assert rep.value == 0.125 and rep.truncation_certificate > 0.0

    def test_single_node_rule(self, spec_d2_full, rng):
        t = rng.uniform(size=(1, 2))
        rep = worst_case_error_sq(WeightedCubature(t, np.ones(1)), spec_d2_full)
        expect = kernel_perminv_gram(t, t, spec_d2_full)[0][0, 0] - 1.0
        assert expect >= 0
        assert rep.value == pytest.approx(expect, rel=1e-10)

    def test_kernel_vs_spectral_route(self):
        spec = KernelSpec(SpectralWeight(alpha=2.0), PermStructure.full(2))
        rule = LatticeRule(5, (1, 2), (0.37, 0.11))
        a = worst_case_error_sq(rule.cubature(), spec)
        b = worst_case_error_sq_spectral(rule, spec, half_width=40)[0]
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
            b = worst_case_error_sq_spectral(rule, spec, half_width=hw)[0]
            assert abs(a.value - b.value) <= a.truncation_certificate + b.truncation_certificate

    @pytest.mark.parametrize("z", [(1, 10, 37, 55), (1, 10)])
    def test_spectral_route_rejects_dimension_mismatch(self, spec_d3_full, z):
        # a d = 4 lattice in a d = 3 space gave a number, a d = 2 one an IndexError
        rule = LatticeRule(101, z, (0.3, 0.71, 0.05, 0.42)[:len(z)])
        with pytest.raises(ValueError, match="dimension does not match"):
            worst_case_error_sq_spectral(rule, spec_d3_full, half_width=4)


class TestSpectralOrbitGrouping:
    """The orbit-grouped spectral route against the sum over all exchanges."""

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("d, inv, n, hw", [
        (4, (1, 2, 3, 4), 31, 5), (4, (1, 3), 31, 5), (4, (), 31, 5),
        (3, (1, 2, 3), 7, 8), (2, (1, 2), 5, 14), (1, (1,), 5, 30),
    ])
    def test_matches_permutation_sum(self, d, inv, n, hw, shifted):
        spec = KernelSpec(SpectralWeight(alpha=2.0), PermStructure(d, inv))
        shift = tuple((0.37 + 0.29 * i) % 1 for i in range(d)) if shifted else None
        rule = LatticeRule(n, tuple(range(1, d + 1)), shift)
        rep = worst_case_error_sq_spectral(rule, spec, half_width=hw)[0]
        expect = spectral_permutation_oracle(rule, spec, hw)
        assert expect > 0
        assert abs(rep.value - expect) <= 1e-13 * expect

    def test_no_dual_member_in_the_box(self, sobolev):
        spec = KernelSpec(sobolev, PermStructure.full(2))
        worst, mean = worst_case_error_sq_spectral(LatticeRule(101, (1, 10)), spec, half_width=2)
        assert worst.value == mean.value == 0.0


class TestSpectralOnePass:
    """Both spectral sums from one enumeration against their formulas over
    the dual members."""

    CUSTOM = SpectralWeight(generator=GeneratorSpec("custom", table=(1.5, 2.5, 3.5, 4.5), slope=1.0),
                            c_R=2.0)

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("d, inv, n, hw, weight", [
        (4, (1, 2, 3, 4), 31, 5, SpectralWeight()), (4, (1, 3), 31, 5, SpectralWeight()),
        (4, (), 31, 5, SpectralWeight(alpha=2.0)), (3, (2, 3), 101, 9, CUSTOM),
        (5, (1, 2, 3, 4, 5), 251, 6, CUSTOM), (2, (1, 2), 127, 14, SpectralWeight(alpha=2.0)),
        (3, (1, 2, 3), 13, 8, SpectralWeight(beta0=0.5, beta1=0.7)), (1, (1,), 5, 30, SpectralWeight()),
    ])
    def test_matches_per_member_sums(self, d, inv, n, hw, weight, shifted):
        # the error at the shift bitwise, its average within a few ulps
        spec = KernelSpec(weight, PermStructure(d, inv))
        shift = tuple((0.37 + 0.29 * i) % 1 for i in range(d)) if shifted else None
        rule = LatticeRule(n, tuple((3 * i * i + 1) % n for i in range(d)), shift)
        worst, mean = worst_case_error_sq_spectral(rule, spec, half_width=hw)
        want_worst, want_mean = spectral_sums_per_member(rule, spec, hw)
        assert want_mean > 0
        assert worst.value == want_worst
        assert abs(mean.value - want_mean) <= 1e-14 * want_mean
        assert worst.truncation_certificate == mean.truncation_certificate
        assert mean.details == {"half_width": hw, "degenerate": False,
                                "cert_exceeds_value": mean.truncation_certificate > mean.value}
        assert worst.details == {"half_width": hw,
                                 "cert_exceeds_value": worst.truncation_certificate > worst.value}

    @pytest.mark.parametrize("d, n, H, inv, weight", [
        (5, 251, 12, (1, 2, 3, 4, 5), SpectralWeight()), (5, 251, 12, (), SpectralWeight()),
        (5, 251, 12, (), CUSTOM), (6, 1009, 6, (1, 2, 3, 4, 5, 6), SpectralWeight()),
    ])
    def test_peak_below_the_predicted_bytes(self, monkeypatch, d, n, H, inv, weight):
        # ``_dual_box`` predicts the working set of the whole pass
        needs = []
        refuse = errors._refuse_above_cap
        monkeypatch.setattr(errors, "_refuse_above_cap",
                            lambda need, what, hint="": needs.append(need) or refuse(need, what, hint))
        spec = KernelSpec(weight, PermStructure(d, inv))
        rule = LatticeRule(n, tuple(pow(76, j, n) for j in range(d)), (0.3,) * d)
        tracemalloc.start()
        worst_case_error_sq_spectral(rule, spec, half_width=H)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert len(needs) == 2
        assert peak < needs[-1]


class TestLatticeRoute:
    """The lattice route of worst_case_error_sq against the general route
    on the same nodes (the rule's cubature) as reference."""

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 101])
    @pytest.mark.parametrize("d, inv", [
        (1, (1,)), (1, ()), (2, (1, 2)), (2, ()), (4, (1, 2, 3, 4)), (4, (1, 3)), (4, ()),
        (4, (1, 2, 3)),
    ])
    def test_agrees_with_general_route(self, sobolev, d, inv, n, shifted):
        spec = KernelSpec(sobolev, PermStructure(d, inv))
        shift = tuple((0.37 + 0.29 * i) % 1 for i in range(d)) if shifted else None
        rule = LatticeRule(n, tuple(range(1, d + 1)), shift)
        a = worst_case_error_sq(rule, spec)
        b = worst_case_error_sq(rule.cubature(), spec)
        assert abs(a.value - b.value) <= a.truncation_certificate + b.truncation_certificate
        if len(inv) >= 3 and d >= 4:
            # n = 2: m = 1 is its own mirror and counts once
            assert a.details["route"] == "lattice"
            assert a.details["pairs"] == n * (n // 2 + 1)
        else:
            assert a.details["route"] == "lattice-fft"
            assert a.details["pairs"] == 0
        assert b.details["route"] == "general"
        # the symmetric Gram evaluates the pairs j >= i only
        assert b.details["pairs"] == n * (n + 1) // 2

    def test_general_route_holds_one_gram(self, sobolev):
        import tracemalloc

        spec = KernelSpec(sobolev, PermStructure.full(2))
        nodes = np.random.default_rng(5).uniform(size=(2000, 2))
        cub = WeightedCubature(nodes, np.linspace(0.5, 1.5, 2000))
        worst_case_error_sq(WeightedCubature(nodes[:3], np.ones(3)), spec)
        tracemalloc.start()
        try:
            rep = worst_case_error_sq(cub, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.details["route"] == "general"
        # the 32 MB Gram matrix plus the pair chunks; no second n x n array
        assert peak < 1.25 * 8 * 2000 ** 2

    def test_abs_quadratic_form_in_blocks(self, monkeypatch):
        rng = np.random.default_rng(11)
        G = rng.standard_normal((37, 37))
        v = rng.uniform(size=37)
        expect = float(v @ np.abs(G) @ v)
        for elems in (1, 50, 37 * 37, 10 ** 6):
            monkeypatch.setattr("permqmc.errors._ABS_BLOCK_ELEMS", elems)
            assert _abs_quadratic_form(G, v) == pytest.approx(expect, rel=1e-13)

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


# every invariance pattern at d = 1..3, and s <= 2 at d = 4 and 5
_FFT_PATTERNS = [
    (1, ()), (1, (1,)),
    (2, ()), (2, (1,)), (2, (2,)), (2, (1, 2)),
    (3, ()), (3, (1,)), (3, (2,)), (3, (3,)), (3, (1, 2)), (3, (1, 3)), (3, (2, 3)),
    (3, (1, 2, 3)),
    (4, ()), (4, (2,)), (4, (1, 3)), (5, ()), (5, (2, 4)),
]


def _against_pair_route(rule, spec):
    """The FFT route's Gram mean less beta0^d against the pair route's mean
    less beta0^d (beta0 = 1: the power is exact, the subtraction rounds
    once); returns the FFT count."""
    a, a_cert, ffts = _lattice_gram_mean_fft(rule, spec)
    b, b_cert, _ = lattice_gram_mean(rule, spec)
    assert spec.weight.beta0 == 1.0
    ref = b - 1.0
    assert abs(a - ref) <= a_cert + b_cert + _UNIT_ROUNDOFF * abs(ref), (rule, spec)
    return ffts


class TestLatticeFftRoute:
    """The FFT route of worst_case_error_sq (kernels._lattice_gram_mean_fft)
    against the pair route (lattice_gram_mean) on the same rule."""

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 13, 101, 1009])
    @pytest.mark.parametrize("d, inv", _FFT_PATTERNS)
    def test_agrees_with_pair_route(self, d, inv, n):
        rng = np.random.default_rng([d, n, len(inv)])
        ps = PermStructure(d, inv)
        # closed forms at alpha = 1 with and without a shift, series at alpha = 2
        cases = [(SpectralWeight(generator=gen), "auto", shifted)
                 for gen in (GeneratorSpec.korobov(), GeneratorSpec("plain_linear"))
                 for shifted in (False, True)]
        cases += [(SpectralWeight(alpha=2.0, generator=gen), "spectral", True)
                  for gen in (GeneratorSpec.korobov(), GeneratorSpec("plain_linear"))]
        z = tuple(int(v) for v in rng.integers(0, n, size=d))
        for w, mode, shifted in cases:
            spec = KernelSpec(w, ps, mode=mode)
            rule = LatticeRule(n, z, tuple(rng.uniform(size=d)) if shifted else None)
            assert _against_pair_route(rule, spec) <= 9

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("n, z, inv, ffts", [
        # z_1 = z_2: the exchange (1 2) is a direct sum
        (7, (1, 1, 3), (1, 2, 3), 7),
        (7, (1, 1, 3), (1, 2), 0),
        (7, (1, 1, 3), (2, 3), 2),
        # 2^3 = 1 mod 7 and 3^3 = 1 mod 13: z x z_sigma = 0, the 3-cycles are direct sums
        (7, (1, 2, 4), (1, 2, 3), 6),
        (13, (1, 3, 9), (1, 2, 3), 6),
        # the 3-cycle's three forms span two lines: a product of two line sums
        (13, (1, 2, 7), (1, 2, 3), 6),
        # every exchange's forms span at most two lines: no correlation at all
        (13, (1, 0, 0), (1, 2, 3), 0),
        (13, (0, 0, 0), (1, 2, 3), 0),
        # z_2 = -z_1: the transposition (1 2) spans two lines
        (13, (1, 12, 5), (1, 2, 3), 4),
    ])
    def test_degenerate_generators(self, sobolev, n, z, inv, ffts, shifted):
        spec = KernelSpec(sobolev, PermStructure(3, inv))
        rule = LatticeRule(n, z, (0.3, 0.71, 0.05) if shifted else None)
        _against_pair_route(rule, spec)
        rep = worst_case_error_sq(rule, spec)
        assert rep.details == {"raw_value": rep.details["raw_value"], "route": "lattice-fft",
                               "ffts": ffts, "pairs": 0}
        # beta0 != 1 tells the powers of beta0 in each excess apart
        rep = worst_case_error_sq(rule, KernelSpec(SpectralWeight(beta0=0.7, beta1=1.3), spec.perm))
        ref = lattice_error_sq_long_double(rule, spec.perm, 1, 0.7, 1.3)
        assert abs(rep.details["raw_value"] - ref) <= rep.truncation_certificate

    @pytest.mark.parametrize("n, z, inv", [
        # the transposition's two forms lie on two lines: a product of two
        # line sums, where a correlation took 2 FFTs
        (1009, (1, 282), (1, 2)),
        # z_4 = -z_2: the transposition (2 4) spans one line, the fixed
        # coordinates another
        (101, (1, 40, 7, 61, 2), (2, 4)),
    ])
    def test_two_lines_take_no_fft(self, n, z, inv):
        d = len(z)
        rule = LatticeRule(n, z, tuple(float(v) for v in np.linspace(0.1, 0.7, d)))
        ps = PermStructure(d, inv)
        for alpha, beta0, beta1 in [(1, 1.0, 1.0), (2, 0.7, 1.3)]:
            rep = worst_case_error_sq(
                rule, KernelSpec(SpectralWeight(alpha=float(alpha), beta0=beta0, beta1=beta1), ps))
            assert rep.details["ffts"] == 0
            ref = lattice_error_sq_long_double(rule, ps, alpha, beta0, beta1)
            assert abs(rep.details["raw_value"] - ref) <= rep.truncation_certificate

    def test_no_pair_permanents(self, sobolev, monkeypatch):
        def no_pairs(*args, **kwargs):
            raise AssertionError("pair permanents evaluated on the FFT route")

        monkeypatch.setattr(kernels, "_ryser", no_pairs)
        monkeypatch.setattr(errors, "lattice_gram_mean", no_pairs)
        for d, inv, n, z in [(3, (1, 2, 3), 1009, (1, 286, 53)), (3, (1, 2, 3), 7, (1, 2, 4)),
                             (3, (1, 2, 3), 7, (1, 1, 3)), (2, (1, 2), 101, (1, 40)),
                             (5, (2, 4), 101, (1, 40, 7, 33, 2)), (4, (), 13, (1, 5, 8, 12))]:
            rule = LatticeRule(n, z, tuple(0.1 + 0.17 * i for i in range(d)))
            rep = worst_case_error_sq(rule, KernelSpec(sobolev, PermStructure(d, inv)))
            assert rep.details["route"] == "lattice-fft"
            assert rep.details["pairs"] == 0

    def test_pair_route_beyond_s_2_at_d_4(self, sobolev):
        rule = LatticeRule(13, (1, 5, 8, 12), (0.1, 0.2, 0.3, 0.4))
        rep = worst_case_error_sq(rule, KernelSpec(sobolev, PermStructure(4, (1, 2, 4))))
        assert rep.details["route"] == "lattice"
        assert rep.details["pairs"] == 13 * 7

    @pytest.mark.parametrize("shift", [(0.3, 0.71, 0.05), (0.9, 0.12, 0.47), (0.5, 0.5, 0.25)])
    def test_certificate_at_most_the_pair_routes(self, spec_d3_full, shift):
        rule = LatticeRule(1009, (1, 286, 53), shift)
        a = worst_case_error_sq(rule, spec_d3_full)
        _, b_cert, _ = lattice_gram_mean(rule, spec_d3_full)
        assert a.details["route"] == "lattice-fft"
        assert a.truncation_certificate <= b_cert

    def test_certificate_small_at_n_100003(self, spec_d3_full):
        # the CBC rule for (d = 3, n = 100003); E2 is about 2.8e-11
        rep = worst_case_error_sq(LatticeRule(100003, (1, 38763, 75699), (0.3, 0.71, 0.05)),
                                  spec_d3_full)
        assert rep.details["ffts"] == 9
        assert rep.truncation_certificate < 1e-2 * rep.value

    @pytest.mark.parametrize("n", [13, 101, 251])
    @pytest.mark.parametrize("d, inv", [p for p in _FFT_PATTERNS if p[0] in (2, 3)])
    def test_against_long_double_sum_at_alpha_2(self, d, inv, n):
        # the error itself, not a mean less beta0^d: a long-double sum over
        # all node pairs and all exchanges (oracles.lattice_error_sq_long_double)
        rng = np.random.default_rng([d, n, len(inv), 2])
        ps = PermStructure(d, inv)
        z = tuple(int(v) for v in rng.integers(0, n, size=d))
        for beta0, beta1, shift in [(1.0, 1.0, None), (1.0, 1.0, tuple(rng.uniform(size=d))),
                                    (0.7, 1.3, tuple(rng.uniform(size=d)))]:
            rule = LatticeRule(n, z, shift)
            rep = worst_case_error_sq(
                rule, KernelSpec(SpectralWeight(alpha=2.0, beta0=beta0, beta1=beta1), ps))
            raw, cert = rep.details["raw_value"], rep.truncation_certificate
            ref = lattice_error_sq_long_double(rule, ps, 2, beta0, beta1)
            assert rep.details["route"] == "lattice-fft"
            assert raw >= -cert
            assert abs(raw - ref) <= cert, (z, shift, beta0, raw, ref, cert)

    @pytest.mark.parametrize("d, n, z, ref", [
        (3, 251, (1, 70, 154), 1.69229e-13), (3, 1009, (1, 282, 635), 8.24969e-16),
        (2, 1009, (1, 282), 6.07153e-16)])
    def test_certificate_at_alpha_2(self, d, n, z, ref):
        # the CBC vectors at alpha = 2; the references are long-double sums
        # (oracles.lattice_error_sq_long_double) to six digits.  What is left
        # of the certificate is the K1 table's, d * c * T^(d - 1)
        spec = KernelSpec(SpectralWeight(alpha=2.0), PermStructure.full(d))
        rep = worst_case_error_sq(LatticeRule(n, z, tuple(np.linspace(0.1, 0.7, d))), spec)
        raw, cert = rep.details["raw_value"], rep.truncation_certificate
        assert abs(raw - ref) <= cert + 1e-5 * ref
        assert cert <= 1.2e-15
        assert n == 1009 or cert <= 1e-2 * raw


def exact_kappa(c, t, w):
    """kappa_c(t) in mpmath for the Korobov generator and integer alpha:
    beta0^c + beta1^c (-1)^(n+1) / (2n)! * B_2n(frac t), n = alpha * c."""
    n = round(w.alpha * c)
    frac = t - mpmath.floor(t)
    return (mpmath.mpf(w.beta0) ** c + mpmath.mpf(w.beta1) ** c * (-1) ** (n + 1)
            / mpmath.factorial(2 * n) * mpmath.bernpoly(2 * n, frac))


class TestExactCertificates:
    """Certified values against 40-digit recomputations of small rules."""

    @staticmethod
    def exact_mean_sq_error(rule, spec):
        """The shift-averaged squared error of a lattice rule in 40-digit
        arithmetic: the partition sums of exact power kernels at every node,
        less beta0^d."""
        w, n, z = spec.weight, rule.n, rule.z
        inv, free = spec.perm.invariant_idx, spec.perm.free_idx
        with mpmath.workdps(40):
            total = 0
            for k in range(n):
                x = [mpmath.mpf(k * zi % n) / n for zi in z]
                part = 0
                for blocks in set_partitions(len(inv)):
                    term = 1
                    for b in blocks:
                        arg = sum(x[inv[i]] for i in b)
                        term *= math.factorial(len(b) - 1) * exact_kappa(len(b), arg, w)
                    part += term
                for f in free:
                    part *= exact_kappa(1, x[f], w)
                total += part / spec.perm.group_order
            return total / n - mpmath.mpf(w.beta0) ** spec.d

    @staticmethod
    def check_mean_sq_error(rule, spec):
        rep = mean_sq_error(rule, spec)
        exact = TestExactCertificates.exact_mean_sq_error(rule, spec)
        assert abs(mpmath.mpf(rep.value) - exact) <= rep.truncation_certificate
        assert rep.truncation_certificate < 1e-13
        # max(raw, 0) never clips a value that its certificate resolves
        assert rep.details["raw_value"] >= -rep.truncation_certificate
        return rep

    def test_mean_sq_error(self):
        spec = KernelSpec(SpectralWeight(beta0=0.9, beta1=1.1), PermStructure(4, (1, 2, 4)))
        self.check_mean_sq_error(LatticeRule(31, (1, 12, 7, 20)), spec)

    @pytest.mark.parametrize("alpha, beta0, beta1, inv, n, z", [
        # the CBC rule at (alpha = 2, d = 3, n = 1009): E2 is about 2.05e-15
        (2.0, 1.0, 1.0, (1, 2, 3), 1009, (1, 282, 635)),
        (3.0, 1.0, 1.0, (1, 2, 3), 61, (1, 17, 19)),
        (2.0, 0.9, 1.1, (1, 2, 4), 31, (1, 12, 7, 20)),
        # K1(1/2) = beta0 - beta1 / 24 < 0: a signed kappa_1 table
        (2.0, 0.05, 2.0, (1, 3), 37, (1, 10, 31)),
    ])
    def test_mean_sq_error_alpha_2_and_3(self, alpha, beta0, beta1, inv, n, z):
        w = SpectralWeight(alpha=alpha, beta0=beta0, beta1=beta1)
        rep = self.check_mean_sq_error(LatticeRule(n, z), KernelSpec(w, PermStructure(len(z), inv)))
        if n == 1009:
            assert rep.truncation_certificate < rep.value

    def test_mean_sq_error_certified_below_value_at_alpha_2_d_4(self):
        # the CBC rule at (alpha = 2, d = 4, n = 1009): E2 is about 3.0e-15
        spec = KernelSpec(SpectralWeight(alpha=2.0), PermStructure.full(4))
        rep = mean_sq_error(LatticeRule(1009, (1, 282, 635, 153)), spec)
        assert rep.details["raw_value"] >= -rep.truncation_certificate
        assert rep.truncation_certificate < rep.value

    @staticmethod
    def exact_worst_case_sq(rule, spec):
        """The squared worst-case error of a shifted lattice rule in 40-digit
        arithmetic, summed over all node pairs and all exchanges."""
        w, n = spec.weight, rule.n
        inv, free = spec.perm.invariant_idx, spec.perm.free_idx
        with mpmath.workdps(40):
            pts = [[mpmath.mpf(k * zi % n) / n + mpmath.mpf(d) for zi, d in zip(rule.z, rule.shift)]
                   for k in range(n)]
            total = 0
            for x in pts:
                for y in pts:
                    per = sum(mpmath.fprod(exact_kappa(1, x[inv[i]] - y[inv[p[i]]], w)
                                           for i in range(len(inv)))
                              for p in permutations(range(len(inv))))
                    for f in free:
                        per *= exact_kappa(1, x[f] - y[f], w)
                    total += per / spec.perm.group_order
            return total / n ** 2 - mpmath.mpf(w.beta0) ** spec.d

    @pytest.mark.parametrize("beta0", [3.0, 0.3])
    def test_inexact_rho_within_certificates(self, beta0):
        # rho = 1/beta0 is not a double: the unit space runs at the rounded
        # rho, and each scaled result still holds its oracle at (beta0, 1)
        w = SpectralWeight(alpha=2.0, beta0=beta0, beta1=1.0)
        spec = KernelSpec(w, PermStructure(3, (1, 3)))
        assert not spec.rho_exact
        rule = LatticeRule(31, (1, 12, 7))
        exact = self.exact_mean_sq_error(rule, spec)
        rep = mean_sq_error(rule, spec)
        assert abs(mpmath.mpf(rep.details["raw_value"]) - exact) <= rep.truncation_certificate
        shifted = rule.with_shift((0.3, 0.71, 0.05))
        for target in (shifted, LatticeRule(31, (1, 12, 7, 5), (0.3, 0.71, 0.05, 0.5))):
            ps = PermStructure(target.d, (1, 3))
            rep = worst_case_error_sq(target, KernelSpec(w, ps))
            ref = lattice_error_sq_long_double(target, ps, 2, beta0, 1.0)
            assert abs(rep.details["raw_value"] - float(ref)) <= rep.truncation_certificate
        X = np.random.default_rng(4).uniform(size=(9, 3))
        gram, cert = kernel_perminv_gram(X, X[:5], spec)
        ref = gram_long_double(X, X[:5], spec.perm, 2, beta0, 1.0)
        assert float(np.max(np.abs(gram - ref))) <= cert

    @pytest.mark.parametrize("general", [False, True])
    def test_worst_case_error_sq(self, general):
        w = SpectralWeight(beta0=0.9, beta1=1.1)
        spec = KernelSpec(w, PermStructure(3, (1, 3)))
        rule = LatticeRule(11, (1, 4, 5), (0.3, 0.71, 0.05))
        rep = worst_case_error_sq(rule.cubature() if general else rule, spec)
        exact = self.exact_worst_case_sq(rule, spec)
        assert abs(mpmath.mpf(rep.value) - exact) <= rep.truncation_certificate
        assert rep.truncation_certificate < 1e-13

    @pytest.mark.parametrize("beta0, beta1, d, inv, z, route", [
        (0.9, 1.1, 4, (1, 2, 3, 4), (1, 3, 4, 5), "lattice"),
        # K1(1/2) = beta0 - beta1 / 24 < 0: signed K1 tables
        (0.05, 2.0, 3, (1, 3), (1, 4, 5), "general"),
        (0.05, 2.0, 4, (1, 2, 3, 4), (1, 3, 4, 5), "lattice"),
        # z_2 = z_3: the entry (2, 3) of every pair block is constant in k
        (0.9, 1.1, 4, (1, 2, 3, 4), (1, 3, 3, 5), "lattice"),
    ])
    def test_pair_and_general_routes(self, beta0, beta1, d, inv, z, route):
        w = SpectralWeight(beta0=beta0, beta1=beta1)
        spec = KernelSpec(w, PermStructure(d, inv))
        rule = LatticeRule(11, z, (0.3, 0.71, 0.05, 0.42)[:d])
        rep = worst_case_error_sq(rule.cubature() if route == "general" else rule, spec)
        assert rep.details["route"] == route
        exact = self.exact_worst_case_sq(rule, spec)
        assert abs(mpmath.mpf(rep.value) - exact) <= rep.truncation_certificate
        assert rep.truncation_certificate < 1e-13

    @pytest.mark.parametrize("d, inv, n, z", [
        (3, (1, 2, 3), 31, (1, 12, 7)),
        # 5^3 = 1 mod 31: both 3-cycles are direct sums
        (3, (1, 2, 3), 31, (1, 5, 25)),
        (3, (2, 3), 29, (1, 7, 11)),
        (2, (1, 2), 23, (1, 9)),
        (4, (1, 3), 13, (1, 5, 8, 12)),
    ])
    def test_lattice_fft_route(self, d, inv, n, z):
        w = SpectralWeight(beta0=0.9, beta1=1.1)
        spec = KernelSpec(w, PermStructure(d, inv))
        rule = LatticeRule(n, z, tuple((0.3 + 0.41 * i) % 1 for i in range(d)))
        rep = worst_case_error_sq(rule, spec)
        assert rep.details["route"] == "lattice-fft"
        exact = self.exact_worst_case_sq(rule, spec)
        assert abs(mpmath.mpf(rep.value) - exact) <= rep.truncation_certificate
        assert rep.truncation_certificate < 1e-13


class TestMeanSquared:
    def test_univariate_exact_value(self, sobolev):
        spec = KernelSpec(sobolev, PermStructure.empty(1))
        rep = mean_sq_error(LatticeRule(5, (1,)), spec)
        assert rep.value == pytest.approx(1.0 / 300.0, abs=1e-14)

    def test_spectral_route_within_certificate(self, sobolev):
        spec = KernelSpec(sobolev, PermStructure.empty(1))
        exact = mean_sq_error(LatticeRule(5, (1,)), spec)
        approx = worst_case_error_sq_spectral(LatticeRule(5, (1,)), spec, half_width=500)[1]
        assert abs(approx.value - exact.value) <= approx.truncation_certificate

    def test_degenerate_zero_vector_flagged(self, spec_d2_full):
        rep = worst_case_error_sq_spectral(LatticeRule(5, (0, 0)), spec_d2_full, half_width=6)[1]
        assert rep.details["degenerate"]
        # dual lattice is everything: the box sum is the full truncated mass
        hs = [h for h in product(range(-6, 7), repeat=2) if h != (0, 0)]
        expect = sum(
            fix_count(h, spec_d2_full.perm) / 2.0 * np.prod(r_weight_inv_factors(h, spec_d2_full.weight))
            for h in hs
        )
        assert rep.value == pytest.approx(expect, rel=1e-12)

    def test_certificate_small_at_n_10007(self, spec_d3_full):
        # the CBC rule for (d = 3, n = 10007); E2 is about 2.2e-9
        rep = mean_sq_error(LatticeRule(10007, (1, 3822, 2827)), spec_d3_full)
        assert rep.truncation_certificate < 1e-3 * rep.value

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
            vals, _, _ = cbc_step_objectives(z[:ell], n, spec)
            total += vals[z[ell] % n]
        total *= sobolev.beta0 ** 3
        e2 = mean_sq_error(LatticeRule(n, tuple(z)), spec)
        assert total == pytest.approx(e2.value, rel=1e-11)

    def test_first_step_closed_form(self, sobolev):
        # dual of a single nonzero coordinate is nZ: the objective is the
        # closed zeta tail 2 * zeta(2) / (4 pi^2 n^2), over the normalizer
        spec = KernelSpec(sobolev, PermStructure.full(3))
        n = 7
        vals, _, _ = cbc_step_objectives([], n, spec)
        expect = 2.0 * (math.pi ** 2 / 6.0) / (4.0 * math.pi ** 2 * n ** 2)
        c1 = sobolev.beta0 * math.comb(3, 1)
        assert vals[1] == pytest.approx(expect / c1, rel=1e-12)
        assert vals[1] == pytest.approx(vals[3], rel=1e-12)  # nonzero candidates equivalent

    def test_spectral_oracle(self):
        spec = KernelSpec(SpectralWeight(alpha=2.0), PermStructure.full(2))
        for z in [(1, 2), (1, 3), (1, 4)]:
            vals, cert, _ = cbc_step_objectives(list(z)[:-1], 5, spec)
            box, box_cert = spectral_cbc_objective(list(z), 5, spec, half_width=40)
            assert abs(vals[z[-1]] - box) <= cert + box_cert

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

    def test_box_route_rounding_is_bounded(self, sobolev):
        # the polynomial's sum differs from the box-ordered one by rounding;
        # at s = 3 and 4 the enclosure holds the 50-digit box sum raised to
        # lambda, and that sum plus the box tail
        lam, H = 1.5, 3
        for d in (3, 4):
            spec = KernelSpec(sobolev, PermStructure.full(d))
            enc = bound_constant(spec, lam, half_width=H)
            tail = _box_tail_certificate(spec, H, inv_lambda=1.0 / lam)
            with mpmath.workdps(50):
                def factor(v):
                    return mpmath.mpf(1) if v == 0 else (2 * mpmath.pi * abs(v)) ** -2

                inner = mpmath.mpf(0)
                for h in product(range(-H, H + 1), repeat=d):
                    if any(h):
                        term = mpmath.mpf(fix_count(h, spec.perm)) / math.factorial(d)
                        for v in h:
                            term *= factor(v)
                        inner += term ** (1 / mpmath.mpf(lam))
                assert mpmath.mpf(enc.lo) <= inner ** lam
                assert (inner + tail) ** lam <= mpmath.mpf(enc.hi)

    @pytest.mark.parametrize("H", [3, 16])
    @pytest.mark.parametrize("d, inv", [(3, None), (4, None), (5, None), (6, None),
                                        (5, (1, 2)), (6, (2, 4, 5)), (4, (1, 2, 3))])
    def test_box_polynomial_against_orbit_sum(self, d, inv, H):
        # the x^s coefficient of the product of per-value series against one
        # term per orbit, the enumeration it replaced: the two differ in
        # summation order and in their rounding counts
        ps = PermStructure.full(d) if inv is None else PermStructure(d, inv)
        for alpha, lams in ((1.0, (1.2, 1.5, 1.9)), (2.0, (3.0,))):
            spec = KernelSpec(SpectralWeight(alpha=alpha), ps)
            for lam, ref in zip(lams, orbit_box_bound_constant(spec, lams, H)):
                enc = bound_constant(spec, lam, half_width=H)
                assert enc.lo == pytest.approx(ref.lo, rel=1e-13, abs=0.0)
                assert enc.hi == pytest.approx(ref.hi, rel=1e-12, abs=0.0)

    def test_partial_invariance_lambda(self):
        w = SpectralWeight(alpha=2.0)
        for d, inv in [(3, (1, 3)), (4, (2, 3, 4)), (3, (1, 2, 3))]:
            spec = KernelSpec(w, PermStructure(d, inv))
            enc = bound_constant(spec, 1.5, half_width=6)
            oracle = nabla_box_bound_constant(spec, 1.5, 6)
            assert enc.lo == pytest.approx(oracle, rel=1e-12)
            assert oracle <= enc.hi

    def test_lambda_box_memory_bounded(self, sobolev):
        import tracemalloc

        spec = KernelSpec(sobolev, PermStructure.full(5))
        tracemalloc.start()
        try:
            enc = bound_constant(spec, 1.5, half_width=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < enc.lo < enc.hi
        assert peak < 64 * 2 ** 20

    def test_lambda_box_memory_by_value_counts(self, sobolev):
        # one orbit per row took 431 MB here; by value counts the box costs
        # O(H s) memory
        import tracemalloc

        spec = KernelSpec(sobolev, PermStructure.full(6))
        bound_constant(spec, 1.5)   # the tail sums' caches
        tracemalloc.start()
        try:
            enc = bound_constant(spec, 1.5, half_width=16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < enc.lo < enc.hi
        assert peak < 1 << 20

    @pytest.mark.parametrize("d", [8, 12])
    def test_lambda_box_at_high_d(self, sobolev, d):
        # C(32 + d, d) orbits did not fit in 2 GiB at d = 7 and 8
        start = time.perf_counter()
        enc = bound_constant(KernelSpec(sobolev, PermStructure.full(d)), 1.5)
        assert time.perf_counter() - start < 0.1
        assert 0.0 < enc.lo < enc.hi

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
    # each spectral route reads its own report of the one pass
    REPORT = {"worst_case": 0, "mean": 1}

    @pytest.mark.parametrize("method", ["worst_case", "mean"])
    def test_oversized_box_refused_before_allocating(self, method):
        # the 6589964 dual members at d = 8, H = 6 need about 3.3 GiB
        spec = KernelSpec(SpectralWeight(), PermStructure.full(8))
        rule = LatticeRule(127, (1, 2, 3, 4, 5, 6, 7, 8))
        tracemalloc.start()
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"frequency box \[-6, 6\]\^8 needs about"):
            worst_case_error_sq_spectral(rule, spec, half_width=6)[self.REPORT[method]]
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 4 << 20
        assert elapsed < 1.0

    @pytest.mark.parametrize("method", ["worst_case", "mean"])
    @pytest.mark.parametrize("H", [-1, -7])
    def test_negative_half_width_refused(self, method, H):
        spec = KernelSpec(SpectralWeight(), PermStructure.full(3))
        rule = LatticeRule(13, (1, 5, 8), (0.1, 0.5, 0.9))
        with pytest.raises(ValueError, match=f"^half_width must be >= 0, got {H}$"):
            worst_case_error_sq_spectral(rule, spec, half_width=H)[self.REPORT[method]]

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 13, 101, 251, 503])
    def test_dual_box_is_the_filtered_box(self, d, n):
        # rows and order bitwise equal to box-and-filter, with 2H + 1 below
        # and above n, generators with entries = 0 mod n, entries >= n and
        # entries < 0, and the all-zero generator
        rng = np.random.default_rng(1000 * d + n)
        zs = [tuple(int(v) for v in rng.integers(-2 * n, 3 * n, size=d)),
              tuple(int(v) * n if j % 2 else int(v)
                    for j, v in enumerate(rng.integers(1, 4 * n, size=d))),
              (0,) * d]
        for H in sorted({0, 1, 3, n // 2 + 1}):
            if (2 * H + 1) ** d > 300_000:
                continue
            box = box_frequencies(d, H)
            for z in zs:
                got = errors._dual_box(LatticeRule(n, z), H)
                want = box[(box @ np.asarray(z, dtype=np.int64)) % n == 0]
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (z, H)

    def test_member_count_known_before_allocating(self, monkeypatch):
        # the count that the refusal names is the number of rows returned,
        # and the refusal comes before the member rows exist
        rule = LatticeRule(13, (1, 5, 12, 0, 27, 8))
        hs = errors._dual_box(rule, 6)
        needs = []
        with monkeypatch.context() as m:
            m.setattr(errors, "_refuse_above_cap", lambda need, what, hint="": needs.append(need))
            errors._dual_box(rule, 6)
        monkeypatch.setattr(errors, "STEP_BYTES_CAP", needs[-1] - 1)
        tracemalloc.start()
        with pytest.raises(ValueError, match=f"it holds {len(hs)} dual-lattice members"):
            errors._dual_box(rule, 6)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < hs.nbytes / 10
        monkeypatch.setattr(errors, "STEP_BYTES_CAP", needs[-1])
        assert np.array_equal(errors._dual_box(rule, 6), hs)

    def test_box_positions_keep_row_order(self, rng):
        # orbit grouping by box position gives np.unique(axis=0)'s
        # representatives and inverse
        rows = rng.integers(-4, 5, size=(2000, 5))
        keys, inv = np.unique(errors._box_index(rows, 4), return_inverse=True)
        reps, inv_rows = np.unique(rows, axis=0, return_inverse=True)
        assert np.array_equal(errors._box_rows(keys, 5, 4), reps)
        assert np.array_equal(inv, inv_rows.ravel())

    def test_multiplicity_array(self, rng):
        ps = PermStructure(4, (1, 2, 4))
        hs = rng.integers(-3, 4, size=(200, 4))
        vec = multiplicity_array(hs, ps)
        for row, m in zip(hs, vec):
            assert m == fix_count(tuple(row), ps)

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
        lhs = np.prod(r_weight_inv_factors((n * k,), w)) ** (1.0 / lam)
        rhs = (w.c_R / n) * np.prod(r_weight_inv_factors((k,), w)) ** (1.0 / lam)
        assert lhs <= rhs * (1 + 1e-12)
