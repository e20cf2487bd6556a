import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permqmc import weights
from permqmc.weights import (
    Enclosure,
    GeneratorSpec,
    SpectralWeight,
    eta_star,
    min_contraction_order,
    r_weight_inv_factors,
    spectral_mass,
    tail_sum,
    weight_from_config,
    weight_to_config,
)

from oracles import check_min_order_matches_linear_scan


def naive_r_weight(k, w):
    """Independent scalar evaluation of the product formula."""
    out = 1.0
    for kl in k:
        if kl == 0:
            out *= 1.0 / w.beta0
        else:
            out *= float(w.generator(abs(kl))) ** (2.0 * w.alpha) / w.beta1
    return out


def r_weight(k, w):
    """Product weight r(k): the reciprocal of the product of its inverse factors."""
    return 1.0 / np.prod(r_weight_inv_factors(k, w))


class TestRWeight:
    def test_zero_vector(self, sobolev):
        assert r_weight((0, 0, 0), sobolev) == 1.0

    def test_single_mode(self, sobolev):
        assert r_weight((1,), sobolev) == pytest.approx((2 * math.pi) ** 2, rel=1e-14)
        assert r_weight((1,), sobolev) == pytest.approx(39.478, rel=1e-4)

    def test_mixed_vector(self, sobolev):
        val = r_weight((2, 0, -1), sobolev)
        assert val == pytest.approx(6234.18, rel=1e-5)
        assert val == pytest.approx(naive_r_weight((2, 0, -1), sobolev), rel=1e-13)

    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_naive(self, k):
        w = SpectralWeight(alpha=1.5, beta0=0.8, beta1=1.3)
        assert r_weight(k, w) == pytest.approx(naive_r_weight(k, w), rel=1e-12)

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=5), st.permutations(range(5)))
    @settings(max_examples=100, deadline=None)
    def test_permutation_and_sign_invariance(self, k, perm):
        w = SpectralWeight()
        permuted = [k[p] for p in perm[: len(k)] if p < len(k)]
        if len(permuted) != len(k):
            permuted = list(reversed(k))
        assert r_weight(k, w) == pytest.approx(r_weight(permuted, w), rel=1e-12)
        flipped = [-v for v in k]
        assert r_weight(k, w) == pytest.approx(r_weight(flipped, w), rel=1e-12)

    def test_monotone_in_magnitude(self, sobolev):
        base = r_weight((1, 2, 0), sobolev)
        assert r_weight((1, 3, 0), sobolev) >= base
        assert r_weight((2, 2, 0), sobolev) >= base

    def test_overflow_saturates(self, sobolev):
        # the reciprocal weight underflows to zero instead of overflowing
        assert np.prod(r_weight_inv_factors((10 ** 18,) * 8, SpectralWeight(alpha=20.0))) == 0.0

    def test_inv_log_domain(self, sobolev):
        k = (3, -2, 1)
        inv = np.prod(r_weight_inv_factors(k, sobolev))
        assert inv == pytest.approx(1.0 / naive_r_weight(k, sobolev), rel=1e-12)

    def test_inv_factors_array(self, sobolev):
        ks = np.array([[0, 1], [2, -2]])
        fac = r_weight_inv_factors(ks, sobolev)
        assert fac[0, 0] == 1.0
        assert fac[0, 1] == pytest.approx(1.0 / (2 * math.pi) ** 2, rel=1e-14)
        assert np.prod(fac[1]) == pytest.approx(1.0 / naive_r_weight((2, -2), sobolev), rel=1e-12)


class TestTailSums:
    def test_korobov_alpha1(self, sobolev):
        enc = tail_sum(sobolev)
        exact = float(mpmath.zeta(2)) / (2 * math.pi) ** 2
        assert enc.lo <= exact <= enc.hi
        assert (enc.hi - enc.lo) < 1e-10

    def test_plain_linear_zeta2(self):
        w = SpectralWeight(generator=GeneratorSpec("plain_linear"))
        enc = tail_sum(w)
        assert enc.lo <= float(mpmath.zeta(2)) <= enc.hi
        assert abs(enc.mid - float(mpmath.zeta(2))) < 1e-8

    def test_far_start_vanishes(self, sobolev):
        assert tail_sum(sobolev, start=10 ** 7).hi < 1e-8

    def test_custom_generator_enclosure(self):
        gen = GeneratorSpec("custom", table=(1.5, 2.5, 3.5, 4.5), slope=1.0)
        w = SpectralWeight(alpha=1.0, generator=gen, c_R=2.0)
        with mpmath.workdps(50):
            exact = (sum(mpmath.mpf(v) ** -2 for v in (1.5, 2.5, 3.5, 4.5))
                     + mpmath.zeta(2, 5))
            enc = tail_sum(w)
            assert mpmath.mpf(enc.lo) <= exact <= mpmath.mpf(enc.hi)
        assert (enc.hi - enc.lo) <= 5e-14 * enc.lo

    @pytest.mark.parametrize("start", [1, 3, 5, 6, 1000])
    def test_custom_tail_is_table_plus_zeta(self, start):
        gen = GeneratorSpec("custom", table=(1.5, 2.5, 3.5, 4.5), slope=1.0)
        w = SpectralWeight(alpha=0.8, generator=gen, c_R=2.0)
        s = mpmath.mpf(1.6)
        with mpmath.workdps(50):
            head = sum(mpmath.mpf(v) ** -s for v in gen.table[start - 1:])
            exact = head + mpmath.zeta(s, max(start, 5))
            enc = tail_sum(w, start=start)
            assert mpmath.mpf(enc.lo) <= exact <= mpmath.mpf(enc.hi)
        assert (enc.hi - enc.lo) <= 5e-14 * enc.lo

    def test_divergent_exponent_rejected(self, sobolev):
        with pytest.raises(ValueError):
            tail_sum(sobolev, exponent=0.4)


_ZETA_S = [1.0001, 1.5, 2.0, 3.7, 8.0, 16.0, 40.0, 64.0]
_ZETA_A = [1, 3, 12, 101, 1001, 12345, 10 ** 5, 10 ** 7]


def _zeta_oracle(s, a):
    """mpmath's zeta(s, a) at 400 digits, checked against 300 digits where it
    is above 1e-290: at 40-260 digits mpmath's value is off by up to 2e-13
    relative at some grid points, e.g. (16, 1001), (40, 1001) and (64, 12345);
    at (64, 12345) scipy's value is off by 2.3e-13 as well."""
    with mpmath.workdps(400):
        exact = mpmath.zeta(mpmath.mpf(s), a)
        with mpmath.workdps(300):
            check = mpmath.zeta(mpmath.mpf(s), a)
        if exact > mpmath.mpf("1e-290"):
            assert abs(check - exact) <= mpmath.mpf("1e-40") * exact
        return exact


class TestHurwitzZeta:
    @pytest.mark.parametrize("s", _ZETA_S)
    def test_contains_high_precision_value(self, s):
        for a in _ZETA_A:
            exact = _zeta_oracle(s, a)
            enc = weights._hurwitz_zeta(s, a)
            with mpmath.workdps(400):
                assert mpmath.mpf(enc.lo) <= exact <= mpmath.mpf(enc.hi), (s, a)
            if exact > mpmath.mpf("1e-290"):
                assert (enc.hi - enc.lo) <= 5e-14 * enc.lo, (s, a)

    @pytest.mark.parametrize("s,a", [(64.0, 10 ** 6), (64.0, 10 ** 7), (1100.0, 2), (1000.0, 2)])
    def test_underflow_keeps_the_bracket(self, s, a):
        # exact values 1.6e-380, 1e-448, 7e-332 and 9e-302: hi stays above,
        # lo at or above zero
        enc = weights._hurwitz_zeta(s, a)
        exact = _zeta_oracle(s, a)
        with mpmath.workdps(400):
            assert 0.0 <= enc.lo <= exact <= mpmath.mpf(enc.hi)
        assert enc.hi < 1e-300

    def test_rejects_divergence_and_bad_offset(self):
        with pytest.raises(ValueError):
            weights._hurwitz_zeta(1.0, 1)
        with pytest.raises(ValueError):
            weights._hurwitz_zeta(2.0, 0)

    def test_bernoulli_numbers(self):
        B = weights._bernoulli(12)
        assert B[:5] == (1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30))
        assert B[12] == Fraction(-691, 2730)


class TestEtaStar:
    def test_sobolev_value(self, sobolev):
        enc = eta_star(sobolev, 0)
        assert abs(enc.mid - 1.0 / 12.0) < 1e-10
        assert (1.0 - enc.hi) ** -0.5 <= 1.05

    def test_beta1_zero_limit(self):
        w = SpectralWeight(beta1=1e-12)
        assert eta_star(w, 0).hi < 1e-11

    def test_min_order_low_smoothness(self):
        w = SpectralWeight(alpha=0.6)
        V = min_contraction_order(w)
        # oracle: eta(V) = 2 * zeta(1.2, V+1) / (2 pi)^1.2 via high precision
        def eta(v):
            return float(2 * mpmath.zeta(mpmath.mpf("1.2"), v + 1) / (2 * mpmath.pi) ** mpmath.mpf("1.2"))

        assert eta(V) < 1.0
        assert V == 0 or eta(V - 1) >= 1.0 - 1e-12
        assert eta_star(w, V).hi < 1.0

    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.5])
    @pytest.mark.parametrize("beta0", [0.5, 1.0])
    @pytest.mark.parametrize("beta1", [1e-3, 1.0, 30.0, 1e4])
    def test_min_order_matches_linear_scan(self, alpha, beta0, beta1):
        check_min_order_matches_linear_scan(
            SpectralWeight(alpha=alpha, beta0=beta0, beta1=beta1), 1.0)

    @pytest.mark.parametrize("alpha", [0.6, 1.0, 2.0])
    @pytest.mark.parametrize("beta0", [0.5, 1.0])
    @pytest.mark.parametrize("beta1", [1e-3, 0.3, 30.0, 1e4])
    @pytest.mark.parametrize("tau_frac", [0.1, 0.9])
    def test_min_order_matches_linear_scan_tau(self, alpha, beta0, beta1, tau_frac):
        # tau in (1, 2 alpha) is the spectral tail offset U* of the
        # approximation chain; tau = 1 the eta* of the error bounds
        w = SpectralWeight(alpha=alpha, beta0=beta0, beta1=beta1)
        check_min_order_matches_linear_scan(w, 1.0 + tau_frac * (2.0 * alpha - 1.0))

    def test_failed_min_order_is_logarithmic(self, monkeypatch):
        calls = []
        real = weights.eta_star

        def counting(w, V=0, tau=1.0):
            calls.append(V)
            return real(w, V, tau)

        monkeypatch.setattr(weights, "eta_star", counting)
        with pytest.raises(RuntimeError, match="no contraction order found up to V = 100000"):
            min_contraction_order(SpectralWeight(beta1=1e12))
        assert max(calls) == 100_000
        assert len(calls) <= 2 * math.ceil(math.log2(100_000 + 2))


class TestConditions:
    def test_condition_at_one_implies_all(self, sobolev):
        # monotone R: the worst ratio is at m = 1
        def mode_ratio(m):  # oscillatory over constant weight at frequency m
            return sobolev.beta1 / (sobolev.beta0 * sobolev.generator(m) ** (2.0 * sobolev.alpha))

        assert 2 * mode_ratio(1) <= 1.0
        for m in (1, 2, 5, 17, 100):
            assert 2 * mode_ratio(m) <= 2 * mode_ratio(1) + 1e-15

    def test_spectral_mass_matches_zeta(self, sobolev):
        enc = spectral_mass(sobolev, 1.0)
        exact = 1.0 + 2.0 * float(mpmath.zeta(2)) / (2 * math.pi) ** 2
        assert enc.lo <= exact <= enc.hi


class TestValidationAndConfig:
    def test_linear_forces_cr_one(self):
        with pytest.raises(ValueError):
            SpectralWeight(c_R=2.0)

    def test_alpha_bound(self):
        with pytest.raises(ValueError):
            SpectralWeight(alpha=0.5)

    def test_custom_needs_certificate(self):
        # slope too shallow relative to the table violates the growth bounds
        gen = GeneratorSpec("custom", table=(10.0,), slope=1.0)
        with pytest.raises(ValueError):
            SpectralWeight(generator=gen, c_R=1.0)

    def test_config_roundtrip(self):
        gen = GeneratorSpec("custom", table=(1.5, 2.5), slope=1.2)
        w = SpectralWeight(alpha=1.25, beta0=0.9, beta1=1.1, generator=gen, c_R=2.0)
        w2 = weight_from_config(weight_to_config(w))
        assert w2 == w

    def test_enclosure_arithmetic(self):
        # ends round outward: one step for a sum or product, two for a pow
        a = Enclosure(1.0, 2.0)
        b = Enclosure(3.0, 4.0)
        assert (a + b).lo == math.nextafter(4.0, 0.0) and (a + b).hi == math.nextafter(6.0, 9.0)
        assert (a * b).lo == math.nextafter(3.0, 0.0) and (a * b).hi == math.nextafter(8.0, 9.0)
        assert a.power(2.0).hi == math.nextafter(math.nextafter(4.0, 9.0), 9.0)
        assert (Enclosure(0.0, 1.0) + Enclosure(0.0, 1.0)).lo == 0.0
        with pytest.raises(ValueError):
            Enclosure(2.0, 1.0)

    @given(st.floats(1e-150, 1e150), st.floats(1e-150, 1e150), st.floats(-1e150, 1e150))
    @settings(max_examples=150, deadline=None)
    def test_outward_rounding_contains_exact(self, x, y, c):
        a = Enclosure(x, math.nextafter(x, math.inf))
        b = Enclosure(y, math.nextafter(y, math.inf))
        F = Fraction
        for got, lo, hi in (
            (a + b, F(a.lo) + F(b.lo), F(a.hi) + F(b.hi)),
            (a * b, F(a.lo) * F(b.lo), F(a.hi) * F(b.hi)),
            (a + c, F(a.lo) + F(c), F(a.hi) + F(c)),
            (a.scale(c), min(F(a.lo) * F(c), F(a.hi) * F(c)), max(F(a.lo) * F(c), F(a.hi) * F(c))),
            (a.power(2), F(a.lo) ** 2, F(a.hi) ** 2),
        ):
            assert F(got.lo) <= lo and hi <= F(got.hi)
