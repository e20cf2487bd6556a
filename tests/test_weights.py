import math

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
        assert enc.width < 1e-10

    def test_plain_linear_zeta2(self):
        w = SpectralWeight(generator=GeneratorSpec.plain())
        enc = tail_sum(w)
        assert enc.lo <= float(mpmath.zeta(2)) <= enc.hi
        assert abs(enc.mid - float(mpmath.zeta(2))) < 1e-8

    def test_far_start_vanishes(self, sobolev):
        assert tail_sum(sobolev, start=10 ** 7).hi < 1e-8

    def test_custom_generator_enclosure(self):
        gen = GeneratorSpec("custom", table=(1.5, 2.5, 3.5, 4.5), slope=1.0)
        w = SpectralWeight(alpha=1.0, generator=gen, c_R=2.0)
        exact = float(
            sum(mpmath.mpf(v) ** -2 for v in (1.5, 2.5, 3.5, 4.5))
            + mpmath.zeta(2, 5)
        )
        enc = tail_sum(w, cutoff=50_000)
        assert enc.lo <= exact <= enc.hi

    def test_enclosure_width_shrinks_with_cutoff(self):
        gen = GeneratorSpec("custom", table=(1.0,), slope=1.0)
        w = SpectralWeight(alpha=1.0, generator=gen, c_R=1.5)
        w1 = tail_sum(w, cutoff=100).width
        w2 = tail_sum(w, cutoff=10_000).width
        assert w2 < w1

    def test_divergent_exponent_rejected(self, sobolev):
        with pytest.raises(ValueError):
            tail_sum(sobolev, exponent=0.4)


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
        w = SpectralWeight(alpha=alpha, beta0=beta0, beta1=beta1)
        for v_max in (0, 5, 3000):
            expect = next((V for V in range(v_max + 1) if eta_star(w, V).hi < 1.0), None)
            if expect is None:
                with pytest.raises(RuntimeError, match=f"up to V = {v_max}$"):
                    min_contraction_order(w, v_max)
            else:
                assert min_contraction_order(w, v_max) == expect

    def test_failed_min_order_is_logarithmic(self, monkeypatch):
        calls = []
        real = weights.eta_star

        def counting(w, V=0):
            calls.append(V)
            return real(w, V)

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
        a = Enclosure(1.0, 2.0)
        b = Enclosure(3.0, 4.0)
        assert (a + b).lo == 4.0 and (a + b).hi == 6.0
        assert (a * b).lo == 3.0 and (a * b).hi == 8.0
        assert a.power(2.0).hi == 4.0
        with pytest.raises(ValueError):
            Enclosure(2.0, 1.0)
