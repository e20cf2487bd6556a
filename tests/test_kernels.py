import ast
import math
import os
import subprocess
import sys
import tracemalloc
from itertools import permutations, product
from pathlib import Path

import mpmath
import numpy as np
import pytest

from permqmc import kernels, symmetry
from permqmc.kernels import (
    KernelSpec,
    _choose_terms,
    _cosine_closed,
    _cosine_poly_coeffs,
    _fill_gram,
    _series_remainder_bound,
    _sum_depth,
    _partition_sums,
    kernel_perminv_gram,
    lattice_gram_mean,
    permutation_power_sum,
    power_kernel,
    power_kernel_table,
    shift_invariant_profile,
    symmetrized_mass,
)
from permqmc.lattice import LatticeRule
from permqmc.symmetry import PERMANENT_CAP, PermStructure, _frac, _gamma, permanent_bound
from permqmc.weights import (GeneratorSpec, SpectralWeight, r_weight_inv_factors,
                             spectral_mass)

from oracles import (fix_count, gram_long_double, lattice_error_sq_long_double,
                     partition_sums_per_mask, validate_closed_form)


def box_kernel_perminv(x, y, spec, H):
    """Complex frequency-box oracle for the exchange-invariant kernel."""
    ps = spec.perm
    w = spec.weight
    inv = ps.invariant
    total = 0.0 + 0.0j
    for h in product(range(-H, H + 1), repeat=spec.d):
        fac = np.prod(r_weight_inv_factors(np.array([h]), w))
        for perm in permutations(range(len(inv))):
            px = list(x)
            for slot, src in zip(inv, perm):
                px[slot - 1] = x[inv[src] - 1]
            total += fac / ps.group_order * np.exp(
                2j * math.pi * np.dot(h, np.asarray(px) - np.asarray(y))
            )
    return total


def box_kernel_shinv(diff, spec, H):
    """Complex multiplicity-weighted box oracle for the shift-averaged kernel
    at one difference vector (d,) or a stack of them (npts, d)."""
    ps = spec.perm
    w = spec.weight
    diff = np.asarray(diff, dtype=float)
    total = np.zeros(diff.shape[:-1], dtype=complex)
    for h in product(range(-H, H + 1), repeat=spec.d):
        fac = np.prod(r_weight_inv_factors(np.array([h]), w))
        m = fix_count(h, ps)
        total += m / ps.group_order * fac * np.exp(2j * math.pi * (diff @ np.array(h)))
    return total


class TestClosedForm:
    @pytest.mark.parametrize("n", range(1, PERMANENT_CAP + 1))
    def test_validation_thousand_points(self, n):
        # the closed form agrees with the certified series: at 99 points for
        # every exponent 2n the package reaches at alpha = 1, and at 1000
        # points for n <= 4
        validate_closed_form(n)
        if n <= 4:
            scale = 2.0 if n == 1 else 1.1
            t = np.random.default_rng(7).uniform(0.01, 0.99, size=1000)
            assert validate_closed_form(n, t) < 1e-8 * scale

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_in_place_horner_bitwise_equal_to_reassigning_horner(self, n):
        def reassigning(n, t):       # the closed form as it was first written
            frac, out = _frac(t), np.zeros_like(_frac(t))
            for c in reversed(_cosine_poly_coeffs(n)):
                out = out * frac + c
            return out

        rng = np.random.default_rng(n)
        for t in (-rng.uniform(0, 5, size=200), np.arange(-7.0, 8.0),
                  rng.uniform(-3, 3, size=1000), np.array(0.3), np.array([-1e-300, -0.0])):
            assert _cosine_closed(n, t).tobytes() == reassigning(n, t).tobytes()

    @pytest.mark.parametrize("n", range(1, 65))
    def test_coefficients_match_mpmath(self, n):
        with mpmath.workdps(50):
            scale = (-1) ** (n + 1) * (2 * mpmath.pi) ** (2 * n) / (2 * mpmath.factorial(2 * n))
            ref = [float(mpmath.binomial(2 * n, j) * mpmath.bernoulli(2 * n - j) * scale)
                   for j in range(2 * n + 1)]
        got = _cosine_poly_coeffs(n)
        assert got.view(np.int64).tolist() == np.array(ref).view(np.int64).tolist()

    @pytest.mark.parametrize("alpha, beta0, beta1, gen, power", [
        (1.0, 1.0, 1.0, "korobov_linear", 1),
        (1.0, 1.0, 1.0, "korobov_linear", 4),
        (2.0, 0.8, 1.3, "korobov_linear", 2),
        (1.0, 0.7, 0.9, "plain_linear", 1),
        (3.0, 1.0, 1.0, "plain_linear", 2),
    ])
    def test_certificate_bounds_the_closed_form(self, alpha, beta0, beta1, gen, power):
        # against the Bernoulli polynomial in 50-digit arithmetic at the same
        # float arguments, negative and large ones included
        w = SpectralWeight(alpha=alpha, beta0=beta0, beta1=beta1, generator=GeneratorSpec(gen))
        t = np.concatenate([np.random.default_rng(5).uniform(-3.0, 3.0, size=40),
                            [0.0, 0.5, 1.0 - 2.0 ** -53, -1e-20, 7.25]])
        n = round(alpha * power)
        zero, zero_cert = power_kernel(w, power, t)
        # with the constant mode beta0^c added here: its pow and the sum, 3u
        for with_constant in (True, False):
            vals, cert = zero, zero_cert
            if with_constant:
                vals = w.beta0 ** power + zero
                cert = zero_cert + 3.0 * 2.0 ** -53 * w.beta0 ** power
            with mpmath.workdps(50):
                rho = 2 * mpmath.pi if gen == "korobov_linear" else mpmath.mpf(1)
                amp = 2 * mpmath.mpf(beta1) ** power * rho ** (-2 * n)
                scale = (-1) ** (n + 1) * (2 * mpmath.pi) ** (2 * n) / (2 * mpmath.factorial(2 * n))
                const = mpmath.mpf(beta0) ** power if with_constant else 0
                for v, x in zip(vals, t):
                    x = mpmath.mpf(float(x))
                    exact = const + amp * scale * mpmath.bernpoly(2 * n, x - mpmath.floor(x))
                    assert abs(mpmath.mpf(float(v)) - exact) <= cert
        if (alpha, power, gen) == (1.0, 1, "korobov_linear"):
            assert cert < 2e-15

    def test_plain_linear_closed_form(self):
        w = SpectralWeight(generator=GeneratorSpec("plain_linear"))
        t = np.random.default_rng(11).uniform(0.05, 0.95, size=50)
        a, ca = power_kernel(w, 1, t)         # "auto": the closed form
        b, cb = power_kernel(w, 1, t, mode="spectral", tol=1e-9)
        assert np.max(np.abs(a - b)) <= ca + cb
        assert ca < 1e-3 * cb      # an a priori rounding bound, not a tail
        # "auto" takes the closed form where it exists; there is no mode
        # that asks for it
        for bad in ("closed", "series"):
            with pytest.raises(ValueError, match=f"unknown eval mode '{bad}'"):
                KernelSpec(w, PermStructure.full(2), mode=bad)
            with pytest.raises(ValueError, match=f"unknown eval mode '{bad}'"):
                power_kernel(w, 1, t, mode=bad)
        custom = SpectralWeight(generator=GeneratorSpec("custom", table=(1.0,), slope=1.0))
        # the same R(m) = m as a custom generator takes the series route; its
        # tail bound has no Dirichlet factor, 1.0e-6 at the 2e6-term cap
        c, cc = power_kernel(custom, 1, t[:5], tol=1.5e-6)
        assert np.max(np.abs(c - a[:5])) <= cc + ca

    @pytest.mark.parametrize("power", [1, 2])
    def test_series_rounding_bound(self, power):
        # non-integer smoothness takes the series route; its value against the
        # same partial sum in 30-digit arithmetic at the same float arguments
        # must stay within the certificate's rounding term alone
        w = SpectralWeight(alpha=1.25, beta0=0.9, beta1=1.2)
        t = np.concatenate([np.random.default_rng(3).uniform(-2.0, 2.0, size=6),
                            [-2.0, 0.0, 2.0 - 2.0 ** -51, 2.0]])
        s_exp = 2.0 * w.alpha * power
        amp = 2.0 * w.beta1 ** power
        terms = _choose_terms(w, s_exp, amp, 1e-6, t)
        tail = amp * float(np.max(_series_remainder_bound(w, s_exp, terms, t)))
        vals, cert = power_kernel(w, power, t, tol=1e-6)
        rounding = cert - tail
        assert 0.0 < rounding < 1e-12
        with mpmath.workdps(30):
            weights = [(2 * mpmath.pi * m) ** (-s_exp) for m in range(1, terms + 1)]
            for v, x in zip(vals, t):
                x = mpmath.mpf(float(x))
                partial = mpmath.fsum(wm * mpmath.cos(2 * mpmath.pi * m * x)
                                      for m, wm in enumerate(weights, 1))
                exact = 2 * mpmath.mpf(w.beta1) ** power * partial
                assert abs(mpmath.mpf(float(v)) - exact) <= rounding

    @pytest.mark.parametrize("power", [1, 2, 3])
    def test_series_certificate_counts_the_constant_pow(self, power):
        # with beta1 tiny the zero-mean series is next to nothing, and K1 of
        # the unit space is its constant mode 1: the sum with it counts as
        # gamma_3 on the series route
        w = SpectralWeight(alpha=1.25, beta0=0.9, beta1=1e-200)
        t = np.array([0.0, 0.3])
        vals, cert = power_kernel(w, power, t, tol=1e-6)
        assert np.all(np.abs(vals) < 1e-150) and cert < 1e-150
        vals, cert = KernelSpec(w, PermStructure.empty(power), tol=1e-6).univariate(t)
        assert np.all(vals == 1.0)
        assert cert >= _gamma(3)

    def test_unreachable_tolerance_raises_before_summing(self, monkeypatch):
        # alpha = 1.5 takes the series route; its tail bound at the cap of
        # 2e6 terms stays far above 1e-20, and no term may be summed first
        w = SpectralWeight(alpha=1.5)
        t = np.array([0.0, 0.25])

        def no_series(*args):
            raise AssertionError("series evaluated")

        monkeypatch.setattr(kernels, "_cosine_series", no_series)
        with pytest.raises(ValueError, match=r"tol=1e-20 .* at the cap of 2000000 terms"):
            power_kernel(w, 1, t, tol=1e-20)
        s_exp, amp = 3.0, 2.0
        cap_tail = amp * float(np.max(_series_remainder_bound(w, s_exp, kernels._SERIES_CAP, t)))
        assert cap_tail > 1e-20
        assert _choose_terms(w, s_exp, amp, cap_tail, t) == kernels._SERIES_CAP

    def test_series_working_set_bounded(self):
        # 300 points and a tail bound at t = 0 that needs 2^18 > 2e5 terms
        w = SpectralWeight(generator=GeneratorSpec("plain_linear"))
        t = np.linspace(0.0, 1.0, 300)
        tracemalloc.start()
        try:
            _, cert = power_kernel(w, 1, t, mode="spectral", tol=1e-5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 2.0 / (2e5 + 1) > cert  # so the series ran beyond 2e5 terms
        assert peak < 64 << 20

    def test_no_sympy_import(self):
        code = (
            "import sys, numpy as np\n"
            "from permqmc import KernelSpec, PermStructure, SpectralWeight\n"
            "from permqmc.cbc import cbc_construct\n"
            "from permqmc.kernels import power_kernel\n"
            "power_kernel(SpectralWeight(), 1, np.array([0.3]))\n"
            "cbc_construct(KernelSpec(SpectralWeight(), PermStructure.full(3)), 13)\n"
            "print('sympy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.strip() == "False"

    def test_sum_depth_bounds_numpy_sum(self):
        # 1 followed by terms of 0.75u: a sequential sum drops every one of
        # them, numpy's pairwise sum keeps the error within gamma_depth
        u = 2.0 ** -53
        for n in (100, 129, 8193, 100_003):
            x = np.full(n, 0.75 * u)
            x[0] = 1.0
            exact = 1.0 + (n - 1) * 0.75 * u
            assert abs(float(np.sum(x)) - exact) <= _gamma(_sum_depth(n)) * exact

    def test_univariate_diagonal(self, sobolev):
        # the zero-mean kernel, beta0 added here
        assert 1.0 + power_kernel(sobolev, 1, 0.42 - 0.42)[0] == pytest.approx(1 + 1 / 12, abs=1e-12)

    def test_constant_kernel(self):
        w = SpectralWeight(beta0=0.7, beta1=1e-14)
        assert w.beta0 + power_kernel(w, 1, 0.1 - 0.9)[0] == pytest.approx(0.7, abs=1e-11)

    def test_closed_vs_spectral_alpha2(self):
        w = SpectralWeight(alpha=2.0)
        a = power_kernel(w, 1, 0.3 - 0.7)[0]
        b = power_kernel(w, 1, 0.3 - 0.7, mode="spectral", tol=1e-12)[0]
        assert a == pytest.approx(b, abs=1e-10)

    def test_power_kernel_vs_direct_series(self, sobolev):
        t = np.array([0.13, 0.48, 0.77])
        vals, cert = power_kernel(sobolev, 2, t)
        m = np.arange(1, 200_001, dtype=float)
        direct = 2.0 * np.array(
            [np.sum(np.cos(2 * math.pi * m * tt) * (2 * math.pi * m) ** -4.0) for tt in t]
        )
        assert np.max(np.abs(vals - direct)) < 1e-12
        assert cert < 1e-10

    def test_spectral_certificate_shrinks(self):
        w = SpectralWeight(generator=GeneratorSpec("plain_linear"))
        _, cert_loose = power_kernel(w, 1, np.array([0.3]), mode="spectral", tol=1e-6)
        _, cert_tight = power_kernel(w, 1, np.array([0.3]), mode="spectral", tol=1e-10)
        assert cert_tight < cert_loose
        v1, c1 = power_kernel(w, 1, np.array([0.3]), mode="spectral", tol=1e-6)
        v2, c2 = power_kernel(w, 1, np.array([0.3]), mode="spectral", tol=1e-12)
        assert abs(float(v1[0] - v2[0])) <= c1 + c2


class TestPerminvKernel:
    def test_tensor_product_when_no_invariance(self, sobolev):
        spec = KernelSpec(sobolev, PermStructure.empty(3))
        x = np.array([0.1, 0.5, 0.8])
        y = np.array([0.3, 0.2, 0.9])
        expect = np.prod(1.0 + power_kernel(sobolev, 1, x - y)[0])
        assert kernel_perminv_gram(x[None], y[None], spec)[0][0, 0] == pytest.approx(expect, rel=1e-12)

    def test_brute_force_average(self, spec_d3_full, rng):
        x = rng.uniform(size=3)
        y = rng.uniform(size=3)
        w = spec_d3_full.weight
        brute = np.mean([
            np.prod(1.0 + power_kernel(w, 1, x[list(p)] - y)[0])
            for p in permutations(range(3))
        ])
        assert kernel_perminv_gram(x[None], y[None], spec_d3_full)[0][0, 0] == pytest.approx(
            brute, rel=1e-12)

    def test_swap_invariance(self, spec_d2_full, rng):
        x = rng.uniform(size=2)
        y = rng.uniform(size=2)
        assert kernel_perminv_gram(x[None], y[None], spec_d2_full)[0][0, 0] == pytest.approx(
            kernel_perminv_gram(x[None, ::-1], y[None], spec_d2_full)[0][0, 0], rel=1e-12
        )

    def test_complex_box_oracle(self, rng):
        w = SpectralWeight(alpha=2.0)
        spec = KernelSpec(w, PermStructure(3, (1, 3)))
        x = rng.uniform(size=3)
        y = rng.uniform(size=3)
        oracle = box_kernel_perminv(x, y, spec, H=30)
        assert abs(oracle.imag) <= 1e-12
        assert kernel_perminv_gram(x[None], y[None], spec)[0][0, 0] == pytest.approx(
            oracle.real, abs=5e-7)

    @pytest.mark.parametrize("d, inv", [(3, ()), (4, (1, 3))])
    @pytest.mark.parametrize("alpha, beta0, beta1, mode", [
        (1, 1.0, 1.0, "auto"), (2, 0.7, 1.3, "auto"), (2, 0.7, 1.3, "spectral")])
    def test_free_product_against_long_double(self, d, inv, alpha, beta0, beta1, mode):
        # two or three free coordinates, whose product runs through the
        # recursion of _free_excess, against a plain long-double product; the
        # truncated series at tol 1e-6 errs far above rounding, so only the
        # K1 certificate carried through the product covers it
        spec = KernelSpec(SpectralWeight(alpha=float(alpha), beta0=beta0, beta1=beta1),
                          PermStructure(d, inv), mode=mode, tol=1e-6)
        rng = np.random.default_rng([d, alpha])
        X = rng.uniform(size=(30, d))
        for Y in (X, rng.uniform(size=(20, d))):
            gram, cert = kernel_perminv_gram(X, Y, spec)
            ref = gram_long_double(X, Y, spec.perm, alpha, beta0, beta1)
            assert float(np.max(np.abs(gram - ref))) <= cert

    def test_hermitian_and_psd(self, spec_d2_full, rng):
        pts = rng.uniform(size=(12, 2))
        gram, cert = kernel_perminv_gram(pts, pts, spec_d2_full)
        assert np.max(np.abs(gram - gram.T)) < 1e-12
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-10
        assert cert < 1e-9


class TestSymmetricGram:
    """With Y is X the Gram routine evaluates the pairs j >= i and mirrors
    them; a copy of X takes the full rectangular path."""

    @pytest.mark.parametrize("inv", [(1, 2, 3, 4), (1, 3), ()])
    @pytest.mark.parametrize("n", [1, 2, 7, 1009])
    def test_mirrored_matches_full_path(self, sobolev, inv, n):
        spec = KernelSpec(sobolev, PermStructure(4, inv))
        pts = np.random.default_rng(n).uniform(size=(n, 4))
        gram, cert = kernel_perminv_gram(pts, pts, spec)
        full, full_cert = kernel_perminv_gram(pts, pts.copy(), spec)
        assert np.array_equal(gram, gram.T)
        assert np.max(np.abs(gram - full)) <= cert + full_cert
        assert cert <= full_cert

    def test_small_chunks(self, sobolev, monkeypatch):
        # rows longer than the chunk go one at a time, shorter ones together
        monkeypatch.setattr(kernels, "_PAIR_CHUNK", 40)
        spec = KernelSpec(sobolev, PermStructure(3, (1, 2)))
        pts = np.random.default_rng(3).uniform(size=(90, 3))
        gram, cert = kernel_perminv_gram(pts, pts, spec)
        full, full_cert = kernel_perminv_gram(pts, pts.copy(), spec)
        assert np.array_equal(gram, gram.T)
        assert np.max(np.abs(gram - full)) <= cert + full_cert

    @pytest.mark.parametrize("nx, ny, upper", [
        (1009, 1009, True), (90, 90, True), (1, 1, True), (0, 0, True),
        (90, 35, False), (3, 1009, False), (5, 0, False),
    ])
    @pytest.mark.parametrize("chunk", [40, 8192])
    def test_chunks_cover_each_pair_once(self, monkeypatch, nx, ny, upper, chunk):
        # with K1 + 1 in place of K1, the table of the pair (i, j) holds
        # 1 + x_i[a] - y_j[b]; with x_i = (i, 0, 0.5) its entry (0, 1) is
        # i + 1 and its entry (1, 0) is 1 - j
        monkeypatch.setattr(kernels, "_PAIR_CHUNK", chunk)
        monkeypatch.setattr(KernelSpec, "univariate", lambda self, t: (np.asarray(t) + 1.0, 0.0))
        seen = np.zeros((nx, ny), dtype=int)

        def ryser(cols):
            i, j = cols[0, 1].astype(int) - 1, 1 - cols[1, 0].astype(int)
            assert cols.shape[2] <= chunk or np.all(i == i[0])   # a tile: whole rows
            lower = (j < i) & upper
            # with Y is X, pairs below the diagonal only from the tile's
            # own diagonal block
            assert np.all(j[lower] >= i.min(initial=0))
            np.add.at(seen, (i, j), 1)
            return symmetry._ryser(cols)

        monkeypatch.setattr(kernels, "_ryser", ryser)
        spec = KernelSpec(SpectralWeight(), PermStructure(3, (1, 2)))
        X = np.column_stack([np.arange(nx), np.zeros(nx), np.full(nx, 0.5)])
        Y = X if upper else np.column_stack([np.arange(ny), np.zeros(ny), np.full(ny, 0.5)])
        gram, cert = kernel_perminv_gram(X, Y, spec)
        owned = np.triu(np.ones((nx, ny), dtype=int)) if upper else np.ones((nx, ny), dtype=int)
        assert np.array_equal(seen * owned, owned)            # each owned pair once
        assert np.all(seen <= 1)
        assert math.isfinite(cert)
        if upper:
            assert np.array_equal(gram, gram.T)


def pair_list_gram(X, Y, spec):
    """The Gram matrix with node pairs listed by index arrays: chunks of whole
    rows and at most ``_PAIR_CHUNK`` pairs, with ``Y is X`` only the pairs
    j >= i, gathered with ``take``, written by ``gram[i, j]`` and mirrored by
    ``gram[j, i]``.  Returns (gram, cert, pair_certs): cert is a priori, from
    the matrix of M = mass + c1 per chunk, and pair_certs holds each
    evaluated pair's own certificate, from ``permanent_bound`` of its |table|,
    its |per| and its |F|, at [i, j] (0 at the pairs not evaluated)."""
    upper = Y is X
    nx, ny = X.shape[0], Y.shape[0]
    inv, free, s = spec.perm.invariant_idx, spec.perm.free_idx, spec.perm.size
    unit = spec.unit
    fact, mass = float(spec.perm.group_order), spectral_mass(unit.weight).hi
    gram, pair_certs, cert, lo = np.empty((nx, ny)), np.zeros((nx, ny)), 0.0, 0
    while lo < nx:
        width = ny - lo if upper else ny
        hi = min(nx, lo + max(1, kernels._PAIR_CHUNK // max(width, 1)))
        rows = np.arange(lo, hi)
        first = rows if upper else np.zeros_like(rows)
        counts = ny - first
        start = np.cumsum(counts) - counts
        i = np.repeat(rows, counts)
        j = np.arange(counts.sum()) - np.repeat(start - first, counts)
        lo = hi
        diffs = X[:, inv].T.take(i, axis=1)[:, None, :] - Y[:, inv].T.take(j, axis=1)[None, :, :]
        vals, cert1 = spec.univariate(diffs.reshape(-1))
        fd = X[:, free].take(i, axis=0) - Y[:, free].take(j, axis=0)
        gf, certf = (power_kernel(unit.weight, 1, fd.reshape(-1), unit.mode, unit.tol)
                     if len(free) else (fd, 0.0))
        per = symmetry._ryser(vals.reshape(s, s, i.size))
        fvals = list(gf.reshape(fd.shape).T)
        q, q_cert, q_abs = kernels._free_excess(fvals, mass + 2.0 * certf, certf)
        F = 1.0 + q
        F_abs = 1.0 + q_abs
        F_cert = q_cert + _gamma(1) * F_abs if fvals else 0.0
        values = per * F / fact
        # a priori: the bound of the matrix of M's, |per| <= s! M^s + it, |F| <= F_abs
        scalar = permanent_bound(np.full((s, s), mass + cert1), cert1)
        chunk_cert = (scalar * (F_abs + F_cert)
                      + (fact * (mass + cert1) ** s + scalar) * (F_cert + _gamma(2) * F_abs)) / fact
        # each pair's own: its table's bound, |per| and |F| in place of theirs
        bound = permanent_bound(np.abs(vals.reshape(s, s, i.size)), cert1)
        certs = (bound * (np.abs(F) + F_cert)
                 + np.abs(per) * (F_cert + _gamma(2) * np.abs(F))) / fact
        gram[i, j] = values
        pair_certs[i, j] = certs
        if upper:
            gram[j, i] = values
        if i.size:
            cert = max(cert, float(chunk_cert))
    return (*spec.scaled(gram, cert, mass ** spec.d), pair_certs)


GRAM_PATTERNS = [(4, (1, 2, 3, 4)), (4, (1, 3)), (3, ())]


class TestRowTiles:
    """Row tiles give the pair list's Gram and certificate bitwise, and a
    Gram extended by new points is bitwise its rebuild."""

    @pytest.mark.parametrize("d, inv", GRAM_PATTERNS)
    @pytest.mark.parametrize("chunk", [40, 8192])
    def test_bitwise_equal_to_pair_list(self, monkeypatch, d, inv, chunk):
        monkeypatch.setattr(kernels, "_PAIR_CHUNK", chunk)
        spec = KernelSpec(SpectralWeight(beta0=0.7, beta1=1.3), PermStructure(d, inv))
        rng = np.random.default_rng([d, len(inv), chunk])
        for nx, ny in ((0, 0), (1, 1), (7, 7), (90, 90), (90, 35), (3, 200)):
            X, Y = rng.uniform(size=(nx, d)), rng.uniform(size=(ny, d))
            for Y in ((X, Y) if nx == ny else (Y,)):
                gram, cert = kernel_perminv_gram(X, Y, spec)
                ref, ref_cert, _ = pair_list_gram(X, Y, spec)
                assert gram.tobytes() == ref.tobytes(), (nx, ny, Y is X)
                assert cert == ref_cert

    @pytest.mark.parametrize("d, inv", GRAM_PATTERNS)
    @pytest.mark.parametrize("chunk", [40, 8192])
    @pytest.mark.parametrize("n_a", [0, 1, 7, 90])
    @pytest.mark.parametrize("n_b", [0, 1, 35])
    def test_extension_bitwise_equal_to_rebuild(self, monkeypatch, d, inv, chunk, n_a, n_b):
        monkeypatch.setattr(kernels, "_PAIR_CHUNK", chunk)
        spec = KernelSpec(SpectralWeight(), PermStructure(d, inv))
        rng = np.random.default_rng([d, n_a, n_b])
        A, B = rng.uniform(size=(n_a, d)), rng.uniform(size=(n_b, d))
        P = np.vstack([A, B])
        full, full_cert = kernel_perminv_gram(P, P, spec)
        buf = np.full((n_a + n_b,) * 2, np.nan)
        buf[:n_a, :n_a], cert_a = kernel_perminv_gram(A, A, spec)
        cert = max(cert_a, _fill_gram(buf, P, P, spec, n_a))
        assert buf.tobytes() == full.tobytes()
        assert cert == full_cert


class TestTileBound:
    """``_fill_gram`` takes one a priori bound per tile, the lattice route's
    design: ``permanent_bound`` of the matrix of M = mass + c1."""

    @staticmethod
    def specs(d, inv):
        """alpha = 1 and alpha = 2 (closed form) and alpha = 2 by the series,
        with positive and with signed K1."""
        for b0, b1 in ((1.0, 1.0), (0.05, 2.0)):
            yield KernelSpec(SpectralWeight(beta0=b0, beta1=b1), PermStructure(d, inv))
            yield KernelSpec(SpectralWeight(alpha=2.0, beta0=b0, beta1=b1), PermStructure(d, inv))
            yield KernelSpec(SpectralWeight(alpha=2.0, beta0=b0, beta1=b1), PermStructure(d, inv),
                             mode="spectral", tol=1e-6)

    @pytest.mark.parametrize("d, inv", GRAM_PATTERNS + [(3, (1, 2)), (5, (2, 3, 5))])
    def test_scalar_bound_covers_every_entry(self, monkeypatch, d, inv):
        monkeypatch.setattr(kernels, "_PAIR_CHUNK", 300)
        calls, blocks = [], []

        def bounds(M, c=0.0):
            calls.append((M.copy(), c))
            return permanent_bound(M, c)

        def ryser(cols):
            blocks.append(cols.copy())
            return symmetry._ryser(cols)

        rng = np.random.default_rng([d, len(inv)])
        X, Y = rng.uniform(size=(60, d)), rng.uniform(size=(25, d))
        for spec in self.specs(d, inv):
            _, _, pairs = pair_list_gram(X, X, spec)
            for Z, start in ((X, 0), (Y, None), (X, 23)):
                out = np.full((60, Z.shape[0]), np.nan)
                if start:
                    out[:start, :start] = pair_list_gram(X[:start], X[:start], spec)[0]
                with monkeypatch.context() as m:
                    m.setattr(kernels, "permanent_bound", bounds)
                    m.setattr(kernels, "_ryser", ryser)
                    calls.clear()
                    blocks.clear()
                    cert = _fill_gram(out, X, Z, spec, start)
                # one bound per tile, for one matrix, above every pair's own
                assert len(calls) == len(blocks) > 1
                for (M, cert1), block in zip(calls, blocks):
                    assert M.shape == (len(inv), len(inv))
                    scalar = permanent_bound(M, cert1)
                    assert np.all(permanent_bound(np.abs(block), cert1) <= scalar)
                # and a certificate no smaller than the largest per-pair one
                if start is None:
                    pairs_written = pair_list_gram(X, Z, spec)[2]
                else:               # the pairs j >= max(i, start)
                    pairs_written = pairs[:, start:]
                assert cert >= pairs_written.max(), (spec, start)


def gather_gram_mean(rule, spec):
    """The pair route's mean with each chunk's blocks gathered from the
    doubled K1 table by an (s, s, m, n) index array, entry (i, j) of the pair
    (k, m) at (k*(z_i - z_j) mod n) + n - (m*z_j mod n), in the same chunks
    and summation order as ``lattice_gram_mean``."""
    n, inv, free, s = rule.n, spec.perm.invariant_idx, spec.perm.free_idx, spec.perm.size
    z, shift, grid = np.asarray(rule.z, dtype=np.int64), np.asarray(rule.shift), np.arange(n) / n
    unit = spec.unit
    table, _ = spec.univariate(grid + (shift[inv][:, None] - shift[inv][None, :])[:, :, None])
    fg = power_kernel(unit.weight, 1, grid, unit.mode, unit.tol)[0]
    doubled = np.concatenate([table, table], axis=2).reshape(-1)
    kpart = ((z[inv][:, None, None] - z[inv][None, :, None]) * np.arange(n) % n
             + (np.arange(s * s) * 2 * n + n).reshape(s, s, 1))
    step, total = max(1, kernels._PAIR_CHUNK // n), 0.0
    for lo in range(0, n // 2 + 1, step):
        m = np.arange(lo, min(lo + step, n // 2 + 1))
        idx = kpart[:, :, None, :] - (z[inv][:, None] * m % n)[None, :, :, None]
        per = symmetry._ryser(doubled.take(idx.reshape(s, s, len(m) * n)))
        q, _, _ = kernels._free_excess([fg.take(m * zi % n) for zi in z[free]], 0.0, 0.0)
        F = np.reshape(1.0 + q, (-1, 1))
        rows = per.reshape(len(m), n) * F / spec.perm.group_order
        total += float(np.where((m == 0) | (2 * m == n), 1.0, 2.0) @ rows.sum(axis=1))
    return total / float(n) ** 2


class TestLatticePairRoute:
    """``lattice_gram_mean`` reads each chunk's blocks as windows of the
    permuted K1 tables and takes one scalar bound per call."""

    @staticmethod
    def cases(n, d, inv):
        """Spaces at alpha = 1 and alpha = 2 (series), with positive and with
        signed K1 tables, on a random, a repeated and a zero-holding
        generating vector."""
        rng = np.random.default_rng([n, d, len(inv)])
        spaces = [(SpectralWeight(beta0=b0, beta1=b1), "auto") for b0, b1 in ((1, 1), (0.05, 2))]
        spaces += [(SpectralWeight(alpha=2.0, beta0=b0, beta1=b1), "spectral")
                   for b0, b1 in ((1, 1), (0.05, 2))]
        zs = [tuple(int(v) for v in rng.integers(0, n, size=d)),
              tuple(v % n for v in (1, 3, 3, 5, 3)[:d]), tuple(v % n for v in (0, 2, 5, 0, 7)[:d])]
        for (w, mode), z in product(spaces, zs):
            yield KernelSpec(w, PermStructure(d, inv), mode=mode), LatticeRule(
                n, z, tuple(rng.uniform(size=d)))

    @pytest.mark.parametrize("d, inv", [(4, (1, 2, 3, 4)), (4, (1, 2, 4)), (5, (2, 3, 5)),
                                        (3, (1, 2, 3))])
    @pytest.mark.parametrize("n", [2, 3, 13, 31, 101])
    def test_scalar_bound_covers_every_entry(self, monkeypatch, n, d, inv):
        calls, blocks = [], []

        def bounds(M, c=0.0):
            calls.append((M.copy(), c))
            return permanent_bound(M, c)

        def ryser(cols):
            blocks.append(cols.copy())
            return symmetry._ryser(cols)

        monkeypatch.setattr(kernels, "permanent_bound", bounds)
        monkeypatch.setattr(kernels, "_ryser", ryser)
        for spec, rule in self.cases(n, d, inv):
            calls.clear()
            blocks.clear()
            lattice_gram_mean(rule, spec)
            [(M, cert1)] = calls          # one bound per call, for one matrix
            # the tables' entry maxima, at K1's certificate as the radius
            sh = np.asarray(rule.shift)[spec.perm.invariant_idx]
            table, c1 = spec.univariate(np.arange(n, dtype=float) / n
                                        + (sh[:, None] - sh[None, :])[:, :, None])
            assert cert1 == c1 and M.tobytes() == np.abs(table).max(axis=2).tobytes()
            scalar = permanent_bound(M, cert1)
            assert len(blocks) == -(-(n // 2 + 1) // max(1, kernels._PAIR_CHUNK // n))
            for block in blocks:
                assert np.all(permanent_bound(np.abs(block), cert1) <= scalar), rule.z

    @pytest.mark.parametrize("d, inv", [(4, (1, 2, 3, 4)), (5, (2, 3, 5)), (3, ()), (2, (1, 2))])
    @pytest.mark.parametrize("n", [2, 3, 13, 31, 101])
    def test_mean_bitwise_equal_to_gather(self, n, d, inv):
        for spec, rule in self.cases(n, d, inv):
            assert lattice_gram_mean(rule, spec)[0] == gather_gram_mean(rule, spec), rule.z

    def test_small_chunks(self, monkeypatch):
        monkeypatch.setattr(kernels, "_PAIR_CHUNK", 40)     # one m per chunk at n = 31
        for spec, rule in self.cases(31, 4, (1, 2, 3, 4)):
            assert lattice_gram_mean(rule, spec)[0] == gather_gram_mean(rule, spec)


    @pytest.mark.parametrize("d, inv, n", [(6, (1, 2, 3), 31), (4, (1, 2, 4), 61)])
    def test_certificate_within_long_double_reference(self, d, inv, n):
        # signed K1 with free coordinates, where the a priori |per| and |F|
        # move the certificate most: the mean less beta0^d, in the space, against
        # the long-double sum over all node pairs and exchanges
        rng = np.random.default_rng([d, n])
        rule = LatticeRule(n, tuple(int(v) for v in rng.integers(1, n, size=d)),
                           tuple(rng.uniform(size=d)))
        ps = PermStructure(d, inv)
        spec = KernelSpec(SpectralWeight(beta0=0.05, beta1=2.0), ps)
        mean, cert = spec.scaled(*lattice_gram_mean(rule, spec)[:2])
        ref = lattice_error_sq_long_double(rule, ps, 1, 0.05, 2.0)
        assert cert < 1e-10 * abs(mean)
        assert abs(mean - 0.05 ** d - ref) <= cert + 2.0 ** -52 * (abs(ref) + 0.05 ** d)


class TestPermanentPasses:
    """The Gram routes pass ``_ryser`` the pairs they evaluate and nothing
    else: their certificates read entry magnitudes, not a permanent."""

    @staticmethod
    def spy(monkeypatch):
        batches = []
        ryser = symmetry._ryser

        def counting(cols):
            batches.append(cols.shape[2])
            return ryser(cols)

        monkeypatch.setattr(symmetry, "_ryser", counting)
        monkeypatch.setattr(kernels, "_ryser", counting)
        return batches

    @pytest.mark.parametrize("d, inv", GRAM_PATTERNS + [(5, (2, 3, 5))])
    def test_gram(self, monkeypatch, d, inv):
        monkeypatch.setattr(kernels, "_PAIR_CHUNK", 300)
        spec = KernelSpec(SpectralWeight(beta0=0.7, beta1=1.3), PermStructure(d, inv))
        rng = np.random.default_rng([d, len(inv), 3])
        X, Y = rng.uniform(size=(40, d)), rng.uniform(size=(23, d))
        batches = self.spy(monkeypatch)
        kernel_perminv_gram(X, Y, spec)
        assert len(batches) > 1 and sum(batches) == 40 * 23
        batches.clear()
        kernel_perminv_gram(X, X, spec)      # the tiles c0 = lo: of each row, j >= lo
        assert min(batches) > 1 and 40 * 41 // 2 <= sum(batches) < 40 * 40

    @pytest.mark.parametrize("d, inv", [(4, (1, 2, 3, 4)), (4, (1, 2, 4)), (3, (1, 2, 3))])
    @pytest.mark.parametrize("n", [13, 101])
    def test_lattice_mean(self, monkeypatch, n, d, inv):
        for spec, rule in TestLatticePairRoute.cases(n, d, inv):
            batches = self.spy(monkeypatch)
            _, _, pairs = lattice_gram_mean(rule, spec)
            assert sum(batches) == pairs == n * (n // 2 + 1)
            assert len(batches) == -(-(n // 2 + 1) // max(1, kernels._PAIR_CHUNK // n))


class TestShiftInvariantKernel:
    def test_diagonal_constant(self):
        # node 0 is the zero difference, where the profile is the
        # multiplicity-weighted total mass less 1, both of the unit space:
        # two independent routes, 1 subtracted on the exact side
        # at alpha = 1 the series' tail bound at t = 0 is 2.8e-8 at its cap
        for alpha, perm, mode, tol in [(1.0, PermStructure.full(2), "auto", 1e-9),
                                       (2.0, PermStructure(3, (2, 3)), "auto", 1e-9),
                                       (1.0, PermStructure.full(4), "auto", 1e-9),
                                       (1.0, PermStructure.empty(3), "auto", 1e-9),
                                       (1.5, PermStructure.full(3), "auto", 1e-9),
                                       (1.0, PermStructure.full(2), "spectral", 4e-8)]:
            spec = KernelSpec(SpectralWeight(alpha=alpha, beta0=0.9, beta1=1.1), perm,
                              mode=mode, tol=tol)
            prof, cert = shift_invariant_profile(LatticeRule(31, (1, 7, 12, 5)[:perm.d]), spec)
            enc = symmetrized_mass(spec)
            with mpmath.workdps(40):
                assert enc.lo - mpmath.mpf(1) - cert <= prof[0] <= enc.hi - mpmath.mpf(1) + cert

    def test_brute_force_two_exchanges(self):
        w = SpectralWeight(alpha=2.0)
        spec = KernelSpec(w, PermStructure.full(2))
        rule = LatticeRule(13, (1, 5))
        prof, cert = shift_invariant_profile(rule, spec)
        assert prof.shape == (13,) and cert < 1e-12
        oracle = box_kernel_shinv(rule.points(), spec, H=60)
        assert np.max(np.abs(oracle.imag)) <= 1e-12
        assert np.max(np.abs(prof - (oracle.real - w.beta0 ** 2))) <= 1e-7

    def test_partial_invariance_oracle(self):
        w = SpectralWeight(alpha=2.0, beta0=0.9, beta1=1.2)
        spec = KernelSpec(w, PermStructure(3, (2, 3)))
        rule = LatticeRule(7, (1, 3, 2))
        prof, _ = shift_invariant_profile(rule, spec)
        oracle = box_kernel_shinv(rule.points(), spec, H=25)
        # the profile of the unit space, times beta0^3
        assert np.max(np.abs(spec.scale * prof - (oracle.real - w.beta0 ** 3))) <= 5e-6

    def test_spectral_mode_agrees(self):
        w = SpectralWeight(alpha=1.0)
        for perm in (PermStructure.full(2), PermStructure(3, (1, 3))):
            rule = LatticeRule(13, (1, 5, 8)[:perm.d])
            closed = KernelSpec(w, perm)
            # the series' tail bound at t = 0 is 2.5e-8 at its cap
            series = KernelSpec(w, perm, mode="spectral", tol=4e-8)
            a, ca = shift_invariant_profile(rule, closed)
            b, cb = shift_invariant_profile(rule, series)
            assert np.max(np.abs(a - b)) <= ca + cb
            assert cb < 1e-7


class TestMass:
    def test_diagonal_integral_full_invariance(self, sobolev):
        # 1-d reduction: the diagonal of the d=2 fully invariant kernel
        # averages the squared univariate kernel along the difference
        spec = KernelSpec(sobolev, PermStructure.full(2))
        n = 1 << 18
        t = np.arange(n) / n
        k1 = 1.0 + power_kernel(sobolev, 1, t)[0]
        quad = 0.5 * (1 + 1 / 12) ** 2 + 0.5 * np.mean(k1 ** 2)
        enc = symmetrized_mass(spec)
        assert abs(quad - enc.mid) < 1e-6

    def test_diagonal_integral_partial(self, sobolev):
        spec = KernelSpec(sobolev, PermStructure(2, (1,)))
        enc = symmetrized_mass(spec)
        assert enc.mid == pytest.approx((1 + 1 / 12) ** 2, rel=1e-12)

    def test_trace_equals_nabla_sum(self, sobolev):
        # brute-force sum of reciprocal weights over the sorted domain;
        # the box misses at most the per-coordinate union-bound tail
        from permqmc.weights import tail_sum

        spec = KernelSpec(sobolev, PermStructure.full(2))
        total = 0.0
        for h in product(range(-60, 61), repeat=2):
            if h[0] > h[1]:
                continue
            total += np.prod(r_weight_inv_factors(np.array([h]), sobolev))
        enc = symmetrized_mass(spec)
        assert total < enc.hi
        tail_bound = 2 * (2 * tail_sum(sobolev, start=61).hi) * enc.hi
        assert enc.mid - total < tail_bound


class TestKernelIntegrals:
    @pytest.mark.parametrize("beta0", [1.0, 0.8])
    def test_single_argument_integral_is_constant_mass(self, beta0, rng):
        # integrating one kernel argument kills every oscillatory frequency:
        # the result equals beta0^d for any anchor point, which also gives
        # the double integral by averaging over the anchor
        w = SpectralWeight(beta0=beta0)
        spec = KernelSpec(w, PermStructure(2, (1, 2)))
        g = np.arange(1024) / 1024.0
        grid = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        for t in rng.uniform(size=(2, 2)):
            gram, _ = kernel_perminv_gram(grid, t[None, :], spec)
            assert float(np.mean(gram)) == pytest.approx(beta0 ** 2, abs=1e-6)


class TestPartitionEngines:
    def test_masked_vs_permutation_brute(self, rng):
        # the engine runs over exchangeable coordinates only: every block is
        # admissible, and free coordinates never reach it
        for s in (5, 2, 0):
            self._check_engine_against_permutations(rng, s)

    @staticmethod
    def _check_engine_against_permutations(rng, s):
        # f[U, j] against the sum over all permutations of U of the product
        # of per-cycle values
        n = 11
        zs = [int(v) for v in rng.integers(0, n, size=s)]
        table = rng.normal(size=(max(1, s), n))
        tcerts = rng.uniform(1e-6, 1e-5, size=max(1, s))
        tmax = np.max(np.abs(table), axis=1) + tcerts
        f = _partition_sums(zs, n, table)
        fv, fe = permutation_power_sum(tmax[:s], tcerts[:s])
        assert f.shape == (1 << s, n)
        for U in range(1 << s):
            members = [i for i in range(s) if U >> i & 1]
            brute = np.zeros(n)
            for perm in permutations(members):
                step = dict(zip(members, perm))
                prod = np.ones(n)
                seen = set()
                for start in members:
                    if start in seen:
                        continue
                    mask, S, cur = 0, 0, start
                    while cur not in seen:
                        seen.add(cur)
                        mask |= 1 << cur
                        S += zs[cur]
                        cur = step[cur]
                    prod *= table[mask.bit_count() - 1][np.arange(n) * S % n]
                brute += prod
            assert np.allclose(f[U], brute, rtol=1e-12, atol=1e-12)
            assert np.all(np.abs(f[U]) <= fv[len(members)] * (1 + 1e-12))
        # the first-order term by size bounds the effect of table errors up
        # to tcerts
        bumped = table + tcerts[:, None] * rng.uniform(-1.0, 1.0, size=table.shape)
        g = _partition_sums(zs, n, bumped)
        size = np.array([U.bit_count() for U in range(1 << s)])
        assert np.all(np.abs(g - f) <= fe[size][:, None] + 1e-12 * fv[size][:, None])

    def test_power_sum_vs_brute(self):
        # N[m] and the first-order term E[m] against sums over all
        # permutations of m elements, for every m <= 5
        p, e = [1.7, 0.6, 0.25, 0.1, 0.04], [3e-3, 1e-3, 5e-4, 2e-4, 1e-4]
        N, E = permutation_power_sum(p, e)
        assert np.array_equal(permutation_power_sum(p), N) and len(N) == len(E) == 6
        for m in range(6):
            brute_n = brute_e = 0.0
            for perm in permutations(range(m)):
                lengths, seen = [], set()
                for start in range(m):
                    size, cur = 0, start
                    while cur not in seen:
                        seen.add(cur)
                        size += 1
                        cur = perm[cur]
                    if size:
                        lengths.append(size)
                brute_n += math.prod(p[c - 1] for c in lengths)
                brute_e += sum(e[c - 1] * math.prod(p[o - 1] for o in lengths[:i] + lengths[i + 1:])
                               for i, c in enumerate(lengths))
            assert N[m] == pytest.approx(brute_n, rel=1e-12)
            assert E[m] == pytest.approx(brute_e, rel=1e-12, abs=0.0)

    def test_table_grid(self, sobolev):
        spec = KernelSpec(sobolev, PermStructure(3, (1, 3)))
        table, certs = power_kernel_table(spec, 8)
        assert table.shape == (2, 8) and certs.shape == (2,)
        for c in (1, 2):
            vals, cert = power_kernel(sobolev, c, np.arange(8) / 8)
            assert np.array_equal(table[c - 1], vals) and certs[c - 1] == cert
        # cached and read-only: every caller of one (space, n) shares the pair
        assert power_kernel_table(KernelSpec(sobolev, PermStructure(3, (1, 3))), 8)[0] is table
        assert not table.flags.writeable and not certs.flags.writeable
        assert power_kernel_table(KernelSpec(sobolev, PermStructure.empty(2)), 8)[0].shape == (1, 8)


def _src_references(name):
    """(file, line, top-level definition, is a call) for every node of the
    package source that names or calls ``name``; a call also counts its
    name."""
    src = Path(__file__).resolve().parents[1] / "src" / "permqmc"
    paths = sorted(src.glob("*.py"))
    assert len(paths) > 5
    refs = []
    for path in paths:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == name):
                    refs.append((path.name, node.lineno, owner, True))
                elif ((isinstance(node, ast.Name) and node.id == name)
                      or (isinstance(node, ast.Attribute) and node.attr == name)
                      or (isinstance(node, ast.alias) and node.name == name)):
                    refs.append((path.name, getattr(node, "lineno", top.lineno), owner, False))
    return refs


def test_one_mask_plan_in_the_package():
    """The masks of the exchangeable coordinates have one plan,
    kernels._mask_plan: one builder in kernels.py, read by _partition_sums
    and the CBC step alone, whose submask tables those two alone take, and
    no other walk over submasks in the package (no ``(sub - 1) & mask``
    step)."""
    src = Path(__file__).resolve().parents[1] / "src" / "permqmc"
    defs = [(path.name, node.name) for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and "maskplan" in node.name.lower().replace("_", "")]
    assert defs == [("kernels.py", "_MaskPlan"), ("kernels.py", "_mask_plan")]
    readers = sorted({(f, owner) for f, _, owner, call in _src_references("_mask_plan") if call})
    assert readers == [("errors.py", "cbc_step_objectives"), ("kernels.py", "_partition_sums")]
    tables = sorted({(f, owner) for f, _, owner, _ in _src_references("submasks")})
    assert tables == [("errors.py", "cbc_step_objectives"), ("kernels.py", "_partition_sums")]
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            # sub = (sub - 1) & mask: the per-mask submask walk
            assert not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
                        and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Sub)), \
                f"a submask walk at {path.name}:{node.lineno}"


@pytest.mark.parametrize("n, k", [(n, k) for n in (2, 3, 61, 127, 1009)
                                  for k in range(11 if n < 1009 else 8)])
def test_partition_sums_match_the_per_mask_recurrence(n, k):
    """The level plan's partition sums equal the per-mask recurrence of
    oracles.partition_sums_per_mask bitwise, on seeded tables and on
    generators with zeros and repeated values (k <= 7 at n = 1009)."""
    rng = np.random.default_rng([k, n])
    table = rng.normal(size=(max(1, k), n)) * 10.0 ** rng.integers(-3, 4, size=(max(1, k), 1))
    for zs in ([int(v) for v in rng.integers(0, n, size=k)],
               [0, *[int(v) for v in rng.integers(1, n, size=max(k - 1, 0))]][:k],
               [int(v) % n for v in rng.choice([0, 1, 7, 1 % n], size=k)]):
        f = _partition_sums(zs, n, table)
        assert f.shape == (1 << k, n)
        assert np.array_equal(f, partition_sums_per_mask(zs, n, table)), zs


def test_cosine_series_only_on_the_series_route():
    """The closed form is proven once, in the tests: the package evaluates
    the cosine series only in power_kernel's series branch."""
    refs = _src_references("_cosine_series")
    offenders = [f"{f}:{line}" for f, line, owner, _ in refs
                 if (f, owner) != ("kernels.py", "power_kernel")]
    assert not offenders, f"_cosine_series referenced at {offenders}"
    assert sum(call for *_, call in refs) == 1


def test_closed_route_evaluates_no_series(monkeypatch):
    def no_series(*args, **kwargs):
        raise AssertionError("cosine series evaluated on the closed route")

    kernels._cosine_poly_coeffs.cache_clear()
    kernels._cosine_closed_error.cache_clear()
    monkeypatch.setattr(kernels, "_cosine_series", no_series)
    t = np.arange(8) / 8
    for c in range(1, 9):
        vals, cert = power_kernel(SpectralWeight(), c, t)
        assert np.all(np.isfinite(vals)) and cert < 1e-13


# ---------------------------------------------------------------------------
# the one FFT correlation helper
# ---------------------------------------------------------------------------

def _direct_correlation(x, y):
    """sum_p x[p] * y[(p + tau) mod L] by the O(L^2) definition."""
    return np.array([np.dot(x, np.roll(y, -tau)) for tau in range(len(x))])


class TestCyclicCorrelation:
    @pytest.mark.parametrize("L", list(range(1, 71)) + [97, 251, 509, 1009])
    def test_matches_direct_sum_within_bound(self, L):
        rng = np.random.default_rng(L)
        x, y = rng.standard_normal(L), rng.uniform(-1.0, 1.0, L)
        # the long double reference errs far below the bound
        for xx in (x, y):
            ref = _direct_correlation(xx.astype(np.longdouble), y.astype(np.longdouble))
            r, err = kernels._cyclic_correlation(y)(xx)
            assert r.shape == (L,)
            assert float(np.sqrt(np.sum((r - ref) ** 2))) <= err

    @pytest.mark.parametrize("m", range(1, 19))
    def test_exact_integer_correlation_within_bound(self, m, fft_lengths):
        # N = 2^m serves L = 2^(m-2) + 1 .. 2^(m-1); x has at most 64
        # nonzeros, so the exact int64 correlation is O(64 L)
        N = 1 << m
        for L in sorted({max(1, N // 4 + 1), N // 2}):
            rng = np.random.default_rng([m, L])
            y = rng.integers(-1000, 1001, L)
            x = np.zeros(L, dtype=np.int64)
            support = rng.choice(L, size=min(L, 64), replace=False)
            x[support] = rng.integers(-1000, 1001, support.size)
            exact = np.zeros(L, dtype=np.int64)
            for p in support:
                exact += x[p] * np.roll(y, -p)
            fft_lengths.clear()
            r, err = kernels._cyclic_correlation(y.astype(float))(x.astype(float))
            assert fft_lengths == [N, N, N]
            observed = float(np.sqrt(np.sum((r - exact) ** 2)))
            assert observed <= err, (L, observed, err)

    def test_autocorrelation_transforms_once(self, fft_lengths):
        y = np.arange(5.0)
        r, _ = kernels._cyclic_correlation(y)(y)
        assert fft_lengths == [16, 16]
        assert np.allclose(r, _direct_correlation(y, y))

    def test_rho_refuses_other_lengths(self):
        assert kernels._fft_rho(1) < kernels._fft_rho(2) < kernels._fft_rho(1 << 20) < 1e-13
        for N in (0, 3, 1008, 100002):
            with pytest.raises(ValueError, match="power of two"):
                kernels._fft_rho(N)

    def test_every_fft_of_the_package_has_power_of_two_length(self, fft_lengths):
        from permqmc.cbc import cbc_construct
        from permqmc.errors import worst_case_error_sq

        w = SpectralWeight()
        # n - 1 = 1008 = 2^4 3^2 7 is smooth and 2038 = 2 1019 is not: unpadded,
        # numpy would run the first mixed-radix and the second by Bluestein
        for d, n in [(4, 1009), (3, 2039), (3, 2)]:
            cbc_construct(KernelSpec(w, PermStructure.full(d)), n)
        for d, inv, n, z in [(3, (1, 2, 3), 1009, (1, 286, 53)), (2, (1, 2), 2039, (1, 40)),
                             (4, (2, 3), 101, (1, 40, 7, 33))]:
            rule = LatticeRule(n, z, tuple(0.1 + 0.17 * i for i in range(d)))
            rep = worst_case_error_sq(rule, KernelSpec(w, PermStructure(d, inv)))
            assert rep.details["route"] == "lattice-fft"
        assert len(fft_lengths) > 20
        assert all(N >= 2 and N & (N - 1) == 0 for N in fft_lengths), sorted(set(fft_lengths))
