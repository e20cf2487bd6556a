"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""
import math
import time
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np
import pytest

from permqmc.approx import SymmetricBasis, assemble_rule, build_approx_sequence
from permqmc.cbc import cbc_construct, shift_search
from permqmc.errors import (
    bound_constant,
    cbc_step_objectives,
    mean_sq_error,
    worst_case_error_sq,
    worst_case_error_sq_spectral,
)
from permqmc.kernels import KernelSpec, kernel_perminv_gram
from permqmc.lattice import LatticeRule
from permqmc.spectrum import EigenSpectrum, rate_constants, spectrum_tail_constants
from permqmc.symmetry import PermStructure, permanent_batch
from permqmc.weights import SpectralWeight, eta_star

from oracles import gaussian_average_error_sq


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def all_invariant_sets(d: int):
    for size in range(d + 1):
        yield from combinations(range(1, d + 1), size)


def test_criterion_01_permanent_oracle():
    """Ryser permanents match the naive factorial sum to 1e-12 relative."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(200):
        s = int(rng.integers(1, 8))
        A = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
        naive = sum(np.prod([A[p[i], i] for i in range(s)]) for p in permutations(range(s)))
        rel = abs(permanent_batch(A[None])[0] - naive) / max(abs(naive), 1e-300)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-12 and elapsed < 5.0,
            f"200 permanents s<=7, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_kernel_route_agreement():
    """Closed-form/permanent kernel vs certified truncated series, cert <= 1e-8."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_gap, worst_cert = 0.0, 0.0
    checked = 0
    for trial in range(50):
        d = int(rng.integers(1, 5))
        size = int(rng.integers(0, min(d, 4) + 1))
        inv = tuple(sorted(rng.choice(np.arange(1, d + 1), size=size, replace=False).tolist()))
        alpha = 1.0 if trial % 2 == 0 else 2.0
        w = SpectralWeight(alpha=alpha)
        ps = PermStructure(d, inv)
        closed = KernelSpec(w, ps)
        series = KernelSpec(w, ps, mode="spectral", tol=2e-10)
        x = rng.uniform(size=(1, d))
        y = rng.uniform(size=(1, d))
        a, ca = kernel_perminv_gram(x, y, closed)
        b, cb = kernel_perminv_gram(x, y, series)
        gap = abs(float(a[0, 0] - b[0, 0]))
        cert = ca + cb
        worst_gap = max(worst_gap, gap - cert)
        worst_cert = max(worst_cert, cert)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 0.0 and worst_cert <= 1e-8 and elapsed < 30.0
    _report(2, ok, f"{checked} pairs agree within certificates (max cert "
                   f"{worst_cert:.2e}), {elapsed:.1f}s")


def test_criterion_03_error_identity():
    """Per-coordinate decomposition sums to the shift-averaged squared error."""
    t0 = time.perf_counter()
    w = SpectralWeight()
    worst_slack = -math.inf
    worst_tight = 0.0
    configs = 0
    for d in (1, 2, 3):
        for inv in all_invariant_sets(d):
            spec = KernelSpec(w, PermStructure(d, inv))
            for n in (5, 13, 31):
                z = [1] + [(3 * i + n // 2) % n for i in range(1, d)]
                total, bcert = 0.0, 0.0
                for ell in range(d):
                    vals, cert, _ = cbc_step_objectives(z[:ell], n, spec)
                    total += float(vals[z[ell] % n])
                    bcert += cert
                total *= w.beta0 ** d
                rule = LatticeRule(n, tuple(z))
                spectral = worst_case_error_sq_spectral(rule, spec, half_width=40)[1]
                exact = mean_sq_error(rule, spec)
                combined = spectral.truncation_certificate + bcert * w.beta0 ** d
                worst_slack = max(worst_slack, abs(total - spectral.value) - combined)
                worst_tight = max(worst_tight,
                                  abs(total - exact.value) / max(exact.value, 1e-300))
                configs += 1
    elapsed = time.perf_counter() - t0
    ok = worst_slack <= 0.0 and worst_tight < 1e-9 and elapsed < 120.0
    _report(3, ok, f"{configs} configs: dual-sum within certificates, exact "
                   f"route rel diff {worst_tight:.1e}, {elapsed:.1f}s")


def test_criterion_04_eta_star_constant():
    """Smoothness-1 well-scaled space: eta* = 1/12 and (1-eta*)^(-1/2) <= 1.05."""
    enc = eta_star(SpectralWeight(), 0)
    ok = abs(enc.mid - 1.0 / 12.0) <= 1e-10 and (1.0 - enc.hi) ** -0.5 <= 1.05
    _report(4, ok, f"eta* = {enc.mid:.12f} (target 1/12), amplification "
                   f"{(1.0 - enc.hi) ** -0.5:.4f} <= 1.05")


def test_criterion_05_cbc_vs_exhaustive():
    """Constructed components equal fresh exhaustive argmins exactly."""
    t0 = time.perf_counter()
    w = SpectralWeight()
    ok = True
    for d, n_list in ((2, (5, 13)), (3, (5,))):
        spec = KernelSpec(w, PermStructure.full(d))
        for n in n_list:
            res = cbc_construct(spec, n)
            z = list(res.rule.z)
            for ell in range(2, d + 1):
                fresh = cbc_step_objectives(z[:ell - 1], n, spec)[0]
                ok &= int(np.argmin(fresh)) == z[ell - 1]
            # at the last step the per-step argmin attains the global error
            # minimum (conjugate generators tie exactly, so compare values)
            errors = [
                mean_sq_error(LatticeRule(n, tuple(z[:-1] + [cand])), spec).value
                for cand in range(n)
            ]
            ok &= errors[z[-1]] <= min(errors) * (1 + 1e-12)
    elapsed = time.perf_counter() - t0
    _report(5, ok and elapsed < 60.0,
            f"per-step argmins match exhaustive rescans exactly, {elapsed:.1f}s")


def test_criterion_06_certified_bound():
    """Shift-averaged error beats (1+c_R) * C_{d,1} * max(1,#I) / n, certified."""
    t0 = time.perf_counter()
    w = SpectralWeight()
    checked = 0
    ok = True
    for d in (1, 2, 3, 4):
        variants = {(), tuple(range(1, d + 1))}
        if d >= 3:
            variants.add(tuple(range(1, d)))
        for inv in variants:
            spec = KernelSpec(w, PermStructure(d, inv))
            C = bound_constant(spec, 1.0)
            for n in (17, 61, 127, 251):
                res = cbc_construct(spec, n)
                bound_lo = (1.0 + w.c_R) * C.lo * max(1, len(inv)) / n
                ok &= res.achieved_E2 + res.achieved_E2_certificate < bound_lo
                checked += 1
    elapsed = time.perf_counter() - t0
    _report(6, ok and elapsed < 600.0,
            f"{checked} constructions strictly below the certified bound, {elapsed:.1f}s")


def test_criterion_07_shift_certification(monkeypatch):
    """128-trial shift search beats the shift average in >= 95% of 40 runs."""
    monkeypatch.setattr("permqmc.cbc.MAX_DOUBLINGS", 0)   # the first 128 trials only
    t0 = time.perf_counter()
    spec = KernelSpec(SpectralWeight(), PermStructure.full(2))
    rule = cbc_construct(spec, 31).rule
    E2 = mean_sq_error(rule, spec).value
    hits = 0
    for seed in range(40):
        res = shift_search(rule, spec, trials=128, seed=seed)
        if res.e2_shifted <= E2:
            hits += 1
    elapsed = time.perf_counter() - t0
    _report(7, hits >= 38 and elapsed < 120.0,
            f"{hits}/40 seeded searches certified (need >= 38), {elapsed:.1f}s")


def test_criterion_08_convergence_rate():
    """log-log slope of the shift-averaged error over n is at most -1.3."""
    t0 = time.perf_counter()
    spec = KernelSpec(SpectralWeight(), PermStructure.full(3))
    ns = [17, 31, 61, 127, 251]
    errs = [cbc_construct(spec, n).achieved_E2 for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    _report(8, slope <= -1.3 and elapsed < 600.0,
            f"slope {slope:.3f} <= -1.3 over primes {ns}, {elapsed:.1f}s")


def test_criterion_09_rate_constants():
    """Bootstrap constants: c(1)=16, K_1=4 (first level 5, <=16 samples), c(2)=432, K_2=4."""
    rc1 = rate_constants(1.0)
    rc2 = rate_constants(2.0)
    spec = KernelSpec(SpectralWeight(alpha=2.0), PermStructure.full(2))
    algs = build_approx_sequence(spec, 2.0, rc1.K_p + 1, seed=17)
    first = algs[rc1.K_p + 1]
    ok = (
        rc1.c_p == 16.0
        and rc1.K_p == 4
        and rc2.c_p == 432.0
        and rc2.K_p == math.floor(math.log2(12 * math.sqrt(3))) == 4
        and first.level == 5
        and 1 <= first.n_samples <= 16
        and all(a.m == 0 for a in algs[: rc1.K_p + 1])
    )
    _report(9, ok, "c(1)=16, K_1=4, c(2)=432, K_2=4; first nontrivial level 5 "
                   f"uses {first.n_samples} <= 16 samples")


def test_criterion_10_bootstrap_bound():
    """Every level k <= K_p + 4 satisfies the slacked doubling bound (p = 1)."""
    t0 = time.perf_counter()
    delta = 0.5
    spec = KernelSpec(SpectralWeight(alpha=2.0), PermStructure.full(2))
    tc = spectrum_tail_constants(spec, 2.0)
    rc = rate_constants(tc.p_d)
    assert rc.p == 1.0
    algs = build_approx_sequence(spec, 2.0, rc.K_p + 4, delta=delta, seed=23,
                                 constants=tc)
    ok = True
    worst = 0.0
    for alg in algs:
        bound = (1.0 + delta) ** (tc.p_d + 1.0) * rc.c_p * tc.C_d.hi * 2.0 ** (-alg.level * tc.p_d)
        ok &= alg.e_avg_sq <= bound and alg.certified
        worst = max(worst, alg.e_avg_sq / bound)
    elapsed = time.perf_counter() - t0
    _report(10, ok and elapsed < 900.0,
            f"levels 0..{rc.K_p + 4} certified, worst ratio to slacked bound "
            f"{worst:.3f}, {elapsed:.1f}s")


def test_criterion_11_master_cross_check():
    """Kernel-formula error equals the spectral Gaussian-average form, 1e-8 rel."""
    t0 = time.perf_counter()
    cases = [
        (SpectralWeight(alpha=2.0), 1, (), 16, 2.0),
        (SpectralWeight(alpha=2.0), 2, (1, 2), 32, 2.0),
        (SpectralWeight(alpha=2.0), 2, (1, 2), 64, 2.0),
        (SpectralWeight(alpha=2.0), 3, (1, 2, 3), 32, 2.0),
        (SpectralWeight(alpha=2.0), 3, (1, 2), 64, 2.0),
        (SpectralWeight(), 1, (), 8, 1.5),
        (SpectralWeight(), 2, (1, 2), 16, 1.5),
        (SpectralWeight(), 2, (1, 2), 64, 1.5),
        (SpectralWeight(), 3, (1, 2, 3), 16, 1.5),
        (SpectralWeight(), 3, (1, 2, 3), 64, 1.5),
    ]
    worst_rel = 0.0
    ok = True
    for i, (w, d, inv, N, tau) in enumerate(cases):
        spec = KernelSpec(w, PermStructure(d, inv))
        res = assemble_rule(spec, tau, N, seed=31 + i)
        kernel = worst_case_error_sq(res.cubature, spec)
        gauss = gaussian_average_error_sq(res.cubature, spec, 5000)
        rel = abs(gauss.value - kernel.value) / max(kernel.value, 1e-300)
        worst_rel = max(worst_rel, rel)
        ok &= rel <= 1e-8
        ok &= abs(gauss.top_value - kernel.value) <= gauss.independent_certificate
    elapsed = time.perf_counter() - t0
    _report(11, ok and elapsed < 600.0,
            f"10 assembled rules, worst relative gap {worst_rel:.2e} <= 1e-8, "
            f"{elapsed:.1f}s")


def test_criterion_12_spectral_tail_assumption():
    """Enumerated spectral tails obey the derived decay constants.

    The derived constants are finite only for tau < 2*alpha, so tau = 2 is
    checked on the smoothness-2 space and is a domain error at smoothness 1.
    """
    t0 = time.perf_counter()
    ok = True
    for tau, alpha in ((1.5, 1.0), (2.0, 2.0)):
        w = SpectralWeight(alpha=alpha)
        for d in (1, 2, 3):
            spec = KernelSpec(w, PermStructure.full(d))
            tc = spectrum_tail_constants(spec, tau)
            es = EigenSpectrum(spec)
            es.ensure(1001)
            for m in range(0, 1001):
                if es.tail_after(m).hi > tc.C_d.lo / (m + 1) ** tc.p_d * (1 + 1e-9):
                    ok = False
                    break
    # tau = 2 alpha makes the constant diverge and must be rejected
    with pytest.raises(ValueError):
        spectrum_tail_constants(KernelSpec(SpectralWeight(), PermStructure.full(2)), 2.0)
    elapsed = time.perf_counter() - t0
    _report(12, ok, "tails <= C_d/(m+1)^p_d for m <= 1000, tau in {1.5, 2} on "
                    f"admissible spaces; divergent pair rejected, {elapsed:.1f}s")


def test_criterion_13_appendix_properties():
    """Power-sum comparison and sorted-tuple split: zero violations."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1301)
    violations = 0
    for _ in range(1000):
        a = rng.uniform(0.0, 2.0, size=int(rng.integers(1, 25)))
        q = float(rng.uniform(0.1, 2.0))
        p = float(rng.uniform(q, 4.0))
        lhs = float(np.sum(a ** p)) ** (1.0 / p)
        rhs = float(np.sum(a ** q)) ** (1.0 / q)
        if lhs > rhs * (1 + 1e-12) + 1e-12:
            violations += 1
    # sorted-tuple bound with equality at zero offset, brute force s <= 5
    for s in (2, 3, 4, 5):
        sigma = np.sort(rng.uniform(0.01, 1.0, size=10))[::-1]
        lhs = sum(
            float(np.prod(sigma[list(idx)]))
            for idx in combinations_with_replacement(range(len(sigma)), s)
        )
        inner = 1.0
        for L in range(1, s + 1):
            inner += sigma[0] ** float(-L) * sum(
                float(np.prod(sigma[list(idx)]))
                for idx in combinations_with_replacement(range(1, len(sigma)), L)
            )
        rhs = sigma[0] ** s * inner
        if abs(lhs - rhs) > 1e-10 * rhs:
            violations += 1
        for U in (1, 2, 3):
            # inequality form with positive offsets
            tail = [x for x in sigma[2 * (U + 1) - 1:]]
            geo = 1.0 + 2 * U
            for L in range(1, s + 1):
                geo += sum(
                    float(np.prod([tail[i] / sigma[0] for i in idx]))
                    for idx in combinations_with_replacement(range(len(tail)), L)
                )
            bound = sigma[0] ** s * s ** (2 * U) * geo
            if lhs > bound * (1 + 1e-12):
                violations += 1
    elapsed = time.perf_counter() - t0
    _report(13, violations == 0 and elapsed < 60.0,
            f"0 violations across 1000 power-sum draws and s <= 5 splits, {elapsed:.1f}s")


def test_tractability_trend_experiment():
    """No pass/fail threshold: print the scaled error against dimension,
    and its ratio to the constant (probing whether the max(1,#I) factor in
    the certified bound is saturated)."""
    rows = []
    n = 61
    for d in (1, 2, 3, 4):
        spec = KernelSpec(SpectralWeight(), PermStructure.full(d))
        res = cbc_construct(spec, n)
        C = bound_constant(spec, 1.0).mid
        rows.append((d, res.achieved_E2 * n, res.achieved_E2 * n / C))
    print("TREND  E2*n at n=61, full invariance:",
          "  ".join(f"d={d}: {v:.5f} (ratio to constant {r:.4f})" for d, v, r in rows))
