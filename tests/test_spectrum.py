import heapq
import math
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from permqmc import weights
from permqmc.kernels import KernelSpec, symmetrized_mass
from permqmc.spectrum import (
    EigenSpectrum,
    c_prime,
    rate_constants,
    spectrum_tail_constants,
    univariate_labeled,
)
from permqmc.symmetry import PermStructure
from permqmc.weights import (GeneratorSpec, SpectralWeight, eta_star, min_contraction_order,
                             r_weight_inv_factors)

from oracles import all_successor_stream, check_min_order_matches_linear_scan, stream_entries

STREAM_WEIGHTS = {
    "korobov": SpectralWeight(),
    "plain": SpectralWeight(generator=GeneratorSpec("plain_linear")),
    # R(1) = R(2): frequencies +-1 and +-2 tie in the univariate list
    "tied": SpectralWeight(generator=GeneratorSpec("custom", table=(2.0, 2.0), slope=1.0), c_R=2.0),
    "beta": SpectralWeight(beta0=0.5, beta1=2.0),
}
# no, partial (one of them not contiguous) and full invariance per d
STREAM_GRID = [(d, inv) for d in (1, 2, 3, 5, 8, 12)
               for inv in ((), {3: (1, 3), 5: (2, 4, 5), 8: (2, 4, 5), 12: (1, 2, 3, 4)}.get(d),
                           tuple(range(1, d + 1)))
               if inv is not None]


class TestUnivariate:
    def test_values_and_multiplicity_pattern(self, sobolev):
        ev = [lam for lam, _ in univariate_labeled(sobolev, 7)]
        expect = [1.0]
        for m in (1, 1, 2, 2, 3, 3):
            expect.append(1.0 / (2 * math.pi * m) ** 2)
        assert np.allclose(ev, expect, rtol=1e-14)

    def test_trace_identity(self, sobolev):
        # sum of all univariate eigenvalues is the univariate mass
        ev = np.array([lam for lam, _ in univariate_labeled(sobolev, 100_001)])
        from permqmc.weights import spectral_mass

        mass = spectral_mass(sobolev, 1.0)
        assert mass.lo - np.sum(ev) < 1e-5
        assert np.sum(ev) < mass.hi

    def test_unsorted_weights_are_sorted(self):
        # beta1 large: oscillatory modes overtake the constant one
        w = SpectralWeight(beta1=80.0)
        lab = univariate_labeled(w, 4)
        assert lab[0][1] in (1, -1)
        vals = [v for v, _ in lab]
        assert vals == sorted(vals, reverse=True)


def enumerate_products_above(univ, d, inv0, threshold):
    """All admissible index tuples with eigenvalue product above the threshold,
    by depth-first search with monotone pruning (independent of the heap)."""
    inv_set = set(inv0)
    out = []

    def rec(pos, min_inv_idx, prod, label):
        if pos == d:
            out.append(prod)
            return
        start = min_inv_idx if pos in inv_set else 0
        idx = start
        while idx < len(univ):
            p = prod * univ[idx]
            if p <= threshold:
                break  # univ is non-increasing, further indices only shrink
            rec(pos + 1, idx if pos in inv_set else min_inv_idx, p, label + (idx,))
            idx += 1

    rec(0, 0, 1.0, ())
    return np.sort(np.asarray(out))[::-1]


class TestMultivariate:
    @pytest.mark.parametrize("inv", [(), (1, 2), (1, 2, 3)])
    def test_heap_matches_dfs_oracle(self, sobolev, inv):
        d = 3
        spec = KernelSpec(sobolev, PermStructure(d, inv))
        es = EigenSpectrum(spec)
        m = 200
        got = stream_entries(es, m + 50)[0]
        # threshold strictly between rank m and the next distinct value
        smaller = got[got < got[m - 1] * (1 - 1e-9)]
        threshold = math.sqrt(got[m - 1] * smaller[0])
        univ = np.array([lam for lam, _ in univariate_labeled(sobolev, 3000)])
        assert univ[-1] < threshold  # oracle's univariate list long enough
        inv0 = [i - 1 for i in inv]
        brute = enumerate_products_above(univ, d, inv0, threshold)
        heap_vals = got[got > threshold]
        assert len(brute) == len(heap_vals)
        assert np.allclose(heap_vals, brute, rtol=1e-12)

    @pytest.mark.parametrize("weight", sorted(STREAM_WEIGHTS))
    @pytest.mark.parametrize("d, inv", STREAM_GRID)
    def test_stream_matches_all_successor_heap(self, d, inv, weight):
        # bitwise, values and labels; at d <= 2 some index passes the
        # univariate table's first 64 entries, so the table grows
        spec = KernelSpec(STREAM_WEIGHTS[weight], PermStructure(d, inv))
        m = 1000 if d <= 2 else 300
        values, labels, _ = all_successor_stream(spec, m)
        es = EigenSpectrum(spec)
        got_values, got_labels = stream_entries(es, m)
        assert got_values.tobytes() == np.asarray(values).tobytes()
        assert got_labels == labels
        if d <= 2:
            assert len(es._univ) > 64

    def test_each_tuple_pushed_once(self, monkeypatch):
        spec = KernelSpec(SpectralWeight(), PermStructure(12, (1, 2, 3, 4)))
        pops = 20_000
        reference_heap = all_successor_stream(spec, pops)[2]
        pushed, push = [], heapq.heappush

        def counted(heap, item):
            pushed.append(item[1])
            push(heap, item)

        monkeypatch.setattr(heapq, "heappush", counted)
        es = EigenSpectrum(spec)
        es.ensure(pops)
        # the zero tuple starts the heap; every other tuple is pushed
        assert 1 + len(pushed) == pops + len(es._heap)
        assert len(set(pushed)) == len(pushed)
        assert len(es._heap) <= reference_heap // 2

    def test_top_eigenvalue_is_constant_mode(self, sobolev):
        spec = KernelSpec(sobolev, PermStructure.full(4))
        es = EigenSpectrum(spec)
        assert es.entry(0) == (pytest.approx(1.0), (0, 0, 0, 0))

    def test_labels_are_canonical_and_match_values(self, spec_d2_full):
        es = EigenSpectrum(spec_d2_full)
        for lam, label in zip(*stream_entries(es, 50)):
            assert list(label) == sorted(label)
            assert lam == pytest.approx(np.prod(r_weight_inv_factors(label, spec_d2_full.weight)),
                                        rel=1e-12)

    def test_partial_sums_below_trace(self, spec_d3_full):
        es = EigenSpectrum(spec_d3_full)
        t = es.trace
        prev = 0.0
        for m in (10, 100, 1000):
            p = es.partial_sum(m)
            assert prev <= p <= t.hi
            prev = p
        assert es.tail_after(1000).hi < t.hi - es.partial_sum(10) + 1e-12


class TestTailConstants:
    def test_decay_bound_on_enumerated_spectrum(self, sobolev):
        for inv in [(), (1, 2), (1, 2, 3)]:
            spec = KernelSpec(sobolev, PermStructure(3, inv))
            es = EigenSpectrum(spec)
            for tau in (1.5, 1.8):
                tc = spectrum_tail_constants(spec, tau)
                for m in range(0, 1001, 125):
                    assert es.tail_after(m).hi <= tc.C_d.lo / (m + 1) ** tc.p_d * (1 + 1e-9)

    def test_power_sum_vs_enumeration(self, spec_d2_full):
        tau = 1.4
        tc = spectrum_tail_constants(spec_d2_full, tau)
        es = EigenSpectrum(spec_d2_full)
        partial = float(np.sum(stream_entries(es, 20000)[0] ** (1.0 / tau)))
        power_sum = symmetrized_mass(spec_d2_full, tau)
        assert tc.C_d.hi == power_sum.power(tau).scale(2.0 ** (tau - 1.0) / (tau - 1.0)).hi
        assert partial < power_sum.hi
        assert power_sum.lo - partial < 0.15  # slow tail at alpha = 1

    def test_small_beta1_gives_zero_offset(self):
        # the paper's tail offset U* and its rho*, at tau = 1.5
        w = SpectralWeight(beta1=1e-3)
        assert min_contraction_order(w, tau=1.5) == 0
        assert eta_star(w, 0, 1.5).hi < 1.0

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("beta1", [1e-3, 0.3, 1.0, 30.0, 1e4])
    def test_offset_search_matches_linear_scan(self, alpha, beta1):
        # the paper's tail offset U* over the whole range of tau
        w = SpectralWeight(alpha=alpha, beta1=beta1)
        for tau in np.linspace(1.05, 2.0 * alpha - 0.05, 6):
            check_min_order_matches_linear_scan(w, tau)

    def test_failed_offset_search_is_logarithmic(self, monkeypatch):
        # where no U* <= 100000 exists, at tau = 1.9, the search fails in
        # O(log V) evaluations
        calls = []
        real = weights.eta_star

        def counting(w, V=0, tau=1.0):
            calls.append(V)
            return real(w, V, tau)

        monkeypatch.setattr(weights, "eta_star", counting)
        with pytest.raises(RuntimeError, match="no contraction order found up to V = 100000"):
            min_contraction_order(SpectralWeight(beta1=1e12), tau=1.9)
        assert max(calls) == 100_000
        assert len(calls) <= 2 * math.ceil(math.log2(100_000 + 2))

    def test_constants_at_every_tau(self):
        # the chain reads p_d and C_d only: they exist for every tau in
        # (1, 2 alpha), also where no U* <= 100000 does
        spec = KernelSpec(SpectralWeight(beta1=1e12), PermStructure.full(2))
        for tau in (1.5, 1.9, 1.99):
            tc = spectrum_tail_constants(spec, tau)
            assert tc.p_d == tau - 1.0 and 0.0 < tc.C_d.lo <= tc.C_d.hi < math.inf

    def test_c_prime_values(self):
        assert c_prime(2.0) == pytest.approx(256.0)
        for tau in np.linspace(1.003, 2.04, 25):
            assert c_prime(tau) <= 350.0

    def test_invalid_tau(self, spec_d2_full):
        with pytest.raises(ValueError):
            spectrum_tail_constants(spec_d2_full, 2.0)  # tau = 2 alpha diverges


class TestSortedTupleBound:
    def test_chain_inequality(self, sobolev):
        # the sorted-tuple power sum is bounded by the geometric-series form
        spec = KernelSpec(sobolev, PermStructure.full(3))
        tau = 1.5
        tc = spectrum_tail_constants(spec, tau)
        s = 3
        univ = np.array([lam for lam, _ in univariate_labeled(sobolev, 150)]) ** (1.0 / tau)
        sorted_sum = 0.0
        for idx in combinations_with_replacement(range(len(univ)), s):
            sorted_sum += float(np.prod(univ[list(idx)]))
        lam1 = univ[0]
        for U in (0, 1, 2):
            rho = eta_star(spec.weight, U, tau).hi
            geo = sum(rho ** L for L in range(s + 1))
            bound = lam1 ** s * s ** (2 * U) * (2 * U + geo)
            assert sorted_sum <= bound * (1 + 1e-9)

    def test_equality_at_zero_offset(self):
        # with no offset the split into leading-ones blocks is an identity
        rng = np.random.default_rng(3)
        sigma = np.sort(rng.uniform(0.01, 1.0, size=12))[::-1]
        sigma[0] = sigma.max()
        for s in (2, 3, 4, 5):
            lhs = 0.0
            for idx in combinations_with_replacement(range(len(sigma)), s):
                lhs += float(np.prod(sigma[list(idx)]))
            rhs_inner = 1.0
            for L in range(1, s + 1):
                inner = 0.0
                for idx in combinations_with_replacement(range(1, len(sigma)), L):
                    inner += float(np.prod(sigma[list(idx)]))
                rhs_inner += sigma[0] ** (-L) * inner
            rhs = sigma[0] ** s * rhs_inner
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestRateConstants:
    def test_monte_carlo_rate(self):
        rc = rate_constants(1.0)
        assert rc.c_p == 16.0
        assert rc.K_p == 4
        assert rc.y_p == 1.0

    def test_quadratic_rate(self):
        rc = rate_constants(2.0)
        assert rc.c_p == pytest.approx(432.0)
        assert rc.K_p == math.floor(math.log2(12 * math.sqrt(3))) == 4

    def test_omega_exceeds_one(self):
        for p in (0.3, 0.5, 1.0, 2.0, 3.5):
            rc = rate_constants(p)
            assert rc.omega_y > 1.0
            # K_p is the last level the threshold admits
            thr = 2.0 ** (p + 1) * rc.omega_y ** (1 + 1 / p)
            assert 2.0 ** rc.K_p <= thr < 2.0 ** (rc.K_p + 1)
