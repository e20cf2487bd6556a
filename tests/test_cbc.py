import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permqmc import errors
from permqmc.cbc import cbc_construct, construct_shifted, shift_search
from permqmc.cli import EXIT_CONFIG, main
from permqmc.errors import bound_constant, cbc_step_objectives, mean_sq_error, worst_case_error_sq
from permqmc.kernels import KernelSpec, power_kernel_table
from permqmc.lattice import LatticeRule, is_prime
from permqmc.symmetry import PermStructure, _gamma
from permqmc.weights import SpectralWeight

from oracles import restriction_constant, set_partitions


def reference_step_objectives(prefix, n, spec, tables, dtype=np.float64):
    """Brute-force CBC step objective, for small n only.

    Enumerates every coordinate subset u containing the candidate coordinate
    and every partition of u into exchange blocks (only invariant coordinates
    share a block), and gathers the candidate block's kernel through an n x n
    index array: O(n^2) per (subset, partition) pair.  The certificate puts
    one block at its table certificate and the others at their maxima.
    ``dtype`` is the arithmetic of the sums (the table is taken as exact).
    """
    ell = len(prefix) + 1
    ps = spec.perm
    invariant = set(ps.invariant)
    table, tcerts = np.asarray(tables[0], dtype=dtype), tables[1]
    tmax = np.max(np.abs(table), axis=1) + tcerts
    j = np.arange(n, dtype=np.int64)
    cand = np.arange(n, dtype=np.int64)
    zs = {c: int(prefix[c - 1]) % n for c in range(1, ell)}
    total = np.zeros(n, dtype=dtype)
    cert = 0.0
    for mask in range(1 << (ell - 1)):
        subset = tuple(c for c in range(1, ell) if mask >> (c - 1) & 1) + (ell,)
        c_u = restriction_constant(subset, ps, spec.weight.beta0)
        inv = [c for c in subset if c in invariant]
        norm = dtype(1) / (dtype(c_u) * math.factorial(len(inv)) * n)
        for part in set_partitions(len(inv)):
            blocks = [tuple(inv[i] for i in blk) for blk in part]
            blocks += [(c,) for c in subset if c not in invariant]
            rest = np.ones(n, dtype=dtype)
            weight = 1.0
            for blk in blocks:
                weight *= math.factorial(len(blk) - 1)
                if ell in blk:
                    cand_block = blk
                    continue
                S = sum(zs[c] for c in blk) % n
                rest = rest * table[len(blk) - 1][(j * S) % n]
            S_rest = sum(zs[c] for c in cand_block if c != ell) % n
            idx = (np.multiply.outer(j, (S_rest + cand) % n)) % n
            total += weight * norm * (rest @ table[len(cand_block) - 1][idx])
            sizes = [len(b) for b in blocks]
            prod_max = np.prod([tmax[s - 1] for s in sizes])
            c_term = sum(tcerts[s - 1] / tmax[s - 1] * prod_max if tmax[s - 1] > 0 else 0.0
                         for s in sizes)
            cert += weight * norm * n * c_term
    return total, cert


# one prime n for each padded FFT length N = 2^ceil(log2 2(n - 1)) from 2 to 4096
PADDED_LENGTH_PRIMES = {2: 2, 4: 3, 8: 5, 16: 7, 32: 11, 64: 31, 128: 61, 256: 127,
                        512: 257, 1024: 509, 2048: 1021, 4096: 1031}


@st.composite
def step_cases(draw):
    n = draw(st.sampled_from(sorted({p for p in range(2, 62) if is_prime(p)}
                                    | set(PADDED_LENGTH_PRIMES.values()))))
    # the O(n^2)-per-partition reference limits d at the larger n
    d = draw(st.integers(1, 5 if n < 62 else 3))
    inv = tuple(c for c in range(1, d + 1) if draw(st.booleans()))
    ell = draw(st.integers(1, d))
    prefix = draw(st.lists(st.integers(0, n - 1), min_size=ell - 1, max_size=ell - 1))
    return n, PermStructure(d, inv), prefix


class TestFastStep:
    @settings(max_examples=60, deadline=None)
    @given(step_cases())
    def test_matches_reference_within_certificates(self, case):
        n, ps, prefix = case
        spec = KernelSpec(SpectralWeight(), ps)
        vals, cert, (z, value, value_cert) = cbc_step_objectives(prefix, n, spec)
        ref, ref_cert = reference_step_objectives(prefix, n, spec, power_kernel_table(spec, n))
        assert vals.shape == (n,)
        assert np.max(np.abs(vals - ref)) <= cert + ref_cert
        assert cert >= ref_cert
        # the direct value at the argmin, with no FFT term in its certificate
        assert z == int(np.argmin(vals))
        assert abs(value - ref[z]) <= value_cert + ref_cert
        assert value_cert >= ref_cert

    @pytest.mark.parametrize("N, n", sorted(PADDED_LENGTH_PRIMES.items()))
    def test_every_padded_length(self, N, n, fft_lengths):
        spec = KernelSpec(SpectralWeight(), PermStructure.full(3))
        prefix = [1, 2 % n]
        vals, cert, _ = cbc_step_objectives(prefix, n, spec)
        ref, ref_cert = reference_step_objectives(prefix, n, spec, power_kernel_table(spec, n))
        assert set(fft_lengths) == {N}
        assert np.max(np.abs(vals - ref)) <= cert + ref_cert

    @pytest.mark.parametrize("inv", [(1, 3), (2, 3), (), (1, 2, 3)])
    def test_step_two_orbits(self, inv):
        n, a = 61, 7
        spec = KernelSpec(SpectralWeight(), PermStructure(3, inv))
        vals, _, _ = cbc_step_objectives([a], n, spec)
        ref, _ = reference_step_objectives([a], n, spec, power_kernel_table(spec, n))
        z = np.arange(n)
        tied = (z != 0) & (z != a) & (z != n - a)
        inverse = np.array([pow(int(v), n - 2, n) for v in z])
        swap = a * a * inverse % n
        images = [-z % n, swap, -swap % n]
        scale = np.max(np.abs(ref))
        for img in images:
            assert np.max(np.abs(ref - ref[img])[tied]) <= 1e-13 * scale
            assert np.array_equal(vals[tied], vals[img][tied])
        best = int(np.argmin(vals))
        orbit = {best} | {int(img[best]) for img in images}
        assert best == min(orbit)

    @pytest.mark.parametrize("d, inv, n", [(4, (1, 2), 61), (6, (1, 3), 251),
                                           (8, (2, 3, 4), 1009), (12, (1, 2), 251)])
    def test_free_candidate_reflection_ties(self, d, inv, n):
        # reflecting a free candidate coordinate changes no dual sum: from
        # step 3 on, B(z) and B(n - z) are bitwise equal at such a step, and
        # the CBC picks the smaller of the two
        spec = KernelSpec(SpectralWeight(), PermStructure(d, inv))
        z = list(cbc_construct(spec, n).rule.z)
        free_steps = [ell for ell in range(3, d + 1) if ell not in inv]
        assert free_steps
        for ell in free_steps:
            vals, _, _ = cbc_step_objectives(z[:ell - 1], n, spec)
            assert np.array_equal(vals[1:], vals[:0:-1])
            assert z[ell - 1] <= (n - 1) // 2

    @pytest.mark.parametrize("prefix", [[1], [1, 286, 53, 80]])
    def test_rounding_within_certificate(self, prefix, monkeypatch):
        # with the table taken as exact the certificate is the rounding bound
        # alone; a long double recomputation of the sums must lie inside it
        n = 1009
        spec = KernelSpec(SpectralWeight(), PermStructure.full(5))
        table, tcerts = power_kernel_table(spec, n)
        exact = (table, np.zeros_like(tcerts))
        monkeypatch.setattr("permqmc.errors.power_kernel_table", lambda *args: exact)
        vals, cert, (z, value, value_cert) = cbc_step_objectives(prefix, n, spec)
        ref, _ = reference_step_objectives(prefix, n, spec, exact, dtype=np.longdouble)
        assert 0.0 < float(np.max(np.abs(vals - ref))) < cert
        assert float(abs(value - ref[z])) < value_cert

    @pytest.mark.parametrize("inv", [(2, 4), (1,), ()])
    def test_table_certificate_through_the_free_product(self, inv, monkeypatch):
        # with table certificates far above the rounding, the step's
        # certificate must cover the reference's first-order bound, in which
        # every free coordinate is a block of its own, and the effect of
        # any table within them
        n = 61
        spec = KernelSpec(SpectralWeight(), PermStructure(5, inv))
        table, _ = power_kernel_table(spec, n)
        tables = (table, np.full(table.shape[0], 1e-7))
        monkeypatch.setattr("permqmc.errors.power_kernel_table", lambda *args: tables)
        bumped = (table + 1e-7 * np.random.default_rng(1).choice([-1.0, 1.0], table.shape),
                  tables[1])
        for prefix in ([1], [1, 17], [1, 17, 40], [1, 17, 40, 9]):
            vals, cert, _ = cbc_step_objectives(prefix, n, spec)
            _, ref_cert = reference_step_objectives(prefix, n, spec, tables)
            assert cert >= ref_cert
            monkeypatch.setattr("permqmc.errors.power_kernel_table", lambda *args: bumped)
            assert np.max(np.abs(cbc_step_objectives(prefix, n, spec)[0] - vals)) <= cert
            monkeypatch.setattr("permqmc.errors.power_kernel_table", lambda *args: tables)

    def test_rejects_nonprime(self, spec_d3_full):
        with pytest.raises(ValueError, match="not prime"):
            cbc_step_objectives([1], 9, spec_d3_full)

    def test_refuses_oversized_step_before_allocating(self):
        spec = KernelSpec(SpectralWeight(), PermStructure.full(20))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="GiB"):
                cbc_step_objectives([1] * 19, 1009, spec)
            with pytest.raises(ValueError, match="GiB"):
                cbc_construct(spec, 1009)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_dp_runs_over_exchangeable_coordinates_only(self, monkeypatch):
        # free prefix coordinates are one product per node: the partition
        # DP of step ell sees the generators of the exchangeable ones only
        calls = []

        def spy(zs, *args):
            calls.append(list(zs))
            return partition_sums(zs, *args)

        partition_sums = errors._partition_sums
        monkeypatch.setattr(errors, "_partition_sums", spy)
        inv = (2, 5, 7)
        res = cbc_construct(KernelSpec(SpectralWeight(), PermStructure(10, inv)), 61)
        z = res.rule.z
        assert calls == [[z[c - 1] for c in inv if c < ell] for ell in range(1, 11)]

    def test_partial_invariance_memory(self):
        # the parent's DP over all 15 prefix coordinates peaked at 255 MB
        spec = KernelSpec(SpectralWeight(), PermStructure(16, (1, 2)))
        tracemalloc.start()
        try:
            res = cbc_construct(spec, 1009)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20
        assert res.achieved_E2 + res.achieved_E2_certificate < res.certified_bound

    @pytest.mark.parametrize("d, inv, n", [
        (16, (1, 2), 1009), (16, (1, 2), 10007), (24, (1, 2, 3, 4), 1009),
        (12, (1, 3, 5, 7, 9, 11), 1009), (10, tuple(range(1, 11)), 127), (8, (), 1009),
        (5, (1, 2, 3, 4, 5), 1009), (12, tuple(range(1, 13)), 61), (9, tuple(range(1, 10)), 127)])
    def test_step_bytes_bound_the_traced_peak(self, d, inv, n, monkeypatch):
        # _check_step_bytes predicts the last step's working set from s_l
        # alone; the step's tracemalloc peak, its direct value at the chosen
        # z included, lies below it, within a factor 2
        spec = KernelSpec(SpectralWeight(), PermStructure(d, inv))
        prefix = [int(v) for v in np.random.default_rng(d).integers(1, n, size=d - 1)]
        cbc_step_objectives(prefix, n, spec)   # the cached tables and root powers
        needs = []
        monkeypatch.setattr(errors, "_refuse_above_cap", lambda need, *args: needs.append(need))
        tracemalloc.start()
        try:
            _, _, (z, value, _) = cbc_step_objectives(prefix, n, spec, lambda vals: n - 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert needs[0] / 2 < peak <= needs[0]
        assert z == n - 1 and value > 0.0

    def test_refusal_names_the_exchangeable_prefix(self):
        # 19 exchangeable coordinates before step 30: 2^19 masks at n = 1009
        spec = KernelSpec(SpectralWeight(), PermStructure(30, tuple(range(1, 20))))
        with pytest.raises(ValueError, match=r"CBC step 30 \(DP over s_l = 19\).*GiB"):
            cbc_construct(spec, 1009)
        # the byte prediction alone refuses s_l = 21 at any n: 2^22 masks
        with pytest.raises(ValueError, match=r"CBC step 22 \(DP over s_l = 21\).*GiB"):
            cbc_step_objectives([1] * 21, 2, KernelSpec(SpectralWeight(), PermStructure.full(22)))

    def test_refuses_oversized_profile_before_allocating(self, monkeypatch, tmp_path):
        # the fixed-point E2 holds twice the partition sums of the last CBC
        # step: 110n doubles predicted for step 5 and 125n for the profile;
        # a cap between the two refuses the profile, while the construction,
        # whose E2 is the sum of its steps, runs no profile and finishes
        spec = KernelSpec(SpectralWeight(), PermStructure.full(5))
        n = 1009
        monkeypatch.setattr("permqmc.errors.STEP_BYTES_CAP", 8 * n * 118)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="fixed-point E2"):
                mean_sq_error(LatticeRule(n, (1, 2, 3, 4, 5)), spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        res = cbc_construct(spec, n)
        assert 0.0 < res.achieved_E2 < res.certified_bound
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": {"alpha": 1.0},
                                   "structure": {"d": 5, "invariant": "full"}}))
        rule = tmp_path / "r.txt"
        assert main(["cbc", "--config", str(cfg), "--n", str(n), "--out", str(rule)]) == 0
        # the shift-search command computes the fixed-point E2 itself
        assert main(["shift-search", "--config", str(cfg), "--rule", str(rule)]) == EXIT_CONFIG

    def test_large_n_memory(self):
        spec = KernelSpec(SpectralWeight(), PermStructure.full(5))
        cbc_construct(spec, 13)  # fills the closed-form validation caches
        tracemalloc.start()
        try:
            res = cbc_construct(spec, 10007)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20
        assert res.achieved_E2 + res.achieved_E2_certificate < res.certified_bound

    def test_certificate_small_at_n_100003(self):
        spec = KernelSpec(SpectralWeight(), PermStructure.full(5))
        res = cbc_construct(spec, 100003)
        assert res.achieved_E2_certificate < 1e-3 * res.achieved_E2

    def test_ten_dimensions(self):
        spec = KernelSpec(SpectralWeight(), PermStructure.full(10))
        res = cbc_construct(spec, 127)
        assert len(res.rule.z) == 10
        assert len(res.per_step_certificate) == 10
        assert res.achieved_E2 + res.achieved_E2_certificate < res.certified_bound


class TestConstruction:
    def test_univariate_is_trivial(self, sobolev):
        spec = KernelSpec(sobolev, PermStructure.empty(1))
        res = cbc_construct(spec, 5)
        assert res.rule.z == (1,)
        assert res.achieved_E2 == pytest.approx(1.0 / 300.0, abs=1e-13)

    def test_matches_exhaustive_global_minimum_d2(self, spec_d2_full):
        # with the first coordinate pinned, greedy equals global at d = 2
        for n in (5, 13):
            res = cbc_construct(spec_d2_full, n)
            errors = {
                z2: mean_sq_error(LatticeRule(n, (1, z2)), spec_d2_full).value
                for z2 in range(n)
            }
            best = min(errors.values())
            assert errors[res.rule.z[1]] == pytest.approx(best, rel=1e-12)

    def test_per_step_minimality(self, spec_d3_full):
        res = cbc_construct(spec_d3_full, 13)
        z = list(res.rule.z)
        for ell in range(1, 3):
            vals, _, _ = cbc_step_objectives(z[:ell], 13, spec_d3_full)
            assert vals[z[ell]] == np.min(vals)
            # deterministic tie rule: no smaller candidate attains the minimum
            assert not np.any(vals[: z[ell]] == vals[z[ell]])

    def test_certified_bound_holds(self):
        for d, inv in [(2, (1, 2)), (3, (1, 2, 3)), (4, (1, 2)), (3, ())]:
            spec = KernelSpec(SpectralWeight(), PermStructure(d, inv))
            for n in (17, 61):
                res = cbc_construct(spec, n)
                assert res.achieved_E2 + res.achieved_E2_certificate < res.certified_bound

    def test_refined_bound_when_n_large(self, spec_d3_full):
        # sharper form: [max^(1/lam) (c_R/n)^(2a/lam) + 1/n]^lam * C_{d,lam}
        w = spec_d3_full.weight
        lam = 1.0
        s = spec_d3_full.perm.size
        n = 31  # n >= c_R * max(1, s)^(1/(2 alpha - lam)) = 3^(1/1) holds
        res = cbc_construct(spec_d3_full, n)
        C = bound_constant(spec_d3_full, lam)
        refined = (max(1, s) ** (1 / lam) * (w.c_R / n) ** (2 * w.alpha / lam) + 1 / n) ** lam
        assert res.achieved_E2 <= refined * C.hi

    @staticmethod
    def _check_better_than_average(spec, n):
        # the average runs over z = 1..n-1: B(0) collapses the coordinate
        res = cbc_construct(spec, n, mode="better_than_average", lam=1.0)
        z = res.rule.z
        for ell in range(1, spec.d):
            vals, _, _ = cbc_step_objectives(list(z[:ell]), n, spec)
            mean = np.mean(vals[1:])
            assert vals[z[ell]] <= mean
            # first qualifying candidate is selected
            qualifying = 1 + np.nonzero(vals[1:] <= mean)[0]
            assert z[ell] == qualifying[0]
        assert res.achieved_E2 <= res.certified_bound
        return res

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("beta0", [1.0, 0.7, 0.3, 4.0])
    @pytest.mark.parametrize("inv", [(1, 2, 3, 4), (1, 3), ()])
    def test_objective_is_the_E2_increment(self, alpha, beta0, inv):
        self._check_E2_increment(alpha, beta0, 4, inv, 251)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("beta0", [0.3, 1.0, 4.0])
    @pytest.mark.parametrize("d, inv", [(5, (1, 2, 3, 4, 5)), (6, (2, 3, 5))])
    def test_objective_is_the_E2_increment_at_n_1009(self, alpha, beta0, d, inv):
        self._check_E2_increment(alpha, beta0, d, inv, 1009)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("beta0", [1.0, 0.7, 0.3, 4.0])
    @pytest.mark.parametrize("d, inv, n", [(12, (1, 3), 251), (24, (1, 2, 3, 4), 1009)])
    def test_objective_is_the_E2_increment_with_many_free_coordinates(self, alpha, beta0,
                                                                      d, inv, n):
        # the free coordinates enter each step as one product; at (24, 4) a
        # DP over every prefix coordinate would need about 126 GiB
        self._check_E2_increment(alpha, beta0, d, inv, n)

    @staticmethod
    def _check_E2_increment(alpha, beta0, d, inv, n):
        # step ell's weight 1 / (beta0^|u| C(s, s_u) s_u! n) is E2's weight
        # beta0^(d - |u|) (s - s_u)! / (s! n) over beta0^d, so beta0^d times
        # the sum of the chosen objectives is E2, which the construction
        # reports from its steps' direct values: it agrees with the
        # fixed-point E2 within both certificates, and with the objectives
        # within theirs and the rounding of the sum (d - 1 additions of
        # positive terms, a pow and a product)
        spec = KernelSpec(SpectralWeight(alpha=alpha, beta0=beta0), PermStructure(d, inv))
        res = cbc_construct(spec, n)
        fixed_point = mean_sq_error(res.rule, spec)
        assert abs(res.achieved_E2 - fixed_point.value) <= (
            res.achieved_E2_certificate + fixed_point.truncation_certificate)
        b0d = beta0 ** d
        total = b0d * sum(res.per_step_objective)
        slack = (res.achieved_E2_certificate + b0d * sum(res.per_step_certificate)
                 + _gamma(d + 2) * total)
        assert abs(res.achieved_E2 - total) <= slack

    def test_better_than_average_mode(self, spec_d2_full):
        self._check_better_than_average(spec_d2_full, 13)

    def test_better_than_average_mode_skips_zero(self, sobolev2):
        # B(0) is about 1e6 times the mean over z != 0 at alpha = 2; averaging
        # it in accepted z = (1, 1, 1, 1), every node on the diagonal
        spec = KernelSpec(sobolev2, PermStructure.full(4))
        res = self._check_better_than_average(spec, 1009)
        assert res.rule.z != (1, 1, 1, 1) and res.achieved_E2 < 1e-9

    def test_rejects_nonprime_and_small(self, spec_d2_full):
        with pytest.raises(ValueError):
            cbc_construct(spec_d2_full, 9)


class TestShiftSearch:
    def test_never_worse_than_unshifted(self, spec_d2_full):
        rule = LatticeRule(13, (1, 5))
        res = shift_search(rule, spec_d2_full, trials=8, seed=1)
        unshifted = worst_case_error_sq(rule.cubature(), spec_d2_full)
        assert res.e2_shifted <= unshifted.value + 1e-13

    def test_certifies_below_average(self, spec_d2_full):
        res = shift_search(LatticeRule(13, (1, 5)), spec_d2_full, trials=64, seed=3)
        assert res.certified
        assert res.e2_shifted <= res.E2 + res.E2_certificate + res.e2_certificate

    def test_seed_reproducibility(self, spec_d2_full):
        a = shift_search(LatticeRule(13, (1, 5)), spec_d2_full, trials=16, seed=9)
        b = shift_search(LatticeRule(13, (1, 5)), spec_d2_full, trials=16, seed=9)
        assert a.rule.shift == b.rule.shift
        assert a.e2_shifted == b.e2_shifted

    def test_two_point_grid_brackets_continuum(self, sobolev):
        # n = 2: exhaustive 32 x 32 shift grid brackets the continuum optimum
        spec = KernelSpec(sobolev, PermStructure.full(2))
        rule = LatticeRule(2, (1, 1))
        grid = np.arange(32) / 32.0
        best_grid = math.inf
        for a in grid:
            for b in grid:
                val = worst_case_error_sq(rule.with_shift((a, b)).cubature(), spec).value
                best_grid = min(best_grid, val)
        res = shift_search(rule, spec, trials=256, seed=4)
        # Lipschitz slack from the grid spacing: finite-difference estimate
        probe = [
            abs(
                worst_case_error_sq(rule.with_shift((a, 0.41)).cubature(), spec).value
                - worst_case_error_sq(rule.with_shift((a + 1e-4, 0.41)).cubature(), spec).value
            ) / 1e-4
            for a in (0.1, 0.3, 0.7)
        ]
        lip = 8.0 * max(probe) + 1.0
        h = 1.0 / 32.0
        assert res.e2_shifted >= best_grid - lip * h  # grid min close to continuum min
        assert res.e2_shifted <= best_grid + lip * h


class TestConvenience:
    def test_construct_shifted_pipeline(self, spec_d2_full):
        res = construct_shifted(spec_d2_full, 13, trials=32, seed=5)
        assert res.rule.shift is not None
        assert res.achieved_e2_shifted is not None
        assert res.achieved_e2_shifted <= res.achieved_E2 + 1e-10
        assert not res.shift_flagged

    def test_one_fixed_point_E2(self, monkeypatch):
        # the construction's E2 is the sum of its steps, and the shift
        # search takes it: no fixed-point profile runs, unless the search
        # is given no E2
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return profile(*args, **kwargs)

        profile = errors.shift_invariant_profile
        monkeypatch.setattr(errors, "shift_invariant_profile", counted)
        for d, inv, n in [(2, (1, 2), 13), (4, (1, 2, 3, 4), 61), (5, (2, 4), 31)]:
            spec = KernelSpec(SpectralWeight(), PermStructure(d, inv))
            built = cbc_construct(spec, n)
            res = construct_shifted(spec, n, trials=8, seed=5)
            assert calls == []
            alone = shift_search(built.rule, spec, trials=8, seed=5)
            assert len(calls) == 1
            calls.clear()
            assert (alone.rule, alone.e2_shifted, alone.e2_certificate, alone.trials_used,
                    not alone.certified) == (res.rule, res.achieved_e2_shifted,
                                             res.achieved_e2_shifted_certificate,
                                             res.shift_trials_used, res.shift_flagged)

    def test_json_serializable(self, spec_d2_full):
        import json

        res = construct_shifted(spec_d2_full, 13, trials=8, seed=5)
        json.dumps(res.to_json())
