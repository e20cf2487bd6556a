import math
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permqmc.symmetry import (
    PERMANENT_CAP,
    PermStructure,
    PermanentCapError,
    multiplicity,
    normalize_to_nabla,
    orbit,
    permanent,
    permanent_batch,
    permanent_bounds,
    restriction_constant,
    set_partitions,
    sym_perm_sum,
)


def naive_permanent(A):
    A = np.asarray(A)
    s = A.shape[0]
    return sum(np.prod([A[p[i], i] for i in range(s)]) for p in permutations(range(s)))


def brute_fix_count(k, ps):
    """Count exchanges fixing k by enumerating the whole group."""
    inv = ps.invariant
    count = 0
    for perm in permutations(range(len(inv))):
        kk = list(k)
        for slot, src in zip(inv, perm):
            kk[slot - 1] = k[inv[src] - 1]
        if tuple(kk) == tuple(k):
            count += 1
    return count


class TestMultiplicity:
    def test_no_invariance(self):
        assert multiplicity((4, -1, 7), PermStructure.empty(3)) == 1

    def test_all_equal(self):
        assert multiplicity((3, 3, 3), PermStructure.full(3)) == 6

    def test_partial(self):
        ps = PermStructure(4, (1, 2, 3))
        k = (1, 2, 2, 5)
        assert multiplicity(k, ps) == brute_fix_count(k, ps) == 2

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, d, data):
        inv = tuple(sorted(data.draw(st.sets(st.integers(1, d), max_size=d))))
        ps = PermStructure(d, inv)
        k = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
        assert multiplicity(k, ps) == brute_fix_count(k, ps)

    def test_invariant_under_normalization(self):
        ps = PermStructure(5, (1, 3, 4))
        k = (9, 0, -2, 9, 1)
        assert multiplicity(k, ps) == multiplicity(normalize_to_nabla(k, ps), ps)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_scaled_index_bound(self, data):
        # replacing the last entry k by n*k grows the fix count by at most #I
        s = data.draw(st.integers(1, 4))
        ps = PermStructure(s, tuple(range(1, s + 1)))
        h = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=s - 1, max_size=s - 1)))
        k = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(2, 7))
        before = multiplicity(h + (k,), ps)
        after = multiplicity(h + (n * k,), ps)
        assert after <= max(1, ps.size) * before


class TestNormalize:
    def test_sorts_invariant_block(self):
        ps = PermStructure(3, (1, 2))
        assert normalize_to_nabla((5, 1, 9), ps) == (1, 5, 9)

    def test_idempotent(self):
        ps = PermStructure(4, (2, 3, 4))
        k = (7, -1, 0, 3)
        once = normalize_to_nabla(k, ps)
        assert normalize_to_nabla(once, ps) == once

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=100, deadline=None)
    def test_unique_orbit_representative(self, d, data):
        inv = tuple(sorted(data.draw(st.sets(st.integers(1, d), max_size=d))))
        ps = PermStructure(d, inv)
        k = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
        rep = normalize_to_nabla(k, ps)
        members = orbit(k, ps)
        assert rep in members
        sorted_members = [m for m in members if normalize_to_nabla(m, ps) == m]
        assert sorted_members == [rep]


class TestOrbitSumIdentity:
    def test_small_boxes(self):
        # sum over canonical k of (1/M!) * sum over exchanges of G equals the plain box sum
        ps = PermStructure(3, (1, 3))
        rng = np.random.default_rng(5)
        table = {h: rng.normal() for h in product(range(-2, 3), repeat=3)}
        plain = sum(table.values())
        sym = 0.0
        for k in product(range(-2, 3), repeat=3):
            if normalize_to_nabla(k, ps) != k:
                continue
            m = multiplicity(k, ps)
            inv = ps.invariant
            for perm in permutations(range(len(inv))):
                kk = list(k)
                for slot, src in zip(inv, perm):
                    kk[slot - 1] = k[inv[src] - 1]
                sym += table[tuple(kk)] / m
        assert sym == pytest.approx(plain, rel=1e-12)


class TestPermanent:
    def test_one_by_one(self):
        assert permanent([[3.5]]) == pytest.approx(3.5)

    def test_two_by_two(self):
        a, b, c, d = 2.0, 3.0, 5.0, 7.0
        assert permanent([[a, b], [c, d]]) == pytest.approx(a * d + b * c)

    def test_empty(self):
        assert permanent(np.zeros((0, 0))) == 1.0

    def test_random_complex_vs_naive(self, rng):
        for s in range(1, 8):
            A = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
            expect = naive_permanent(A)
            assert abs(permanent(A) - expect) <= 1e-12 * max(abs(expect), 1.0)

    def test_batch_matches_scalar(self, rng):
        A = rng.normal(size=(5, 4, 4))
        batch = permanent_batch(A)
        for i in range(5):
            assert batch[i] == pytest.approx(permanent(A[i]), rel=1e-12)

    def test_cap(self):
        with pytest.raises(PermanentCapError, match="spectral"):
            permanent(np.eye(PERMANENT_CAP + 1))

    def test_sym_perm_sum(self, rng):
        A = rng.normal(size=(3, 3))
        fixed = (1.5, -0.5)
        assert sym_perm_sum(A, fixed) == pytest.approx(naive_permanent(A) * 1.5 * -0.5, rel=1e-12)

    def test_sym_perm_sum_scalar_block(self, rng):
        A = rng.normal(size=(1, 1))
        assert sym_perm_sum(A, (2.0,)) == pytest.approx(A[0, 0] * 2.0)


def gamma(k):
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def unsigned_ryser_sum(B, c):
    """sum over nonempty column sets S of prod_i (sum_{j in S} B_ij + c*|S|)."""
    s = B.shape[0]
    total = 0.0
    for mask in range(1, 1 << s):
        cols = [j for j in range(s) if mask >> j & 1]
        total += np.prod(B[:, cols].sum(axis=1) + c * len(cols))
    return total


class TestFusedRyser:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.booleans(), st.floats(0.0, 1.0), st.data())
    def test_matches_brute_force(self, s, cplx, c, data):
        entries = st.floats(-3.0, 3.0, allow_nan=False)
        A = np.array(data.draw(st.lists(entries, min_size=s * s, max_size=s * s))).reshape(s, s)
        if cplx:
            A = A + 1j * np.array(data.draw(
                st.lists(entries, min_size=s * s, max_size=s * s))).reshape(s, s)
        pb = permanent_bounds(A[:, :, None], c)
        absA = np.abs(A)
        # brute force over s! permutations has error at most gamma_{s + s!} per(|A| + c)
        g = gamma(s + math.factorial(s))
        expect, expect_abs, expect_pad = (naive_permanent(B) for B in (A, absA, absA + c))
        gr = gamma(2 * s + 2 ** s)
        assert pb.rounding[0] == pytest.approx(gr * unsigned_ryser_sum(absA, 0.0),
                                               rel=1e-12, abs=1e-300)
        tol = pb.rounding[0] + g * expect_abs
        assert abs(pb.per[0] - expect) <= tol
        assert abs(pb.per_abs[0] - expect_abs) <= tol
        pad_tol = gr * unsigned_ryser_sum(absA, c) + g * expect_pad
        assert abs(pb.per_pad[0] - expect_pad) <= pad_tol

    def test_real_per_bitwise_equal_to_batch_first_ryser(self, rng):
        def batch_first(A):  # one Gray-code Ryser pass over a (batch, s, s) stack
            b, s, _ = A.shape
            row, total, mask = np.zeros((b, s)), np.zeros(b), 0
            for code in range(1, 1 << s):
                j = (code & -code).bit_length() - 1
                row = row - A[:, :, j] if mask >> j & 1 else row + A[:, :, j]
                mask ^= 1 << j
                term = np.prod(row, axis=1)
                total = total - term if bin(mask).count("1") & 1 else total + term
            return -total if s & 1 else total

        for s in range(1, 8):
            A = rng.normal(size=(40, s, s))
            pb = permanent_bounds(np.ascontiguousarray(np.moveaxis(A, 0, -1)), 0.5)
            assert np.array_equal(pb.per, batch_first(A))
            assert np.array_equal(pb.per_abs, batch_first(np.abs(A)))
            assert np.array_equal(permanent_batch(A), pb.per)

    def test_empty_block(self):
        pb = permanent_bounds(np.zeros((0, 0, 3)), 0.5)
        assert np.array_equal(pb.per, np.ones(3)) and np.array_equal(pb.per_pad, np.ones(3))
        assert not np.any(pb.rounding)

    def test_shape_and_cap(self):
        with pytest.raises(ValueError, match="batch"):
            permanent_bounds(np.zeros((2, 3, 4)))
        with pytest.raises(PermanentCapError):
            permanent_bounds(np.zeros((PERMANENT_CAP + 1, PERMANENT_CAP + 1, 1)))


class TestPartitions:
    def test_bell_counts(self):
        for s, bell in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)]:
            assert len(set_partitions(s)) == bell

    def test_blocks_cover(self):
        for part in set_partitions(4):
            seen = sorted(i for blk in part for i in blk)
            assert seen == [0, 1, 2, 3]


class TestRestrictionConstant:
    def test_disjoint_subset(self):
        ps = PermStructure(4, (1, 2))
        assert restriction_constant((3, 4), ps, 0.5) == pytest.approx(0.25 * math.comb(2, 0))

    def test_overlapping(self):
        ps = PermStructure(4, (1, 2, 3))
        assert restriction_constant((2, 3), ps, 1.0) == pytest.approx(math.comb(3, 2))
