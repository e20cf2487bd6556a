import ast
import math
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permqmc import symmetry
from permqmc.symmetry import (
    PERMANENT_CAP,
    PermStructure,
    PermanentCapError,
    _frac,
    _ryser,
    multiplicity_array,
    normalize_to_nabla,
    permanent_batch,
    permanent_bound,
)

from oracles import restriction_constant, set_partitions


def naive_permanent(A):
    A = np.asarray(A)
    s = A.shape[0]
    return sum(np.prod([A[p[i], i] for i in range(s)]) for p in permutations(range(s)))


def permanent(A):
    """per(A) of one square matrix by the package's one Glynn pass."""
    return _ryser(np.asarray(A)[:, :, None])[0]


def multiplicity(k, ps):
    """M(k)! of one multi-index, as the one-row case of multiplicity_array."""
    return multiplicity_array(np.asarray([k]), ps)[0]


def orbit(k, ps):
    """All distinct images of k under the coordinate-exchange group."""
    k = tuple(k)
    inv = ps.invariant
    out = set()
    for perm in permutations(range(len(inv))):
        kk = list(k)
        for slot, src in zip(inv, perm):
            kk[slot - 1] = k[inv[src] - 1]
        out.add(tuple(kk))
    return out


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

    @pytest.mark.parametrize("d, inv", [
        (3, ()), (4, (1, 2, 3)), (5, (1, 3, 4)), (6, (1, 2, 3, 4, 5, 6))])
    def test_rows_at_once(self, d, inv, rng):
        ps = PermStructure(d, inv)
        hs = rng.integers(-2, 3, size=(150, d))
        got = multiplicity_array(hs, ps)
        assert got.shape == (150,) and got.dtype == float
        assert got.tolist() == [brute_fix_count(tuple(row), ps) for row in hs.tolist()]
        assert multiplicity_array(np.zeros((0, d), dtype=int), ps).shape == (0,)

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
        with pytest.raises(PermanentCapError, match=(
                f"invariant block of size {PERMANENT_CAP + 1} exceeds the permanent cap "
                f"{PERMANENT_CAP}; shrink the invariant set to at most {PERMANENT_CAP} coordinates")):
            permanent(np.eye(PERMANENT_CAP + 1))

    def test_sym_perm_sum(self, rng):
        # symmetrized product sum: the permanent times the fixed factors
        A = rng.normal(size=(3, 3))
        fixed = (1.5, -0.5)
        assert permanent(A) * np.prod(fixed) == pytest.approx(naive_permanent(A) * 1.5 * -0.5, rel=1e-12)

    def test_sym_perm_sum_scalar_block(self, rng):
        A = rng.normal(size=(1, 1))
        assert permanent(A) * np.prod((2.0,)) == pytest.approx(A[0, 0] * 2.0)


def gamma(k):
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def exact_permanent(A, E=None):
    """per(A + E) of one real or complex float matrix A, perturbed by E, in
    exact arithmetic, as a (real, imaginary) pair of Fractions.  The entries
    are dyadic rationals, so they are scaled to integers over a common
    power of two and Ryser's formula runs on Python integers."""
    A = np.asarray(A)
    s = A.shape[0]
    E = np.zeros(A.shape) if E is None else np.asarray(E)
    parts = [[Fraction(float(a)) + Fraction(float(e)) for a, e in zip(x.ravel(), y.ravel())]
             for x, y in ((A.real, E.real), (np.imag(A), np.imag(E)))]
    scale = max([1] + [v.denominator for part in parts for v in part])
    re, im = ([[v.numerator * (scale // v.denominator) for v in part[i * s:(i + 1) * s]]
               for i in range(s)] for part in parts)
    total_re, total_im = int(s == 0), 0
    for mask in range(1, 1 << s):   # Ryser's formula, exact in integers
        cols = [j for j in range(s) if mask >> j & 1]
        p_re, p_im = 1, 0
        for i in range(s):
            x_re, x_im = sum(re[i][j] for j in cols), sum(im[i][j] for j in cols)
            p_re, p_im = p_re * x_re - p_im * x_im, p_re * x_im + p_im * x_re
        sign = -1 if (s - len(cols)) & 1 else 1
        total_re += sign * p_re
        total_im += sign * p_im
    return Fraction(total_re, scale ** s), Fraction(total_im, scale ** s)


def exact_error(value, exact) -> float:
    """|value - exact| for a float or complex value, rounded up slightly."""
    value = complex(value)
    return math.hypot(float(Fraction(value.real) - exact[0]),
                      float(Fraction(value.imag) - exact[1])) * (1 + 1e-15)


def glynn_bound(M, c):
    """The bound of ``permanent_bound``'s docstring for one magnitude matrix,
    evaluated row by row: prod_i g_i (gamma_K Q / s + sum_i t_i W_i)."""
    s = M.shape[0]
    if s == 0:
        return 0.0
    g = gamma(s + 2 ** (s - 1) - 2)
    R = M.sum(axis=1)
    e = g * R + s * c + np.finfo(float).tiny    # the row radius
    G = R + e
    q = ((np.sqrt((M * M).sum(axis=1)) + e) / G) ** 2
    t, Q = e / G, q.sum()
    W = 1.0 if s == 1 else (1 + Q - q) / 2 if s == 2 else (Q - q) / (s - 1)
    return float(np.prod(G)) * (g * Q / s + float(np.sum(t * W)))


def perturbations(s, c, rng, corners=4):
    """Entrywise perturbations E with |E| <= c: none at c = 0, else cJ and
    random sign corners."""
    if c == 0:
        return [None]
    out = [np.full((s, s), c)]
    for _ in range(corners):
        out.append(c * rng.choice([-1.0, 1.0], size=(s, s)))
    return out


def stack(kind, s, b, rng):
    """A batch-last (s, s, b) stack of one of the five test kinds."""
    if kind == "signed":
        return rng.standard_normal((s, s, b))
    if kind == "kernel":   # K1 tables: entries near 1
        return rng.uniform(0.95, 1.09, (s, s, b))
    if kind == "phase":    # eigenfunction blocks: complex, |a_ij| = 1
        return np.exp(2j * math.pi * rng.uniform(size=(s, s, b)))
    if kind == "zero":     # a zero row in each matrix
        A = rng.standard_normal((s, s, b))
        if s:
            A[rng.integers(s, size=b), :, np.arange(b)] = 0.0
        return A
    # badly scaled: one column 1e4 to 1e11 times the others, so the walk's
    # row sums far exceed the row sums without it
    A = rng.uniform(0.5, 1.5, (s, s, b))
    if s:
        A[:, rng.integers(s)] *= 10.0 ** rng.uniform(4, 11, size=(s, b))
    return A


def within(M, rng):
    """A real matrix A with |A| <= M entrywise: random signs, and each entry
    either M's (a corner) or a random fraction of it."""
    sign = rng.choice([-1.0, 1.0], size=M.shape)
    return sign * np.where(rng.random(M.shape) < 0.5, M, M * rng.random(M.shape))


class TestFusedRyser:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.booleans(), st.floats(0.0, 1.0), st.data())
    def test_matches_brute_force(self, s, slack, c, data):
        # the bound is the docstring's formula on the magnitudes M and covers
        # per(A + E) for the A drawn within them
        entries = st.floats(-3.0, 3.0, allow_nan=False)
        A = np.array(data.draw(st.lists(entries, min_size=s * s, max_size=s * s))).reshape(s, s)
        M = np.abs(A) + (0.25 if slack else 0.0)
        bound = float(permanent_bound(M, c))
        ref = glynn_bound(M, c)
        assert ref <= bound <= ref * (1 + 1e-12) + 1e-300
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
        per = permanent(A)
        for E in [None] + perturbations(s, c, rng, corners=1):
            assert exact_error(per, exact_permanent(A, E)) <= bound

    @pytest.mark.parametrize("kind", ["signed", "kernel", "phase", "scaled", "zero"])
    @pytest.mark.parametrize("s", range(9))
    def test_exact_reference(self, kind, s, rng):
        # M is the stack's entrywise maximum, the lattice route's one matrix,
        # or each matrix's own |A|; the phase kind's magnitude class |a_ij| <= 1
        # is taken on the real parts of its blocks, with M = J
        b = 4 if s <= 6 else 2
        A = stack(kind, s, b, rng)
        A, M = (A.real, np.ones((s, s))) if kind == "phase" else (A, np.abs(A).max(axis=2))
        per = _ryser(A)
        for c in (0.0, 1.7e-15, 0.5):
            bound = float(permanent_bound(M, c))
            own = permanent_bound(np.abs(A), c)
            assert np.isfinite(bound) and np.all(np.isfinite(own))
            for m in range(b):
                for E in perturbations(s, c, rng):
                    err = exact_error(per[m], exact_permanent(A[:, :, m], E))
                    assert err <= own[m] and err <= bound
                assert glynn_bound(np.abs(A[:, :, m]), c) <= own[m]
                B = within(M, rng)
                assert exact_error(permanent(B), exact_permanent(B)) <= bound
            assert glynn_bound(M, c) <= bound

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.complex64])
    def test_narrow_inputs_summed_in_double(self, dtype, rng):
        # the pass sums in double: bitwise the pass on the widened stack
        A = rng.uniform(-1.0, 4.0, (8, 5, 5)) + (1j if dtype == np.complex64 else 0)
        A = A.astype(dtype)
        per = permanent_batch(A)
        wide = complex if dtype == np.complex64 else float
        assert per.dtype == wide
        assert per.tobytes() == permanent_batch(A.astype(wide)).tobytes()
        if dtype != np.complex64:
            bound = permanent_bound(np.abs(np.moveaxis(A, 0, -1)).astype(float), 0.5)
            for m in range(8):
                assert exact_error(per[m], exact_permanent(A[m])) <= bound[m]

    @pytest.mark.parametrize("s", range(1, 9))
    def test_bound_below_gray_code_bound_on_kernel_tables(self, s, rng):
        # Ryser's Gray-code pass was bounded by gamma_(2s + 2^s) times
        # sum over column sets S of prod_i rowabs_i(S)
        A = rng.uniform(0.958, 1.083, (s, s, 50))
        gray = np.zeros(50)
        for mask in range(1, 1 << s):
            cols = [j for j in range(s) if mask >> j & 1]
            gray += np.prod(A[:, cols].sum(axis=1), axis=0)
        ratio = permanent_bound(A) / (gamma(2 * s + 2 ** s) * gray)
        assert np.max(ratio) <= {1: 0.51, 2: 0.7, 3: 0.34, 5: 0.18, 8: 0.07}.get(s, 0.5)

    @pytest.mark.parametrize("s", range(7))
    def test_unit_modulus_constant(self, s, rng):
        # permanent_batch's docstring: C_s bounds the pass's rounding on
        # phases; it is the real bound at M = J with k in place of K
        A = np.exp(2j * math.pi * rng.uniform(size=(6, s, s)))
        per = permanent_batch(A)
        if s <= 1:
            const = 0.0
        else:
            g = gamma(3 * s + 2 ** (s - 1) - 4)
            Q = (1 + math.sqrt(s) * g) ** 2 / (1 + g) ** 2
            const = g * (1 + Q if s == 2 else (1 + 1 / s) * Q) * s ** s * (1 + g) ** s
            assert permanent_bound(np.ones((s, s))) <= const
        for m in range(6):
            assert exact_error(per[m], exact_permanent(A[m])) <= const

    def test_real_per_bitwise_equal_to_batch_first_ryser(self, rng):
        def batch_first(A):
            # Glynn's formula in half rows over a (batch, s, s) stack
            b, s, _ = A.shape
            row, total, flips = A.sum(axis=2) / 2, np.zeros(b), 0
            for code in range(1 << (s - 1)):
                if code:
                    j = (code & -code).bit_length()
                    row = row + A[:, :, j] if flips >> j & 1 else row - A[:, :, j]
                    flips ^= 1 << j
                term = np.prod(row, axis=1)
                total = total - term if bin(flips).count("1") & 1 else total + term
            return 2 * total

        for s in range(1, 8):
            A = rng.normal(size=(40, s, s))
            for B in (A, np.abs(A)):
                per = _ryser(np.ascontiguousarray(np.moveaxis(B, 0, -1)))
                assert np.array_equal(per, batch_first(B))
                assert np.array_equal(permanent_batch(B), per)

    @pytest.mark.parametrize("s", range(9))
    def test_unit_modulus_per_bitwise_equal_to_fused_pass(self, s, rng):
        # the phase blocks of eigenfunction values: complex, |a_ij| = 1
        b = 300
        A = np.exp(2j * math.pi * rng.uniform(size=(b, s, s)))
        batch_last = np.ascontiguousarray(np.moveaxis(A, 0, -1))
        ref = _ryser(batch_last)
        assert ref.dtype == complex and ref.shape == (b,)
        for stack in (A, np.moveaxis(batch_last, -1, 0)):
            assert permanent_batch(stack).tobytes() == ref.tobytes()
        split = np.concatenate([permanent_batch(A[:117]), permanent_batch(A[117:])])
        assert split.tobytes() == ref.tobytes()
        if s:
            assert np.max(np.abs(ref)) <= math.factorial(s) * (1 + 1e-12)

    def test_only_the_batch_takes_a_ryser_pass(self, rng, monkeypatch):
        # permanent_batch takes one pass per call on every kind of stack and
        # returns its per as is; permanent_bound reads magnitudes and takes
        # none, and the sign bit of a zero magnitude leaves its bound alone
        calls = []
        ryser = symmetry._ryser

        def counting(cols):
            calls.append(cols)
            return ryser(cols)

        A = rng.uniform(0.0, 1.0, (4, 4, 30))
        A[0, 0, 0] = A[1, 2, 3] = 0.0
        negzero = A.copy()
        negzero[1, 2, 3] = -0.0         # equal values, one sign bit set
        assert np.signbit(negzero).any() and not np.signbit(A).any()
        stacks = [A, A.astype(np.float32), negzero, A - 0.25, A + 0j,
                  np.exp(2j * math.pi * A)]
        monkeypatch.setattr(symmetry, "_ryser", counting)
        for B in stacks:
            calls.clear()
            per = permanent_batch(np.moveaxis(B, -1, 0))
            assert len(calls) == 1 and per.tobytes() == ryser(B).tobytes()
        calls.clear()
        for c in (0.0, 0.5):
            plain, signed = permanent_bound(A, c), permanent_bound(negzero, c)
            assert plain.tobytes() == signed.tobytes()
        assert not calls

    def test_batch_shape_and_cap(self):
        assert np.array_equal(permanent_batch(np.zeros((3, 0, 0))), np.ones(3))
        with pytest.raises(ValueError, match="batch"):
            permanent_batch(np.zeros((2, 3, 4)))
        with pytest.raises(PermanentCapError):
            permanent_batch(np.zeros((1, PERMANENT_CAP + 1, PERMANENT_CAP + 1)))

    def test_empty_block(self):
        # per = 1 exactly at s = 0, so the bound is 0, batched or not
        assert np.array_equal(permanent_batch(np.zeros((3, 0, 0))), np.ones(3))
        assert np.array_equal(permanent_bound(np.zeros((0, 0, 3)), 0.5), np.zeros(3))
        assert permanent_bound(np.zeros((0, 0)), 0.5) == 0.0

    def test_shape_and_cap(self):
        for M in (np.zeros((2, 3, 4)), np.zeros((2, 3)), np.zeros(3), np.zeros((2, 2, 2, 2))):
            with pytest.raises(ValueError, match="M must have shape"):
                permanent_bound(M)
        with pytest.raises(PermanentCapError):
            permanent_bound(np.zeros((PERMANENT_CAP + 1, PERMANENT_CAP + 1)))

    @pytest.mark.parametrize("s", [1, 3, 5, 8])
    def test_one_matrix_or_a_stack(self, s, rng):
        # the bound of an (s, s) matrix is bitwise that of its (s, s, 1)
        # stack; in a longer stack only the summation order may differ
        M = np.abs(rng.standard_normal((s, s, 7)))
        stacked = permanent_bound(M, 0.25)
        assert stacked.shape == (7,)
        for m in range(7):
            one = permanent_bound(M[:, :, m], 0.25)
            assert one.shape == ()
            assert one.tobytes() == permanent_bound(M[:, :, m:m + 1], 0.25)[0].tobytes()
            assert one == pytest.approx(stacked[m], rel=1e-14)


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


def test_no_permutation_loops_in_the_package():
    """Sums over exchanges go through Ryser permanents or orbit grouping; no
    module of the package imports itertools.permutations."""
    src = Path(__file__).resolve().parents[1] / "src" / "permqmc"
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "itertools":
                if any(alias.name == "permutations" for alias in node.names):
                    offenders.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.Attribute) and node.attr == "permutations"
                  and isinstance(node.value, ast.Name) and node.value.id == "itertools"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert len(list(src.glob("*.py"))) > 5
    assert not offenders, f"itertools.permutations used at {offenders}"


def test_no_float_mod_in_the_package():
    """Fractional parts go through symmetry._frac, t - floor(t), which is
    bitwise equal to np.mod(t, 1.0) and many times faster; no module of the
    package calls numpy's mod, remainder or fmod."""
    src = Path(__file__).resolve().parents[1] / "src" / "permqmc"
    banned = {"mod", "remainder", "fmod"}
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                if any(alias.name in banned for alias in node.names):
                    offenders.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.Attribute) and node.attr in banned
                  and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                offenders.append(f"{path.name}:{node.lineno}")
    assert len(list(src.glob("*.py"))) > 5
    assert not offenders, f"numpy float mod used at {offenders}"


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=16))
@example([0.0, -0.0, 5e-324, -5e-324, -1e-20, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53),
          1e16, -1e16, math.inf, -math.inf, math.nan, -0.5, -2.5, 2.0 ** 52 + 0.5])
@settings(max_examples=300, deadline=None)
def test_frac_is_bitwise_np_mod(values):
    t = np.asarray(values, dtype=float)
    with np.errstate(invalid="ignore"):
        got, want = _frac(t), np.mod(t, 1.0)
    both_nan = np.isnan(got) & np.isnan(want)
    assert np.array_equal(got.view(np.uint64)[~both_nan], want.view(np.uint64)[~both_nan])
    assert np.array_equal(np.isnan(got), np.isnan(want))
