import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permqmc.lattice import (
    LatticeRule,
    WeightedCubature,
    is_prime,
    load_cubature,
    load_lattice,
    save_cubature,
    save_lattice,
)

from oracles import character_average, dual_membership


class TestPrimality:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
        for n in range(2, 32):
            assert is_prime(n) == (n in primes)

    def test_large(self):
        assert is_prime(2 ** 61 - 1)
        assert not is_prime(2 ** 61 + 1)
        assert not is_prime(3215031751)  # strong pseudoprime to small bases


class TestPoints:
    def test_two_points(self):
        rule = LatticeRule(2, (1,))
        assert np.allclose(rule.points().ravel(), [0.0, 0.5])

    def test_direct_formula(self):
        rule = LatticeRule(5, (1, 2))
        pts = rule.points()
        for j in range(5):
            assert pts[j, 0] == pytest.approx(j / 5)
            assert pts[j, 1] == pytest.approx((2 * j % 5) / 5)

    def test_shift_is_elementwise(self):
        rule = LatticeRule(7, (1, 3))
        shift = (0.21, 0.84)
        shifted = rule.with_shift(shift).points()
        base = rule.points()
        assert np.allclose(shifted, np.mod(base + np.asarray(shift), 1.0))
        assert np.allclose(shifted[0], shift)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            LatticeRule(9, (1, 2))

    def test_scaled_generator_same_point_set(self):
        # multiplying z by any unit mod prime n permutes the node set
        rule = LatticeRule(13, (1, 5))
        base = {tuple(np.round(p, 12)) for p in rule.points()}
        for c in range(1, 13):
            zc = tuple((c * v) % 13 for v in rule.z)
            other = {tuple(np.round(p, 12)) for p in LatticeRule(13, zc).points()}
            assert other == base


class TestDual:
    def test_zero_vector(self):
        assert dual_membership((0, 0), LatticeRule(5, (1, 2)))

    def test_example(self):
        assert dual_membership((3, 1), LatticeRule(5, (1, 2)))

    @given(st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=100, deadline=None)
    def test_character_sum_oracle(self, h1, h2):
        rule = LatticeRule(7, (1, 3))
        h = (h1, h2)
        j = np.arange(7)
        s = np.mean(np.exp(2j * math.pi * (h1 * 1 + h2 * 3) * j / 7))
        assert dual_membership(h, rule) == (abs(s - 1) < 1e-9)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_dual_is_group(self, data):
        rule = LatticeRule(11, (1, 4, 9))
        members = []
        while len(members) < 2:
            h = tuple(data.draw(st.integers(-30, 30)) for _ in range(3))
            if dual_membership(h, rule):
                members.append(h)
        a, b = members
        assert dual_membership(tuple(x + y for x, y in zip(a, b)), rule)
        assert dual_membership(tuple(-x for x in a), rule)


class TestCharacterAverage:
    def test_values(self):
        assert character_average(0, 7) == Fraction(1)
        assert character_average(3, 7) == Fraction(1, 7)
        assert character_average(14, 7) == Fraction(1)


class TestFiles:
    def test_lattice_roundtrip(self, tmp_path):
        rule = LatticeRule(31, (1, 12, 27), (0.125, 0.7251, 0.0003))
        path = tmp_path / "rule.txt"
        save_lattice(rule, path)
        back = load_lattice(path)
        assert back.n == rule.n and back.z == rule.z
        assert back.shift == rule.shift  # 17 significant digits round-trip floats

    def test_lattice_roundtrip_unshifted(self, tmp_path):
        rule = LatticeRule(5, (1, 2))
        path = tmp_path / "rule.txt"
        save_lattice(rule, path)
        assert load_lattice(path) == rule

    def test_cubature_roundtrip(self, tmp_path, rng):
        cub = WeightedCubature(rng.uniform(size=(6, 3)), rng.normal(size=6))
        path = tmp_path / "rule.qw"
        save_cubature(cub, path)
        back = load_cubature(path)
        assert np.array_equal(back.nodes, cub.nodes)
        assert np.array_equal(back.weights, cub.weights)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# lines of numbers, non-finite spellings and junk, besides arbitrary text
_TOKEN = st.one_of(st.integers(-40, 40).map(str), st.floats().map(repr),
                   st.sampled_from(["nan", "inf", "-inf", "1e999", "x", "0x1p3"]))
RULE_TEXT = st.one_of(
    st.text(),
    st.lists(st.lists(_TOKEN, max_size=5).map(" ".join), max_size=5).map("\n".join),
)


def _through_file(save, rule, loader):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rule"
        save(rule, path)
        return loader(path)


def _load_text(text, loader):
    return _through_file(lambda t, path: path.write_text(t), text, loader)


class TestFileProperties:
    @given(st.sampled_from([2, 5, 13, 1009]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_lattice_roundtrip(self, n, data):
        d = data.draw(st.integers(1, 4))
        z = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=d, max_size=d))
        shift = data.draw(st.none() | st.lists(FINITE, min_size=d, max_size=d))
        rule = LatticeRule(n, tuple(z), shift)
        assert _through_file(save_lattice, rule, load_lattice) == rule

    @given(st.integers(1, 5), st.integers(1, 4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_cubature_roundtrip(self, n, d, data):
        nodes = np.array(data.draw(st.lists(FINITE, min_size=n * d, max_size=n * d))).reshape(n, d)
        weights = np.array(data.draw(st.lists(FINITE, min_size=n, max_size=n)))
        back = _through_file(save_cubature, WeightedCubature(nodes, weights), load_cubature)
        assert np.array_equal(back.nodes, nodes) and np.array_equal(back.weights, weights)

    @given(RULE_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_text_loads_or_raises_value_error(self, text):
        try:
            rule = _load_text(text, load_lattice)
            assert rule.shift is None or all(0.0 <= x < 1.0 for x in rule.shift)
        except ValueError:
            pass
        try:
            cub = _load_text(text, load_cubature)
            assert cub.n >= 1 and np.all(np.isfinite(cub.nodes)) and np.all(np.isfinite(cub.weights))
        except ValueError:
            pass

    @pytest.mark.parametrize("text, loader", [
        ("5 2\n1 2\nnan 0.5\n", load_lattice),
        ("5 2\n1 2\n0.5 inf\n", load_lattice),
        ("5 2\n1 2\n0.5 0.5\n0.1 0.1\n", load_lattice),
        ("1 2\n1 0.5 inf\n", load_cubature),
        ("1 2\nnan 0.5 0.5\n", load_cubature),
        ("", load_cubature),
        ("0 3\n", load_cubature),
        ("2 2\n1 0.5 0.5\n1 0.5\n", load_cubature),
    ])
    def test_malformed_files_raise_value_error(self, text, loader):
        with pytest.raises(ValueError):
            _load_text(text, loader)

    def test_tiny_negative_shift_wraps_to_zero(self):
        assert LatticeRule(5, (1, 2), (-5e-324, 0.25)).shift == (0.0, 0.25)


class TestCubature:
    def test_apply_constant(self):
        cub = LatticeRule(5, (1, 2)).cubature()
        assert cub.apply(lambda p: np.ones(p.shape[0])) == pytest.approx(1.0)

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError):
            WeightedCubature(np.zeros((3, 2)), np.ones(4))
