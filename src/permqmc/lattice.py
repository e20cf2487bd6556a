"""Rank-1 lattice rules, shifts, and rule file formats."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .symmetry import _frac

__all__ = [
    "is_prime",
    "LatticeRule",
    "WeightedCubature",
    "save_lattice",
    "load_lattice",
    "save_cubature",
    "load_cubature",
    "load_rule",
    "RuleFormatError",
]

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit integers."""
    if n < 2:
        return False
    if n in _MR_WITNESSES:
        return True
    if any(n % p == 0 for p in _MR_WITNESSES):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class LatticeRule:
    """Rank-1 lattice with prime modulus, generating vector, optional shift."""

    n: int
    z: tuple[int, ...]
    shift: tuple[float, ...] | None = None

    def __post_init__(self):
        if not is_prime(self.n):
            raise ValueError(f"modulus {self.n} is not prime")
        z = tuple(int(v) % self.n for v in self.z)
        object.__setattr__(self, "z", z)
        if self.shift is not None:
            sh = tuple(float(x) % 1.0 for x in self.shift)
            if len(sh) != len(z):
                raise ValueError("shift dimension does not match z")
            if not all(math.isfinite(x) for x in sh):
                raise ValueError(f"shift {self.shift} is not finite")
            # x % 1.0 rounds to 1.0 for tiny negative x; 1 and 0 are one shift
            sh = tuple(0.0 if x == 1.0 else x for x in sh)
            object.__setattr__(self, "shift", sh)

    @property
    def d(self) -> int:
        return len(self.z)

    def with_shift(self, shift: Sequence[float] | None) -> "LatticeRule":
        return LatticeRule(self.n, self.z, None if shift is None else tuple(shift))

    def points(self) -> np.ndarray:
        """All n nodes {j*z/n + shift}, j = 0..n-1, exact modular arithmetic."""
        j = np.arange(self.n, dtype=np.int64)
        z = np.asarray(self.z, dtype=np.int64)
        pts = ((j[:, None] * z[None, :]) % self.n) / float(self.n)
        if self.shift is not None:
            pts = _frac(pts + np.asarray(self.shift))
        return pts

    def cubature(self) -> "WeightedCubature":
        return WeightedCubature(self.points(), np.ones(self.n))


class WeightedCubature:
    """Cubature Q(f) = (1/n) * sum_j w_j f(t_j); QMC rules have all w_j = 1."""

    def __init__(self, nodes, weights):
        nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        weights = np.asarray(weights, dtype=float).reshape(-1)
        if nodes.shape[0] != weights.shape[0]:
            raise ValueError("node and weight counts differ")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("nodes and weights must be finite")
        self.nodes = nodes
        self.weights = weights

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def d(self) -> int:
        return self.nodes.shape[1]

    @property
    def raw_weights(self) -> np.ndarray:
        """Weights including the 1/n normalization: Q(f) = raw . f(nodes)."""
        return self.weights / self.n

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """Apply the rule to a vectorized integrand f(points) -> values."""
        vals = np.asarray(f(self.nodes), dtype=float).reshape(-1)
        if vals.shape[0] != self.n:
            raise ValueError("integrand returned wrong number of values")
        return float(self.raw_weights @ vals)

    def __repr__(self):
        return f"WeightedCubature(n={self.n}, d={self.d})"


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def save_lattice(rule: LatticeRule, path) -> None:
    """Plain-text format: "n d" / z integers / optional shift decimals."""
    lines = [f"{rule.n} {rule.d}", " ".join(str(v) for v in rule.z)]
    if rule.shift is not None:
        lines.append(" ".join(f"{x:.17g}" for x in rule.shift))
    Path(path).write_text("\n".join(lines) + "\n")


class _Line(list):
    """The whitespace-split tokens of one line of a rule file, with the
    line's 1-based number in the file."""

    __slots__ = ("number",)

    def __init__(self, tokens: list[str], number: int):
        super().__init__(tokens)
        self.number = number


def _split_lines(path) -> list[_Line]:
    """The non-blank lines of a text file, as ``str.splitlines`` gives them,
    each split on whitespace; the one reader of both rule formats."""
    return [_Line(ln.split(), k) for k, ln in enumerate(Path(path).read_text().splitlines(), 1)
            if ln.strip()]


def _values(line: _Line, kind: type, path) -> list:
    """The tokens of ``line`` as ``kind`` (int or float); a token that is not
    one raises ValueError naming the file, the line and the token."""
    out = []
    for tok in line:
        try:
            out.append(kind(tok))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"rule file {path}, line {line.number}: "
                             f"{tok!r} is not {what}") from None
    return out


def _header(lines: list[_Line], path) -> tuple[int, int]:
    """(n, d) from the header line "n d" that both formats start with."""
    if not lines or len(lines[0]) != 2:
        raise ValueError(f"rule file {path}: expected a header 'n d'")
    n, d = _values(lines[0], int, path)
    if d < 1:
        raise ValueError(f"rule file {path}, line {lines[0].number}: "
                         f"the header gives d = {d}; expected d >= 1")
    return n, d


class RuleFormatError(ValueError):
    """A rule file that is neither a lattice nor a node/weight file."""


def load_rule(path) -> LatticeRule | WeightedCubature:
    """Read a lattice or a node/weight file, told apart by line 2's columns.

    Both formats start with "n d"; line 2 holds the d generators of a lattice
    or the d + 1 values "w t_1 ... t_d" of a node/weight row.  The file is
    read once.  A file of neither shape raises ``RuleFormatError`` (a
    ValueError); a malformed file of either format raises ValueError as its
    loader does.
    """
    lines = _split_lines(path)
    if len(lines) < 2 or len(lines[0]) != 2:
        raise RuleFormatError(
            f"rule file {path}: expected a header 'n d' and at least one more line")
    _, d = _header(lines, path)
    if len(lines[1]) == d:
        return _parse_lattice(lines, path)
    if len(lines[1]) == d + 1:
        return _parse_cubature(lines, path)
    raise RuleFormatError(f"rule file {path}: line 2 has {len(lines[1])} columns; "
                          f"expected {d} (lattice) or {d + 1} (node/weight)")


def load_lattice(path) -> LatticeRule:
    """Read a ``save_lattice`` file; malformed content or a non-finite
    shift raises ValueError."""
    return _parse_lattice(_split_lines(path), path)


def _parse_lattice(lines: list[_Line], path) -> LatticeRule:
    n, d = _header(lines, path)
    if len(lines) > 1 and len(lines[1]) == d + 1:
        raise ValueError(f"lattice file {path}: line {lines[1].number} has d + 1 = {d + 1} "
                         "columns, a node/weight row: this is a node/weight file")
    if len(lines) not in (2, 3):
        raise ValueError(f"malformed lattice file {path}: expected 'n d', the "
                         "generators and an optional shift line")
    z = tuple(_values(lines[1], int, path))
    if len(z) != d:
        raise ValueError(f"lattice file {path}: expected {d} components, got {len(z)}")
    shift = None
    if len(lines) > 2:
        shift = tuple(_values(lines[2], float, path))
        if len(shift) != d:
            raise ValueError(f"lattice file {path}: bad shift length")
    return LatticeRule(n, z, shift)


def save_cubature(rule: WeightedCubature, path) -> None:
    """Node/weight text format: header "N d", then rows "w t_1 ... t_d"."""
    lines = [f"{rule.n} {rule.d}"]
    for w, t in zip(rule.weights, rule.nodes):
        lines.append(" ".join([f"{w:.17g}"] + [f"{x:.17g}" for x in t]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_cubature(path) -> WeightedCubature:
    """Read a ``save_cubature`` file; malformed content or a non-finite
    number raises ValueError."""
    return _parse_cubature(_split_lines(path), path)


def _parse_cubature(lines: list[_Line], path) -> WeightedCubature:
    n, d = _header(lines, path)
    if n < 1:
        raise ValueError(f"cubature file {path}: header needs N >= 1")
    if len(lines) != n + 1:
        raise ValueError(f"cubature file {path}: expected {n} rows")
    if any(len(row) != d + 1 for row in lines[1:]):
        raise ValueError(f"cubature file {path}: expected {d + 1} columns")
    rows = np.array([_values(row, float, path) for row in lines[1:]])
    return WeightedCubature(rows[:, 1:], rows[:, 0])
