"""Test integrands with exact integrals and exact space norms.

Both families are finite combinations of the real symmetrized eigenbasis, so
they are invariant under the admissible coordinate exchanges by construction,
their integrals are read off the constant-mode coefficient, and their norms
are the Euclidean norms of the coefficient vectors.  The eigenvalues of the
space are the basis' unit ones times ``KernelSpec.scale``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx import SymmetricBasis
from .kernels import KernelSpec

__all__ = [
    "TestIntegrand",
    "spectral_integrand",
    "symmetrized_cosine_integrand",
    "random_integrand",
    "invariance_defect",
    "integrand_from_config",
]


@dataclass
class TestIntegrand:
    """Callable integrand with exact integral and exact norm."""

    name: str
    dim: int
    exact_integral: float
    norm: float
    basis: SymmetricBasis
    coeffs: np.ndarray

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        m = self.coeffs.shape[0]
        xi = self.basis.eval_matrix(pts, m)
        lam = self.basis.lambdas(m) * self.basis.spec.scale
        return (self.coeffs * np.sqrt(lam)) @ xi


def spectral_integrand(spec: KernelSpec, coeffs, name: str = "spectral") -> TestIntegrand:
    """Integrand sum_j c_j * eta_j over the real eigenbasis.

    The integral is the coefficient of the constant mode scaled by its mass;
    the norm is ||c||_2 exactly.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    basis = SymmetricBasis(spec)
    m = coeffs.shape[0]
    basis.ensure(m)
    iota = basis.integrals(m)
    lam = basis.lambdas(m) * spec.scale
    exact = float(np.sum(coeffs * np.sqrt(lam) * iota))
    return TestIntegrand(
        name=name, dim=spec.d, exact_integral=exact,
        norm=float(np.linalg.norm(coeffs)), basis=basis, coeffs=coeffs,
    )


def symmetrized_cosine_integrand(spec: KernelSpec, mode_coeffs: dict[int, float],
                                 constant: float = 0.0) -> TestIntegrand:
    """Combination of symmetrized cosine/sine products plus a constant.

    ``mode_coeffs`` maps basis mode indices (0 is the constant mode) to
    coefficients in the orthonormal basis; ``constant`` adds a plain constant
    on top, folded into the mode-0 coefficient.
    """
    m = max(mode_coeffs, default=0) + 1
    coeffs = np.zeros(m)
    for idx, c in mode_coeffs.items():
        coeffs[idx] = c
    # the constant mode's eigenvalue is the scale
    coeffs[0] += constant / math.sqrt(spec.scale)
    return spectral_integrand(spec, coeffs, name="symmetrized_cosine")


def random_integrand(spec: KernelSpec, n_modes: int, norm: float = 1.0,
                     seed: int = 0) -> TestIntegrand:
    """Seeded random element of the unit sphere (scaled by ``norm``) in the
    span of the first ``n_modes`` basis functions."""
    rng = np.random.Generator(np.random.Philox([seed, 0x1D7]))
    c = rng.normal(size=n_modes)
    c *= norm / np.linalg.norm(c)
    return spectral_integrand(spec, c, name=f"spectral_sample(seed={seed})")


def invariance_defect(f, spec: KernelSpec, samples: int = 16, seed: int = 11) -> float:
    """Largest observed |f(x) - f(P x)| over sampled points x and the s - 1
    adjacent transpositions P of the invariant coordinates.

    Those transpositions generate the whole exchange group, so f is
    invariant exactly when it is invariant under each of them.  f is called
    once, on the samples and their transposed copies stacked together.
    """
    rng = np.random.Generator(np.random.Philox([seed, 0x17]))
    pts = rng.uniform(size=(samples, spec.d))
    inv = spec.perm.invariant_idx
    stack = [pts]
    for a, b in zip(inv[:-1], inv[1:]):
        swapped = pts.copy()
        swapped[:, [a, b]] = pts[:, [b, a]]
        stack.append(swapped)
    vals = np.asarray(f(np.concatenate(stack)), dtype=float).reshape(len(stack), samples)
    return float(np.max(np.abs(vals[1:] - vals[0]), initial=0.0))


def integrand_from_config(cfg: dict, spec: KernelSpec) -> TestIntegrand:
    family = cfg.get("family", "spectral_sample")
    if family == "symmetrized_cosine":
        modes = {int(k): float(v) for k, v in cfg.get("coefficients", {}).items()}
        return symmetrized_cosine_integrand(spec, modes,
                                            constant=float(cfg.get("constant", 0.0)))
    if family == "spectral_sample":
        return random_integrand(spec, int(cfg.get("n_modes", 8)),
                                norm=float(cfg.get("norm", 1.0)),
                                seed=int(cfg.get("seed", 0)))
    raise ValueError(f"unknown integrand family {family!r}")
