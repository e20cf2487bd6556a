import math

import numpy as np
import pytest

from permqmc.cbc import construct_shifted
from permqmc.errors import worst_case_error_sq
from permqmc.integrands import (
    integrand_from_config,
    invariance_defect,
    random_integrand,
    spectral_integrand,
    symmetrized_cosine_integrand,
)
from permqmc.kernels import KernelSpec
from permqmc.lattice import LatticeRule
from permqmc.symmetry import PermStructure
from permqmc.weights import SpectralWeight


class TestFamilies:
    def test_constant_only(self, spec_d2_full):
        f = symmetrized_cosine_integrand(spec_d2_full, {}, constant=3.0)
        pts = np.array([[0.2, 0.8], [0.5, 0.1]])
        assert np.allclose(f(pts), 3.0)
        assert f.exact_integral == pytest.approx(3.0)
        assert f.norm == pytest.approx(3.0)  # beta0 = 1

    def test_oscillatory_mode_integrates_to_zero(self, spec_d2_full):
        f = symmetrized_cosine_integrand(spec_d2_full, {2: 1.5})
        assert f.exact_integral == 0.0
        # brute integral over a fine grid
        g = np.arange(512) / 512.0
        grid = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        assert abs(np.mean(f(grid))) < 1e-10

    def test_norm_is_coefficient_norm(self, spec_d2_full):
        f = spectral_integrand(spec_d2_full, [0.5, 0.1, -0.3])
        assert f.norm == pytest.approx(math.sqrt(0.25 + 0.01 + 0.09))

    def test_random_integrand_properties(self, spec_d3_full):
        f = random_integrand(spec_d3_full, 12, norm=2.0, seed=4)
        assert f.norm == pytest.approx(2.0)
        assert invariance_defect(f, spec_d3_full) < 1e-10

    def test_invariance_defect_flags_non_invariant_function(self, spec_d3_full):
        calls = []

        def f(x):
            calls.append(x.shape)
            return np.cos(2.0 * math.pi * x[:, 0])

        assert invariance_defect(f, spec_d3_full) > 1e-8
        # one call: the samples and their two adjacent transpositions
        assert calls == [(48, 3)]

    def test_invariance_defect_partial_structure(self):
        spec = KernelSpec(SpectralWeight(), PermStructure(3, (1, 3)))
        assert invariance_defect(lambda x: np.cos(2.0 * math.pi * x[:, 1]), spec) == 0.0
        assert invariance_defect(lambda x: x[:, 0] - x[:, 2], spec) > 1e-8

    def test_invariance_by_construction(self, rng):
        spec = KernelSpec(SpectralWeight(), PermStructure(3, (1, 3)))
        f = random_integrand(spec, 10, seed=1)
        pts = rng.uniform(size=(6, 3))
        swapped = pts[:, [2, 1, 0]]
        assert np.allclose(f(pts), f(swapped), atol=1e-11)

    def test_reproducible(self, spec_d2_full):
        a = random_integrand(spec_d2_full, 8, seed=5)
        b = random_integrand(spec_d2_full, 8, seed=5)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_config_parsing(self, spec_d2_full):
        f = integrand_from_config(
            {"family": "symmetrized_cosine", "coefficients": {"0": 1.0, "4": 0.2}},
            spec_d2_full,
        )
        assert f.name == "symmetrized_cosine"
        g = integrand_from_config({"family": "spectral_sample", "n_modes": 6, "seed": 2}, spec_d2_full)
        assert g.coeffs.shape == (6,)
        with pytest.raises(ValueError):
            integrand_from_config({"family": "nope"}, spec_d2_full)


class TestWorstCaseGuarantee:
    def test_apriori_bound_on_lattice_rules(self, spec_d2_full):
        res = construct_shifted(spec_d2_full, 31, trials=32, seed=2)
        cub = res.rule.cubature()
        rep = worst_case_error_sq(cub, spec_d2_full)
        bound = math.sqrt(rep.value + rep.truncation_certificate)
        for seed in range(5):
            f = random_integrand(spec_d2_full, 40, norm=1.7, seed=seed)
            err = abs(cub.apply(f) - f.exact_integral)
            assert err <= f.norm * bound * (1 + 1e-9) + 1e-12

    def test_exact_on_constants(self, spec_d2_full):
        cub = LatticeRule(13, (1, 5), (0.33, 0.71)).cubature()
        f = symmetrized_cosine_integrand(spec_d2_full, {}, constant=2.5)
        assert cub.apply(f) == pytest.approx(2.5, rel=1e-14)
