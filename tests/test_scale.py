"""beta0 is the unit of the space: a space and the same space with both
weights times 2^k share every engine output bitwise, and every reported
value and certificate scales by 2^(k d)."""
import numpy as np
import pytest

from permqmc import (KernelSpec, LatticeRule, PermStructure, SpectralWeight, assemble_rule,
                     bound_constant, cbc_construct, worst_case_error_sq)
from permqmc.spectrum import EigenSpectrum
from permqmc.symmetry import _gamma

U = 2.0 ** -53


def _close(scaled, base, factor):
    """scaled = factor * base up to the rounding of beta0^d and the product."""
    return abs(scaled - factor * base) <= 4 * U * abs(scaled)


def _cert_close(scaled, base, factor, value):
    """A certificate: the same, plus the gamma_3 |value| that only a space
    other than its unit space adds."""
    return abs(scaled - factor * base) <= 4 * U * scaled + _gamma(4) * abs(value)


def _outputs(spec, d):
    n = 31
    cbc = cbc_construct(spec, n)
    shifted = LatticeRule(n, cbc.rule.z, tuple(np.linspace(0.1, 0.7, d)))
    e2 = worst_case_error_sq(shifted, spec)
    stream = EigenSpectrum(spec)
    stream.ensure(20)
    out = {"cbc": cbc, "e2": (e2.value, e2.truncation_certificate),
           "C": [bound_constant(spec, lam) for lam in (1.0, 1.5)],
           "eigen": np.array(stream._values)}
    if d <= 3:
        out["rule"] = assemble_rule(spec, 1.5, 16, seed=3)
    return out


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("d, inv", [(3, (1, 2, 3)), (5, (1, 2, 4)), (2, (1,))])
@pytest.mark.parametrize("beta0", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_space_scaled_by_a_power_of_two(alpha, d, inv, beta0, ratio):
    def spec(k):
        w = SpectralWeight(alpha=alpha, beta0=2.0 ** k * beta0, beta1=2.0 ** k * beta0 * ratio)
        return KernelSpec(w, PermStructure(d, inv))

    base = _outputs(spec(0), d)
    for k in (-3, 5):
        other, f = _outputs(spec(k), d), 2.0 ** (k * d)
        a, b = base["cbc"], other["cbc"]
        # engine outputs: bitwise
        assert a.rule.z == b.rule.z
        assert a.per_step_objective == b.per_step_objective
        assert a.per_step_certificate == b.per_step_certificate
        assert base["eigen"].tobytes() == other["eigen"].tobytes()
        pairs = list(zip(base["C"], other["C"]))
        if "rule" in base:
            ra, rb = base["rule"].cubature, other["rule"].cubature
            assert ra.nodes.tobytes() == rb.nodes.tobytes()
            assert ra.raw_weights.tobytes() == rb.raw_weights.tobytes()
            for key in ("e_wor_sq", "residual_target"):
                assert _close(getattr(other["rule"], key), getattr(base["rule"], key), f)
            assert _cert_close(other["rule"].e_wor_certificate, base["rule"].e_wor_certificate,
                               f, other["rule"].e_wor_sq)
            pairs.append((base["rule"].constants.C_d, other["rule"].constants.C_d))
        # reported values and certificates: times 2^(k d)
        assert _close(b.achieved_E2, a.achieved_E2, f)
        assert _cert_close(b.achieved_E2_certificate, a.achieved_E2_certificate, f, b.achieved_E2)
        assert _cert_close(b.certified_bound, a.certified_bound, f, b.certified_bound)
        assert _close(other["e2"][0], base["e2"][0], f)
        assert _cert_close(other["e2"][1], base["e2"][1], f, other["e2"][0])
        for ca, cb in pairs:
            assert cb.lo <= f * ca.hi and f * ca.lo <= cb.hi
            # each end moves by its own rounding
            assert _cert_close(cb.hi - cb.lo, ca.hi - ca.lo, f, 4.0 * cb.hi)
