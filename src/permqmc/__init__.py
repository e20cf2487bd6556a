"""Cubature rules and certified worst-case errors for permutation-invariant
periodic integrands: component-by-component lattice construction plus an
approximation-driven weighted cubature, with every bound cross-checkable by
independent evaluation routes."""

from .weights import (
    Enclosure,
    GeneratorSpec,
    SpectralWeight,
    eta_star,
    min_contraction_order,
    tail_sum,
)
from .symmetry import (
    PermStructure,
    normalize_to_nabla,
)
from .kernels import (
    KernelSpec,
    symmetrized_mass,
)
from .lattice import (
    LatticeRule,
    WeightedCubature,
    is_prime,
    load_cubature,
    load_lattice,
    save_cubature,
    save_lattice,
)
from .errors import (
    BoundConstants,
    ErrorReport,
    bound_constant,
    bound_constants,
    mean_sq_error,
    worst_case_error_sq,
    worst_case_error_sq_spectral,
)
from .cbc import CbcResult, cbc_construct, construct_shifted, shift_search
from .spectrum import (
    EigenSpectrum,
    RateConstants,
    c_prime,
    rate_constants,
    spectrum_tail_constants,
)
from .approx import (
    ApproxAlgorithm,
    AssembledRule,
    SymmetricBasis,
    assemble_rule,
    build_approx_sequence,
)
from .integrands import (
    TestIntegrand,
    random_integrand,
    spectral_integrand,
    symmetrized_cosine_integrand,
)

__version__ = "0.1.0"
