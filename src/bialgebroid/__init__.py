"""Exact computer algebra for dual pairs of Lie algebroids.

Everything is computed over the rationals with polynomial structure data;
the package decides algebroid axioms, pair compatibility, and the scalar
square property of the associated Dirac-type operator exactly, with
polynomial witnesses on failure.
"""

from .ring import Polynomial, PolynomialError, divergence, field_bracket
from .exterior import (ExteriorError, Form, FrameData, Multivector, interior_by_form,
                       interior_by_multivector, inverse_omega_sharp,
                       inverse_v_sharp, omega_sharp, pairing, retype, v_sharp)
from .algebroid import (AlgebroidError, AlgebroidStructure, ValidationReport,
                        bv_boundary, validate_algebroid)
from .pair import (BialgebroidPair, IdentityRecord, IdentityReport, InternalError,
                   ModularData, PairError, PreconditionError, ScalarReport,
                   SectionE, clifford_act, coordinate_monomials, corollary_suite,
                   courant_axioms, dee, dirac_apply, dirac_square,
                   dirac_star_apply, dirac_star_square, dorfman, f_tilde,
                   f_tilde_star, generator_check,
                   is_lie_bialgebroid, laplacian, metric, modular_cocycles,
                   multivector_probes, rho_apply, rho_field, theorem_c_suite)
from .constructions import (BivectorData, ConstructionError, NijenhuisData,
                            PoissonManifoldData, a_plus_b, exact_from_bivector,
                            exact_identities, find_counterexample_pairs,
                            pn_desk_instance, pn_hierarchy, pn_identities,
                            poisson_double, poisson_homology_check,
                            tangent_algebroid)
from .serialize import (DocumentError, algebroid_from_json, pair_from_json,
                        pair_to_json)

__all__ = [
    "Polynomial", "PolynomialError", "divergence", "field_bracket",
    "ExteriorError", "Form", "FrameData", "Multivector", "interior_by_form",
    "interior_by_multivector", "inverse_omega_sharp", "inverse_v_sharp",
    "omega_sharp", "pairing", "retype", "v_sharp",
    "AlgebroidError", "AlgebroidStructure", "ValidationReport", "bv_boundary",
    "validate_algebroid",
    "BialgebroidPair", "IdentityRecord", "IdentityReport", "InternalError", "ModularData",
    "PairError", "PreconditionError", "ScalarReport",
    "SectionE", "clifford_act", "coordinate_monomials", "corollary_suite",
    "courant_axioms", "dee", "dirac_apply",
    "dirac_square", "dirac_star_apply", "dirac_star_square", "dorfman",
    "f_tilde", "f_tilde_star", "generator_check",
    "is_lie_bialgebroid", "laplacian", "metric", "modular_cocycles",
    "multivector_probes", "rho_apply", "rho_field", "theorem_c_suite",
    "BivectorData", "ConstructionError", "NijenhuisData",
    "PoissonManifoldData", "a_plus_b", "exact_from_bivector",
    "exact_identities", "find_counterexample_pairs", "pn_desk_instance",
    "pn_hierarchy", "pn_identities", "poisson_double",
    "poisson_homology_check", "tangent_algebroid",
    "DocumentError", "algebroid_from_json", "pair_from_json", "pair_to_json",
]
