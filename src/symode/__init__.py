"""Normalization, symmetry classification and integration of normal linear
systems of second-order ODEs x_tt = A(t) x_t + B(t) x + f(t)."""

from .scalars import Field, ToleranceConfig
from .matfun import MatrixFunction, ScalarFunction, VectorFunction
from .gauge import (EquivalenceTransform, GaugeError, SystemDescriptor,
                    TransformedSystem, apply_equivalence, gauge_A_zero,
                    gauge_f_zero, gauge_traceless, singular_class_test,
                    verify_equivalence)
from .symalg import (ClassificationError, ClassificationReport, EssentialAlgebra,
                     SimilarityVerdict, SymmetryVectorField, classify,
                     classify_structured, label_case_n2, similar_constant_coeff,
                     similar_structured, solve_symmetries_sampled,
                     solve_symmetries_traceless_poly, verify_symmetry)
from .integrate import (IntegrationError, IntegrationPlan, SolutionSet, bracket,
                        integrate_auto, integrate_one_symmetry,
                        integrate_singular, integrate_two_symmetries, residual,
                        solve_constant)

__version__ = "0.1.0"

__all__ = [
    "Field", "ToleranceConfig",
    "MatrixFunction", "ScalarFunction", "VectorFunction",
    "SystemDescriptor", "EquivalenceTransform", "TransformedSystem",
    "GaugeError", "apply_equivalence", "gauge_f_zero", "gauge_A_zero",
    "gauge_traceless", "singular_class_test", "verify_equivalence",
    "ClassificationError", "ClassificationReport", "EssentialAlgebra",
    "SimilarityVerdict", "SymmetryVectorField", "classify",
    "classify_structured", "label_case_n2", "similar_constant_coeff",
    "similar_structured", "solve_symmetries_sampled",
    "solve_symmetries_traceless_poly", "verify_symmetry",
    "IntegrationError", "IntegrationPlan", "SolutionSet", "bracket",
    "integrate_auto", "integrate_one_symmetry", "integrate_singular",
    "integrate_two_symmetries", "residual", "solve_constant",
    "__version__",
]
