"""Verified spectral bounds for entrywise matrix products.

Upper bounds on the Perron root of Hadamard products of nonnegative
matrices, and lower bounds on the minimum eigenvalue of Fan products and
A ∘ B⁻¹ over nonsingular M-matrices, each checked against an
independently computed eigen-extremum and exercised by a seeded random
harness.
"""
from .core import (MatrixClassification, as_matrix, classify,
                   cyclic_permutation, fan_power, fan_product, hadamard,
                   perturb_cyclic)
from .errors import (ClassMismatchError, ConvergenceError, MatrixFormatError,
                     MboundError, SingularMatrixError)
from .spectral import SpectralResult, rho_nonnegative, tau_m_matrix
from .bounds import BoundResult, HolderExponents
from .harness import (FAMILIES, Family, GeneratorSpec, TrialReport,
                      gen_m_matrix, gen_nonnegative, lemma_product_m_matrix,
                      run_fan_suite, run_hadamard_suite, run_hinv_suite,
                      run_multi_fan_suite, run_suite)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # classification / products
    "MatrixClassification", "as_matrix", "classify", "hadamard",
    "fan_product", "fan_power", "cyclic_permutation", "perturb_cyclic",
    # errors
    "MboundError", "MatrixFormatError", "ClassMismatchError",
    "SingularMatrixError", "ConvergenceError",
    # spectral
    "SpectralResult", "rho_nonnegative", "tau_m_matrix",
    # bounds
    "BoundResult", "HolderExponents",
    # harness
    "GeneratorSpec", "TrialReport", "gen_nonnegative", "gen_m_matrix",
    "lemma_product_m_matrix", "Family", "FAMILIES", "run_suite",
    "run_hadamard_suite", "run_fan_suite", "run_hinv_suite",
    "run_multi_fan_suite",
]
