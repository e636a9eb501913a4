"""Exact classification data and certified Einstein-metric solving for
compact homogeneous spaces whose isotropy representation splits into three
irreducible summands."""

from .cases import (
    InvolutionMarking,
    SpaceCase,
    case_dims,
    enumerate_cases,
    find_cases,
    inner_decomposition_dims,
    make_case,
)
from .coeffs import IsotropyData, coefficients_for_case, derive_gammas, gamma_from_killing_ratio
from .einstein import (
    CaseSolutions,
    EinsteinSolution,
    refine_solution,
    ricci_coefficients,
    solve_case,
    solve_einstein,
    verify_solution,
)
from .errors import (
    InconsistentData,
    IntegrityError,
    InvalidMarking,
    InvalidRootSystem,
    NotApplicable,
    TrisymError,
)
from .polysolve import (
    IsolatingInterval,
    Polynomial,
    count_real_roots,
    isolate_real_roots,
    refine_root,
    resultant,
    squarefree_part,
    sturm_sequence,
)
from .rootsys import RootSystem, build_root_system, dimension, dual_coxeter_number
from .surd import QuadraticSurd, make_quadratic, roots_of_quadratic

__version__ = "0.1.0"

__all__ = [
    "CaseSolutions",
    "EinsteinSolution",
    "InconsistentData",
    "IntegrityError",
    "InvalidMarking",
    "InvalidRootSystem",
    "InvolutionMarking",
    "IsolatingInterval",
    "IsotropyData",
    "NotApplicable",
    "Polynomial",
    "QuadraticSurd",
    "RootSystem",
    "SpaceCase",
    "TrisymError",
    "build_root_system",
    "case_dims",
    "coefficients_for_case",
    "count_real_roots",
    "derive_gammas",
    "dimension",
    "dual_coxeter_number",
    "enumerate_cases",
    "find_cases",
    "gamma_from_killing_ratio",
    "inner_decomposition_dims",
    "isolate_real_roots",
    "make_case",
    "make_quadratic",
    "refine_root",
    "refine_solution",
    "resultant",
    "ricci_coefficients",
    "roots_of_quadratic",
    "solve_case",
    "solve_einstein",
    "squarefree_part",
    "sturm_sequence",
    "verify_solution",
]
