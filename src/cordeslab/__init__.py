"""Numerical laboratory for nondivergent parabolic operators with
discontinuous leading coefficients: solvability condition checks,
backward Dirichlet solves (direct and fixed-point), and Monte Carlo
cross-validation through path functionals.

The solver's names load on first use (PEP 562), so importing the package,
or a run that solves nothing, loads no scipy."""

import importlib

from .conditions import (ConditionReport, Verdict, check_classical,
                         check_split_condition, ellipticity_delta, full_report,
                         nu_hat, optimize_gamma, select_index_set,
                         symmetric_eigenvalues)
from .expr import ExprEvalError, ExprSyntaxError, parse_expression
from .fields import (Box, CoefficientField, Decomposition, MollifiedField,
                     SampleSet, builtin_problem, decompose, eval_field,
                     make_field, mollify, sample_set)
from .grid import (Grid, GridFunction, NormBundle, NormWeights, apply_stencil,
                   build_grid, discrete_norms, pair)
from .stochastic import (SDE, Estimate, HatSampler, PathEnsemble, PointSampler,
                         TruncatedGaussianSampler, UniformBoxSampler,
                         characteristic_functional, density_compare,
                         feynman_kac, max_principle_check, simulate_paths,
                         verify_pairing)

__version__ = "0.1.0"

__all__ = [
    "ConditionReport", "Verdict", "check_classical", "check_split_condition",
    "ellipticity_delta", "full_report", "nu_hat", "optimize_gamma",
    "select_index_set", "symmetric_eigenvalues",
    "ExprEvalError", "ExprSyntaxError", "parse_expression",
    "Box", "CoefficientField", "Decomposition", "MollifiedField",
    "SampleSet", "builtin_problem", "decompose", "eval_field", "make_field",
    "mollify", "sample_set",
    "Grid", "GridFunction", "NormBundle", "NormWeights", "apply_stencil",
    "build_grid", "discrete_norms", "pair",
    # cordeslab.solver, loaded on first use
    "BackwardProblem", "DiscreteSolution", "FixedPointTrace", "apriori_ratio",
    "assemble_operator", "assemble_step", "estimate_R_norm",
    "fixed_point_solve", "solve_backward", "solve_forward_adjoint",
    "SDE", "Estimate", "HatSampler", "PathEnsemble", "PointSampler",
    "TruncatedGaussianSampler", "UniformBoxSampler",
    "characteristic_functional", "density_compare", "feynman_kac",
    "max_principle_check", "simulate_paths", "verify_pairing",
]


def __getattr__(name):
    # called only for names not bound above: the solver module and the
    # names of __all__ that it defines, imported on first use
    if name == "solver" or name in __all__:
        solver = importlib.import_module(".solver", __name__)
        return solver if name == "solver" else getattr(solver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
