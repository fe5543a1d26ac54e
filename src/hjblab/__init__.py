"""Numerical laboratory for Bellman diffusion problems whose diffusion
degenerates in the normal direction at the domain boundary.

The boundary degeneracy, together with an inward drift bound, makes the
domain invariant: the evolution needs no boundary data, admits bounded
barriers and confinement profiles near the boundary, and every solution
drifts at a common rate c toward a corrector chi solving H[chi] = c.
This package discretizes that picture with a monotone finite-difference
scheme and certifies each ingredient numerically.
"""

__version__ = "0.1.0"

from .analysis import (
    ConvergenceReport,
    EnvelopeReport,
    HolderFit,
    boundary_envelope_check,
    convergence_diagnostics,
    holder_fit,
    run_until_flat,
)
from .barriers import (
    BarrierCertificate,
    eval_F_radial,
    find_barrier_delta,
    find_lyapunov_delta,
)
from .cauchy import CauchyState, march, step_explicit, step_implicit_policy
from .ergodic import (
    ErgodicPair,
    normalize_chi,
    solve_ergodic_policy,
    solve_ergodic_rvi,
)
from .errors import ConfigError, NumericalError
from .geometry import Disk, Interval, distance
from .grid import Grid, apply_H, build_grid, cfl_dt, stencil_report
from .problem import (
    ControlProblem,
    DegeneracyCertificate,
    RegularityConstants,
    ValidationReport,
    assemble_problem,
    validate_assumptions,
)

__all__ = [
    "BarrierCertificate",
    "CauchyState",
    "ConfigError",
    "ControlProblem",
    "ConvergenceReport",
    "DegeneracyCertificate",
    "Disk",
    "EnvelopeReport",
    "ErgodicPair",
    "Grid",
    "HolderFit",
    "Interval",
    "NumericalError",
    "RegularityConstants",
    "ValidationReport",
    "apply_H",
    "assemble_problem",
    "boundary_envelope_check",
    "build_grid",
    "cfl_dt",
    "convergence_diagnostics",
    "distance",
    "eval_F_radial",
    "find_barrier_delta",
    "find_lyapunov_delta",
    "holder_fit",
    "march",
    "normalize_chi",
    "run_until_flat",
    "solve_ergodic_policy",
    "solve_ergodic_rvi",
    "stencil_report",
    "step_explicit",
    "step_implicit_policy",
    "validate_assumptions",
]
