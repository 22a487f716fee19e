"""Low-regret optimal control of 1-D fractional diffusion with unknown initial data.

The library discretizes the state equation

    d/dt q + (-Delta)^s q = f + v   on  Omega x (0, T),
    q = 0                           on  (R minus Omega) x (0, T),
    q(0) = g                        on  Omega,

where the control v acts through the source and the initial datum g is
unknown.  Controls are ranked by the worst-case regret against doing
nothing, relaxed by a quadratic penalty of weight gamma on the unknown
datum; the relaxed problem reduces, via a Legendre-Fenchel transform, to
minimizing a strictly convex quadratic functional of v alone.  All adjoint
identities the reduction relies on hold to round-off at the discrete level
because the backward solver is the exact transpose of the forward one.
"""

from .grids import (
    ParameterError,
    SpatialGrid,
    TimeGrid,
    build_grid,
    build_time_grid,
    inner_product_omega,
    inner_product_q,
    norm_omega,
    norm_q,
    zeros_space_time,
)
from .operator import (
    FracOperator,
    assemble_operator,
    integration_by_parts_residual,
    nonlocal_normal_derivative,
    normalization_constant,
)
from .evolution import (
    Propagator,
    backward_defect,
    forward_defect,
    solve_backward,
    solve_forward,
    step_factor,
    superposition_residual,
)
from .functional import (
    Probe,
    RegretConfig,
    cost,
    cost_decomposition_residual,
    duality_residual,
    fenchel_gap,
    reduced_cost,
    relaxed_cost,
    solve_uncertainty_adjoint,
)
from .optimizer import (
    GammaSweepReport,
    OptimalityBundle,
    gamma_sweep,
    optimality_residuals,
    reduced_gradient,
    solve_low_regret,
)

__version__ = "0.1.0"

__all__ = [
    "ParameterError",
    "SpatialGrid",
    "TimeGrid",
    "build_grid",
    "build_time_grid",
    "inner_product_omega",
    "inner_product_q",
    "norm_omega",
    "norm_q",
    "zeros_space_time",
    "FracOperator",
    "assemble_operator",
    "normalization_constant",
    "nonlocal_normal_derivative",
    "integration_by_parts_residual",
    "Propagator",
    "step_factor",
    "solve_forward",
    "solve_backward",
    "forward_defect",
    "backward_defect",
    "superposition_residual",
    "Probe",
    "RegretConfig",
    "cost",
    "relaxed_cost",
    "reduced_cost",
    "solve_uncertainty_adjoint",
    "cost_decomposition_residual",
    "duality_residual",
    "fenchel_gap",
    "OptimalityBundle",
    "GammaSweepReport",
    "reduced_gradient",
    "solve_low_regret",
    "optimality_residuals",
    "gamma_sweep",
    "__version__",
]
