"""Cost functionals for control under unknown initial data.

For a control v and initial datum g, the state q(v, g) solves the forward
problem with source f + v and initial g, and

    cost(v, g)         = |q(v,g) - z_d|_Q^2 + control_weight * |v|_Q^2
    relaxed_cost(v, g) = cost(v, g) - gamma * |g|_Omega^2

Hedging against the worst admissible g reduces, through a Legendre-Fenchel
transform of the sup over g, to the single-variable functional

    reduced_cost(v) = relaxed_cost(v, 0) - relaxed_cost(0, 0)
                      + (1/gamma) * |xi(0; v)|_Omega^2

where xi(.; v) solves the backward problem driven by the control-induced
state perturbation and its t=0 trace measures how much v could be exploited
by an adversarial initial datum.  Every identity connecting these objects
holds at round-off level because the discrete solvers are exact transposes
of one another.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .evolution import (
    BackwardProblem,
    ForwardProblem,
    solve_backward,
    solve_forward,
    step_factor,
)
from .grids import (
    ParameterError,
    SpatialGrid,
    TimeGrid,
    _check_count,
    _check_finite,
    _check_positive,
    _check_space_time,
    _check_spatial,
    inner_product_omega,
    inner_product_q,
)
from .modal import NormalModes
from .operator import FracOperator, assemble_operator


def check_parameters(s, control_weight, gamma, cg_tol, cg_max_iters) -> None:
    """Raise ParameterError naming the first scalar parameter out of range."""
    _check_finite("s", s)
    if not 0.0 < s < 1.0:
        raise ParameterError("s", f"must lie strictly between 0 and 1, got {s}")
    _check_positive("control_weight", control_weight)
    _check_positive("gamma", gamma)
    _check_positive("cg_tol", cg_tol)
    _check_count("cg_max_iters", cg_max_iters)


@dataclass(frozen=True, eq=False)
class RegretConfig:
    """Problem data for the relaxed worst-case control problem.

    ``gamma`` is the relaxation weight on the unknown initial datum and
    ``control_weight`` the quadratic penalty on the control itself.  ``f``
    and ``z_d`` are finite space-time fields (background source and tracking
    target).  Derived quantities (assembled operator, factorization,
    background state) are built on first use and kept on the instance;
    ``with_gamma`` shares them with the same problem at another gamma.
    """

    s: float
    control_weight: float
    gamma: float
    f: np.ndarray = field(repr=False)
    z_d: np.ndarray = field(repr=False)
    grid: SpatialGrid = field(repr=False)
    tgrid: TimeGrid = field(repr=False)
    cg_tol: float = 1e-12
    cg_max_iters: int = 5000

    def __post_init__(self):
        check_parameters(self.s, self.control_weight, self.gamma, self.cg_tol, self.cg_max_iters)
        for name in ("f", "z_d"):
            value = _check_space_time(getattr(self, name), self.grid, self.tgrid)
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")

    @cached_property
    def _workspace(self) -> "_Workspace":
        return _Workspace(self)

    def with_gamma(self, gamma: float) -> "RegretConfig":
        """The same problem at relaxation weight ``gamma``.

        gamma enters no derived quantity, so the returned config shares this
        one's workspace (built here if it does not exist yet).
        """
        other = replace(self, gamma=gamma)
        object.__setattr__(other, "_workspace", workspace(self))
        return other


@dataclass(frozen=True, eq=False)
class UncertaintyAdjoint:
    """Backward solution driven by the control-induced state perturbation.

    ``initial_value`` is slice 0 of ``trajectory``: the t=0 trace paired
    against candidate initial data in the duality identities.
    """

    trajectory: np.ndarray
    initial_value: np.ndarray


class _Workspace:
    """Derived state of one problem: operator, step factorization, background
    state, and (built on first use) the operator's modes.  Holds no reference
    to the config that owns it."""

    def __init__(self, cfg: RegretConfig):
        self.tgrid = cfg.tgrid
        self.control_weight = cfg.control_weight
        self.operator: FracOperator = assemble_operator(cfg.grid, cfg.s)
        self.factor = step_factor(self.operator, cfg.tgrid)
        self.zero_g = np.zeros(cfg.grid.n)
        self.zero_field = np.zeros_like(np.asarray(cfg.f, dtype=float))
        self.q_background = self.forward(cfg.f, self.zero_g)
        diff = self.q_background - cfg.z_d
        self.relaxed_cost_00 = inner_product_q(diff, diff, cfg.grid, cfg.tgrid)

    @cached_property
    def modes(self) -> NormalModes:
        """Eigenbasis of the operator and the gamma-independent factors of the
        normal operator's modal blocks.  Only solves need them, so they are
        built on the first access, not with the workspace; every gamma of a
        problem shares them."""
        return NormalModes(
            self.operator.matrix, self.tgrid.dt, self.tgrid.steps, self.control_weight
        )

    def forward(self, source, initial) -> np.ndarray:
        return solve_forward(
            ForwardProblem(self.operator, self.tgrid, source, initial), self.factor
        )

    def backward(self, source, terminal) -> np.ndarray:
        return solve_backward(
            BackwardProblem(self.operator, self.tgrid, source, terminal), self.factor
        )


def workspace(cfg: RegretConfig) -> _Workspace:
    """The config's derived state, built on the first call."""
    return cfg._workspace


def cost(v: np.ndarray, g: np.ndarray, cfg: RegretConfig) -> float:
    """Tracking cost plus control penalty for control v and initial datum g."""
    v = _check_space_time(v, cfg.grid, cfg.tgrid)
    g = _check_spatial(g, cfg.grid)
    ws = workspace(cfg)
    q = ws.forward(cfg.f + v, g)
    diff = q - cfg.z_d
    return inner_product_q(diff, diff, cfg.grid, cfg.tgrid) + cfg.control_weight * inner_product_q(v, v, cfg.grid, cfg.tgrid)


def relaxed_cost(v: np.ndarray, g: np.ndarray, cfg: RegretConfig) -> float:
    """cost(v, g) minus the relaxation credit gamma * |g|^2."""
    g = _check_spatial(g, cfg.grid)
    return cost(v, g, cfg) - cfg.gamma * inner_product_omega(g, g, cfg.grid)


def solve_uncertainty_adjoint(v: np.ndarray, cfg: RegretConfig) -> UncertaintyAdjoint:
    """Backward solve with source q(v,0) - q(0,0) and zero terminal value.

    The source equals the zero-initial forward solve of v alone (linearity),
    which is how it is computed here; the superposition test covers the
    equivalence.
    """
    v = _check_space_time(v, cfg.grid, cfg.tgrid)
    ws = workspace(cfg)
    perturbation = ws.forward(v, ws.zero_g)
    traj = ws.backward(perturbation, ws.zero_g)
    return UncertaintyAdjoint(traj, traj[0].copy())


def reduced_cost(v: np.ndarray, cfg: RegretConfig) -> float:
    """Worst-case-over-uncertainty objective in the control alone.

    Strictly convex quadratic; zero at v = 0 and bounded below by
    -relaxed_cost(0, 0).
    """
    v = _check_space_time(v, cfg.grid, cfg.tgrid)
    ws = workspace(cfg)
    q = ws.forward(cfg.f + v, ws.zero_g)
    diff = q - cfg.z_d
    base = inner_product_q(diff, diff, cfg.grid, cfg.tgrid) + cfg.control_weight * inner_product_q(v, v, cfg.grid, cfg.tgrid)
    xi0 = solve_uncertainty_adjoint(v, cfg).initial_value
    return base - ws.relaxed_cost_00 + inner_product_omega(xi0, xi0, cfg.grid) / cfg.gamma


def cost_decomposition_residual(v: np.ndarray, g: np.ndarray, cfg: RegretConfig) -> float:
    """Residual of the regret decomposition

    relaxed_cost(v,g) - relaxed_cost(0,g)
        = relaxed_cost(v,0) - relaxed_cost(0,0)
          + 2 <q(0,g) - q(0,0), q(v,0) - q(0,0)>_Q

    (the gamma |g|^2 credits on the two sides cancel exactly and are kept
    grouped that way).  Zero in exact arithmetic for every (v, g).
    """
    v = _check_space_time(v, cfg.grid, cfg.tgrid)
    g = _check_spatial(g, cfg.grid)
    ws = workspace(cfg)
    lhs = relaxed_cost(v, g, cfg) - relaxed_cost(0 * v, g, cfg)
    q_v0 = ws.forward(cfg.f + v, ws.zero_g)
    q_0g = ws.forward(cfg.f, g)
    cross = inner_product_q(
        q_0g - ws.q_background, q_v0 - ws.q_background, cfg.grid, cfg.tgrid
    )
    rhs = relaxed_cost(v, ws.zero_g, cfg) - ws.relaxed_cost_00 + 2.0 * cross
    return abs(lhs - rhs)


def duality_residual(v: np.ndarray, g: np.ndarray, cfg: RegretConfig) -> float:
    """Residual of <g, xi(0; v)>_Omega = <q(v,0) - q(0,0), q(0,g) - q(0,0)>_Q."""
    v = _check_space_time(v, cfg.grid, cfg.tgrid)
    g = _check_spatial(g, cfg.grid)
    ws = workspace(cfg)
    lhs = inner_product_omega(g, solve_uncertainty_adjoint(v, cfg).initial_value, cfg.grid)
    q_v0 = ws.forward(cfg.f + v, ws.zero_g)
    q_0g = ws.forward(cfg.f, g)
    rhs = inner_product_q(
        q_v0 - ws.q_background, q_0g - ws.q_background, cfg.grid, cfg.tgrid
    )
    return abs(lhs - rhs)


def fenchel_gap(v: np.ndarray, g: np.ndarray, cfg: RegretConfig) -> float:
    """(1/gamma)|xi(0;v)|^2 minus the probed value 2<g, xi(0;v)> - gamma|g|^2.

    Nonnegative for every probe g; zero exactly at the maximizer
    g* = xi(0; v) / gamma.
    """
    g = _check_spatial(g, cfg.grid)
    xi0 = solve_uncertainty_adjoint(v, cfg).initial_value
    sup_value = inner_product_omega(xi0, xi0, cfg.grid) / cfg.gamma
    probed = 2.0 * inner_product_omega(g, xi0, cfg.grid) - cfg.gamma * inner_product_omega(g, g, cfg.grid)
    return sup_value - probed
