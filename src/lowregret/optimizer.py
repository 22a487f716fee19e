"""Optimality system and solver for the reduced control problem.

The reduced objective is a strictly convex quadratic in the control, so its
minimizer solves a linear system H u = b.  Applying H needs only forward and
backward sweeps: with S the forward solve from zero initial data, R the t=0
trace of the backward solve, and T the forward solve from an initial datum
with zero source,

    H v = S*S v + control_weight * v + (1/gamma) S* T R S v
    b   = -S*(q(0,0) - z_d)

where S* is the backward solve (exact transpose of S under the space-time
inner product) and T is the exact transpose of R.  H is symmetric positive
definite in that inner product, so the system is solved by conjugate
gradients with matching inner products.  Its residual b - H u equals
-(control_weight * u + phi) for the control adjoint phi, hence the CG
stopping criterion directly bounds the stationarity residual.

The first-order system itself splits the gamma factor symmetrically: the
worst-response variable psi propagates -xi(0)/sqrt(gamma) forward and feeds
-psi/sqrt(gamma) into the adjoint source, which keeps each equation's data
bounded as gamma shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import BackwardProblem, ForwardProblem, backward_defect, forward_defect
from .functional import RegretConfig, reduced_cost, workspace
from .grids import (
    ParameterError, _check_positive, _check_space_time, inner_product_q, norm_omega, norm_q
)

DEFAULT_SWEEP_GAMMAS = (1.0, 1e-1, 1e-2, 1e-3, 1e-4)


@dataclass(frozen=True, eq=False)
class OptimalityBundle:
    """Converged control together with its first-order system.

    ``state`` is the trajectory under the control with zero initial datum,
    ``uncertainty_adjoint`` the backward solve driven by the control-induced
    state perturbation, ``worst_response`` the forward propagation of the
    scaled datum -xi(0)/sqrt(gamma), and ``control_adjoint`` the backward
    solve whose slices 1..M equal -control_weight * control at optimality.
    ``worst_initial_datum`` is the maximizer xi(0)/gamma of the inner
    uncertainty problem.
    """

    control: np.ndarray
    state: np.ndarray
    uncertainty_adjoint: np.ndarray
    worst_response: np.ndarray
    control_adjoint: np.ndarray
    worst_initial_datum: np.ndarray
    value: float
    cg_iterations: int
    cg_residual: float
    converged: bool


@dataclass(frozen=True, eq=False)
class GammaSweepReport:
    """Continuation record over a decreasing sequence of gamma values.

    ``xi0_norms`` tracks |xi(0; u^gamma)|_Omega, the quantity whose decay
    certifies approach to the hedged problem; ``slope`` is the least-squares
    slope of log |xi(0)| against log gamma.  ``distances`` holds the norms
    |u^{gamma_k} - u^{gamma_{k+1}}|_Q of consecutive controls.  A sweep is
    ``degenerate`` when some xi(0) norm underflows to zero (all-zero data),
    in which case ``slope`` is NaN.
    """

    gammas: tuple[float, ...]
    controls: tuple[np.ndarray, ...]
    xi0_norms: tuple[float, ...]
    control_norms: tuple[float, ...]
    values: tuple[float, ...]
    distances: tuple[float, ...]
    cg_iterations: tuple[int, ...]
    converged: tuple[bool, ...]
    slope: float
    degenerate: bool


def normal_rhs(cfg: RegretConfig) -> np.ndarray:
    """Right-hand side b = -S*(q(0,0) - z_d), slice 0 pinned to zero."""
    ws = workspace(cfg)
    rhs = -ws.backward(ws.q_background - cfg.z_d, ws.zero_g)
    rhs[0] = 0.0
    return rhs


def apply_normal_operator(v: np.ndarray, cfg: RegretConfig) -> np.ndarray:
    """Apply H to a control field (slice 0 of the result is zero)."""
    v = _check_space_time(v, cfg.grid, cfg.tgrid)
    ws = workspace(cfg)
    sv = ws.forward(v, ws.zero_g)
    xi = ws.backward(sv, ws.zero_g)
    propagated = ws.forward(ws.zero_field, xi[0])
    out = ws.backward(sv + propagated / cfg.gamma, ws.zero_g)
    out += cfg.control_weight * v
    out[0] = 0.0
    return out


def _first_order_system(v: np.ndarray, cfg: RegretConfig):
    """State, uncertainty adjoint, worst response and control adjoint at v."""
    ws = workspace(cfg)
    root_gamma = math.sqrt(cfg.gamma)
    state = ws.forward(cfg.f + v, ws.zero_g)
    perturbation = ws.forward(v, ws.zero_g)
    xi = ws.backward(perturbation, ws.zero_g)
    psi = ws.forward(ws.zero_field, -xi[0] / root_gamma)
    phi = ws.backward((state - cfg.z_d) - psi / root_gamma, ws.zero_g)
    return state, xi, psi, phi


def reduced_gradient(v: np.ndarray, cfg: RegretConfig) -> np.ndarray:
    """Gradient of the reduced objective, 2 (control_weight * v + phi).

    Slice 0 is zeroed: controls act on slices 1..M only.
    """
    v = _check_space_time(v, cfg.grid, cfg.tgrid)
    _, _, _, phi = _first_order_system(v, cfg)
    grad = 2.0 * (cfg.control_weight * v + phi)
    grad[0] = 0.0
    return grad


def solve_low_regret(
    cfg: RegretConfig,
    initial_control: np.ndarray | None = None,
    callback=None,
) -> OptimalityBundle:
    """Minimize the reduced objective by conjugate gradients on H u = b.

    ``initial_control`` warm-starts the iteration (its slice 0 is ignored).
    ``callback(iteration, residual_norm)`` is invoked once per iteration.
    Stops when the residual drops below cg_tol * |b|_Q or after
    cg_max_iters iterations, whichever comes first.
    """
    b = normal_rhs(cfg)
    b_norm = norm_q(b, cfg.grid, cfg.tgrid)
    tol = cfg.cg_tol * max(b_norm, np.finfo(float).tiny)

    if initial_control is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = _check_space_time(initial_control, cfg.grid, cfg.tgrid).astype(float).copy()
        x[0] = 0.0
        r = b - apply_normal_operator(x, cfg)

    r_sq = inner_product_q(r, r, cfg.grid, cfg.tgrid)
    p = r.copy()
    iterations = 0
    while math.sqrt(r_sq) > tol and iterations < cfg.cg_max_iters:
        hp = apply_normal_operator(p, cfg)
        alpha = r_sq / inner_product_q(p, hp, cfg.grid, cfg.tgrid)
        x += alpha * p
        r -= alpha * hp
        r_sq_next = inner_product_q(r, r, cfg.grid, cfg.tgrid)
        iterations += 1
        if callback is not None:
            callback(iterations, math.sqrt(r_sq_next))
        p = r + (r_sq_next / r_sq) * p
        r_sq = r_sq_next

    residual = math.sqrt(r_sq)
    state, xi, psi, phi = _first_order_system(x, cfg)
    return OptimalityBundle(
        control=x,
        state=state,
        uncertainty_adjoint=xi,
        worst_response=psi,
        control_adjoint=phi,
        worst_initial_datum=xi[0] / cfg.gamma,
        value=reduced_cost(x, cfg),
        cg_iterations=iterations,
        cg_residual=residual,
        converged=bool(residual <= tol),
    )


def optimality_residuals(bundle: OptimalityBundle, cfg: RegretConfig) -> dict[str, float]:
    """Defects of the five first-order conditions at a candidate bundle.

    The four equation residuals re-substitute the stored trajectories into
    their marching schemes; the stationarity residual is
    |control_weight * u + phi|_Q.  All five vanish at the minimizer.
    """
    ws = workspace(cfg)
    root_gamma = math.sqrt(cfg.gamma)
    u = bundle.control
    xi0 = bundle.uncertainty_adjoint[0]
    return {
        "state": forward_defect(
            ForwardProblem(ws.operator, cfg.tgrid, cfg.f + u, ws.zero_g),
            bundle.state,
        ),
        "uncertainty_adjoint": backward_defect(
            BackwardProblem(
                ws.operator, cfg.tgrid, bundle.state - ws.q_background, ws.zero_g
            ),
            bundle.uncertainty_adjoint,
        ),
        "worst_response": forward_defect(
            ForwardProblem(ws.operator, cfg.tgrid, ws.zero_field, -xi0 / root_gamma),
            bundle.worst_response,
        ),
        "control_adjoint": backward_defect(
            BackwardProblem(
                ws.operator,
                cfg.tgrid,
                (bundle.state - cfg.z_d) - bundle.worst_response / root_gamma,
                ws.zero_g,
            ),
            bundle.control_adjoint,
        ),
        "stationarity": norm_q(
            cfg.control_weight * u + bundle.control_adjoint, cfg.grid, cfg.tgrid
        ),
    }


def check_gammas(gammas) -> tuple[float, ...]:
    """``gammas`` as floats; ParameterError unless two or more, positive, finite, decreasing."""
    if len(gammas) < 2:
        raise ParameterError("gammas", f"must hold at least two values, got {len(gammas)}")
    for idx, g in enumerate(gammas):
        _check_positive(f"gammas[{idx}]", g)
    gammas = tuple(float(g) for g in gammas)
    if any(b >= a for a, b in zip(gammas, gammas[1:])):
        raise ParameterError("gammas", "must be strictly decreasing")
    return gammas


def gamma_sweep(
    cfg: RegretConfig,
    gammas: tuple[float, ...] = DEFAULT_SWEEP_GAMMAS,
    callback=None,
) -> GammaSweepReport:
    """Solve along a decreasing gamma sequence with warm starts.

    The problem data of ``cfg`` is reused at every gamma (its own gamma
    value is ignored); each stage solves ``cfg.with_gamma(g)``, so assembled
    operator and background state are shared across the sweep.
    ``callback(gamma, bundle)`` runs after each solve.
    """
    gammas = check_gammas(gammas)

    controls: list[np.ndarray] = []
    xi0_norms: list[float] = []
    control_norms: list[float] = []
    values: list[float] = []
    iters: list[int] = []
    converged: list[bool] = []

    warm = None
    for g in gammas:
        bundle = solve_low_regret(cfg.with_gamma(g), initial_control=warm)
        warm = bundle.control
        controls.append(bundle.control)
        xi0_norms.append(norm_omega(bundle.uncertainty_adjoint[0], cfg.grid))
        control_norms.append(norm_q(bundle.control, cfg.grid, cfg.tgrid))
        values.append(bundle.value)
        iters.append(bundle.cg_iterations)
        converged.append(bundle.converged)
        if callback is not None:
            callback(g, bundle)

    distances = tuple(
        norm_q(a - b, cfg.grid, cfg.tgrid) for a, b in zip(controls, controls[1:])
    )
    degenerate = any(x <= 0.0 for x in xi0_norms)
    if degenerate:
        slope = float("nan")
    else:
        slope = float(np.polyfit(np.log(gammas), np.log(xi0_norms), 1)[0])

    return GammaSweepReport(
        gammas=gammas,
        controls=tuple(controls),
        xi0_norms=tuple(xi0_norms),
        control_norms=tuple(control_norms),
        values=tuple(values),
        distances=distances,
        cg_iterations=tuple(iters),
        converged=tuple(converged),
        slope=slope,
        degenerate=degenerate,
    )
