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
definite in that inner product, and ``modal.NormalModes`` inverts it in
the eigenmodes of the operator, exactly up to round-off.  The system is
therefore solved by iterative refinement on that inverse (z = H^{-1} r,
x += z, r -= H z): one or two steps down to gamma = 1e-10 on the shipped
data, more below, as the inverse loses accuracy.  The loop,
one H-apply per step, and the post-solve sweeps run through the same
sweeps on ``RegretConfig.in_modes()``, the problem in A's eigenbasis; the
physical ``optimality_residuals`` check the result.  The residual b - H u
equals -(control_weight * u + phi) for the control adjoint phi, and the
stopping rule is on its Q-norm (the recursive residual), hence it directly
bounds the stationarity residual.

The first-order system itself splits the gamma factor symmetrically: the
worst-response variable psi propagates -xi(0)/sqrt(gamma) forward and feeds
-psi/sqrt(gamma) into the adjoint source, which keeps each equation's data
bounded as gamma shrinks.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .evolution import _DEFECT_BLOCK_BYTES, backward_defect, forward_defect, solve_backward, solve_forward
from .functional import RegretConfig, reduced_cost, solve_uncertainty_adjoint
from .grids import (
    ParameterError, _check_positive, _check_space_time, norm_omega, norm_q
)

DEFAULT_SWEEP_GAMMAS = (1.0, 1e-1, 1e-2, 1e-3, 1e-4)

log = logging.getLogger("lowregret")


@dataclass(frozen=True, eq=False)
class OptimalityBundle:
    """Converged control together with its first-order system.

    ``state`` is the trajectory under the control with zero initial datum,
    ``uncertainty_adjoint`` the backward solve driven by the control-induced
    state perturbation, ``worst_response`` the forward propagation of the
    scaled datum -xi(0)/sqrt(gamma), and ``control_adjoint`` the backward
    solve whose slices 1..M equal -control_weight * control at optimality.
    ``worst_initial_datum`` is the maximizer xi(0)/gamma of the inner
    uncertainty problem.  ``cg_residuals`` holds |b - H u|_Q at the start
    and after each iteration, so it has ``cg_iterations + 1`` entries and
    ends with ``cg_residual``.

    The solve maps ``control`` back to nodes; each trajectory stays modal in
    ``_modal`` until its first read maps it back with ``problem``'s
    propagator (``state`` gains q(0,0)) and moves it to ``_nodal``; copies
    share both dicts, so each trajectory is mapped once for all of them.
    """

    control: np.ndarray
    value: float
    cg_iterations: int
    cg_residual: float
    cg_residuals: tuple[float, ...]
    converged: bool
    problem: RegretConfig = field(repr=False)
    _modal: dict = field(repr=False)
    _nodal: dict = field(default_factory=dict, repr=False)

    def _mapped(self, name: str) -> np.ndarray:
        if name in self._modal:
            self._nodal[name] = self.problem.propagator.from_modes(self._modal.pop(name))
            if name == "state":
                self._nodal[name] += self.problem.q_background
        return self._nodal[name]

    state = property(lambda self: self._mapped("state"))
    uncertainty_adjoint = property(lambda self: self._mapped("uncertainty_adjoint"))
    worst_response = property(lambda self: self._mapped("worst_response"))
    control_adjoint = property(lambda self: self._mapped("control_adjoint"))
    worst_initial_datum = cached_property(lambda self: self.uncertainty_adjoint[0] / self.problem.gamma)


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
    rhs = -solve_backward(cfg.propagator, cfg.q_background - cfg.z_d, np.zeros(cfg.grid.n))
    rhs[0] = 0.0
    return rhs


def apply_normal_operator(v: np.ndarray, cfg: RegretConfig) -> np.ndarray:
    """Apply H to a control field (slice 0 of the result is zero)."""
    v = _check_space_time(v, cfg.grid, cfg.tgrid)
    prop, zero = cfg.propagator, np.zeros(cfg.grid.n)
    sv = solve_forward(prop, v, zero)
    xi0 = solve_backward(prop, sv, zero)[0].copy()  # the trajectory is freed
    source = solve_forward(prop, None, xi0)
    source /= cfg.gamma
    source += sv  # sv + propagated / gamma
    del sv
    out = solve_backward(prop, source, zero)
    out += np.multiply(v, cfg.control_weight, out=source)  # the sweep has read source
    out[0] = 0.0
    return out


def _first_order_system(v: np.ndarray, cfg: RegretConfig):
    """State, uncertainty adjoint, worst response and control adjoint at v."""
    prop, zero = cfg.propagator, np.zeros(cfg.grid.n)
    root_gamma = math.sqrt(cfg.gamma)
    state = solve_forward(prop, cfg.f + v, zero)
    xi = solve_uncertainty_adjoint(v, cfg)
    psi = solve_forward(prop, None, -xi[0] / root_gamma)
    # (state - z_d) - psi/sqrt(gamma), formed in one field, psi/sqrt(gamma)
    # a block of rows at a time, which the backward sweep overwrites with phi
    phi = state - cfg.z_d
    rows = max(1, _DEFECT_BLOCK_BYTES // (8 * phi.shape[-1]))
    for start in range(0, len(phi), rows):
        phi[start:start + rows] -= psi[start:start + rows] / root_gamma
    return state, xi, psi, solve_backward(prop, phi, zero, out=phi)


def reduced_gradient(v: np.ndarray, cfg: RegretConfig) -> np.ndarray:
    """Gradient of the reduced objective, 2 (control_weight * v + phi).

    Slice 0 is zeroed: controls act on slices 1..M only.
    """
    v = _check_space_time(v, cfg.grid, cfg.tgrid)
    _, _, _, phi = _first_order_system(v, cfg)
    grad = 2.0 * (cfg.control_weight * v + phi)
    grad[0] = 0.0
    return grad


def _refine(cfg: RegretConfig, initial_control):
    """Control, residual norm history and tolerance of the refinement.

    A function of its own so that its fields (b, r, z, H z) are freed
    before the post-solve allocates its trajectories, which keeps the peak
    memory of a solve down.
    """
    b = normal_rhs(cfg)
    tol = cfg.cg_tol * max(norm_q(b, cfg.grid, cfg.tgrid), np.finfo(float).tiny)

    if initial_control is None:
        x = np.zeros_like(b)
        r = b
    else:
        x = initial_control  # a new array, the warm start's modal coefficients
        x[0] = 0.0
        r = b - apply_normal_operator(x, cfg)

    residuals = [norm_q(r, cfg.grid, cfg.tgrid)]
    while residuals[-1] > tol and len(residuals) <= cfg.cg_max_iters:
        z = cfg.modes.solve(r, cfg.gamma)
        x += z
        r -= apply_normal_operator(z, cfg)
        residuals.append(norm_q(r, cfg.grid, cfg.tgrid))
        if not residuals[-1] < residuals[-2]:  # the inverse lost its accuracy, or a NaN
            break
    return x, tuple(residuals), tol


def solve_low_regret(
    cfg: RegretConfig, initial_control: np.ndarray | None = None
) -> OptimalityBundle:
    """Minimize the reduced objective by iterative refinement on H u = b.

    It runs on ``cfg.in_modes()``; the warm start and ``control`` change
    basis here, and the bundle's four trajectories on their first read (see
    ``OptimalityBundle``).  ``initial_control`` warm-starts the iteration
    (its slice 0 is ignored; the start costs one H-apply).  Stops when
    |b - H u|_Q drops below cg_tol * |b|_Q, after cg_max_iters steps, or
    after a step whose residual did not fall, whichever comes first;
    ``cg_iterations`` counts the H-applies of the loop.  ``converged`` is
    false unless the residual meets that tolerance and the tolerance, the
    residual and the objective are all finite.
    """
    prop, view = cfg.propagator, cfg.in_modes()
    if initial_control is not None:
        initial_control = prop.to_modes(_check_space_time(initial_control, cfg.grid, cfg.tgrid))
    x, residuals, tol = _refine(view, initial_control)
    residual = residuals[-1]
    value = reduced_cost(x, view)  # first: its sweeps' fields are freed before the bundle's
    modal = dict(zip(
        ("state", "uncertainty_adjoint", "worst_response", "control_adjoint"), _first_order_system(x, view)
    ))
    del view  # the view's target is freed before the control is mapped back
    return OptimalityBundle(
        control=prop.from_modes(x),
        value=value,
        cg_iterations=len(residuals) - 1,
        cg_residual=residual,
        cg_residuals=residuals,
        converged=bool(residual <= tol) and all(map(math.isfinite, (tol, residual, value))),
        problem=cfg,
        _modal=modal,
    )


def optimality_residuals(bundle: OptimalityBundle) -> dict[str, float]:
    """Defects of the five first-order conditions at a candidate bundle.

    The four equation residuals re-substitute the stored trajectories into
    the marching schemes of ``bundle.problem``; the stationarity residual is
    |control_weight * u + phi|_Q.  All five vanish at the minimizer.
    """
    cfg = bundle.problem
    prop, zero = cfg.propagator, np.zeros(cfg.grid.n)
    root_gamma = math.sqrt(cfg.gamma)
    u = bundle.control
    # every field is mapped back, if it is not yet, before a defect allocates
    state, xi = bundle.state, bundle.uncertainty_adjoint
    psi, phi = bundle.worst_response, bundle.control_adjoint
    residuals = {
        "state": forward_defect(prop, state, cfg.f + u, zero),
        "uncertainty_adjoint": backward_defect(prop, xi, state - cfg.q_background, zero),
        "worst_response": forward_defect(prop, psi, None, -xi[0] / root_gamma),
    }
    # (state - z_d) - psi/sqrt(gamma), formed in place and freed before the
    # last residual, so that no step holds more than two fields
    source = state - cfg.z_d
    source -= psi / root_gamma
    residuals["control_adjoint"] = backward_defect(prop, phi, source, zero)
    del source
    residuals["stationarity"] = norm_q(cfg.control_weight * u + phi, cfg.grid, cfg.tgrid)
    return residuals


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


def gamma_sweep(cfg: RegretConfig, gammas: tuple[float, ...] = DEFAULT_SWEEP_GAMMAS) -> GammaSweepReport:
    """Solve along a decreasing gamma sequence with warm starts.

    The problem data of ``cfg`` is reused at every gamma (its own gamma
    value is ignored); each stage solves ``cfg.with_gamma(g)``, so the
    propagator, background state and modal factors are shared across the
    sweep.  Each stage is logged as one INFO record of the ``lowregret``
    logger.
    """
    gammas = check_gammas(gammas)

    stages = []
    for g in gammas:
        bundle = solve_low_regret(cfg.with_gamma(g), initial_control=stages[-1][0] if stages else None)
        stages.append((
            bundle.control, norm_omega(bundle.uncertainty_adjoint[0], cfg.grid),
            norm_q(bundle.control, cfg.grid, cfg.tgrid),
            bundle.value, bundle.cg_iterations, bundle.converged,
        ))
        log.info(
            "  gamma=%g: %d CG iterations, objective %.6e, |xi(0)|=%.3e",
            g, bundle.cg_iterations, bundle.value, stages[-1][1],
        )
    controls, xi0_norms, control_norms, values, iters, converged = zip(*stages)

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
        controls=controls,
        xi0_norms=xi0_norms,
        control_norms=control_norms,
        values=values,
        distances=distances,
        cg_iterations=iters,
        converged=converged,
        slope=slope,
        degenerate=degenerate,
    )
