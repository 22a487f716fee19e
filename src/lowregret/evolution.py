"""Implicit Euler time stepping for the fractional diffusion equation.

``solve_forward`` marches ``(I + dt*A) q^{m+1} = q^m + dt*source^{m+1}``;
the source is read at the right endpoint of each step, matching the
quadrature that defines the space-time inner product.  ``solve_backward``
is constructed to be the exact transpose of the forward source-to-trajectory
map under that inner product.  The transpose recursion has M active values
plus a ghost slot at the terminal time, so the returned array stores the
recursion values on slices M..1 (the terminal datum seeds the ghost slot)
and duplicates slice 1 into slice 0: that entry is the t=0 trace appearing
in every duality identity.  This storage is a derived constraint — the
adjoint tests pin it — not a stylistic choice.

Each step is one LAPACK ``dpotrs`` solve with the shared Cholesky factor of
``I + dt*A``.  Finiteness is checked once per value, not once per step:
``step_factor`` checks the factor and returns it read-only, and each sweep
checks the source slices it reads (1..M; slice 0 is never read) and its
initial or terminal datum before the loop, then its trajectory after it, so
an overflow at any step, the last included, raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs

from .grids import (
    SpatialGrid,
    TimeGrid,
    _check_space_time,
    _check_spatial,
    inner_product_q,
    norm_q,
)
from .operator import FracOperator


@dataclass(frozen=True, eq=False)
class ForwardProblem:
    operator: FracOperator
    tgrid: TimeGrid
    source: np.ndarray    # (M+1, n); slice 0 is never read
    initial: np.ndarray   # (n,)


@dataclass(frozen=True, eq=False)
class BackwardProblem:
    operator: FracOperator
    tgrid: TimeGrid
    source: np.ndarray    # (M+1, n); slice 0 is never read
    terminal: np.ndarray  # (n,)


def step_factor(op: FracOperator, tgrid: TimeGrid):
    """Cholesky factorization ``(c, lower)`` of (I + dt*A), shared by every
    step and both directions; callers doing many solves should build it once.

    ``c`` is checked to be finite here, once, and returned read-only.
    """
    system = np.eye(op.grid.n) + tgrid.dt * op.matrix
    c, lower = cho_factor(system)
    _require_finite(c, "step factor")
    c.flags.writeable = False
    return c, lower


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")


def _potrs_failed(info: int) -> ValueError:
    return ValueError(f"illegal value in {-info}th argument of internal potrs")


def solve_forward(p: ForwardProblem, factor=None) -> np.ndarray:
    grid, tgrid = p.operator.grid, p.tgrid
    src = _check_space_time(p.source, grid, tgrid)
    init = _check_spatial(p.initial, grid)
    _require_finite(src[1:], "source slices 1..M")
    _require_finite(init, "initial datum")
    if factor is None:
        factor = step_factor(p.operator, tgrid)
    c, lower = factor
    dt, m_steps = tgrid.dt, tgrid.steps
    q = np.empty((m_steps + 1, grid.n))
    q[0] = init
    for m in range(m_steps):
        x, info = dpotrs(c, q[m] + dt * src[m + 1], lower=lower, overwrite_b=1)
        if info:
            raise _potrs_failed(info)
        q[m + 1] = x
    _require_finite(q[1:], "forward trajectory")
    return q


def solve_backward(p: BackwardProblem, factor=None) -> np.ndarray:
    grid, tgrid = p.operator.grid, p.tgrid
    src = _check_space_time(p.source, grid, tgrid)
    terminal = _check_spatial(p.terminal, grid)
    _require_finite(src[1:], "source slices 1..M")
    _require_finite(terminal, "terminal datum")
    if factor is None:
        factor = step_factor(p.operator, tgrid)
    c, lower = factor
    dt, m_steps = tgrid.dt, tgrid.steps
    xi = np.empty((m_steps + 1, grid.n))
    carry = terminal
    for m in range(m_steps, 0, -1):
        carry, info = dpotrs(c, carry + dt * src[m], lower=lower, overwrite_b=1)
        if info:
            raise _potrs_failed(info)
        xi[m] = carry
    xi[0] = carry  # t=0 trace
    _require_finite(xi[1:], "backward trajectory")
    return xi


def forward_defect(p: ForwardProblem, traj: np.ndarray) -> float:
    """Q-norm of the stepping defect plus the initial-condition mismatch.

    Re-substitutes the trajectory into the discrete recursion; a trajectory
    produced by ``solve_forward`` comes back at round-off level.
    """
    grid, tgrid = p.operator.grid, p.tgrid
    traj = _check_space_time(traj, grid, tgrid)
    src = _check_space_time(p.source, grid, tgrid)
    init = _check_spatial(p.initial, grid)
    dt = tgrid.dt
    defect = np.zeros_like(traj)
    for m in range(tgrid.steps):
        defect[m + 1] = (
            traj[m + 1]
            + dt * (p.operator.matrix @ traj[m + 1])
            - traj[m]
            - dt * src[m + 1]
        )
    res = norm_q(defect, grid, tgrid)
    init_res = grid.h ** 0.5 * float(np.linalg.norm(traj[0] - init))
    return res + init_res


def backward_defect(p: BackwardProblem, traj: np.ndarray) -> float:
    """Q-norm of the reversed-recursion defect plus the trace-copy mismatch."""
    grid, tgrid = p.operator.grid, p.tgrid
    traj = _check_space_time(traj, grid, tgrid)
    src = _check_space_time(p.source, grid, tgrid)
    dt = tgrid.dt
    defect = np.zeros_like(traj)
    ahead = _check_spatial(p.terminal, grid)  # ghost slot at the terminal time
    for m in range(tgrid.steps, 0, -1):
        defect[m] = (
            traj[m] + dt * (p.operator.matrix @ traj[m]) - ahead - dt * src[m]
        )
        ahead = traj[m]
    res = norm_q(defect, grid, tgrid)
    trace_res = grid.h ** 0.5 * float(np.linalg.norm(traj[0] - traj[1]))
    return res + trace_res


def superposition_defect(
    q_vg: np.ndarray,
    q_v0: np.ndarray,
    q_0g: np.ndarray,
    q_00: np.ndarray,
    grid: SpatialGrid,
    tgrid: TimeGrid,
) -> float:
    """Q-norm of q(v,g) - q(v,0) - q(0,g) + q(0,0) over four solved trajectories.

    Zero in exact arithmetic by linearity of the affine solve map.
    """
    return norm_q(q_vg - q_v0 - q_0g + q_00, grid, tgrid)


def superposition_residual(
    op: FracOperator,
    tgrid: TimeGrid,
    f: np.ndarray,
    v: np.ndarray,
    g: np.ndarray,
    factor=None,
) -> float:
    """``superposition_defect`` of the four solves with source f + v or f and
    initial value g or 0."""
    grid = op.grid
    zero_g = np.zeros(grid.n)
    zero_v = np.zeros_like(_check_space_time(f, grid, tgrid))
    if factor is None:
        factor = step_factor(op, tgrid)

    def run(src, init):
        return solve_forward(ForwardProblem(op, tgrid, src, init), factor)

    return superposition_defect(
        run(f + v, g), run(f + v, zero_g), run(f + zero_v, g), run(f + zero_v, zero_g),
        grid, tgrid,
    )
