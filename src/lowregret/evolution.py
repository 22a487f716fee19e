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

A is symmetric and time-invariant and dt is uniform, so every sweep runs in
A's eigenbasis (Lynch, Rice and Thomas 1964): one GEMM takes the source
into it, each mode then follows the scalar recurrence
``y_m = r (y_{m-1} + dt s_m)`` with ``r = 1/(1 + dt lam)``, and one GEMM
takes the trajectory back.  ``step_factor(op, tgrid)`` builds that
``Propagator`` once per problem, from two half-size eigenproblems because A
is centrosymmetric; every sweep, defect and superposition residual takes it
first, so all of them step with the same (I + dt*A).  ``solve_backward`` is
the same forward march on the reversed source.  Finiteness is checked once
per value, not once per step: the propagator when it is built (it is then
read-only), and each sweep the source slices it reads (1..M; slice 0 is
never read) and its initial or terminal datum before the march, then its
trajectory after it, so an overflow at any step, the last included, raises
``ValueError``.

Both sweeps also take a stack along a leading axis: a source (P, M+1, n)
and a datum (P, n) give P trajectories (P, M+1, n) in one march, whose GEMMs
are 3-D ``matmul`` (one GEMM per entry) and whose recurrence steps all P
entries at once.  Each entry equals the single sweep of that entry bit for
bit, which the stacked audit's byte-identical reports rely on.  An unstacked
source or datum is shared by every entry; stacks of different lengths raise
``ValueError``.  The checks run once per stacked array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dsyevd

from .grids import (
    SpatialGrid,
    TimeGrid,
    _check_space_time,
    _check_stacks,
    _check_spatial,
    norm_q,
)
from .operator import FracOperator


@dataclass(frozen=True, eq=False)
class Propagator:
    """Modal propagator of (I + dt*A) for ``operator`` on ``tgrid``.

    ``basis`` holds the orthonormal eigenvectors of A as columns, ``lam``
    their eigenvalues and ``ratio`` = 1/(1 + dt*lam) the per-step
    amplification of each mode.  All three are derived here from the two
    given fields, checked to be finite once and read-only, so no sweep can
    pair one operator's eigenbasis with another grid, time step or s.
    """

    operator: FracOperator
    tgrid: TimeGrid
    lam: np.ndarray = field(init=False, repr=False)
    basis: np.ndarray = field(init=False, repr=False)
    ratio: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lam, basis = centrosymmetric_eigh(self.operator.matrix)
        ratio = 1.0 / (1.0 + self.tgrid.dt * lam)
        for name, a in (("lam", lam), ("basis", basis), ("ratio", ratio)):
            _require_finite(a, "step factor")
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def step_factor(op: FracOperator, tgrid: TimeGrid) -> Propagator:
    """The propagator every sweep of ``op`` on ``tgrid`` takes first."""
    return Propagator(op, tgrid)


_HALF_ROOT = 0.5 ** 0.5


def centrosymmetric_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors (columns) of a symmetric
    centrosymmetric matrix, A = J A J with J the reversal.

    On a uniform grid A is centrosymmetric, so each eigenvector is even
    (x = Jx) or odd (x = -Jx).  With k = n // 2 and A11, A12 the leading k
    rows split at the centre, the even modes are x = (y, Jy)/sqrt(2) for the
    eigenvectors y of A11 + A12 J and the odd modes x = (z, -Jz)/sqrt(2) for
    those of A11 - A12 J: two symmetric problems of half size.  For odd n the
    even block gains the centre node, x = (y, sqrt(2) w, Jy)/sqrt(2), which
    couples to the rest with weight sqrt(2).  Only the leading rows are read.
    """
    n = matrix.shape[0]
    k = n // 2
    c = n - k  # size of the even block: k, or k + 1 with the centre node
    mirrored = matrix[:c, ::-1]  # leading rows times J
    even = matrix[:c, :c] + mirrored[:, :c]
    odd = matrix[:k, :k] - mirrored[:k, :k]
    if c > k:  # the centre row and column of the sum hold 2 a and 2 A_cc
        even[k] *= _HALF_ROOT
        even[:, k] *= _HALF_ROOT
    lam_even, y = _symmetric_eigh(even)
    lam_odd, z = _symmetric_eigh(odd)
    basis = np.zeros((n, n))
    basis[:k, :c] = _HALF_ROOT * y[:k]
    basis[c:, :c] = _HALF_ROOT * y[:k][::-1]
    if c > k:
        basis[k, :c] = y[k]
    basis[:k, c:] = _HALF_ROOT * z
    basis[c:, c:] = -_HALF_ROOT * z[::-1]
    return np.concatenate((lam_even, lam_odd)), basis


def _symmetric_eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK ``dsyevd`` on a C-ordered symmetric ``block``, which it
    overwrites: the transpose is the same matrix in Fortran order."""
    lam, vectors, info = dsyevd(block.T, overwrite_a=1)
    if info:
        raise ValueError(f"eigendecomposition failed (dsyevd info={info})")
    return lam, vectors


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")


def _march(prop: Propagator, rows: np.ndarray, datum: np.ndarray) -> np.ndarray:
    """Trajectory (M+1, n) of q_m = (I + dt*A)^{-1} (q_{m-1} + dt*rows[m-1])
    from q_0 = ``datum``, in the eigenbasis: one GEMM into it, the diagonal
    recurrence y_m = ratio * (y_{m-1} + dt*s_m) in place, one GEMM back.

    Rows (P, M, n) or a datum (P, n) march a stack (P, M+1, n), stored
    step-major so that each step updates contiguous (P, n) rows.  Each entry
    keeps the bits of its single march: 3-D matmul is one GEMM per entry,
    and a datum's one-row product is the single march's GEMV."""
    basis, ratio = prop.basis, prop.ratio
    if rows.ndim == 2 and datum.ndim == 1:
        steps = modal = rows @ basis  # row m-1 holds V^T s_m
    else:
        size = len(rows) if rows.ndim == 3 else len(datum)
        steps = np.empty((rows.shape[-2], size, basis.shape[0]))
        modal = steps.transpose(1, 0, 2)
        np.matmul(rows, basis, out=modal)
    steps *= prop.tgrid.dt
    carry = datum @ basis if datum.ndim == 1 else (datum[:, None, :] @ basis)[:, 0]
    for row in steps:
        row += carry
        row *= ratio
        carry = row
    out = np.empty(modal.shape[:-2] + (modal.shape[-2] + 1, basis.shape[0]))
    out[..., 0, :] = datum
    np.matmul(modal, basis.T, out=out[..., 1:, :])
    return out


def _checked_data(prop: Propagator, source, datum, what: str):
    """The source's slices 1..M (the rows a march reads) and the datum,
    checked for shape and finiteness."""
    grid, tgrid = prop.operator.grid, prop.tgrid
    src = _check_space_time(source, grid, tgrid, stacked=True)
    datum = _check_spatial(datum, grid, stacked=True)
    _check_stacks("source", src, 2, what, datum, 1)
    rows = src[..., 1:, :]
    _require_finite(rows, "source slices 1..M")
    _require_finite(datum, what)
    return rows, datum


def solve_forward(prop: Propagator, source: np.ndarray, initial: np.ndarray) -> np.ndarray:
    rows, init = _checked_data(prop, source, initial, "initial datum")
    q = _march(prop, rows, init)
    _require_finite(q, "forward trajectory")  # slice 0 is the checked datum
    return q


def solve_backward(prop: Propagator, source: np.ndarray, terminal: np.ndarray) -> np.ndarray:
    rows, terminal = _checked_data(prop, source, terminal, "terminal datum")
    # the forward march on the reversed source; its slice j is time M+1-j
    marched = _march(prop, np.ascontiguousarray(rows[..., ::-1, :]), terminal)
    xi = np.empty_like(marched)
    xi[..., 1:, :] = marched[..., :0:-1, :]
    xi[..., 0, :] = xi[..., 1, :]  # t=0 trace
    _require_finite(xi, "backward trajectory")  # slice 0 copies slice 1
    return xi


def _step_residual(prop: Propagator, traj: np.ndarray, src: np.ndarray):
    """Field whose slices 1..M are traj_m + dt*A traj_m - dt*src_m (slice 0 zero),
    the step's left-hand side minus its source; A is symmetric, so all M
    products are the one GEMM traj[1:] @ A."""
    out = np.zeros_like(traj)
    step = out[1:]
    np.matmul(traj[1:], prop.operator.matrix, out=step)
    step *= prop.tgrid.dt
    step += traj[1:]
    step -= prop.tgrid.dt * src[1:]
    return out


def forward_defect(prop: Propagator, traj: np.ndarray, source: np.ndarray, initial: np.ndarray) -> float:
    """Q-norm of the stepping defect plus the initial-condition mismatch.

    Re-substitutes the trajectory into the discrete recursion; a trajectory
    produced by ``solve_forward`` comes back at round-off level.
    """
    grid, tgrid = prop.operator.grid, prop.tgrid
    traj = _check_space_time(traj, grid, tgrid)
    src = _check_space_time(source, grid, tgrid)
    init = _check_spatial(initial, grid)
    defect = _step_residual(prop, traj, src)
    defect[1:] -= traj[:-1]
    res = norm_q(defect, grid, tgrid)
    init_res = grid.h ** 0.5 * float(np.linalg.norm(traj[0] - init))
    return res + init_res


def backward_defect(prop: Propagator, traj: np.ndarray, source: np.ndarray, terminal: np.ndarray) -> float:
    """Q-norm of the reversed-recursion defect plus the trace-copy mismatch."""
    grid, tgrid = prop.operator.grid, prop.tgrid
    traj = _check_space_time(traj, grid, tgrid)
    src = _check_space_time(source, grid, tgrid)
    defect = _step_residual(prop, traj, src)
    defect[1:-1] -= traj[2:]
    defect[-1] -= _check_spatial(terminal, grid)  # ghost slot at the terminal time
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


def superposition_residual(prop: Propagator, f: np.ndarray, v: np.ndarray, g: np.ndarray) -> float:
    """``superposition_defect`` of the four solves with source f + v or f and
    initial value g or 0."""
    grid, tgrid = prop.operator.grid, prop.tgrid
    zero_g = np.zeros(grid.n)
    zero_v = np.zeros_like(_check_space_time(f, grid, tgrid))
    return superposition_defect(
        solve_forward(prop, f + v, g), solve_forward(prop, f + v, zero_g),
        solve_forward(prop, f + zero_v, g), solve_forward(prop, f + zero_v, zero_g),
        grid, tgrid,
    )
