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
A's eigenbasis (Lynch, Rice and Thomas 1964): ``Propagator.to_modes`` takes
the source into it, each mode then follows the scalar recurrence
``y_m = r (y_{m-1} + dt s_m)`` with ``r = 1/(1 + dt lam)``, and
``Propagator.from_modes`` takes the trajectory back.  ``step_factor(op,
tgrid)`` builds that ``Propagator`` once per problem, from two half-size
eigenproblems because A is centrosymmetric; every sweep, defect and
superposition residual takes it first, so all of them step with the same
(I + dt*A).  The propagator is the only code that knows how V is stored:
its even and odd half blocks, and below ``FOLD_NODES`` nodes the dense V.
From ``FOLD_NODES`` on, a basis change folds the field about the centre and
runs two half-size GEMMs, half the flops of one dense GEMM; below it, the
dense GEMM is cheaper.  The defects keep the dense GEMM with A itself, an
independent check of the fold.  ``Propagator.in_modes`` is the same
propagator with V = I, the solver's route: on it every sweep, single or
stacked, marches modal coefficients by the recurrence alone in its own
trajectory and changes no basis.
``solve_backward`` is the same forward march on a reversed view of the
source, written into a reversed view of its trajectory.  Finiteness is
checked once per value, not once per step: the propagator when it is built
(it is then read-only), and each sweep the source slices it reads (1..M;
slice 0 is never read) and its initial or terminal datum before the march,
then its trajectory after it, so an overflow at any step, the last
included, raises ``ValueError``.

The two half-size eigenproblems run as a pair, the second on a
short-lived thread (``run_pair``), from ``PAIR_NODES`` nodes on where the
process may run on two CPUs.  Each is the same LAPACK call on the same
operands either way, so the bits do not depend on the route.  The
audit's blocks of probe draws run one ahead on such a thread (``run_ahead``)
from two blocks on, at any size; the gate counts the affinity mask's CPUs,
capped by a cgroup v2 CPU quota.

Both sweeps also take a stack along a leading axis: a source (P, M+1, n)
and a datum (P, n) give P trajectories (P, M+1, n) in one march, whose GEMMs
are 3-D ``matmul`` (one GEMM, or pair of half GEMMs, per entry) and whose
recurrence steps all P entries at once.  Each entry equals the single sweep
of that entry bit for bit, which the stacked audit's byte-identical reports
rely on.  An unstacked source or datum is shared by every entry; stacks of
different lengths raise ``ValueError``.  The checks run once per stacked
array.
"""

from __future__ import annotations

import contextlib
import copy
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .grids import (
    SpatialGrid,
    TimeGrid,
    _check_space_time,
    _check_stacks,
    _check_spatial,
    norm_q,
)
from .operator import FracOperator


# Node count from which a basis change runs on the even and odd half blocks
# of V (two half-size GEMMs, n^2 M flops) instead of the dense n x n V
# (2 n^2 M flops); below it the fold's extra numpy calls cost more than the
# flops they save.  One physical forward sweep, folded time over dense time,
# median of five, 1 BLAS thread on two shared vCPUs (n x M): 1.34 at 80 x 30,
# 1.16 at 120 x 60, 1.06 at 128 x 60, 1.04 at 144 x 60, 0.98 at 152 x 60, 0.88
# at 160 x 80, 0.85 at 200 x 100 and 0.73 at 400 x 200.  The solve's sweeps
# change no basis, so the dense path pays only for the audit's stacked sweeps
# at 40 nodes: folded at every size, ``cli.main`` took 1.20 times as long on
# the audit at 40 x 30 and 0.99 on the gamma sweep at 120 x 60 (medians of 50
# interleaved in-process pairs).
FOLD_NODES = 150

# Nodes from which ``centrosymmetric_eigh`` runs its two half-size
# eigenproblems as a pair (``run_pair``), where the process may run on two
# CPUs: about 3 ms a side.  A pair waits for the idle core to wake: 0.4-0.6 ms
# on two shared vCPUs, but 4-15 ms in 5 of 90 pairs timed after 0.4 s of
# single-threaded work, and longer while the host steals time from the
# vCPUs.  Paired time over sequential time, median of 10 to 30, 1 BLAS
# thread, right after the work before it in a run: 0.84-1.00 at 160 nodes,
# 0.82-0.94 at 200, 0.65 at 256, 0.68 at 300 and 0.61 at 400.  With
# OpenBLAS's default of one BLAS thread per CPU (two) the pair oversubscribes
# the CPUs and is slower: 1.05 at 300 and 1.03-1.15 at 400 (medians of 30 and
# 60).  The gate sees the CPU affinity and a cgroup v2 CPU quota, not the
# BLAS's thread count.
PAIR_NODES = 300


@dataclass(frozen=True, eq=False)
class Propagator:
    """Modal propagator of (I + dt*A) for ``operator`` on ``tgrid``.

    ``lam`` holds the eigenvalues of A, even modes first, and ``ratio`` =
    1/(1 + dt*lam) the per-step amplification of each mode.  The
    orthonormal eigenvectors V are kept as their leading rows, which
    determine the rest (see ``centrosymmetric_eigh``): ``even`` = V[:c, :c]
    and ``odd`` = V[:k, c:], with k = n // 2 and c = n - k.  Below
    ``FOLD_NODES`` nodes ``basis`` also holds the dense V; from there on it
    is None.  ``to_modes`` and ``from_modes`` are the only products with V.
    All arrays are derived here from the two given fields, checked to be
    finite once and read-only, so no sweep can pair one operator's
    eigenbasis with another grid, time step or s.
    """

    operator: FracOperator
    tgrid: TimeGrid
    lam: np.ndarray = field(init=False, repr=False)
    ratio: np.ndarray = field(init=False, repr=False)
    even: np.ndarray = field(init=False, repr=False)
    odd: np.ndarray = field(init=False, repr=False)
    basis: np.ndarray | None = field(default=None, init=False, repr=False)
    identity: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        lam, even, odd = centrosymmetric_eigh(self.operator.matrix)
        ratio = 1.0 / (1.0 + self.tgrid.dt * lam)
        for name, a in (("lam", lam), ("ratio", ratio), ("even", even), ("odd", odd)):
            _require_finite(a, "step factor")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if lam.size < FOLD_NODES:  # unfolded from the checked halves
            basis = _dense_basis(even, odd)
            basis.flags.writeable = False
            object.__setattr__(self, "basis", basis)

    def in_modes(self) -> "Propagator":
        """This propagator with V = I (``identity``), for sweeps of modal
        coefficients.  Only the sweeps read ``identity``: its basis changes
        (with V) and defects (with A) are meaningless."""
        view = copy.copy(self)
        object.__setattr__(view, "identity", True)
        return view

    def to_modes(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """x @ V for fields x (..., n): their modal coefficients, even modes first.

        From ``FOLD_NODES`` nodes on, x is folded into u = head + J tail
        (with the centre node of odd n) and w = head - J tail, head and tail
        being its leading and trailing k nodes, and the coefficients are
        u @ even and w @ odd, w taking u's buffer once u is used."""
        if self.basis is not None:
            return np.matmul(x, self.basis, out=out)
        k, c = len(self.odd), len(self.even)
        mirrored = x[..., ::-1][..., :k]  # J times the trailing k nodes
        half = np.empty(x.shape[:-1] + (c,))
        np.add(x[..., :k], mirrored, out=half[..., :k])
        half[..., k:] = x[..., k:c]
        if out is None:
            out = np.empty(x.shape)
        np.matmul(half, self.even, out=out[..., :c])
        np.subtract(x[..., :k], mirrored, out=half[..., :k])
        np.matmul(half[..., :k], self.odd, out=out[..., c:])
        return out

    def from_modes(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """y @ V^T for modal coefficients y (..., n): the fields they make up.

        From ``FOLD_NODES`` nodes on, the even modes give the leading c
        nodes e = y_even @ even^T and the odd modes o = y_odd @ odd^T; the
        head is e + o and the tail J (e - o)."""
        if self.basis is not None:
            return np.matmul(y, self.basis.T, out=out)
        k, c = len(self.odd), len(self.even)
        if out is None:
            out = np.empty(y.shape)
        np.matmul(y[..., :c], self.even.T, out=out[..., :c])
        odd_part = np.matmul(y[..., c:], self.odd.T)
        head = out[..., :k]
        np.subtract(head, odd_part, out=out[..., ::-1][..., :k])
        head += odd_part
        return out


def step_factor(op: FracOperator, tgrid: TimeGrid) -> Propagator:
    """The propagator every sweep of ``op`` on ``tgrid`` takes first."""
    return Propagator(op, tgrid)


def pair_pays(nodes: int) -> bool:
    """Whether the eigendecomposition of an operator on ``nodes`` nodes runs
    its halves as a pair (``run_pair``): ``nodes`` reaches ``PAIR_NODES`` and
    the process may run on two CPUs or more."""
    return nodes >= PAIR_NODES and _usable_cpus() >= 2


def _usable_cpus(root: str = "/") -> int:
    """The affinity mask's CPU count, capped at floor(quota/period) of the
    cgroup v2 ``cpu.max`` (under ``root``) of the process, if it has one."""
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    try:
        with open(os.path.join(root, "proc/self/cgroup")) as fh:
            group = next(line[3:].strip() for line in fh if line.startswith("0::"))
        with open(os.path.join(root, "sys/fs/cgroup", group.lstrip("/"), "cpu.max")) as fh:
            quota, period = fh.read().split()
        return max(1, min(cpus, int(quota) // int(period)))
    except (OSError, StopIteration, ValueError):  # int("max") is a ValueError
        return cpus


def run_pair(first, second):
    """``(first(), second())``, ``second`` on a short-lived thread while
    ``first`` runs here.  The thread is joined before the return, and an
    exception from either call is raised here, ``first``'s before
    ``second``'s.  ``second`` calls no function the benchmark's tracer wraps
    (its span stack is one thread's) and allocates no field: the thread's
    allocations land in a second malloc arena."""
    outcome = {}

    def work():
        try:
            outcome["value"] = second()
        except BaseException as exc:  # raised in the caller below
            outcome["error"] = exc

    worker = threading.Thread(target=work, name="lowregret-pair")
    worker.start()
    try:
        result = first()
    finally:
        worker.join()
    if "error" in outcome:
        raise outcome["error"]
    return result, outcome["value"]


@contextlib.contextmanager
def run_ahead(fill, take, count):
    """Yields the iterator of ``take(k)`` after ``fill(k)`` for k < ``count``.
    From two fills on, under ``run_pair``'s gate and rules (``fill`` as its
    ``second``), ``fill(k + 1)`` runs on a short-lived thread from the return
    of ``take(k)``, which copies out what ``fill(k)`` left (``fill(0)`` runs
    here); an error in a fill is raised at its take, and the thread is joined
    when the ``with`` block exits."""
    if count < 2 or _usable_cpus() < 2:
        yield ((fill(k), take(k))[1] for k in range(count))
        return
    state, wanted, filled = {}, threading.Semaphore(0), threading.Semaphore(0)

    def produce():
        for k in range(1, count):
            wanted.acquire()
            if "stop" in state:
                return
            try:
                fill(k)
            except BaseException as exc:  # raised in the caller, at its take
                state["error"] = exc
            filled.release()

    def consume(k):
        if k:
            filled.acquire()
            if "error" in state:
                raise state["error"]
        value = take(k)
        if k + 1 < count:
            wanted.release()
        return value

    worker = threading.Thread(target=produce, name="lowregret-ahead")
    worker.start()
    try:
        fill(0)  # here, while the thread starts
        yield map(consume, range(count))
    finally:
        state["stop"] = True
        wanted.release()
        worker.join()


_HALF_ROOT = 0.5 ** 0.5


def centrosymmetric_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues and the leading rows of the orthonormal eigenvectors V
    (columns) of a symmetric centrosymmetric matrix, A = J A J with J the
    reversal.

    On a uniform grid A is centrosymmetric, so each eigenvector is even
    (x = Jx) or odd (x = -Jx).  With k = n // 2 and A11, A12 the leading k
    rows split at the centre, the even modes are x = (y, Jy)/sqrt(2) for the
    eigenvectors y of A11 + A12 J and the odd modes x = (z, -Jz)/sqrt(2) for
    those of A11 - A12 J: two symmetric problems of half size (Cantoni and
    Butler 1976).  For odd n the even block gains the centre node,
    x = (y, sqrt(2) w, Jy)/sqrt(2), which couples to the rest with weight
    sqrt(2).  Only the leading rows of A are read; the two halves run as a
    pair (``run_pair``) from ``PAIR_NODES`` on.  Returns lam (even modes
    first), V[:c, :c] and V[:k, c:] with c = n - k; the trailing rows are
    their mirror images, V[c:, :c] = J V[:k, :c] and V[c:, c:] = -J V[:k, c:],
    and the centre row of the odd modes is zero.
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
    halves = (lambda: _symmetric_eigh(even)), (lambda: _symmetric_eigh(odd))
    if pair_pays(n):
        (lam_even, y), (lam_odd, z) = run_pair(*halves)
    else:
        (lam_even, y), (lam_odd, z) = (half() for half in halves)
    y[:k] *= _HALF_ROOT  # the centre row, if any, is already V[k, :c]
    z *= _HALF_ROOT
    return np.concatenate((lam_even, lam_odd)), y, z


def _dense_basis(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The n x n V unfolded from its leading rows ``even`` and ``odd``."""
    k, c = len(odd), len(even)
    basis = np.zeros((k + c, k + c))
    basis[:c, :c] = even
    basis[c:, :c] = even[:k][::-1]
    basis[:k, c:] = odd
    basis[c:, c:] = -odd[::-1]
    return basis


def _symmetric_eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK dsyevd on the upper triangle of a C-ordered symmetric ``block``'s
    transpose (the same matrix); the vectors keep the Fortran order dsyevd writes,
    which the folded GEMMs' bits depend on.  Failure raises LinAlgError, a ValueError."""
    lam, vectors = np.linalg.eigh(block.T, UPLO="U")
    return lam, np.asfortranarray(vectors)


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")


def _march(prop: Propagator, rows: np.ndarray, datum: np.ndarray, out: np.ndarray) -> None:
    """Slices 1..M of the trajectory q_m = (I + dt*A)^{-1} (q_{m-1} + dt*rows[m-1])
    from q_0 = ``datum``, written into ``out`` (..., M, n).  The march runs
    in the eigenbasis: ``to_modes`` on the rows and the datum, the diagonal
    recurrence y_m = ratio * (y_{m-1} + dt*s_m) in place, ``from_modes``
    into ``out``.  On ``Propagator.in_modes`` (V = I) every march runs in
    ``out`` itself, which may be a reversed view, and changes no basis.

    Rows (P, M, n) or a datum (P, n) march a stack.  Its steps are taken
    step-major, so on V each step updates contiguous (P, n) rows.  Each
    entry keeps the bits of its single march: 3-D matmul is one GEMM per
    entry, and a datum's one-row product is the single march's GEMV."""
    ratio, dt = prop.ratio, prop.tgrid.dt
    steps = out.swapaxes(0, -2)  # step m-1 holds dt * s_m in the modes
    if prop.identity:
        np.multiply(rows, dt, out=out)
        carry = datum
    else:
        steps = np.empty(steps.shape)
        prop.to_modes(rows, out=steps.swapaxes(0, -2))
        steps *= dt
        carry = prop.to_modes(datum) if datum.ndim == 1 else prop.to_modes(datum[:, None, :])[:, 0]
    for row in steps:
        row += carry
        row *= ratio
        carry = row
    if prop.identity:
        return
    modal = steps.swapaxes(0, -2)
    if out.strides[-2] < 0:  # a GEMM writes ascending rows only
        out[...] = prop.from_modes(modal)
    else:
        prop.from_modes(modal, out=out)


def _trajectory(rows: np.ndarray, datum: np.ndarray) -> np.ndarray:
    """An empty trajectory (..., M+1, n) for a march of ``rows`` from ``datum``."""
    stack = rows.shape[:-2] if rows.ndim == 3 else datum.shape[:-1]
    return np.empty(stack + (rows.shape[-2] + 1, rows.shape[-1]))


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
    q = _trajectory(rows, init)
    q[..., 0, :] = init
    _march(prop, rows, init, q[..., 1:, :])
    _require_finite(q, "forward trajectory")  # slice 0 is the checked datum
    return q


def solve_backward(prop: Propagator, source: np.ndarray, terminal: np.ndarray) -> np.ndarray:
    rows, terminal = _checked_data(prop, source, terminal, "terminal datum")
    # the forward march on the reversed source, whose step j is time M+1-j
    xi = _trajectory(rows, terminal)
    _march(prop, rows[..., ::-1, :], terminal, xi[..., :0:-1, :])
    xi[..., 0, :] = xi[..., 1, :]  # t=0 trace
    _require_finite(xi, "backward trajectory")  # slice 0 copies slice 1
    return xi


# Bytes of dt * source that a defect subtracts at a time, so that a defect
# holds no field beyond its own.
_DEFECT_BLOCK_BYTES = 16384


def _step_residual(prop: Propagator, traj: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Slices 1..M of traj_m + dt*A traj_m - dt*src_m in one (M, n) array,
    the step's left-hand side minus its source; A is symmetric, so all M
    products are the one GEMM traj[1:] @ A."""
    dt = prop.tgrid.dt
    step = np.matmul(traj[1:], prop.operator.matrix)
    step *= dt
    step += traj[1:]
    rows = max(1, _DEFECT_BLOCK_BYTES // (8 * step.shape[-1]))
    for start in range(0, len(step), rows):
        step[start:start + rows] -= dt * src[1 + start:1 + start + rows]
    return step


def _defect_norm(step: np.ndarray, grid: SpatialGrid, tgrid: TimeGrid) -> float:
    """``norm_q`` of a field whose slices 1..M are ``step``, which is squared
    in place: the same reduction over the same contiguous block, so the same
    bits, and no second field."""
    np.multiply(step, step, out=step)
    return float(grid.h * tgrid.dt * np.add.reduce(step, axis=(-2, -1))) ** 0.5


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
    defect -= traj[:-1]
    res = _defect_norm(defect, grid, tgrid)
    init_res = grid.h ** 0.5 * float(np.linalg.norm(traj[0] - init))
    return res + init_res


def backward_defect(prop: Propagator, traj: np.ndarray, source: np.ndarray, terminal: np.ndarray) -> float:
    """Q-norm of the reversed-recursion defect plus the trace-copy mismatch."""
    grid, tgrid = prop.operator.grid, prop.tgrid
    traj = _check_space_time(traj, grid, tgrid)
    src = _check_space_time(source, grid, tgrid)
    defect = _step_residual(prop, traj, src)
    defect[:-1] -= traj[2:]
    defect[-1] -= _check_spatial(terminal, grid)  # ghost slot at the terminal time
    res = _defect_norm(defect, grid, tgrid)
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
    zero = np.zeros(grid.n)
    return superposition_defect(
        solve_forward(prop, f + v, g), solve_forward(prop, f + v, zero),
        solve_forward(prop, f, g), solve_forward(prop, f, zero),
        grid, tgrid,
    )
