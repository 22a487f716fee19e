"""Exact inverse of the reduced normal operator, one time block per mode.

A is symmetric and time-invariant and dt is uniform, so with A = V diag(lam)
V^T every sweep acts on each eigenmode k separately; ``evolution`` marches
the sweeps themselves that way, and ``NormalModes`` takes r from the sweeps'
own ``evolution.Propagator``.  It never sees V: it takes and gives modal
coefficients, the basis the optimizer solves in (``Propagator.to_modes``
and ``from_modes`` map physical fields).  With r = 1/(1 + dt lam_k) the
forward sweep from zero initial data is, on slices 1..M, the
lower-triangular Toeplitz matrix L with entries dt r^(i-j+1), the backward
sweep is its transpose, and the t=0 trace of a backward solve is dt t^T,
t_m = r^m.  The normal operator therefore splits into n blocks of size M

    H_k = L^T (I + (dt/gamma) t t^T) L + w I,

with w the control weight.  L^{-1} = (I - r Z)/(dt r) is bidiagonal (Z the
down-shift), so with y = L x a block becomes

    (T + (dt/gamma) t t^T) y = L^{-T} b,   T = I + w L^{-T} L^{-1},

where T is symmetric positive definite tridiagonal and does not depend on
gamma.  Its n blocks are factored and solved together, one time step of all
modes at a time (see ``NormalModes``), and Sherman-Morrison removes the
rank-one term.  A solve works time-major, in place in its result; only the
shift's einsum reads a mode-major copy, as its summation order sets its
bits.  This is the fast-diagonalization idea of Lynch, Rice and Thomas
(1964) applied in time.  It inverts H up to round-off times its condition
number, which grows like 1/gamma; the optimizer therefore refines on it,
with each step's residual taken through the sweeps of ``evolution``.
"""

from __future__ import annotations

import numpy as np

from .evolution import Propagator


class NormalModes:
    """The gamma-independent factors of H's modal blocks.

    Holds the sweeps' r (``ratio``) and dt, T's LDL^T ``pivots`` (M, n)
    and ``multipliers`` (M-1, n), time-major, in dpttrf's operation order and
    so with its bits on the blocks stacked (they do not couple), T^{-1} t
    (``t_solved``, mode-major (n, M)) and t^T T^{-1} t (``t_energy``).
    """

    def __init__(self, prop: Propagator, control_weight: float):
        self.ratio, self.dt = prop.ratio, prop.tgrid.dt
        steps, dt, r = prop.tgrid.steps, self.dt, self.ratio
        with np.errstate(all="ignore"):  # an overflow or a NaN ends in a pivot refused below
            scale = control_weight / (dt * r) ** 2
            self.pivots = pivots = np.tile(1.0 + scale * (1.0 + r * r), (steps, 1))
            pivots[-1] = 1.0 + scale
            self.multipliers = np.tile(-scale * r, (steps - 1, 1))
            for d, d_next, e in zip(pivots, pivots[1:], self.multipliers):
                d_next -= e / d * e  # the multiplier e_m / d_m times e_m
            self.multipliers /= pivots[:-1]
        if not ((0.0 < pivots) & (pivots < np.inf)).all():
            raise ValueError("modal tridiagonal factor: a pivot is not positive and finite")
        t = r[:, None] ** np.arange(1, steps + 1)
        self.t_solved = np.ascontiguousarray(self._tridiagonal_solve(t.T.copy()).T)
        self.t_energy = np.einsum("km,km->k", t, self.t_solved)

    def _tridiagonal_solve(self, x: np.ndarray) -> np.ndarray:
        """T^{-1} x in place for a time-major (M, n) ``x``, with LAPACK
        dptts2's operations: forward x_m -= e_{m-1} x_{m-1}, then backward
        x_m = x_m/d_m - e_m x_{m+1}, each step one contiguous row.  Returns x."""
        if self.pivots.size == 1:  # dptts2 scales a 1 x 1 system by 1/d
            x *= 1.0 / self.pivots[0, 0]
            return x
        steps, scratch = list(x), np.empty(x.shape[1])
        for prev, step, e in zip(steps, steps[1:], self.multipliers):
            np.subtract(step, np.multiply(prev, e, scratch), step)
        x /= self.pivots  # every division reads a value the forward pass left
        for later, step, e in zip(steps[:0:-1], steps[-2::-1], self.multipliers[::-1]):
            np.subtract(step, np.multiply(later, e, scratch), step)
        return x

    def solve(self, rhs: np.ndarray, gamma: float) -> np.ndarray:
        """H^{-1} rhs for the normal operator at relaxation weight ``gamma``.

        ``rhs`` holds the modal coefficients of a space-time field, whose
        slice 0 is ignored; slice 0 of the result, also modal, is zero.  A
        solve holds at most one (M, n) array beyond its argument and result.
        """
        dt, r = self.dt, self.ratio
        out = np.array(rhs, dtype=float)
        out[0] = 0.0
        work = out[1:]
        work[:-1] -= r * work[1:]
        work /= dt * r  # L^{-T} b
        weight = dt / gamma
        shift = weight * np.einsum("km,km->k", self.t_solved, np.ascontiguousarray(work.T))
        shift /= 1.0 + weight * self.t_energy
        self._tridiagonal_solve(work)
        work -= shift * self.t_solved.T  # y, by Sherman-Morrison
        work[1:] -= r * work[:-1]
        work /= dt * r  # L^{-1} y
        return out
