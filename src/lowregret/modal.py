"""Exact inverse of the reduced normal operator, one time block per mode.

A is symmetric and time-invariant and dt is uniform, so with A = V diag(lam)
V^T every sweep acts on each eigenmode k separately; ``evolution`` marches
the sweeps themselves that way, and ``NormalModes`` takes lam and r from
the sweeps' own ``evolution.Propagator`` and changes basis with its
``to_modes`` and ``from_modes`` (two half-size GEMMs each on fine grids), so
it never sees how V is stored.  With r = 1/(1 + dt lam_k) the forward sweep
from zero initial data is, on slices 1..M, the lower-triangular Toeplitz
matrix L with entries dt r^(i-j+1), the backward sweep is its transpose, and
the t=0 trace of a backward solve is dt t^T, t_m = r^m.  The normal operator
therefore splits into n blocks of size M

    H_k = L^T (I + (dt/gamma) t t^T) L + w I,

with w the control weight.  L^{-1} = (I - r Z)/(dt r) is bidiagonal (Z the
down-shift), so with y = L x a block becomes

    (T + (dt/gamma) t t^T) y = L^{-T} b,   T = I + w L^{-T} L^{-1},

where T is symmetric positive definite tridiagonal and does not depend on
gamma.  All n tridiagonal blocks are factored together as one matrix of size
n*M (mode-major, zero coupling between modes), and Sherman-Morrison removes
the rank-one term.  This is the fast-diagonalization idea of Lynch, Rice and
Thomas (1964) applied in time.  It inverts H up to round-off times its
condition number, which grows like 1/gamma; the optimizer therefore uses it
as a preconditioner on the sweeps of ``evolution``, not as the solver.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .evolution import Propagator


class NormalModes:
    """The gamma-independent factors of H's modal blocks.

    Holds the sweeps' ``propagator`` (whose ``to_modes`` and ``from_modes``
    change basis), its r (``ratio``) and dt, the LDL^T pivots of the stacked
    tridiagonal T (``pivots``, ``multipliers``), T^{-1} t (``t_solved``) and
    t^T T^{-1} t (``t_energy``).
    """

    def __init__(self, prop: Propagator, control_weight: float):
        self.propagator, self.ratio, self.dt = prop, prop.ratio, prop.tgrid.dt
        n, steps, dt, r = prop.lam.size, prop.tgrid.steps, self.dt, self.ratio[:, None]
        scale = control_weight / (dt * r) ** 2
        diag = np.empty((n, steps))
        diag[:, :-1] = 1.0 + scale * (1.0 + r * r)
        diag[:, -1] = 1.0 + scale[:, 0]
        off = np.empty((n, steps))
        off[:, :-1] = -scale * r
        off[:, -1] = 0.0  # no coupling from one mode's block into the next
        # dpttrf's wrapper wants max(N - 1, 1) off-diagonal values; at N = 1
        # the extra one is the zero coupling stored above
        self.pivots, self.multipliers, info = dpttrf(
            diag.reshape(-1), off.reshape(-1)[: max(diag.size - 1, 1)],
            overwrite_d=1, overwrite_e=1,
        )
        if info:
            raise ValueError(f"modal tridiagonal factorization failed (info={info})")
        powers = np.arange(1, steps + 1)
        self.t_solved = self._tridiagonal_solve(r**powers)
        self.t_energy = np.einsum("km,km->k", r**powers, self.t_solved)

    def _tridiagonal_solve(self, rhs: np.ndarray) -> np.ndarray:
        """T^{-1} rhs for an (n, M) array; overwrites ``rhs`` when it is C-ordered."""
        x, info = dpttrs(self.pivots, self.multipliers, rhs.reshape(-1, 1), overwrite_b=1)
        if info:
            raise ValueError(f"illegal value in {-info}th argument of internal pttrs")
        return x.reshape(rhs.shape)

    def solve(self, rhs: np.ndarray, gamma: float) -> np.ndarray:
        """H^{-1} rhs for the normal operator at relaxation weight ``gamma``.

        ``rhs`` is a space-time field whose slice 0 is ignored; slice 0 of
        the result is zero.  Works in place on one (n, M) array, so a solve
        holds about two fields beyond its argument and result.
        """
        dt, r = self.dt, self.ratio[:, None]
        # (n, M), C-ordered: one time series per mode
        work = np.ascontiguousarray(self.propagator.to_modes(rhs[1:]).T)
        work[:, :-1] -= r * work[:, 1:]
        work /= dt * r  # L^{-T} b
        weight = dt / gamma
        shift = weight * np.einsum("km,km->k", self.t_solved, work) / (1.0 + weight * self.t_energy)
        work = self._tridiagonal_solve(work)
        work -= shift[:, None] * self.t_solved  # y, by Sherman-Morrison
        work[:, 1:] -= r * work[:, :-1]
        work /= dt * r  # L^{-1} y
        out = np.empty_like(rhs, dtype=float)
        out[0] = 0.0
        self.propagator.from_modes(work.T, out=out[1:])
        return out
