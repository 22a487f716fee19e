"""Dense discretization of the 1-D integral fractional Laplacian.

The operator acts on fields extended by zero outside the domain:

    ((-Delta)^s w)(x) = C_s * P.V. integral (w(x) - w(y)) / |x - y|^(1+2s) dy

with the principal value handled analytically.  Each matrix row combines a
midpoint far-field quadrature over the interior nodes, a closed-form tail
for the exterior (where w vanishes), and a Taylor correction for the
singular cell whose second derivative is taken by central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import SpatialGrid, _check_spatial


def normalization_constant(s: float) -> float:
    """Kernel constant C_s = s * 4^s * Gamma((2s+1)/2) / (sqrt(pi) * Gamma(1-s)).

    For s = 1/2 this collapses to 1/pi.  Valid for 0 < s < 1.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got s={s}")
    return (
        s
        * 4.0**s
        * math.gamma((2.0 * s + 1.0) / 2.0)
        / (math.sqrt(math.pi) * math.gamma(1.0 - s))
    )


@dataclass(frozen=True, eq=False)
class FracOperator:
    """Assembled dense operator: symmetric positive definite ``(n, n)`` matrix."""

    s: float
    c_ns: float
    grid: SpatialGrid
    matrix: np.ndarray = field(repr=False)

    def apply(self, w: np.ndarray) -> np.ndarray:
        return self.matrix @ _check_spatial(w, self.grid)


def assemble_operator(grid: SpatialGrid, s: float) -> FracOperator:
    """Assemble the dense matrix for fractional order ``s`` on ``grid``.

    Three contributions per row i (all scaled by the kernel constant):

    * far field: midpoint rule  sum_{j != i} (w_i - w_j) * h / |x_i - x_j|^(1+2s);
    * exterior tail (w = 0 there), integrated exactly:
      w_i * [(x_i - x_l)^(-2s) + (x_r - x_i)^(-2s)] / (2s);
    * singular cell: -w''(x_i) * h^(2-2s) / (2-2s), second derivative by the
      central difference with zero ghost values just outside the node range.
    """
    c = normalization_constant(s)
    n, h, x = grid.n, grid.h, grid.nodes

    # one n x n array: distances, then the kernel h/|x_i - x_j|^(1+2s), then A
    a = np.subtract.outer(x, x)
    np.abs(a, out=a)
    np.fill_diagonal(a, 1.0)  # placeholder, diagonal handled below
    np.power(a, 1.0 + 2.0 * s, out=a)
    np.divide(h, a, out=a)
    np.fill_diagonal(a, 0.0)
    row_sums = a.sum(axis=1)
    np.negative(a, out=a)
    np.fill_diagonal(a, row_sums)

    tail = ((x - grid.x_l) ** (-2.0 * s) + (grid.x_r - x) ** (-2.0 * s)) / (2.0 * s)
    a[np.arange(n), np.arange(n)] += tail

    # -w'' * h^(2-2s)/(2-2s); the tridiagonal stencil keeps the matrix symmetric
    coef = h ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s) / h**2
    idx = np.arange(n)
    a[idx, idx] += 2.0 * coef
    a[idx[:-1], idx[:-1] + 1] -= coef
    a[idx[1:], idx[1:] - 1] -= coef

    a *= c
    a.flags.writeable = False
    return FracOperator(float(s), c, grid, a)


def nonlocal_normal_derivative(op: FracOperator, w: np.ndarray, p: float) -> float:
    """Exterior trace functional at a point ``p`` strictly outside the domain.

    For w vanishing outside the domain the integrand loses its w(p) term:
    N_s w(p) = -C_s * integral_Omega w(y) / |p - y|^(1+2s) dy, evaluated with
    the same midpoint rule as the far-field assembly.
    """
    grid = op.grid
    if grid.x_l <= p <= grid.x_r:
        raise ValueError(f"evaluation point p={p} must lie strictly outside the domain")
    w = _check_spatial(w, grid)
    kern = np.abs(p - grid.nodes) ** (-(1.0 + 2.0 * op.s))
    return -op.c_ns * grid.h * float(np.dot(w, kern))


def integration_by_parts_residual(op: FracOperator, w: np.ndarray, v: np.ndarray) -> float:
    """|E(w, v) - <v, A w>|.

    E is the symmetric double-form quadrature of the nonlocal energy:
    the midpoint double sum over node pairs, the exterior-tail pairing, and
    the singular-diagonal Taylor correction (which pairs first derivatives).
    The full identity also has an exterior term, which vanishes here because
    fields extended by zero have zero exterior data.
    """
    grid = op.grid
    w = _check_spatial(w, grid)
    v = _check_spatial(v, grid)
    n, h, x, s, c = grid.n, grid.h, grid.nodes, op.s, op.c_ns

    diff = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(diff, 1.0)
    kern = diff ** (-(1.0 + 2.0 * s))
    np.fill_diagonal(kern, 0.0)
    dw = w[:, None] - w[None, :]
    dv = v[:, None] - v[None, :]
    energy = 0.5 * c * h * h * float(np.sum(dw * dv * kern))

    tail = ((x - grid.x_l) ** (-2.0 * s) + (grid.x_r - x) ** (-2.0 * s)) / (2.0 * s)
    energy += c * h * float(np.sum(w * v * tail))

    # singular band |x - y| < h: integrand ~ w'(x) v'(x) |x-y|^(1-2s); the
    # difference variable integrates to 2 h^(2-2s)/(2-2s), the remaining 1-D
    # integral is quadratured with slopes at the n+1 cell interfaces (zero
    # ghost values outside, consistent with the exterior condition)
    slope_w = np.diff(np.concatenate(([0.0], w, [0.0]))) / h
    slope_v = np.diff(np.concatenate(([0.0], v, [0.0]))) / h
    band = 2.0 * h ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    energy += 0.5 * c * band * h * float(np.sum(slope_w * slope_v))

    pairing = h * float(np.dot(v, op.apply(w)))
    return abs(energy - pairing)
