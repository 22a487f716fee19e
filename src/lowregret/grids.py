"""Uniform grids and the discrete inner products everything else is built on.

Field conventions used across the package:

* a *spatial field* is a ``(n,)`` array of values on the interior nodes
  ``x_i = x_l + i*h``, ``i = 1..n`` (the zero exterior extension is implied);
* a *space-time field* is an ``(M+1, n)`` array whose slice ``m`` holds the
  values at time ``t_m = m*dt``.

The L2(Q) quadrature is the right-endpoint rule ``h*dt*sum over slices
1..M``; the ``t = 0`` slice carries the initial datum and is deliberately
excluded so that the discrete adjoint of the implicit Euler stepping
reproduces the continuous duality identities to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ParameterError(ValueError):
    """Bad input: ``field`` names it, ``reason`` says what is wrong."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


def _check_finite(name: str, value) -> None:
    if not math.isfinite(value):
        raise ParameterError(name, f"must be a finite float, got {value}")


def _check_positive(name: str, value) -> None:
    _check_finite(name, value)
    if not value > 0:
        raise ParameterError(name, f"must be positive, got {value}")


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(name, f"expected an integer, got {value!r}")
    if value < 1:
        raise ParameterError(name, f"must be >= 1, got {value}")


@dataclass(frozen=True, eq=False)
class SpatialGrid:
    """Uniform grid of ``n`` interior nodes on (x_l, x_r), spacing ``h``.

    The endpoints themselves are not nodes: fields vanish identically
    outside the open interval, so the first node sits at ``x_l + h``.
    """

    x_l: float
    x_r: float
    n: int
    h: float
    nodes: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform partition of [0, T] into ``M`` steps of length ``dt``."""

    horizon: float
    steps: int
    dt: float
    times: np.ndarray = field(repr=False)


def build_grid(x_l: float, x_r: float, n: int) -> SpatialGrid:
    """Build the spatial grid; ``h = (x_r - x_l)/(n + 1)``.

    Raises
    ------
    ParameterError
        if an end is not finite, ``n`` is not an integer >= 1, or the
        interval is empty/inverted.
    """
    _check_finite("x_l", x_l)
    _check_finite("x_r", x_r)
    _check_count("n", n)
    if not x_r > x_l:
        raise ParameterError("x_r", f"must exceed the left end {x_l}, got {x_r}")
    h = (x_r - x_l) / (n + 1)
    nodes = x_l + h * np.arange(1, n + 1)
    nodes.flags.writeable = False
    return SpatialGrid(float(x_l), float(x_r), int(n), h, nodes)


def build_time_grid(horizon: float, steps: int) -> TimeGrid:
    """Build the time grid; needs a finite ``horizon > 0``, an integer ``steps >= 1``."""
    _check_positive("horizon", horizon)
    _check_count("steps", steps)
    dt = horizon / steps
    times = dt * np.arange(steps + 1)
    times.flags.writeable = False
    return TimeGrid(float(horizon), int(steps), dt, times)


def _check_spatial(a: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (grid.n,):
        raise ValueError(f"spatial field shape {a.shape} != ({grid.n},)")
    return a


def _check_space_time(a: np.ndarray, grid: SpatialGrid, tgrid: TimeGrid) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (tgrid.steps + 1, grid.n):
        raise ValueError(
            f"space-time field shape {a.shape} != ({tgrid.steps + 1}, {grid.n})"
        )
    return a


def inner_product_omega(a: np.ndarray, b: np.ndarray, grid: SpatialGrid) -> float:
    """h-weighted inner product of two spatial fields."""
    a = _check_spatial(a, grid)
    b = _check_spatial(b, grid)
    return grid.h * float(np.dot(a, b))


def inner_product_q(
    a: np.ndarray, b: np.ndarray, grid: SpatialGrid, tgrid: TimeGrid
) -> float:
    """h*dt-weighted inner product over time slices 1..M (t=0 excluded)."""
    a = _check_space_time(a, grid, tgrid)
    b = _check_space_time(b, grid, tgrid)
    return grid.h * tgrid.dt * float(np.sum(a[1:] * b[1:]))


def norm_omega(a: np.ndarray, grid: SpatialGrid) -> float:
    return inner_product_omega(a, a, grid) ** 0.5


def norm_q(a: np.ndarray, grid: SpatialGrid, tgrid: TimeGrid) -> float:
    return inner_product_q(a, a, grid, tgrid) ** 0.5


def zeros_space_time(grid: SpatialGrid, tgrid: TimeGrid) -> np.ndarray:
    return np.zeros((tgrid.steps + 1, grid.n))
