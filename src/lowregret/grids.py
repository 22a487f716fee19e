"""Uniform grids and the discrete inner products everything else is built on.

Field conventions used across the package:

* a *spatial field* is a ``(n,)`` array of values on the interior nodes
  ``x_i = x_l + i*h``, ``i = 1..n`` (the zero exterior extension is implied);
* a *space-time field* is an ``(M+1, n)`` array whose slice ``m`` holds the
  values at time ``t_m = m*dt``;
* a *stack* of P such fields, ``(P, n)`` or ``(P, M+1, n)``, holds one field
  per entry of its leading axis.  The sweeps and the inner products take
  stacks, give one result per entry, and give each entry exactly the bits
  of the same call on that entry alone; an unstacked operand is shared by
  every entry.

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
        if an end is not finite, ``n`` is not an integer >= 1, the
        interval is empty/inverted, or ``h*h`` (the operator assembly divides
        by it) underflows to zero or overflows.
    """
    _check_finite("x_l", x_l)
    _check_finite("x_r", x_r)
    _check_count("n", n)
    if not x_r > x_l:
        raise ParameterError("x_r", f"must exceed the left end {x_l}, got {x_r}")
    h = (x_r - x_l) / (n + 1)
    if not 0.0 < h * h < math.inf:
        raise ParameterError("x_r", f"gives spacing h = {h}; h*h must be positive and finite")
    nodes = x_l + h * np.arange(1, n + 1)
    nodes.flags.writeable = False
    return SpatialGrid(float(x_l), float(x_r), int(n), h, nodes)


def build_time_grid(horizon: float, steps: int) -> TimeGrid:
    """Build the time grid; needs a finite ``horizon > 0``, an integer ``steps >= 1``
    and ``dt = horizon/steps`` with ``dt*dt`` (the modal factors divide by it) above zero."""
    _check_positive("horizon", horizon)
    _check_count("steps", steps)
    dt = horizon / steps
    if not dt * dt > 0.0:
        raise ParameterError("horizon", f"gives time step dt = {dt}; dt*dt must be positive")
    times = dt * np.arange(steps + 1)
    times.flags.writeable = False
    return TimeGrid(float(horizon), int(steps), dt, times)


def _check_spatial(a: np.ndarray, grid: SpatialGrid, stacked: bool = False) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape[-1:] != (grid.n,) or a.ndim > 1 + stacked:
        allowed = f"({grid.n},)" + (f" or (P, {grid.n})" if stacked else "")
        raise ValueError(f"spatial field shape {a.shape} != {allowed}")
    return a


def _check_space_time(
    a: np.ndarray, grid: SpatialGrid, tgrid: TimeGrid, stacked: bool = False
) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    base = (tgrid.steps + 1, grid.n)
    if a.shape[-2:] != base or a.ndim > 2 + stacked:
        allowed = f"{base}" + (f" or (P, {base[0]}, {base[1]})" if stacked else "")
        raise ValueError(f"space-time field shape {a.shape} != {allowed}")
    return a


def _check_stacks(
    name_a: str, a: np.ndarray, rank_a: int, name_b: str, b: np.ndarray, rank_b: int
) -> None:
    """Raise unless ``a`` and ``b``, whose unstacked fields have ranks
    ``rank_a`` and ``rank_b``, stack the same number of fields; an unstacked
    one is shared by every entry of the other's stack."""
    if a.ndim > rank_a and b.ndim > rank_b and len(a) != len(b):
        raise ValueError(
            f"stacks of different lengths: {name_a} of shape {a.shape}, {name_b} of shape {b.shape}"
        )


def _values(x):
    """A Python float for an unstacked result, else the array of one per entry."""
    return x if isinstance(x, np.ndarray) else float(x)


def _roots(x):
    """Square root per value, each taken as Python's ``float ** 0.5``; np.sqrt
    rounds a few values differently."""
    if isinstance(x, float):
        return x ** 0.5
    return np.array([value ** 0.5 for value in x.tolist()])


def inner_product_omega(a: np.ndarray, b: np.ndarray, grid: SpatialGrid):
    """h-weighted inner product of two spatial fields (per entry of a stack)."""
    a = _check_spatial(a, grid, stacked=True)
    b = _check_spatial(b, grid, stacked=True)
    _check_stacks("a", a, 1, "b", b, 1)
    return _values(grid.h * np.vecdot(a, b))


def inner_product_q(a: np.ndarray, b: np.ndarray, grid: SpatialGrid, tgrid: TimeGrid):
    """h*dt-weighted inner product over time slices 1..M (t=0 excluded), per
    entry of a stack."""
    a = _check_space_time(a, grid, tgrid, stacked=True)
    b = _check_space_time(b, grid, tgrid, stacked=True)
    _check_stacks("a", a, 2, "b", b, 2)
    return _sum_q(a[..., 1:, :] * b[..., 1:, :], grid, tgrid)


def _sum_q(rows: np.ndarray, grid: SpatialGrid, tgrid: TimeGrid):
    """h*dt-weighted sum of ``rows``, slices 1..M of a field or a stack, per
    entry: the reduction of ``inner_product_q``, for callers that square or
    multiply a fresh difference in place, with its bits and no product field."""
    return _values(grid.h * tgrid.dt * np.add.reduce(rows, axis=(-2, -1)))


def norm_omega(a: np.ndarray, grid: SpatialGrid):
    return _roots(inner_product_omega(a, a, grid))


def norm_q(a: np.ndarray, grid: SpatialGrid, tgrid: TimeGrid):
    return _roots(inner_product_q(a, a, grid, tgrid))


def zeros_space_time(grid: SpatialGrid, tgrid: TimeGrid) -> np.ndarray:
    return np.zeros((tgrid.steps + 1, grid.n))
