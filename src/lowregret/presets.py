"""Named analytic profiles used by configuration files.

Three preset families cover the scenario configs: "zero",
"gauss(center,width,amp)" for a Gaussian bump, and "sine(k,amp)" for a
sinusoid vanishing at both domain endpoints.  Profiles are evaluated on
the interior nodes of a grid; space-time fields hold the profile constant
in time, as one row broadcast read-only across all time slices.
"""

from __future__ import annotations

import re

import numpy as np

from .grids import SpatialGrid, TimeGrid

_GAUSS = re.compile(r"^gauss\(\s*([^,\s]+)\s*,\s*([^,\s]+)\s*,\s*([^,)\s]+)\s*\)$")
_SINE = re.compile(r"^sine\(\s*([^,\s]+)\s*,\s*([^,)\s]+)\s*\)$")

_USAGE = 'expected "zero", "gauss(center,width,amp)" or "sine(k,amp)"'


def _numbers(text: str, groups) -> list[float]:
    try:
        values = [float(p) for p in groups]
    except ValueError:
        raise ValueError(f"non-numeric parameter in {text!r}") from None
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite parameter in {text!r}")
    return values


def parse_profile(text: str) -> tuple:
    """Parse a preset string into a tag tuple, validating its parameters."""
    if not isinstance(text, str):
        raise ValueError(f"profile preset must be a string, {_USAGE}")
    stripped = text.strip()
    if stripped == "zero":
        return ("zero",)
    m = _GAUSS.match(stripped)
    if m:
        center, width, amp = _numbers(text, m.groups())
        if width <= 0:
            raise ValueError(f"gauss width must be positive in {text!r}")
        return ("gauss", center, width, amp)
    m = _SINE.match(stripped)
    if m:
        k, amp = _numbers(text, m.groups())
        if k <= 0:
            raise ValueError(f"sine frequency must be positive in {text!r}")
        return ("sine", k, amp)
    raise ValueError(f"unknown profile preset {text!r}, {_USAGE}")


def spatial_profile(text: str, grid: SpatialGrid) -> np.ndarray:
    """Evaluate a preset on the interior nodes of a grid."""
    parsed = parse_profile(text)
    x = grid.nodes
    if parsed[0] == "zero":
        return np.zeros_like(x)
    if parsed[0] == "gauss":
        _, center, width, amp = parsed
        with np.errstate(over="ignore"):  # a square beyond the float range gives exp(-inf) = 0
            exponent = -(((x - center) / width) ** 2)
        return amp * np.exp(exponent)
    _, k, amp = parsed
    length = grid.x_r - grid.x_l
    with np.errstate(over="ignore", invalid="ignore"):  # sin(inf) = NaN, refused by the caller
        return amp * np.sin(k * np.pi * (x - grid.x_l) / length)


def space_time_field(text: str, grid: SpatialGrid, tgrid: TimeGrid) -> np.ndarray:
    """A spatial preset on all time slices: a read-only view of its one row
    with time stride 0, so the field holds n values, not (M+1) n."""
    return np.broadcast_to(spatial_profile(text, grid), (tgrid.steps + 1, grid.n))
