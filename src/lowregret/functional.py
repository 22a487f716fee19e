"""Cost functionals for control under unknown initial data.

For a control v and initial datum g, the state q(v, g) solves the forward
problem with source f + v and initial g, and

    cost(v, g)         = |q(v,g) - z_d|_Q^2 + control_weight * |v|_Q^2
    relaxed_cost(v, g) = cost(v, g) - gamma * |g|_Omega^2

Hedging against the worst admissible g reduces, through a Legendre-Fenchel
transform of the sup over g, to the single-variable functional

    reduced_cost(v) = relaxed_cost(v, 0) - relaxed_cost(0, 0)
                      + (1/gamma) * |xi(0; v)|_Omega^2

where xi(.; v) solves the backward problem driven by the control-induced
state perturbation and its t=0 trace measures how much v could be exploited
by an adversarial initial datum.  Every identity connecting these objects
holds at round-off level because the discrete solvers are exact transposes
of one another.

A ``RegretConfig`` is the whole problem: its data and, built on first use
and kept, the sweeps' propagator, the background state q(0,0) with its
relaxed cost, and the normal operator's modal factors.  ``workspace(cfg)``
builds the propagator and background state, the set-up of every run, and
``with_gamma`` shares all four with the same problem at another gamma.

The identities (cost decomposition, duality pairing, Fenchel gap,
superposition) are written once, on ``Probe``: a (v, g) pair whose
trajectories q(v,g), q(v,0), q(0,g) and xi(.; v) are solved on first use
and shared by every identity, cost and scale read from it, five sweeps in
all.  The public identity and cost functions read from a fresh ``Probe``.

A ``Probe`` also takes a stack of P probes, v (P, M+1, n) and g (P, n),
along a leading axis.  Its sweeps and inner products then run once for the
whole stack, and each cost, identity and scale is an array of P values,
each bit for bit the value of the single probe (a Python float).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .evolution import Propagator, solve_backward, solve_forward, step_factor, superposition_defect
from .grids import (
    ParameterError,
    SpatialGrid,
    TimeGrid,
    _check_count,
    _check_finite,
    _check_positive,
    _check_space_time,
    _check_spatial,
    _check_stacks,
    _sum_q,
    inner_product_omega,
    inner_product_q,
)
from .modal import NormalModes
from .operator import assemble_operator


def check_parameters(s, control_weight, gamma, cg_tol, cg_max_iters) -> None:
    """Raise ParameterError naming the first scalar parameter out of range."""
    _check_finite("s", s)
    if not 0.0 < s < 1.0:
        raise ParameterError("s", f"must lie strictly between 0 and 1, got {s}")
    if s < np.finfo(float).tiny:  # the exterior tail's 1/(2s) would overflow
        raise ParameterError("s", f"must be a normal float, at least {np.finfo(float).tiny}, got {s}")
    _check_positive("control_weight", control_weight)
    _check_positive("gamma", gamma)
    _check_positive("cg_tol", cg_tol)
    _check_count("cg_max_iters", cg_max_iters)


@dataclass(frozen=True, eq=False)
class RegretConfig:
    """Problem data for the relaxed worst-case control problem.

    ``gamma`` is the relaxation weight on the unknown initial datum and
    ``control_weight`` the quadratic penalty on the control itself.  ``f``
    and ``z_d`` are finite space-time fields (background source and tracking
    target) whose squared Q-norms do not overflow; they are only read, so
    either may be a read-only broadcast, such as the one row across all time
    slices that ``presets.space_time_field`` gives.  A field that is not
    finite or whose norm overflows raises ``ParameterError`` naming it, as
    does a time step whose control_weight/dt^2 (the modal factors' scale)
    overflows, naming ``horizon``.  The derived ``propagator``,
    ``q_background``, ``relaxed_cost_00`` and ``modes`` are built on first
    use and kept on the instance, and shared by ``with_gamma``'s copies.
    """

    s: float
    control_weight: float
    gamma: float
    f: np.ndarray = field(repr=False)
    z_d: np.ndarray = field(repr=False)
    grid: SpatialGrid = field(repr=False)
    tgrid: TimeGrid = field(repr=False)
    cg_tol: float = 1e-12
    cg_max_iters: int = 5000

    def __post_init__(self):
        check_parameters(self.s, self.control_weight, self.gamma, self.cg_tol, self.cg_max_iters)
        dt = self.tgrid.dt
        # NormalModes scales mode k by control_weight/(dt r_k)^2 with r_k <= 1
        if not math.isfinite(self.control_weight / (dt * dt)):
            raise ParameterError("horizon", f"gives time step dt = {dt}; control_weight/dt^2 overflows")
        weight = self.grid.h * dt
        with np.errstate(over="ignore"):  # an overflowing norm is refused below
            for name in ("f", "z_d"):
                value = _check_space_time(getattr(self, name), self.grid, self.tgrid)
                # one pass: the weighted sum of squares over all slices is
                # finite if every value is and the Q-norm (slices 1..M) does
                # not overflow; only a field that fails it is looked at again
                if not math.isfinite(weight * np.vdot(value, value)):
                    if not np.isfinite(value).all():
                        raise ParameterError(name, "must be finite")
                    rows = value[1:]
                    if not math.isfinite(weight * np.vdot(rows, rows)):
                        raise ParameterError(name, "its Q-norm overflows the float range")

    @cached_property
    def propagator(self) -> Propagator:
        """The sweeps' modal propagator: the assembled operator and its one
        eigendecomposition."""
        return step_factor(assemble_operator(self.grid, self.s), self.tgrid)

    @cached_property
    def q_background(self) -> np.ndarray:
        """The background state q(0,0): source f, zero initial datum."""
        return solve_forward(self.propagator, self.f, np.zeros(self.grid.n))

    @cached_property
    def relaxed_cost_00(self) -> float:
        """relaxed_cost(0, 0), the tracking misfit of the background state."""
        return _misfit(self.q_background, self)

    @cached_property
    def modes(self) -> NormalModes:
        """The gamma-independent factors of the normal operator's modal
        blocks, in the eigenbasis of ``propagator``.  Only solves need them,
        so ``workspace`` does not build them."""
        return NormalModes(self.propagator, self.control_weight)

    def with_gamma(self, gamma: float) -> "RegretConfig":
        """The same problem at relaxation weight ``gamma``.

        gamma enters no derived quantity, so the returned copy shares this
        one's data, propagator, background state and modal factors (built
        here if they do not exist yet), and only ``gamma`` is checked.
        """
        _check_positive("gamma", gamma)
        self.relaxed_cost_00, self.modes  # built, so that the copy shares them
        other = copy.copy(self)
        object.__setattr__(other, "gamma", gamma)
        return other

    def in_modes(self) -> "RegretConfig":
        """This problem in A's eigenbasis, for the solver: the same grids,
        weights and ``modes`` on ``propagator.in_modes()``, with f = 0, z_d =
        (z_d - q(0,0)) V and so q(0,0) = 0.  Its costs are this problem's; its
        fields map back by ``from_modes`` (plus q(0,0) for a state)."""
        prop, zero = self.propagator, np.broadcast_to(0.0, (self.tgrid.steps + 1, self.grid.n))
        view = copy.copy(self)  # as in with_gamma: the data is checked already
        view.__dict__.update(
            f=zero, z_d=prop.to_modes(self.z_d - self.q_background),
            propagator=prop.in_modes(), q_background=zero, modes=self.modes,
        )
        view.__dict__.pop("relaxed_cost_00", None)  # |z_d|_Q^2, on first use
        return view


def workspace(cfg: RegretConfig) -> RegretConfig:
    """``cfg`` with its propagator and background state built: the problem's
    set-up, one eigendecomposition and one forward sweep."""
    cfg.relaxed_cost_00  # builds q_background, and the propagator with it
    return cfg


def solve_uncertainty_adjoint(v: np.ndarray, cfg: RegretConfig) -> np.ndarray:
    """Trajectory xi(.; v) of the backward solve with source q(v,0) - q(0,0)
    and zero terminal value; slice 0 is its t=0 trace xi(0; v), the one the
    duality identities pair against candidate initial data.

    The source equals the zero-initial forward solve of v alone (linearity),
    which is how it is computed here; the superposition test covers the
    equivalence.  A stack of controls (P, M+1, n) gives the P adjoints in
    two stacked sweeps.
    """
    v = _check_space_time(v, cfg.grid, cfg.tgrid, stacked=True)
    zero = np.zeros(cfg.grid.n)
    return solve_backward(cfg.propagator, solve_forward(cfg.propagator, v, zero), zero)


def reduced_cost(v: np.ndarray, cfg: RegretConfig) -> float:
    """Worst-case-over-uncertainty objective in the control alone.

    Strictly convex quadratic; zero at v = 0 and bounded below by
    -relaxed_cost(0, 0).
    """
    p = Probe(v, np.zeros(cfg.grid.n), cfg)
    return p.cost - cfg.relaxed_cost_00 + p.sup_value


def _misfit(q: np.ndarray, cfg: RegretConfig) -> float:
    """Tracking term |q - z_d|_Q^2 of a state trajectory q (or a stack),
    squared in place in the difference of slices 1..M: the bits of
    ``inner_product_q`` of that difference, with one field, not two."""
    diff = q[..., 1:, :] - cfg.z_d[1:]
    return _sum_q(np.multiply(diff, diff, out=diff), cfg.grid, cfg.tgrid)


@dataclass(frozen=True, eq=False)
class Probe:
    """A control v and an initial datum g of one problem, with the
    trajectories every regret identity pairs.

    Each trajectory is solved on its first use and kept: q(v,g), q(v,0) and
    q(0,g) take one forward sweep each, the uncertainty adjoint xi(.; v) one
    forward and one backward sweep, and q(0,0) is the problem's background
    state.  Every cost, identity and scale of one probe thus costs at most
    five sweeps.  With v (P, M+1, n) and g (P, n) it is P probes, whose
    five stacked sweeps give one value per probe; an unstacked v or g is
    shared by every probe.
    """

    v: np.ndarray
    g: np.ndarray
    cfg: RegretConfig

    def __post_init__(self):
        v = _check_space_time(self.v, self.cfg.grid, self.cfg.tgrid, stacked=True)
        g = _check_spatial(self.g, self.cfg.grid, stacked=True)
        _check_stacks("v", v, 2, "g", g, 1)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "g", g)

    @cached_property
    def q_vg(self) -> np.ndarray:
        return solve_forward(self.cfg.propagator, self.cfg.f + self.v, self.g)

    @cached_property
    def q_v0(self) -> np.ndarray:
        return solve_forward(self.cfg.propagator, self.cfg.f + self.v, np.zeros(self.cfg.grid.n))

    @cached_property
    def q_0g(self) -> np.ndarray:
        return solve_forward(self.cfg.propagator, self.cfg.f, self.g)

    @cached_property
    def xi0(self) -> np.ndarray:
        """t=0 trace of the uncertainty adjoint xi(.; v), copied so that the
        trajectory is freed."""
        return solve_uncertainty_adjoint(self.v, self.cfg)[..., 0, :].copy()

    @cached_property
    def _penalty(self) -> float:
        return self.cfg.control_weight * inner_product_q(self.v, self.v, self.cfg.grid, self.cfg.tgrid)

    @cached_property
    def _credit(self) -> float:
        return self.cfg.gamma * inner_product_omega(self.g, self.g, self.cfg.grid)

    @cached_property
    def _pairing(self) -> float:
        """<q(v,0) - q(0,0), q(0,g) - q(0,0)>_Q, multiplied in place into one
        difference of slices 1..M (g's only where g alone is stacked): the
        bits of ``inner_product_q``, as a product is the same either way round."""
        q_00 = self.cfg.q_background[1:]
        v0, g0 = self.q_v0[..., 1:, :] - q_00, self.q_0g[..., 1:, :] - q_00
        pairing = np.multiply(v0, g0, out=g0 if g0.ndim > v0.ndim else v0)
        return _sum_q(pairing, self.cfg.grid, self.cfg.tgrid)

    @cached_property
    def cost(self) -> float:
        """Tracking cost plus control penalty, cost(v, g)."""
        return _misfit(self.q_vg, self.cfg) + self._penalty

    @cached_property
    def relaxed_cost(self) -> float:
        """cost(v, g) minus the relaxation credit gamma * |g|^2."""
        return self.cost - self._credit

    @cached_property
    def sup_value(self) -> float:
        """(1/gamma)|xi(0;v)|^2: the sup over g of 2<g, xi(0;v)> - gamma|g|^2."""
        return inner_product_omega(self.xi0, self.xi0, self.cfg.grid) / self.cfg.gamma

    @cached_property
    def decomposition_residual(self) -> float:
        """Residual of the regret decomposition

        relaxed_cost(v,g) - relaxed_cost(0,g)
            = relaxed_cost(v,0) - relaxed_cost(0,0)
              + 2 <q(0,g) - q(0,0), q(v,0) - q(0,0)>_Q

        (the gamma |g|^2 credits on the two sides cancel exactly and are kept
        grouped that way).  Zero in exact arithmetic for every (v, g).
        """
        lhs = self.relaxed_cost - (_misfit(self.q_0g, self.cfg) - self._credit)
        relaxed_v0 = _misfit(self.q_v0, self.cfg) + self._penalty
        rhs = relaxed_v0 - self.cfg.relaxed_cost_00 + 2.0 * self._pairing
        return abs(lhs - rhs)

    @cached_property
    def duality_residual(self) -> float:
        """Residual of <g, xi(0; v)>_Omega = <q(v,0) - q(0,0), q(0,g) - q(0,0)>_Q."""
        return abs(inner_product_omega(self.g, self.xi0, self.cfg.grid) - self._pairing)

    def fenchel_gap(self, g: np.ndarray | None = None) -> float:
        """(1/gamma)|xi(0;v)|^2 minus the probed value 2<g, xi(0;v)> - gamma|g|^2,
        at the probe's datum or at ``g``.

        Nonnegative for every g; zero exactly at the maximizer
        g* = xi(0; v) / gamma.
        """
        g = self.g if g is None else _check_spatial(g, self.cfg.grid, stacked=True)
        grid = self.cfg.grid
        probed = 2.0 * inner_product_omega(g, self.xi0, grid) - self.cfg.gamma * inner_product_omega(g, g, grid)
        return self.sup_value - probed

    @cached_property
    def superposition_residual(self) -> float:
        """Q-norm of q(v,g) - q(v,0) - q(0,g) + q(0,0); zero by linearity."""
        return superposition_defect(
            self.q_vg, self.q_v0, self.q_0g, self.cfg.q_background,
            self.cfg.grid, self.cfg.tgrid,
        )


def cost(v: np.ndarray, g: np.ndarray, cfg: RegretConfig) -> float:
    """Tracking cost plus control penalty for control v and initial datum g."""
    return Probe(v, g, cfg).cost


def relaxed_cost(v: np.ndarray, g: np.ndarray, cfg: RegretConfig) -> float:
    """cost(v, g) minus the relaxation credit gamma * |g|^2."""
    return Probe(v, g, cfg).relaxed_cost


def cost_decomposition_residual(v: np.ndarray, g: np.ndarray, cfg: RegretConfig) -> float:
    """Residual of the regret decomposition; see ``Probe.decomposition_residual``."""
    return Probe(v, g, cfg).decomposition_residual


def duality_residual(v: np.ndarray, g: np.ndarray, cfg: RegretConfig) -> float:
    """Residual of <g, xi(0; v)>_Omega = <q(v,0) - q(0,0), q(0,g) - q(0,0)>_Q."""
    return Probe(v, g, cfg).duality_residual


def fenchel_gap(v: np.ndarray, g: np.ndarray, cfg: RegretConfig) -> float:
    """(1/gamma)|xi(0;v)|^2 minus the probed value 2<g, xi(0;v)> - gamma|g|^2.

    Nonnegative for every probe g; zero exactly at the maximizer
    g* = xi(0; v) / gamma.
    """
    return Probe(v, g, cfg).fenchel_gap()
