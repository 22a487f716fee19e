"""Independent reference routes for cross-checking the main solvers.

Everything here deliberately avoids the discretizations under test:

* ``quadrature_apply`` evaluates the fractional Laplacian of a smooth
  compactly supported profile by adaptive quadrature of the symmetrized
  principal-value integral, with a variable substitution that removes the
  origin singularity and explicit panel splits at the support endpoints.
* ``reference_normalization_constant`` recovers the kernel constant from
  its defining Fourier-symbol integral in high-precision arithmetic rather
  than from the gamma-function formula used by the operator assembly.
* ``dense_reduced_hessian`` materializes the reduced normal operator
  column by column so a direct linear solve can be compared against the
  iterative path.
* ``conjugate_gradient`` solves the normal equations by plain,
  unpreconditioned CG on the sweeps alone, so the modal preconditioner of
  the main solver can be checked against a route that never uses it.
* ``fd_gradient`` differentiates the reduced objective by central
  differences, one control component at a time.

Oracle tables written by ``save_oracle_table`` carry a content digest so a
stale or hand-edited fixture fails loudly when loaded.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .functional import RegretConfig, reduced_cost
from .grids import _check_space_time, inner_product_q, norm_q, zeros_space_time
from .operator import normalization_constant
from .optimizer import apply_normal_operator, normal_rhs


class QuadratureError(Exception):
    """Raised when the accumulated quadrature error exceeds its budget."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Error budget and panel controls for the singular-integral oracle.

    ``abs_tol``/``rel_tol`` bound the accumulated error estimate of the
    full evaluation; individual panels are integrated two orders tighter.
    ``singularity_split_radius`` caps the radius of the substitution panel
    around the origin of the symmetrized integral.
    """

    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    max_subdivisions: int = 300
    singularity_split_radius: float = 0.5

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if not self.singularity_split_radius > 0:
            raise ValueError("singularity_split_radius must be positive")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float


DEFAULT_QUADRATURE = QuadratureSpec()


def quadrature_apply(
    profile,
    point: float,
    s: float,
    support: tuple[float, float] | None = None,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> QuadratureResult:
    """Fractional Laplacian of ``profile`` at a point, by adaptive quadrature.

    The principal value is written as an integral over t > 0 of

        (2 w(x) - w(x + t) - w(x - t)) / t^(1 + 2 s)

    and the panel [0, r] around the origin is mapped by t = u^(1/(2-2s)),
    which makes the integrand bounded there; its innermost piece, where the
    symmetrized difference cancels catastrophically, is replaced by its
    closed-form Taylor contribution.  With ``support`` given, the
    profile must vanish outside it: panels are broken at the distances to
    the two support endpoints, where the integrand loses smoothness, and
    the tail beyond them is added in closed form.  Without ``support`` the
    profile is integrated as-is out to infinity, which handles profiles
    defined on the whole line (constants, rapidly decaying bumps).
    """
    x = float(point)
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got s={s}")

    w_x = float(profile(x))

    def sym_diff(t: float) -> float:
        return 2.0 * w_x - float(profile(x + t)) - float(profile(x - t))

    def integrand(t: float) -> float:
        return sym_diff(t) / t ** (1.0 + 2.0 * s)

    alpha = 1.0 / (2.0 - 2.0 * s)

    def integrand_sub(u: float) -> float:
        t = u**alpha
        return alpha * u ** (alpha - 1.0) * sym_diff(t) / t ** (1.0 + 2.0 * s)

    if support is not None:
        x_l, x_r = float(support[0]), float(support[1])
        if not x_l < x < x_r:
            raise ValueError(f"point {x} not inside support ({x_l}, {x_r})")
        d_near = min(x - x_l, x_r - x)
        d_far = max(x - x_l, x_r - x)
        radius = min(d_near, spec.singularity_split_radius)
        panels = sorted({radius, d_near, d_far})
        tail_value = 2.0 * w_x * d_far ** (-2.0 * s) / (2.0 * s)
    else:
        radius = spec.singularity_split_radius
        panels = [radius, np.inf]
        tail_value = None

    # Innermost segment [0, t_cut]: the symmetrized difference is computed by
    # cancellation, so its round-off noise divided by t^(1+2s) swamps adaptive
    # quadrature near 0.  There the integrand equals its quadratic Taylor term
    # to O(t^2) relative accuracy, integrated in closed form; a second sample
    # at 2 t_cut estimates the neglected curvature.
    t_cut = min(1e-4, 0.25 * radius)
    curv = sym_diff(t_cut) / t_cut**2
    curv_check = sym_diff(2.0 * t_cut) / (2.0 * t_cut) ** 2
    series_weight = t_cut ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    noise = 8.0 * max(1.0, abs(w_x)) * np.finfo(float).eps / t_cut**2

    total = curv * series_weight
    err = (abs(curv_check - curv) + noise) * series_weight
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, e = integrate.quad(
            integrand_sub,
            t_cut ** (2.0 - 2.0 * s),
            radius ** (2.0 - 2.0 * s),
            epsabs=spec.abs_tol / 100.0,
            epsrel=spec.rel_tol / 100.0,
            limit=spec.max_subdivisions,
        )
        total += val
        err += e
        for a, b in zip(panels, panels[1:]):
            val, e = integrate.quad(
                integrand,
                a,
                b,
                epsabs=spec.abs_tol / 100.0,
                epsrel=spec.rel_tol / 100.0,
                limit=spec.max_subdivisions,
            )
            total += val
            err += e
    if tail_value is not None:
        # beyond the farthest support endpoint the profile has no mass left
        total += tail_value

    c = normalization_constant(s)
    value = c * total
    error = c * err
    if error > max(spec.abs_tol, spec.rel_tol * abs(value)):
        raise QuadratureError(
            f"quadrature error {error:.3e} exceeds budget at point {x}, s={s}"
        )
    return QuadratureResult(value=value, error=error)


def reference_normalization_constant(s: float, dps: int = 60) -> float:
    """Kernel constant from its Fourier-symbol integral, high precision.

    The constant is fixed by requiring the kernel's symbol to equal
    |freq|^(2 s), i.e. it is the reciprocal of

        2 * integral_0^inf (1 - cos t) / t^(1 + 2 s) dt.

    Evaluated with mpmath: a finite head, an exact power tail, and an
    oscillatory cosine tail.  Independent of the gamma-function formula.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got s={s}")
    import mpmath as mp

    with mp.workdps(dps):
        two_s = 2 * mp.mpf(repr(s))
        a = 2 * mp.pi
        head = mp.quad(lambda t: (1 - mp.cos(t)) / t ** (1 + two_s), [0, 1, a])
        tail_power = a ** (-two_s) / two_s
        tail_osc = mp.quadosc(
            lambda t: mp.cos(t) / t ** (1 + two_s), [a, mp.inf], period=2 * mp.pi
        )
        return float(1 / (2 * (head + tail_power - tail_osc)))


def benchmark_profile(x, s: float):
    """The profile (1 - x^2)_+^s whose fractional Laplacian is constant."""
    x = np.asarray(x, dtype=float)
    return np.clip(1.0 - x * x, 0.0, None) ** s


def benchmark_constant(s: float) -> float:
    """Constant value of the fractional Laplacian of (1 - x^2)_+^s on (-1, 1)."""
    return (
        4.0**s * math.gamma(1.0 + s) * math.gamma(s + 0.5) / math.sqrt(math.pi)
    )


def fd_gradient(v: np.ndarray, cfg: RegretConfig, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the reduced objective at v.

    Partial derivatives are divided by the quadrature weight h * dt so the
    result is the gradient with respect to the space-time inner product,
    directly comparable with the adjoint-based gradient.  Slice 0 is zero.
    """
    v = _check_space_time(v, cfg.grid, cfg.tgrid)
    weight = cfg.grid.h * cfg.tgrid.dt
    grad = zeros_space_time(cfg.grid, cfg.tgrid)
    for m in range(1, cfg.tgrid.steps + 1):
        for i in range(cfg.grid.n):
            bumped = v.copy()
            bumped[m, i] += eps
            plus = reduced_cost(bumped, cfg)
            bumped[m, i] -= 2.0 * eps
            minus = reduced_cost(bumped, cfg)
            grad[m, i] = (plus - minus) / (2.0 * eps * weight)
    return grad


def dense_reduced_hessian(cfg: RegretConfig, cap: int = 2000) -> tuple[np.ndarray, np.ndarray]:
    """Materialize the reduced normal operator and its right-hand side.

    Returns (H, b) in flattened control coordinates: slices 1..M stacked
    row-major, so index (m, i) maps to (m - 1) * n + i.  Intended for
    small problems only; refuses when the dimension exceeds ``cap``.
    """
    n = cfg.grid.n
    m_steps = cfg.tgrid.steps
    dim = n * m_steps
    if dim > cap:
        raise ValueError(
            f"dense Hessian has dimension {dim}, above the cap of {cap}"
        )
    hess = np.empty((dim, dim))
    basis = zeros_space_time(cfg.grid, cfg.tgrid)
    flat = basis.reshape(-1)
    for k in range(dim):
        flat[n + k] = 1.0
        hess[:, k] = apply_normal_operator(basis, cfg)[1:].reshape(-1)
        flat[n + k] = 0.0
    rhs = normal_rhs(cfg)[1:].reshape(-1).copy()
    return hess, rhs


def conjugate_gradient(cfg: RegretConfig) -> tuple[np.ndarray, int, float]:
    """Plain CG on H u = b from zero: (control, iterations, residual norm).

    Stops when |r|_Q <= cfg.cg_tol * |b|_Q or after cfg.cg_max_iters
    iterations.  Its iteration count grows as gamma shrinks.
    """
    b = normal_rhs(cfg)
    tol = cfg.cg_tol * max(norm_q(b, cfg.grid, cfg.tgrid), np.finfo(float).tiny)
    x = np.zeros_like(b)
    r = b.copy()
    r_sq = inner_product_q(r, r, cfg.grid, cfg.tgrid)
    p = r.copy()
    iterations = 0
    while math.sqrt(r_sq) > tol and iterations < cfg.cg_max_iters:
        hp = apply_normal_operator(p, cfg)
        alpha = r_sq / inner_product_q(p, hp, cfg.grid, cfg.tgrid)
        x += alpha * p
        r -= alpha * hp
        r_sq_next = inner_product_q(r, r, cfg.grid, cfg.tgrid)
        iterations += 1
        p = r + (r_sq_next / r_sq) * p
        r_sq = r_sq_next
    return x, iterations, math.sqrt(r_sq)


def _render_oracle_table(params: dict, columns: dict) -> tuple[str, str]:
    names = list(columns)
    arrays = [np.atleast_1d(np.asarray(columns[k], dtype=float)) for k in names]
    length = len(arrays[0])
    if any(len(a) != length for a in arrays):
        raise ValueError("oracle table columns must share a common length")
    lines = [f"# {k}={params[k]}" for k in sorted(params)]
    lines.append(",".join(names))
    for row in range(length):
        lines.append(",".join(repr(float(a[row])) for a in arrays))
    body = "\n".join(lines) + "\n"
    return body, hashlib.sha256(body.encode()).hexdigest()


def save_oracle_table(path, params: dict, columns: dict) -> None:
    """Write a CSV oracle table with key=value header lines and a digest."""
    body, digest = _render_oracle_table(params, columns)
    with open(path, "w") as fh:
        fh.write(f"# digest={digest}\n")
        fh.write(body)


def load_oracle_table(path) -> tuple[dict, dict]:
    """Read an oracle table, verifying its content digest.

    Returns (params, columns) with params as strings and columns as float
    arrays.  Raises ValueError when the digest line is missing or stale.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# digest="):
        raise ValueError(f"{path}: missing digest line")
    stored = lines[0].split("=", 1)[1]
    body = "\n".join(lines[1:]) + "\n"
    if hashlib.sha256(body.encode()).hexdigest() != stored:
        raise ValueError(f"{path}: content does not match its digest")
    params = {}
    row_start = 1
    for idx, line in enumerate(lines[1:], start=1):
        if line.startswith("# "):
            key, value = line[2:].split("=", 1)
            params[key] = value
        else:
            row_start = idx
            break
    names = lines[row_start].split(",")
    data = np.array(
        [[float(cell) for cell in line.split(",")] for line in lines[row_start + 1 :]]
    )
    if data.ndim != 2 or data.shape[1] != len(names):
        raise ValueError(f"{path}: malformed data rows")
    columns = {name: data[:, j].copy() for j, name in enumerate(names)}
    return params, columns
