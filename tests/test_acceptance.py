"""Package acceptance checklist.

One test per numbered criterion, at the sizes and tolerances the project
commits to; the -v output reads as a pass/fail line per criterion.  Each
test also prints the measured quantity for inspection with -s or on failure.
"""

import json
import math
import os

import numpy as np
import pytest

import lowregret as lr
from lowregret.cli import main
from lowregret.oracles import (
    benchmark_profile,
    dense_reduced_hessian,
    fd_gradient,
    quadrature_apply,
)
from lowregret.presets import space_time_field

SWEEP_GAMMAS = (1.0, 1e-1, 1e-2, 1e-3, 1e-4)


def calibrated_config(n=40, steps=30, gamma=1e-2, control_weight=0.1, s=0.5):
    """The reference scenario shared by the solver-level criteria."""
    grid = lr.build_grid(-1.0, 1.0, n)
    tgrid = lr.build_time_grid(1.0, steps)
    return lr.RegretConfig(
        s=s,
        control_weight=control_weight,
        gamma=gamma,
        f=space_time_field("gauss(0.2,0.25,0.7)", grid, tgrid),
        z_d=space_time_field("sine(1,0.4)", grid, tgrid),
        grid=grid,
        tgrid=tgrid,
    )


def random_control(cfg, rng):
    v = lr.zeros_space_time(cfg.grid, cfg.tgrid)
    v[1:] = rng.standard_normal((cfg.tgrid.steps, cfg.grid.n))
    return v


@pytest.fixture(scope="module")
def sweep_result():
    cfg = calibrated_config(gamma=SWEEP_GAMMAS[0])
    return cfg, lr.gamma_sweep(cfg, SWEEP_GAMMAS)


@pytest.fixture(scope="module")
def solve_result():
    cfg = calibrated_config()
    return cfg, lr.solve_low_regret(cfg)


def test_criterion_01_operator_matches_quadrature_oracle():
    oracle = quadrature_apply(
        lambda y: benchmark_profile(y, 0.5), 0.0, 0.5, support=(-1.0, 1.0)
    )
    assert oracle.error <= 1e-8
    assert abs(oracle.value - 1.0) <= 1e-7  # the predicted constant at s = 1/2

    errors = []
    for n in (99, 199, 399):
        grid = lr.build_grid(-1.0, 1.0, n)
        op = lr.assemble_operator(grid, 0.5)
        out = op.apply(benchmark_profile(grid.nodes, 0.5))
        window = np.abs(grid.nodes) <= 0.8
        errors.append(float(np.max(np.abs(out[window] - oracle.value)) / abs(oracle.value)))
    print(f"interior errors over n=99/199/399: {errors}")
    assert errors[0] > errors[1] > errors[2], errors
    assert errors[2] <= 0.02, errors


def test_criterion_02_normalization_constant_high_precision():
    import mpmath as mp

    for s in (0.25, 0.5, 0.75):
        with mp.workdps(50):
            ms = mp.mpf(s)
            hp = float(
                ms * mp.mpf(4) ** ms * mp.gamma((2 * ms + 1) / 2)
                / (mp.sqrt(mp.pi) * mp.gamma(1 - ms))
            )
        direct = lr.normalization_constant(s)
        print(f"s={s}: constant {direct!r} vs high precision {hp!r}")
        assert abs(direct - hp) <= 1e-12 * hp
    assert lr.normalization_constant(0.5) == pytest.approx(1.0 / math.pi, rel=1e-15)


def test_criterion_03_forward_backward_maps_are_transposes():
    grid = lr.build_grid(-1.0, 1.0, 50)
    tgrid = lr.build_time_grid(1.0, 40)
    prop = lr.step_factor(lr.assemble_operator(grid, 0.5), tgrid)
    zero = np.zeros(grid.n)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        w = rng.standard_normal((tgrid.steps + 1, grid.n))
        r = rng.standard_normal((tgrid.steps + 1, grid.n))
        sw = lr.solve_forward(prop, w, zero)
        sr = lr.solve_backward(prop, r, zero)
        lhs = lr.inner_product_q(sw, r, grid, tgrid)
        rhs = lr.inner_product_q(w, sr, grid, tgrid)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    print(f"worst relative transpose defect over 20 probes: {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_04_cost_decomposition_identity():
    cfg = calibrated_config(n=24, steps=16)
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        v = random_control(cfg, rng)
        g = rng.standard_normal(cfg.grid.n)
        scale = max(1.0, abs(lr.relaxed_cost(v, g, cfg)))
        worst = max(worst, lr.cost_decomposition_residual(v, g, cfg) / scale)
    print(f"worst scaled decomposition residual over 20 pairs: {worst:.3e}")
    assert worst <= 1e-11


def test_criterion_05_trace_duality_identity():
    cfg = calibrated_config(n=24, steps=16)
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(20):
        v = random_control(cfg, rng)
        g = rng.standard_normal(cfg.grid.n)
        xi0 = lr.solve_uncertainty_adjoint(v, cfg)[0]
        scale = max(1.0, lr.norm_omega(g, cfg.grid) * lr.norm_omega(xi0, cfg.grid))
        worst = max(worst, lr.duality_residual(v, g, cfg) / scale)
    print(f"worst scaled duality residual over 20 pairs: {worst:.3e}")
    assert worst <= 1e-11


def test_criterion_06_conjugate_transform_gap():
    cfg = calibrated_config(n=24, steps=16)
    rng = np.random.default_rng(606)
    v = random_control(cfg, rng)
    xi0 = lr.solve_uncertainty_adjoint(v, cfg)[0]

    lowest = math.inf
    for _ in range(100):
        g = rng.standard_normal(cfg.grid.n)
        lowest = min(lowest, lr.fenchel_gap(v, g, cfg))
    at_max = lr.fenchel_gap(v, xi0 / cfg.gamma, cfg)
    print(f"lowest gap over 100 probes: {lowest:.3e}; gap at maximizer: {at_max:.3e}")
    assert lowest >= -1e-12
    assert abs(at_max) <= 1e-12


def test_criterion_07_adjoint_gradient_vs_finite_differences():
    cfg = calibrated_config(n=30, steps=25)
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(5):
        v = random_control(cfg, rng)
        grad = lr.reduced_gradient(v, cfg)
        fd = fd_gradient(v, cfg, eps=1e-5)
        rel = lr.norm_q(fd - grad, cfg.grid, cfg.tgrid) / lr.norm_q(grad, cfg.grid, cfg.tgrid)
        worst = max(worst, rel)
    print(f"worst relative gradient error over 5 controls: {worst:.3e}")
    assert worst <= 1e-6


@pytest.mark.parametrize("control_weight,gamma", [(1.0, 1.0), (0.1, 0.01)])
def test_criterion_08_cg_matches_dense_direct_solve(control_weight, gamma):
    cfg = calibrated_config(n=20, steps=20, control_weight=control_weight, gamma=gamma)
    hess, rhs = dense_reduced_hessian(cfg)
    dense = np.linalg.solve(hess, rhs).reshape(cfg.tgrid.steps, cfg.grid.n)
    bundle = lr.solve_low_regret(cfg)
    assert bundle.converged
    padded = lr.zeros_space_time(cfg.grid, cfg.tgrid)
    padded[1:] = dense
    rel = lr.norm_q(bundle.control - padded, cfg.grid, cfg.tgrid) / lr.norm_q(
        padded, cfg.grid, cfg.tgrid
    )
    print(f"weights ({control_weight}, {gamma}): CG vs dense relative gap {rel:.3e}")
    assert rel <= 1e-8


def test_criterion_09_optimality_system_residuals(solve_result):
    cfg, bundle = solve_result
    assert bundle.converged
    residuals = lr.optimality_residuals(bundle)
    scale = max(
        1.0,
        lr.norm_q(bundle.state, cfg.grid, cfg.tgrid),
        lr.norm_q(cfg.z_d, cfg.grid, cfg.tgrid),
        lr.norm_q(bundle.control, cfg.grid, cfg.tgrid),
    )
    print({k: f"{val:.3e}" for k, val in residuals.items()})
    assert set(residuals) == {
        "state",
        "uncertainty_adjoint",
        "worst_response",
        "control_adjoint",
        "stationarity",
    }
    for name, value in residuals.items():
        assert value <= 1e-8 * scale, f"{name}: {value:.3e} vs scale {scale:.3e}"


def test_criterion_10_trace_decay_and_bounded_controls(sweep_result):
    _, report = sweep_result
    assert all(report.converged)
    assert not report.degenerate
    ratio = max(report.control_norms) / min(report.control_norms)
    print(f"fitted slope {report.slope:.3f}; control norm ratio {ratio:.2f}")
    assert report.slope >= 0.45
    assert ratio <= 10.0


def test_criterion_11_continuation_converges_with_membership(sweep_result):
    cfg, report = sweep_result
    assert all(
        b < a for a, b in zip(report.distances, report.distances[1:])
    ), report.distances

    terminal = report.controls[-1]
    xi0 = lr.solve_uncertainty_adjoint(terminal, cfg)[0]
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(20):
        g = rng.standard_normal(cfg.grid.n)
        pairing = abs(lr.inner_product_omega(g, xi0, cfg.grid))
        worst = max(worst, pairing / lr.norm_omega(g, cfg.grid))
    print(f"distances {list(report.distances)}; worst membership pairing {worst:.3e}")
    assert worst <= 1e-4


def test_criterion_12_objective_sign(sweep_result, solve_result):
    cfg, bundle = solve_result
    _, report = sweep_result
    for value, ok in zip(report.values, report.converged):
        assert ok and value <= 0.0, value
    assert bundle.value <= 0.0
    at_rest = lr.reduced_cost(lr.zeros_space_time(cfg.grid, cfg.tgrid), cfg)
    print(f"objectives {list(report.values)}; objective at zero control {at_rest!r}")
    assert abs(at_rest) <= 1e-12


def test_criterion_13_deterministic_reports(tmp_path):
    for config, command in (
        ("configs/solve.json", "run"),
        ("configs/audit.json", "audit"),
        ("configs/sweep.json", "sweep"),
    ):
        first = tmp_path / f"{command}_a"
        second = tmp_path / f"{command}_b"
        assert main([command, config, "--out", str(first), "--quiet"]) == 0, config
        assert main([command, config, "--out", str(second), "--quiet"]) == 0, config
        assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
        for name in sorted(os.listdir(first)):
            if name.endswith(".csv"):
                assert (first / name).read_bytes() == (second / name).read_bytes(), name
        report = json.loads((first / "report.json").read_text())
        assert report["success"] is True
        print(f"{command}: byte-identical report and plot data, digest {report['config_digest'][:12]}")
