"""Normal equations, CG solve, optimality system, and the gamma continuation."""

import dataclasses

import numpy as np
import pytest

import lowregret as lr
from lowregret.optimizer import apply_normal_operator, normal_rhs
from lowregret.oracles import fd_gradient

from conftest import make_problem, random_control, traced_peak


class TestReducedGradient:
    def test_slice_zero_is_pinned(self, small_cfg):
        rng = np.random.default_rng(3)
        grad = lr.reduced_gradient(random_control(small_cfg, rng), small_cfg)
        assert np.array_equal(grad[0], np.zeros(small_cfg.grid.n))

    def test_matches_finite_differences(self):
        cfg = make_problem(n=10, steps=6)
        rng = np.random.default_rng(5)
        v = random_control(cfg, rng)
        grad = lr.reduced_gradient(v, cfg)
        ref = fd_gradient(v, cfg, eps=1e-5)
        assert np.max(np.abs(grad - ref)) <= 1e-6 * max(1.0, np.max(np.abs(ref)))

    def test_directional_derivative_identity(self, small_cfg):
        # <grad, w>_Q equals d/dt J(v + t w) at t=0 for a quadratic objective
        rng = np.random.default_rng(7)
        v, w = random_control(small_cfg, rng), random_control(small_cfg, rng)
        grad = lr.reduced_gradient(v, small_cfg)
        lhs = lr.inner_product_q(grad, w, small_cfg.grid, small_cfg.tgrid)
        t = 1e-6
        rhs = (lr.reduced_cost(v + t * w, small_cfg) - lr.reduced_cost(v - t * w, small_cfg)) / (2 * t)
        assert lhs == pytest.approx(rhs, rel=1e-5, abs=1e-8)


class TestNormalEquations:
    def test_operator_is_symmetric_in_the_cylinder_product(self, small_cfg):
        rng = np.random.default_rng(11)
        a, b = random_control(small_cfg, rng), random_control(small_cfg, rng)
        ha, hb = apply_normal_operator(a, small_cfg), apply_normal_operator(b, small_cfg)
        lhs = lr.inner_product_q(ha, b, small_cfg.grid, small_cfg.tgrid)
        rhs = lr.inner_product_q(a, hb, small_cfg.grid, small_cfg.tgrid)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_operator_is_coercive(self, small_cfg):
        rng = np.random.default_rng(13)
        v = random_control(small_cfg, rng)
        hv = apply_normal_operator(v, small_cfg)
        energy = lr.inner_product_q(hv, v, small_cfg.grid, small_cfg.tgrid)
        vv = lr.inner_product_q(v, v, small_cfg.grid, small_cfg.tgrid)
        assert energy >= small_cfg.control_weight * vv * (1.0 - 1e-12)

    def test_gradient_is_twice_the_normal_residual(self, small_cfg):
        # grad J(v) = 2 (H v - b); ties the CG system to the optimality system
        rng = np.random.default_rng(17)
        v = random_control(small_cfg, rng)
        lhs = lr.reduced_gradient(v, small_cfg)
        rhs = 2.0 * (apply_normal_operator(v, small_cfg) - normal_rhs(small_cfg))
        scale = max(1.0, np.max(np.abs(lhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-11 * scale

    @pytest.mark.parametrize("n", [40, lr.evolution.FOLD_NODES])  # dense and folded basis
    def test_apply_is_the_four_sweep_composition_bit_for_bit(self, n):
        cfg = make_problem(n=n, steps=12)
        v = random_control(cfg, np.random.default_rng(n))
        prop, zero = cfg.propagator, np.zeros(n)
        sv = lr.solve_forward(prop, v, zero)
        xi = lr.solve_backward(prop, sv, zero)
        propagated = lr.solve_forward(prop, np.zeros_like(v), xi[0])
        expected = lr.solve_backward(prop, sv + propagated / cfg.gamma, zero)
        expected += cfg.control_weight * v
        expected[0] = 0.0
        assert np.array_equal(apply_normal_operator(v, cfg), expected)


class TestSolve:
    def test_converges_with_nonpositive_objective(self, small_cfg):
        bundle = lr.solve_low_regret(small_cfg)
        assert bundle.converged
        assert bundle.value <= 0.0
        assert bundle.cg_iterations > 0
        assert np.array_equal(bundle.control[0], np.zeros(small_cfg.grid.n))

    def test_zero_data_fixed_point(self):
        cfg = make_problem()
        aligned = dataclasses.replace(cfg, z_d=cfg.q_background)
        bundle = lr.solve_low_regret(aligned)
        assert bundle.converged
        assert bundle.cg_iterations == 0
        assert np.array_equal(bundle.control, np.zeros_like(bundle.control))
        assert bundle.value == 0.0

    def test_warm_start_reaches_the_same_control(self, small_cfg):
        cold = lr.solve_low_regret(small_cfg)
        rng = np.random.default_rng(19)
        warm = lr.solve_low_regret(small_cfg, initial_control=random_control(small_cfg, rng))
        scale = max(1.0, lr.norm_q(cold.control, small_cfg.grid, small_cfg.tgrid))
        diff = lr.norm_q(cold.control - warm.control, small_cfg.grid, small_cfg.tgrid)
        assert diff <= 1e-8 * scale

    def test_residual_history_falls_overall(self, small_cfg):
        bundle = lr.solve_low_regret(small_cfg)
        history = bundle.cg_residuals  # the start, then one entry per iteration
        assert bundle.cg_iterations == len(history) - 1 >= 1
        assert bundle.cg_residual == history[-1]
        assert history[-1] <= min(history[0], history[1])

    def test_truncated_iteration_budget_is_reported(self, small_cfg):
        # an unreachable tolerance: H and its modal preconditioner agree to
        # round-off, so two preconditioned steps reach 1e-30
        tight = dataclasses.replace(small_cfg, cg_max_iters=2, cg_tol=1e-300)
        bundle = lr.solve_low_regret(tight)
        assert not bundle.converged
        assert bundle.cg_iterations >= 2
        full = lr.solve_low_regret(small_cfg)
        assert full.value <= bundle.value + 1e-12

    def test_bundle_trajectories_satisfy_their_equations(self, small_cfg):
        bundle = lr.solve_low_regret(small_cfg)
        res = lr.optimality_residuals(bundle, small_cfg)
        assert set(res) == {
            "state",
            "uncertainty_adjoint",
            "worst_response",
            "control_adjoint",
            "stationarity",
        }
        scale = max(1.0, lr.norm_q(bundle.state, small_cfg.grid, small_cfg.tgrid))
        for name, value in res.items():
            assert value <= 1e-8 * scale, f"{name}: {value:.3e}"

    def test_stationarity_residual_detects_perturbed_control(self, small_cfg):
        bundle = lr.solve_low_regret(small_cfg)
        rng = np.random.default_rng(23)
        delta = 0.1 * random_control(small_cfg, rng)
        shifted = dataclasses.replace(bundle, control=bundle.control + delta)
        res = lr.optimality_residuals(shifted, small_cfg)
        # only the stationarity equation references the control directly
        assert res["stationarity"] >= 0.5 * small_cfg.control_weight * lr.norm_q(
            delta, small_cfg.grid, small_cfg.tgrid
        )

    def test_worst_datum_is_the_scaled_trace(self, small_cfg):
        bundle = lr.solve_low_regret(small_cfg)
        expected = bundle.uncertainty_adjoint[0] / small_cfg.gamma
        assert np.max(np.abs(bundle.worst_initial_datum - expected)) <= 1e-12 * max(
            1.0, np.max(np.abs(expected))
        )

    @pytest.mark.parametrize("warm", [False, True])
    def test_in_place_updates_match_the_textbook_iteration_bit_for_bit(self, small_cfg, warm):
        # the solve iterates on the problem in A's eigenbasis
        cfg, rng = small_cfg, np.random.default_rng(37)
        start = random_control(cfg, rng) if warm else None
        view, prop = cfg.in_modes(), cfg.propagator
        b = normal_rhs(view)
        tol = view.cg_tol * lr.norm_q(b, view.grid, view.tgrid)
        x = np.zeros_like(b) if start is None else prop.to_modes(start)
        x[0] = 0.0
        r = b - apply_normal_operator(x, view) if warm else b
        residuals, p = [lr.norm_q(r, view.grid, view.tgrid)], None
        while residuals[-1] > tol:
            z = view.modes.solve(r, view.gamma)
            rz_next = lr.inner_product_q(r, z, view.grid, view.tgrid)
            p = z if p is None else z + (rz_next / rz) * p
            rz = rz_next
            hp = apply_normal_operator(p, view)
            alpha = rz / lr.inner_product_q(p, hp, view.grid, view.tgrid)
            x = x + alpha * p
            r = r - alpha * hp
            residuals.append(lr.norm_q(r, view.grid, view.tgrid))
        bundle = lr.solve_low_regret(cfg, initial_control=start)
        assert bundle.cg_residuals == tuple(residuals)
        assert np.array_equal(bundle.control, prop.from_modes(x))


class TestMemoryBudget:
    """Peak bytes a solve and an H-apply hold at once, in space-time fields,
    on a built problem whose modal factors exist."""

    @pytest.fixture(scope="class")
    def cfg(self):
        # 200 nodes: the folded basis change (n >= evolution.FOLD_NODES)
        cfg = make_problem(n=200, steps=100, gamma=1e-2)
        cfg.modes, cfg.relaxed_cost_00  # built before any peak is traced
        return cfg

    @staticmethod
    def fields(peak, cfg):
        return peak / ((cfg.tgrid.steps + 1) * cfg.grid.n * 8)

    def test_solve(self, cfg):
        lr.solve_low_regret(cfg)  # first-call allocations stay out of the peak
        # the bundle's five fields included
        assert self.fields(traced_peak(lambda: lr.solve_low_regret(cfg)), cfg) <= 9.0

    def test_normal_operator_apply(self, cfg):
        v = random_control(cfg, np.random.default_rng(41))
        apply_normal_operator(v, cfg)
        # the result included, the argument not
        assert self.fields(traced_peak(lambda: apply_normal_operator(v, cfg)), cfg) <= 6.0

    def test_optimality_residuals(self, cfg):
        bundle = lr.solve_low_regret(cfg)
        lr.optimality_residuals(bundle, cfg)
        # the bundle not included: one defect's source and the defect, which
        # subtracts dt * source in blocks and is squared in place
        assert self.fields(traced_peak(lambda: lr.optimality_residuals(bundle, cfg)), cfg) <= 2.2


class TestGammaSweep:
    def test_rejects_bad_schedules(self, small_cfg):
        with pytest.raises(ValueError):
            lr.gamma_sweep(small_cfg, gammas=(0.1,))
        with pytest.raises(ValueError):
            lr.gamma_sweep(small_cfg, gammas=(0.1, 0.2))
        with pytest.raises(ValueError):
            lr.gamma_sweep(small_cfg, gammas=(0.1, 0.1))
        with pytest.raises(ValueError):
            lr.gamma_sweep(small_cfg, gammas=(0.1, -0.01))
        with pytest.raises(ValueError, match="finite"):
            lr.gamma_sweep(small_cfg, gammas=(float("inf"), 0.1))
        with pytest.raises(ValueError, match="finite"):
            lr.gamma_sweep(small_cfg, gammas=(0.1, float("nan")))

    def test_report_shapes_and_monotone_trace_decay(self):
        cfg = make_problem(n=12, steps=8)
        gammas = (1.0, 0.1, 0.01)
        report = lr.gamma_sweep(cfg, gammas=gammas)
        assert report.gammas == gammas
        assert len(report.controls) == 3
        assert len(report.xi0_norms) == 3
        assert len(report.distances) == 2
        assert all(report.converged)
        assert not report.degenerate
        assert report.xi0_norms[0] > report.xi0_norms[-1]
        assert report.slope > 0.0

    def test_degenerate_problem_flags_nan_slope(self):
        cfg = make_problem()
        aligned = dataclasses.replace(cfg, z_d=cfg.q_background)
        report = lr.gamma_sweep(aligned, gammas=(1.0, 0.1, 0.01))
        assert report.degenerate
        assert np.isnan(report.slope)

    def test_progress_callback_runs_per_stage(self):
        cfg = make_problem(n=12, steps=8)
        seen = []
        lr.gamma_sweep(cfg, gammas=(1.0, 0.1), callback=lambda g, b: seen.append(g))
        assert seen == [1.0, 0.1]
