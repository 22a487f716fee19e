"""Normal equations, the refined solve, optimality system, and the gamma continuation."""

import copy
import dataclasses
import itertools
import logging
import os

import numpy as np
import pytest

import lowregret as lr
from lowregret import evolution, optimizer
from lowregret.cli import load_scenario
from lowregret.optimizer import apply_normal_operator, normal_rhs
from lowregret.oracles import fd_gradient

from conftest import make_problem, random_control, traced_peak

SOLVE_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "solve.json")


def spy_solves(monkeypatch) -> list:
    """The bundles of every ``solve_low_regret`` call made through the
    optimizer module (a gamma sweep's stages), in call order."""
    bundles, solve = [], optimizer.solve_low_regret

    def spy(*args, **kwargs):
        bundles.append(solve(*args, **kwargs))
        return bundles[-1]

    monkeypatch.setattr(optimizer, "solve_low_regret", spy)
    return bundles


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
        # an unreachable tolerance: H and its modal inverse agree to
        # round-off, so two refinement steps reach about 1e-30
        tight = dataclasses.replace(small_cfg, cg_max_iters=2, cg_tol=1e-300)
        bundle = lr.solve_low_regret(tight)
        assert not bundle.converged
        assert bundle.cg_iterations >= 2
        full = lr.solve_low_regret(small_cfg)
        assert full.value <= bundle.value + 1e-12

    def test_bundle_trajectories_satisfy_their_equations(self, small_cfg):
        bundle = lr.solve_low_regret(small_cfg)
        res = lr.optimality_residuals(bundle)
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
        res = lr.optimality_residuals(shifted)
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
    def test_in_place_updates_match_the_plain_refinement_bit_for_bit(self, small_cfg, warm):
        # the solve iterates on the problem in A's eigenbasis
        cfg, rng = small_cfg, np.random.default_rng(37)
        start = random_control(cfg, rng) if warm else None
        view, prop = cfg.in_modes(), cfg.propagator
        b = normal_rhs(view)
        tol = view.cg_tol * lr.norm_q(b, view.grid, view.tgrid)
        x = np.zeros_like(b) if start is None else prop.to_modes(start)
        x[0] = 0.0
        r = b - apply_normal_operator(x, view) if warm else b
        residuals = [lr.norm_q(r, view.grid, view.tgrid)]
        while residuals[-1] > tol:
            z = view.modes.solve(r, view.gamma)
            x = x + z
            r = r - apply_normal_operator(z, view)
            residuals.append(lr.norm_q(r, view.grid, view.tgrid))
        bundle = lr.solve_low_regret(cfg, initial_control=start)
        assert bundle.converged
        assert bundle.cg_residuals == tuple(residuals)
        assert np.array_equal(bundle.control, prop.from_modes(x))

    @pytest.mark.parametrize("gamma", [10.0 ** -k for k in range(2, 17)])
    def test_shipped_solve_converges_down_to_gamma_1e_16(self, gamma):
        cfg = load_scenario(SOLVE_CONFIG).problem.with_gamma(gamma)
        bundle = lr.solve_low_regret(cfg)
        assert bundle.converged, bundle.cg_residuals

    @pytest.mark.parametrize("gamma", [3e-17, 1e-20, 1e-300])
    def test_a_stall_ends_unconverged_within_two_steps(self, gamma):
        # the modal inverse has lost its accuracy: the first step whose
        # residual does not fall ends the loop
        cfg = load_scenario(SOLVE_CONFIG).problem.with_gamma(gamma)
        with np.errstate(all="ignore"):
            bundle = lr.solve_low_regret(cfg)
        history = bundle.cg_residuals
        assert not bundle.converged
        assert 1 <= bundle.cg_iterations <= 2
        assert not history[-1] < history[-2]  # the last step stalled
        assert all(a > b for a, b in zip(history[:-2], history[1:-1]))  # the others fell


class TestBundleMapping:
    """The solve maps ``control`` back to nodes, and each of the bundle's
    four trajectories on its first read."""

    FIELDS = ("state", "uncertainty_adjoint", "worst_response", "control_adjoint", "worst_initial_datum")

    @staticmethod
    def eager(cfg):
        """The bundle's fields mapped back at once, in the solve's order."""
        view, prop = cfg.in_modes(), cfg.propagator
        x, _, _ = optimizer._refine(view, None)
        state, xi, psi, phi = optimizer._first_order_system(x, view)
        control = prop.from_modes(x)
        state, xi, psi, phi = (prop.from_modes(field) for field in (state, xi, psi, phi))
        state += cfg.q_background
        return dict(
            control=control, state=state, uncertainty_adjoint=xi, worst_response=psi,
            control_adjoint=phi, worst_initial_datum=xi[0] / cfg.gamma,
        )

    @pytest.mark.parametrize("n", [40, 160])  # dense and folded basis changes
    def test_fields_read_in_any_order_are_the_eager_ones_bit_for_bit(self, n):
        cfg = make_problem(n=n, steps=12, gamma=1e-2)
        expected = self.eager(cfg)
        orders = itertools.permutations(self.FIELDS) if n < 100 else (self.FIELDS, self.FIELDS[::-1])
        for order in orders:
            bundle = lr.solve_low_regret(cfg)
            assert bundle.control.tobytes() == expected["control"].tobytes()
            for name in order:
                assert getattr(bundle, name).tobytes() == expected[name].tobytes(), (order, name)
            assert bundle._modal == {}  # each modal field dropped as it was mapped

    def test_a_bundle_and_its_copies_read_the_same_fields_in_any_order(self):
        # a copy shares the modal trajectories; the first read of any copy
        # maps a field for all of them
        cfg = make_problem(n=40, steps=12, gamma=1e-2)
        fresh = lr.solve_low_regret(cfg)
        expected = {name: getattr(fresh, name) for name in self.FIELDS}
        for order in itertools.permutations(("original", "replace", "copy")):
            bundle = lr.solve_low_regret(cfg)
            copies = {
                "original": bundle,
                "replace": dataclasses.replace(bundle, control=bundle.control + 1.0),
                "copy": copy.copy(bundle),
            }
            for which in order:
                for name in self.FIELDS:
                    assert np.array_equal(getattr(copies[which], name), expected[name]), (order, which, name)
            # copies made after every field was read
            for late in (dataclasses.replace(bundle, value=0.0), copy.copy(bundle)):
                for name in self.FIELDS:
                    assert np.array_equal(getattr(late, name), expected[name]), (order, name)

    def test_a_sweep_stage_maps_the_control_and_the_uncertainty_adjoint(self, monkeypatch):
        cfg = make_problem(n=40, steps=12)
        cfg.modes, cfg.relaxed_cost_00  # the set-up's physical sweep runs before the spy
        mapped, original = [], evolution.Propagator.from_modes

        def spy(prop, y, out=None):
            mapped.append(y.shape)
            return original(prop, y, out)

        monkeypatch.setattr(evolution.Propagator, "from_modes", spy)
        bundles = spy_solves(monkeypatch)
        gammas = (1.0, 1e-2, 1e-4)
        lr.gamma_sweep(cfg, gammas)
        assert len(mapped) == 2 * len(gammas)
        unread = [set(bundle._modal) for bundle in bundles]
        assert unread == [{"state", "worst_response", "control_adjoint"}] * len(gammas)


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
        # the bundle's five fields included; 8.0 before the control adjoint
        # was swept in its own source
        assert self.fields(traced_peak(lambda: lr.solve_low_regret(cfg)), cfg) <= 7.5

    def test_normal_operator_apply(self, cfg):
        v = random_control(cfg, np.random.default_rng(41))
        apply_normal_operator(v, cfg)
        # the result included, the argument not
        assert self.fields(traced_peak(lambda: apply_normal_operator(v, cfg)), cfg) <= 6.0

    def test_optimality_residuals(self, cfg):
        bundle = lr.solve_low_regret(cfg)
        lr.optimality_residuals(bundle)
        # the bundle not included: one defect's source and the defect, which
        # subtracts dt * source in blocks and is squared in place
        assert self.fields(traced_peak(lambda: lr.optimality_residuals(bundle)), cfg) <= 2.2


class TestFirstOrderSystem:
    @pytest.mark.parametrize("n", [40, 151])  # a dense and a folded basis change
    def test_is_the_composed_sweeps_bit_for_bit(self, n):
        cfg = make_problem(n=n, steps=9, gamma=0.05)
        v = random_control(cfg, np.random.default_rng(n))
        for problem in (cfg, cfg.in_modes()):  # physical, and the solver's modal view
            prop, zero = problem.propagator, np.zeros(cfg.grid.n)
            root_gamma = cfg.gamma ** 0.5
            state = lr.solve_forward(prop, problem.f + v, zero)
            xi = lr.solve_backward(prop, lr.solve_forward(prop, v, zero), zero)
            psi = lr.solve_forward(prop, None, -xi[0] / root_gamma)
            phi = lr.solve_backward(prop, (state - problem.z_d) - psi / root_gamma, zero)
            got = optimizer._first_order_system(v, problem)
            for name, a, b in zip(("state", "xi", "psi", "phi"), got, (state, xi, psi, phi)):
                assert np.array_equal(a, b), name


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

    def test_logs_one_info_record_per_stage(self, caplog):
        cfg = make_problem(n=12, steps=8)
        with caplog.at_level(logging.INFO, logger="lowregret"):
            report = lr.gamma_sweep(cfg, gammas=(1.0, 0.1))
        records = [r for r in caplog.records if r.name == "lowregret"]
        assert [r.levelno for r in records] == [logging.INFO] * 2
        assert [r.getMessage() for r in records] == [
            f"  gamma={g:g}: {its} CG iterations, objective {value:.6e}, |xi(0)|={xi0:.3e}"
            for g, its, value, xi0 in zip(report.gammas, report.cg_iterations, report.values, report.xi0_norms)
        ]

    def test_stage_residuals_are_read_on_the_stage_problem(self, monkeypatch):
        # each stage's bundle carries its own gamma; read against another
        # problem (the sweep's, at gamma = 1) the residuals would not vanish
        cfg = make_problem(n=40, steps=30)
        bundles = spy_solves(monkeypatch)
        lr.gamma_sweep(cfg, gammas=(1.0, 1e-3))
        assert [bundle.problem.gamma for bundle in bundles] == [1.0, 1e-3]
        for bundle in bundles:
            scale = max(1.0, lr.norm_q(bundle.state, cfg.grid, cfg.tgrid))
            residuals = lr.optimality_residuals(bundle)
            assert max(residuals.values()) <= 1e-12 * scale, residuals
        misread = lr.optimality_residuals(dataclasses.replace(bundles[-1], problem=cfg.with_gamma(1.0)))
        assert misread["worst_response"] > 1e-6
