"""Modal inverse of the normal operator and the refined solve built on it."""

import json
import os

import numpy as np
import pytest
from scipy.linalg.lapack import dpttrf, dpttrs

import lowregret as lr
from lowregret import evolution, operator
from lowregret.cli import main
from lowregret.functional import RegretConfig, workspace
from lowregret.modal import NormalModes
from lowregret.optimizer import apply_normal_operator
from lowregret.oracles import conjugate_gradient

from conftest import count_calls, make_problem, random_control

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


class TestModalInverse:
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n,steps", [(1, 1), (1, 2), (2, 1), (16, 10), (120, 60)])
    @pytest.mark.parametrize("gamma,budget", [(1.0, 1e-11), (1e-2, 1e-11), (1e-6, 1e-7)])
    def test_inverts_the_normal_operator_to_round_off(self, n, steps, s, gamma, budget):
        # exact up to round-off times cond(H), which grows like 1/gamma
        cfg = make_problem(n=n, steps=steps, s=s, gamma=gamma)
        b, prop = random_control(cfg, np.random.default_rng(29)), cfg.propagator
        # the modal solve takes and gives modal coefficients
        x = prop.from_modes(cfg.modes.solve(prop.to_modes(b), gamma))
        assert np.array_equal(x[0], np.zeros(n))
        residual = lr.norm_q(b - apply_normal_operator(x, cfg), cfg.grid, cfg.tgrid)
        assert residual <= budget * lr.norm_q(b, cfg.grid, cfg.tgrid)

    def test_slice_zero_of_the_input_is_ignored(self, small_cfg):
        b = random_control(small_cfg, np.random.default_rng(31))
        modes = small_cfg.modes
        shifted = b.copy()
        shifted[0] = 1.0
        assert np.array_equal(modes.solve(b, 0.1), modes.solve(shifted, 0.1))


class TestPivotLoop:
    @staticmethod
    def allocating_factors(modes, control_weight):
        """T's pivots and multipliers by the loop that allocated two rows per
        step, ``d_next -= e / d * e``: the reference for the in-place one."""
        steps, dt, r = len(modes.pivots), modes.dt, modes.ratio
        with np.errstate(all="ignore"):
            scale = control_weight / (dt * r) ** 2
            pivots = np.tile(1.0 + scale * (1.0 + r * r), (steps, 1))
            pivots[-1] = 1.0 + scale
            multipliers = np.tile(-scale * r, (steps - 1, 1))
            for d, d_next, e in zip(pivots, pivots[1:], multipliers):
                d_next -= e / d * e
            multipliers /= pivots[:-1]
        return pivots, multipliers

    @pytest.mark.parametrize("n,steps", [(40, 30), (400, 200)])
    def test_pivots_and_multipliers_keep_the_allocating_loops_bits(self, n, steps):
        cfg = make_problem(n=n, steps=steps)
        pivots, multipliers = self.allocating_factors(cfg.modes, cfg.control_weight)
        assert np.array_equal(cfg.modes.pivots, pivots)
        assert np.array_equal(cfg.modes.multipliers, multipliers)


class TestTridiagonalFactors:
    """The LDL^T factor and solve of T against LAPACK dpttrf and dpttrs on all
    of T's blocks stacked into one tridiagonal matrix, mode-major."""

    @pytest.mark.parametrize("s", [0.1, 0.9])
    @pytest.mark.parametrize("n,steps", [(1, 1), (1, 2), (2, 1), (3, 2), (16, 10), (41, 30), (120, 60)])
    def test_match_dpttrf_and_dpttrs_bit_for_bit(self, n, steps, s):
        cfg = make_problem(n=n, steps=steps, s=s)
        modes, r = cfg.modes, cfg.modes.ratio[:, None]
        scale = cfg.control_weight / (modes.dt * r) ** 2
        diag = np.empty((n, steps))
        diag[:, :-1] = 1.0 + scale * (1.0 + r * r)
        diag[:, -1] = 1.0 + scale[:, 0]
        off = np.zeros((n, steps))  # the last entry of each block: no coupling into the next
        off[:, :-1] = -scale * r
        size = max(n * steps - 1, 1)  # the wrapper wants max(N - 1, 1) off-diagonal values
        pivots, multipliers, info = dpttrf(diag.ravel(), off.ravel()[:size])
        assert info == 0
        assert np.array_equal(modes.pivots.T.ravel(), pivots)
        stacked = np.zeros((n, steps))
        stacked[:, :-1] = modes.multipliers.T
        assert np.array_equal(stacked.ravel()[:size], multipliers)
        rhs = np.random.default_rng(n * steps).normal(size=(n, steps))
        expected, info = dpttrs(pivots, multipliers, rhs.reshape(-1, 1))
        assert info == 0
        work = rhs.T.copy()  # the solver works time-major, in place
        solved = modes._tridiagonal_solve(work)
        assert solved is work
        assert np.array_equal(solved.T, expected.reshape(n, steps))

    @pytest.mark.parametrize(
        "horizon,control_weight",
        [
            (1e-160, 0.1),  # dt = 2.5e-161 passes the time grid, but w/(dt r)^2 overflows
            (1.0, -10.0),  # T is not positive definite
        ],
    )
    def test_refuses_a_pivot_that_is_not_positive_and_finite(self, horizon, control_weight):
        # built directly: RegretConfig itself refuses the first row's horizon
        op = lr.assemble_operator(lr.build_grid(-1.0, 1.0, 8), 0.5)
        prop = lr.step_factor(op, lr.build_time_grid(horizon, 4))
        with pytest.raises(ValueError, match="pivot is not positive and finite"):
            NormalModes(prop, control_weight)


class TestPreconditionedSolve:
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("gamma", [1.0, 1e-2, 1e-4, 1e-6])
    def test_matches_plain_conjugate_gradients(self, s, gamma):
        cfg = make_problem(n=16, steps=10, s=s, gamma=gamma, control_weight=0.1)
        bundle = lr.solve_low_regret(cfg)
        reference, cg_iterations, _ = conjugate_gradient(cfg)
        assert bundle.converged
        assert bundle.cg_iterations <= 3 < cg_iterations
        diff = lr.norm_q(bundle.control - reference, cfg.grid, cfg.tgrid)
        assert diff <= 1e-10 * lr.norm_q(reference, cfg.grid, cfg.tgrid)

    def test_shipped_sweep_needs_at_most_three_iterations_per_gamma(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["run", os.path.join(CONFIGS, "sweep.json"), "--out", str(out), "--quiet"]) == 0
        metrics = json.loads((out / "report.json").read_text())["metrics"]
        assert len(metrics["cg_iterations"]) == len(metrics["gammas"])
        assert all(1 <= its <= 3 for its in metrics["cg_iterations"])


class TestModesOwnership:
    def test_workspace_builds_no_modes_until_a_solve(self, small_cfg):
        cfg = workspace(small_cfg)
        assert "modes" not in vars(cfg)
        lr.solve_low_regret(cfg)
        assert "modes" in vars(cfg)

    def test_a_sweep_decomposes_the_operator_once(self, small_cfg, monkeypatch):
        calls = []
        real_eigh = evolution.centrosymmetric_eigh
        monkeypatch.setattr(
            evolution, "centrosymmetric_eigh", lambda a: calls.append(1) or real_eigh(a)
        )
        report = lr.gamma_sweep(small_cfg, gammas=(1.0, 1e-2, 1e-4))
        assert all(report.converged)
        assert len(calls) == 1

    def test_with_gamma_shares_the_modes(self, small_cfg):
        other = small_cfg.with_gamma(1e-3)
        assert other.modes is small_cfg.modes


# the dense basis change (n < evolution.FOLD_NODES) and the folded one
VIEW_NODES = [40, 160]


class TestEigenbasisView:
    """The solve runs on ``RegretConfig.in_modes()``, the same problem in
    A's eigenbasis; these tie that route to the physical one."""

    @pytest.mark.parametrize("n", VIEW_NODES)
    def test_normal_operator_is_the_physical_one_in_modes(self, n):
        cfg = make_problem(n=n, steps=20, gamma=1e-2)
        view, prop = cfg.in_modes(), cfg.propagator
        v = random_control(cfg, np.random.default_rng(43))
        modal = apply_normal_operator(v, view)
        physical = prop.to_modes(apply_normal_operator(prop.from_modes(v), cfg))
        assert np.array_equal(modal[0], np.zeros(n))
        diff = lr.norm_q(modal - physical, cfg.grid, cfg.tgrid)
        assert diff <= 1e-13 * lr.norm_q(physical, cfg.grid, cfg.tgrid)

    @pytest.mark.parametrize("n", VIEW_NODES)
    def test_solve_matches_plain_conjugate_gradients(self, n):
        # the reference runs on the physical sweeps, with no basis change
        cfg = make_problem(n=n, steps=20, gamma=1e-2, control_weight=0.1)
        bundle = lr.solve_low_regret(cfg)
        reference, cg_iterations, _ = conjugate_gradient(cfg)
        assert bundle.converged
        assert bundle.cg_iterations <= 3 < cg_iterations
        diff = lr.norm_q(bundle.control - reference, cfg.grid, cfg.tgrid)
        assert diff <= 1e-10 * lr.norm_q(reference, cfg.grid, cfg.tgrid)

    @pytest.mark.parametrize("n", VIEW_NODES)
    def test_warm_started_sweep_converges_with_shrinking_steps(self, n):
        # each stage maps the last control into the modes as its warm start
        cfg = make_problem(n=n, steps=20)
        report = lr.gamma_sweep(cfg, gammas=(1e-1, 1e-2, 1e-3, 1e-4))
        assert all(report.converged)
        assert all(b < a for a, b in zip(report.distances, report.distances[1:]))

    @pytest.mark.parametrize("n", VIEW_NODES)
    def test_building_the_view_costs_no_factor_and_no_sweep(self, monkeypatch, n):
        cfg = workspace(make_problem(n=n, steps=20))
        calls = count_calls(
            monkeypatch, evolution,
            ("step_factor", "centrosymmetric_eigh", "solve_forward", "solve_backward"),
        )
        calls.update(count_calls(monkeypatch, operator, ("assemble_operator",)))
        view = cfg.in_modes()
        assert set(calls.values()) == {0}
        assert view.modes is cfg.modes
        assert view.propagator.ratio is cfg.propagator.ratio

    @pytest.mark.parametrize("n", VIEW_NODES)
    def test_no_basis_change_runs_on_the_view(self, monkeypatch, n):
        # on the view V = I, so its to_modes and from_modes are meaningless
        cfg = make_problem(n=n, steps=20)
        views = []
        for name in ("to_modes", "from_modes"):
            def spy(prop, *args, _real=getattr(lr.Propagator, name), **kwargs):
                views.append(prop.identity)
                return _real(prop, *args, **kwargs)
            monkeypatch.setattr(lr.Propagator, name, spy)
        lr.solve_low_regret(cfg)
        lr.gamma_sweep(cfg, gammas=(1e-1, 1e-2))
        assert views and not any(views)

    def test_workspace_builds_no_view(self, monkeypatch):
        calls = []
        real = RegretConfig.in_modes
        monkeypatch.setattr(RegretConfig, "in_modes", lambda cfg: calls.append(1) or real(cfg))
        workspace(make_problem())
        assert calls == []
