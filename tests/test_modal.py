"""Modal inverse of the normal operator and the preconditioned solve built on it."""

import json
import os

import numpy as np
import pytest

import lowregret as lr
from lowregret import evolution
from lowregret.cli import main
from lowregret.functional import workspace
from lowregret.optimizer import apply_normal_operator
from lowregret.oracles import conjugate_gradient

from conftest import make_problem, random_control

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


class TestModalInverse:
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n,steps", [(1, 1), (1, 2), (2, 1), (16, 10), (120, 60)])
    @pytest.mark.parametrize("gamma,budget", [(1.0, 1e-11), (1e-2, 1e-11), (1e-6, 1e-7)])
    def test_inverts_the_normal_operator_to_round_off(self, n, steps, s, gamma, budget):
        # exact up to round-off times cond(H), which grows like 1/gamma
        cfg = make_problem(n=n, steps=steps, s=s, gamma=gamma)
        b = random_control(cfg, np.random.default_rng(29))
        x = cfg.modes.solve(b, gamma)
        assert np.array_equal(x[0], np.zeros(n))
        residual = lr.norm_q(b - apply_normal_operator(x, cfg), cfg.grid, cfg.tgrid)
        assert residual <= budget * lr.norm_q(b, cfg.grid, cfg.tgrid)

    def test_slice_zero_of_the_input_is_ignored(self, small_cfg):
        b = random_control(small_cfg, np.random.default_rng(31))
        modes = small_cfg.modes
        shifted = b.copy()
        shifted[0] = 1.0
        assert np.array_equal(modes.solve(b, 0.1), modes.solve(shifted, 0.1))


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
