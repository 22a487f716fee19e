"""The reference routes themselves: quadrature oracle, constants, FD, dense solve."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lowregret as lr
from lowregret.oracles import (
    QuadratureError,
    QuadratureSpec,
    benchmark_constant,
    benchmark_profile,
    dense_reduced_hessian,
    fd_gradient,
    load_oracle_table,
    quadrature_apply,
    reference_normalization_constant,
    save_oracle_table,
)

from conftest import make_problem, random_control

FIXTURE_DIR = "tests/fixtures"


class TestQuadratureSpec:
    def test_defaults_are_valid(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-8 and spec.max_subdivisions == 300

    @pytest.mark.parametrize(
        "kw",
        [
            {"abs_tol": 0.0},
            {"rel_tol": -1e-9},
            {"max_subdivisions": 0},
            {"singularity_split_radius": 0.0},
        ],
    )
    def test_rejects_nonpositive_controls(self, kw):
        with pytest.raises(ValueError):
            QuadratureSpec(**kw)


class TestQuadratureApply:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("x", [0.0, 0.3, -0.6])
    def test_reproduces_constant_laplacian_identity(self, s, x):
        res = quadrature_apply(
            lambda y: benchmark_profile(y, s), x, s, support=(-1.0, 1.0)
        )
        assert res.error <= 1e-8
        assert abs(res.value - benchmark_constant(s)) <= 5e-8

    def test_zero_profile_gives_zero(self):
        res = quadrature_apply(lambda y: 0.0, 0.2, 0.5, support=(-1.0, 1.0))
        assert res.value == 0.0

    def test_whole_line_constant_gives_zero(self):
        # no support: the profile extends over all of R, so a constant is
        # in the operator's kernel and the symmetrized integrand vanishes
        res = quadrature_apply(lambda y: 3.7, 0.0, 0.5)
        assert abs(res.value) <= 1e-12

    def test_rejects_point_outside_support(self):
        with pytest.raises(ValueError):
            quadrature_apply(lambda y: 0.0, 1.5, 0.5, support=(-1.0, 1.0))

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_rejects_invalid_order(self, s):
        with pytest.raises(ValueError):
            quadrature_apply(lambda y: 0.0, 0.0, s, support=(-1.0, 1.0))

    def test_unreachable_budget_raises(self):
        tight = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300)
        with pytest.raises(QuadratureError):
            quadrature_apply(
                lambda y: benchmark_profile(y, 0.75), 0.0, 0.75,
                support=(-1.0, 1.0), spec=tight,
            )


class TestNormalizationRoutes:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_fourier_route_matches_gamma_formula(self, s):
        ref = reference_normalization_constant(s)
        direct = lr.normalization_constant(s)
        assert abs(ref - direct) <= 1e-12 * direct

    def test_half_order_value(self):
        assert reference_normalization_constant(0.5) == pytest.approx(
            1.0 / math.pi, rel=1e-13
        )


class TestBenchmarkConstant:
    def test_closed_forms(self):
        # 4^s Gamma(1+s) Gamma(s+1/2) / sqrt(pi) simplifies at these orders
        assert benchmark_constant(0.5) == pytest.approx(1.0, rel=1e-15)
        assert benchmark_constant(0.25) == pytest.approx(
            math.sqrt(math.pi) / 2.0, rel=1e-14
        )
        assert benchmark_constant(0.75) == pytest.approx(
            0.75 * math.sqrt(math.pi), rel=1e-14
        )


class TestOracleTables:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        params = {"profile": "demo", "s": "0.5"}
        columns = {"x": np.array([0.0, 0.5]), "value": np.array([1.25, -2.5])}
        save_oracle_table(path, params, columns)
        got_params, got_columns = load_oracle_table(path)
        assert got_params == params
        assert np.array_equal(got_columns["x"], columns["x"])
        assert np.array_equal(got_columns["value"], columns["value"])

    def test_tampered_row_is_detected(self, tmp_path):
        path = tmp_path / "table.csv"
        save_oracle_table(path, {"k": "v"}, {"x": [1.0, 2.0]})
        text = path.read_text()
        path.write_text(text.replace("2.0", "2.5"))
        with pytest.raises(ValueError, match="digest"):
            load_oracle_table(path)

    def test_missing_digest_is_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("x\n1.0\n")
        with pytest.raises(ValueError, match="digest"):
            load_oracle_table(path)

    def test_ragged_columns_are_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_oracle_table(tmp_path / "t.csv", {}, {"a": [1.0], "b": [1.0, 2.0]})


class TestFrozenFixtures:
    def test_benchmark_fixture_is_intact(self):
        params, cols = load_oracle_table(f"{FIXTURE_DIR}/quadrature_benchmark.csv")
        assert np.all(cols["error"] <= 1e-8)
        half = cols["s"] == 0.5
        assert half.any()
        assert np.max(np.abs(cols["value"][half] - 1.0)) <= 1e-8

    def test_bump_fixture_is_intact(self):
        params, cols = load_oracle_table(f"{FIXTURE_DIR}/quadrature_bump.csv")
        assert np.all(cols["error"] <= 1e-8)
        assert len(cols["x"]) == 21

    def test_live_recompute_matches_stored_rows(self):
        params, cols = load_oracle_table(f"{FIXTURE_DIR}/quadrature_bump.csv")
        sel = (cols["s"] == 0.25) & (cols["x"] == 0.5)
        (stored,) = cols["value"][sel]
        live = quadrature_apply(
            lambda y: np.clip(1.0 - y * y, 0.0, None) ** 2, 0.5, 0.25,
            support=(-1.0, 1.0),
        )
        assert abs(live.value - stored) <= 2e-8

        params, cols = load_oracle_table(f"{FIXTURE_DIR}/quadrature_benchmark.csv")
        sel = (cols["s"] == 0.75) & (cols["x"] == -0.2)
        (stored,) = cols["value"][sel]
        live = quadrature_apply(
            lambda y: benchmark_profile(y, 0.75), -0.2, 0.75, support=(-1.0, 1.0)
        )
        assert abs(live.value - stored) <= 2e-8


class TestFdGradient:
    def test_zero_at_aligned_rest_point(self):
        cfg = make_problem(n=6, steps=4)
        aligned = dataclasses.replace(cfg, z_d=cfg.q_background)
        grad = fd_gradient(lr.zeros_space_time(cfg.grid, cfg.tgrid), aligned)
        assert np.max(np.abs(grad)) <= 1e-8

    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5])
    def test_agrees_with_adjoint_gradient(self, eps):
        # the reduced objective is exactly quadratic, so the central difference
        # has no truncation term at any eps: the discrepancy is pure round-off
        # (and so shrinks as eps grows, unlike the generic O(eps^2) picture)
        cfg = make_problem(n=8, steps=5)
        rng = np.random.default_rng(61)
        v = random_control(cfg, rng)
        ref = lr.reduced_gradient(v, cfg)
        fd = fd_gradient(v, cfg, eps=eps)
        assert np.max(np.abs(fd - ref)) <= 1e-6 * max(1.0, np.max(np.abs(ref)))


class TestDenseHessian:
    def test_matrix_is_symmetric_positive_definite(self):
        cfg = make_problem(n=8, steps=5)
        hess, _ = dense_reduced_hessian(cfg)
        assert np.max(np.abs(hess - hess.T)) <= 1e-10 * np.max(np.abs(hess))
        floor = np.linalg.eigvalsh(hess)[0]
        assert floor >= cfg.control_weight - 1e-10

    def test_columns_match_operator_application(self):
        cfg = make_problem(n=6, steps=4)
        hess, _ = dense_reduced_hessian(cfg)
        rng = np.random.default_rng(67)
        v = random_control(cfg, rng)
        direct = (hess @ v[1:].reshape(-1)).reshape(cfg.tgrid.steps, cfg.grid.n)
        via_solves = lr.optimizer.apply_normal_operator(v, cfg)[1:]
        assert np.max(np.abs(direct - via_solves)) <= 1e-11 * max(
            1.0, np.max(np.abs(via_solves))
        )

    def test_direct_solve_matches_conjugate_gradients(self):
        cfg = make_problem(n=8, steps=5)
        hess, rhs = dense_reduced_hessian(cfg)
        dense = np.linalg.solve(hess, rhs).reshape(cfg.tgrid.steps, cfg.grid.n)
        bundle = lr.solve_low_regret(cfg)
        scale = max(1.0, np.max(np.abs(dense)))
        assert np.max(np.abs(bundle.control[1:] - dense)) <= 1e-8 * scale

    def test_dimension_cap_is_enforced(self):
        cfg = make_problem(n=8, steps=5)
        with pytest.raises(ValueError, match="cap"):
            dense_reduced_hessian(cfg, cap=10)


class TestImportBoundary:
    """The runtime never loads the oracles or scipy; the oracles import the
    runtime, not the reverse."""

    @staticmethod
    def fresh_python(code):
        src = os.path.dirname(os.path.dirname(os.path.abspath(lr.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )

    @pytest.mark.parametrize("module", ["lowregret", "lowregret.cli"])
    def test_the_runtime_loads_neither_the_oracles_nor_scipy(self, module):
        out = self.fresh_python(
            f"import sys, {module}\n"
            "print(','.join(name for name in sys.modules\n"
            "               if name == 'lowregret.oracles' or name.partition('.')[0] == 'scipy'))"
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == ""

    def test_the_oracles_import_on_their_own(self):
        out = self.fresh_python("from lowregret.oracles import fd_gradient, quadrature_apply")
        assert out.returncode == 0, out.stderr
