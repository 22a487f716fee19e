"""Cost functionals, uncertainty adjoint, and the exact regret identities."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lowregret as lr
from lowregret.functional import workspace

from conftest import composed_identities, make_problem, random_control


def tiny_cfg(**kw):
    return make_problem(n=8, steps=5, **kw)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("s", 0.0),
            ("s", 1.0),
            ("control_weight", 0.0),
            ("control_weight", -1.0),
            ("gamma", 0.0),
            ("gamma", -0.5),
            ("cg_tol", 0.0),
            ("cg_max_iters", 0),
        ],
    )
    def test_rejects_bad_scalars(self, field, value):
        cfg = make_problem()
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, **{field: value})

    @pytest.mark.parametrize("name,bad", [("f", np.nan), ("z_d", np.inf)])
    def test_rejects_non_finite_fields(self, name, bad):
        cfg = make_problem()
        value = getattr(cfg, name).copy()
        value[2, 3] = bad
        with pytest.raises(ValueError, match=f"^{name}: must be finite"):
            dataclasses.replace(cfg, **{name: value})

    @pytest.mark.parametrize("name", ["f", "z_d"])
    def test_rejects_fields_whose_norm_overflows(self, name):
        # every value is finite, but the sum of squares of the Q-norm overflows
        cfg = make_problem()
        value = np.full_like(getattr(cfg, name), 1e160)
        with pytest.raises(lr.ParameterError, match=f"^{name}: its Q-norm overflows") as info:
            dataclasses.replace(cfg, **{name: value})
        assert info.value.field == name

    def test_rejects_a_time_step_whose_modal_scale_overflows(self):
        # dt = 2.5e-161 passes the time grid, but control_weight/dt^2 overflows
        with pytest.raises(lr.ParameterError, match="^horizon: gives time step dt = 2.5e-161") as info:
            make_problem(n=8, steps=4, horizon=1e-160)
        assert info.value.field == "horizon"
        make_problem(n=8, steps=4, horizon=1e300)  # dt*dt overflows to inf: the scale is 0

    @pytest.mark.parametrize("name", ["f", "z_d"])
    def test_a_huge_initial_slice_is_not_in_the_norm(self, name):
        # slice 0 is outside the Q-norm, so only its finiteness is checked
        cfg = make_problem()
        value = getattr(cfg, name).copy()
        value[0] = 1e300
        dataclasses.replace(cfg, **{name: value})

    def test_rejects_misshapen_fields(self):
        cfg = make_problem()
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, f=cfg.f[:, :-1])
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, z_d=cfg.z_d[:-1])


class TestDerivedState:
    DERIVED = ("propagator", "q_background", "relaxed_cost_00", "modes")

    def test_workspace_builds_the_set_up_on_the_problem(self, small_cfg):
        assert workspace(small_cfg) is small_cfg
        assert {"propagator", "q_background", "relaxed_cost_00"} <= vars(small_cfg).keys()

    def test_same_instance_reuses_its_derived_state(self, small_cfg):
        for name in self.DERIVED:
            assert getattr(small_cfg, name) is getattr(small_cfg, name), name

    def test_distinct_instances_get_distinct_derived_state(self):
        a, b = make_problem(), make_problem()
        assert a.propagator is not b.propagator
        assert a.q_background is not b.q_background

    def test_with_gamma_shares_the_derived_state_and_keeps_other_fields(self, small_cfg):
        other = small_cfg.with_gamma(0.003)
        assert other.gamma == 0.003
        for name in self.DERIVED:
            assert getattr(other, name) is getattr(small_cfg, name), name
        for f in dataclasses.fields(small_cfg):
            if f.name != "gamma":
                assert getattr(other, f.name) is getattr(small_cfg, f.name), f.name

    @pytest.mark.parametrize("gamma", [0.0, float("nan")])
    def test_with_gamma_checks_gamma(self, small_cfg, gamma):
        with pytest.raises(lr.ParameterError) as info:
            small_cfg.with_gamma(gamma)
        assert info.value.field == "gamma"

    def test_a_sweep_checks_the_data_no_more(self, monkeypatch):
        # each stage copies the built problem: f and z_d are not checked again
        cfg = make_problem(n=12, steps=6)
        calls = []
        post_init = lr.RegretConfig.__post_init__
        monkeypatch.setattr(
            lr.RegretConfig, "__post_init__", lambda self: calls.append(1) or post_init(self)
        )
        report = lr.gamma_sweep(cfg)
        assert len(report.gammas) == 5 and calls == []

    def test_derived_state_dies_with_its_last_config(self):
        cfg = make_problem()
        other = cfg.with_gamma(0.5)
        probe = weakref.ref(cfg.propagator)
        gc.disable()
        try:
            del cfg
            assert probe() is not None
            del other
            assert probe() is None  # freed by reference counting: no cycle
        finally:
            gc.enable()


class TestCost:
    def test_perfect_tracking_costs_nothing(self):
        cfg = make_problem()
        tracked = dataclasses.replace(cfg, z_d=cfg.q_background)
        v0 = lr.zeros_space_time(cfg.grid, cfg.tgrid)
        assert lr.cost(v0, np.zeros(cfg.grid.n), tracked) == 0.0

    def test_nonnegative(self, small_cfg):
        rng = np.random.default_rng(17)
        for _ in range(3):
            v = random_control(small_cfg, rng)
            g = rng.standard_normal(small_cfg.grid.n)
            assert lr.cost(v, g, small_cfg) >= 0.0

    def test_quadratic_scaling_without_data(self):
        cfg = make_problem(source_amp=0.0, target_amp=0.0)
        rng = np.random.default_rng(19)
        v = random_control(cfg, rng)
        g = rng.standard_normal(cfg.grid.n)
        j1 = lr.cost(v, g, cfg)
        j2 = lr.cost(2.0 * v, 2.0 * g, cfg)
        assert j2 == pytest.approx(4.0 * j1, rel=1e-12)


class TestRelaxedCost:
    def test_zero_datum_reduces_to_cost(self, small_cfg):
        rng = np.random.default_rng(23)
        v = random_control(small_cfg, rng)
        g = np.zeros(small_cfg.grid.n)
        assert lr.relaxed_cost(v, g, small_cfg) == lr.cost(v, g, small_cfg)

    def test_matches_cost_minus_credit(self, small_cfg):
        rng = np.random.default_rng(29)
        v = random_control(small_cfg, rng)
        g = rng.standard_normal(small_cfg.grid.n)
        expected = lr.cost(v, g, small_cfg) - small_cfg.gamma * lr.inner_product_omega(
            g, g, small_cfg.grid
        )
        assert lr.relaxed_cost(v, g, small_cfg) == pytest.approx(expected, rel=1e-14)

    def test_rest_value_is_background_misfit(self, small_cfg):
        v0 = lr.zeros_space_time(small_cfg.grid, small_cfg.tgrid)
        rest = lr.relaxed_cost(v0, np.zeros(small_cfg.grid.n), small_cfg)
        assert rest == pytest.approx(small_cfg.relaxed_cost_00, rel=1e-14)


class TestUncertaintyAdjoint:
    def test_zero_control_zero_adjoint(self, small_cfg):
        xi = lr.solve_uncertainty_adjoint(
            lr.zeros_space_time(small_cfg.grid, small_cfg.tgrid), small_cfg
        )
        assert np.array_equal(xi, np.zeros_like(xi))
        assert np.array_equal(xi[0], np.zeros(small_cfg.grid.n))

    def test_slice_zero_is_the_time_zero_trace(self, small_cfg):
        rng = np.random.default_rng(31)
        xi = lr.solve_uncertainty_adjoint(random_control(small_cfg, rng), small_cfg)
        assert xi.shape == (small_cfg.tgrid.steps + 1, small_cfg.grid.n)
        assert np.array_equal(xi[0], xi[1])

    def test_linearity_in_the_control(self, small_cfg):
        rng = np.random.default_rng(37)
        v = random_control(small_cfg, rng)
        a = lr.solve_uncertainty_adjoint(v, small_cfg)
        b = lr.solve_uncertainty_adjoint(2.5 * v, small_cfg)
        assert np.max(np.abs(b - 2.5 * a)) <= 1e-12 * max(1.0, np.max(np.abs(a)))

    def test_matches_dense_composition_oracle(self):
        # chain the one-step solves as explicit dense matrices on a tiny problem
        cfg = tiny_cfg()
        n, m_steps, dt = cfg.grid.n, cfg.tgrid.steps, cfg.tgrid.dt
        k = np.linalg.inv(np.eye(n) + dt * cfg.propagator.operator.matrix)

        rng = np.random.default_rng(41)
        v = random_control(cfg, rng)

        q = np.zeros((m_steps + 1, n))
        for m in range(m_steps):
            q[m + 1] = k @ (q[m] + dt * v[m + 1])
        xi = np.zeros((m_steps + 1, n))
        carry = np.zeros(n)
        for m in range(m_steps, 0, -1):
            carry = k @ (carry + dt * q[m])
            xi[m] = carry
        xi[0] = carry

        adj = lr.solve_uncertainty_adjoint(v, cfg)
        assert np.max(np.abs(adj - xi)) <= 1e-10 * max(1.0, np.max(np.abs(xi)))


class TestReducedCost:
    def test_zero_control_is_the_reference_point(self, small_cfg):
        v0 = lr.zeros_space_time(small_cfg.grid, small_cfg.tgrid)
        assert lr.reduced_cost(v0, small_cfg) == 0.0

    def test_bounded_below_by_negative_rest_value(self, small_cfg):
        rest = small_cfg.relaxed_cost_00
        rng = np.random.default_rng(43)
        for _ in range(5):
            v = random_control(small_cfg, rng)
            val = lr.reduced_cost(v, small_cfg)
            assert val >= -rest - 1e-10 * max(1.0, rest)

    def test_large_gamma_limit_drops_uncertainty_term(self):
        cfg = make_problem(gamma=1e8)
        rng = np.random.default_rng(47)
        v = random_control(cfg, rng)
        plain = lr.cost(v, np.zeros(cfg.grid.n), cfg) - cfg.relaxed_cost_00
        val = lr.reduced_cost(v, cfg)
        assert val == pytest.approx(plain, rel=1e-8, abs=1e-8)

    def test_uncertainty_term_matches_trace_norm(self, small_cfg):
        rng = np.random.default_rng(53)
        v = random_control(small_cfg, rng)
        xi0 = lr.solve_uncertainty_adjoint(v, small_cfg)[0]
        plain = lr.cost(v, np.zeros(small_cfg.grid.n), small_cfg) - small_cfg.relaxed_cost_00
        expected = plain + lr.inner_product_omega(xi0, xi0, small_cfg.grid) / small_cfg.gamma
        assert lr.reduced_cost(v, small_cfg) == pytest.approx(expected, rel=1e-12)

    def test_midpoint_convexity_with_control_weight_modulus(self, small_cfg):
        # J((u+w)/2) <= (J(u)+J(w))/2 - (weight/4) |u-w|_Q^2, quadratic so exact
        rng = np.random.default_rng(59)
        u, w = random_control(small_cfg, rng), random_control(small_cfg, rng)
        mid = lr.reduced_cost(0.5 * (u + w), small_cfg)
        avg = 0.5 * (lr.reduced_cost(u, small_cfg) + lr.reduced_cost(w, small_cfg))
        gap = small_cfg.control_weight / 4.0 * lr.norm_q(u - w, small_cfg.grid, small_cfg.tgrid) ** 2
        assert mid <= avg - gap + 1e-10 * max(1.0, abs(avg))


class TestExactIdentities:
    def test_decomposition_zero_control_is_exact(self, small_cfg):
        rng = np.random.default_rng(61)
        v0 = lr.zeros_space_time(small_cfg.grid, small_cfg.tgrid)
        g = rng.standard_normal(small_cfg.grid.n)
        assert lr.cost_decomposition_residual(v0, g, small_cfg) == 0.0

    def test_duality_zero_datum_is_exact(self, small_cfg):
        rng = np.random.default_rng(67)
        v = random_control(small_cfg, rng)
        assert lr.duality_residual(v, np.zeros(small_cfg.grid.n), small_cfg) == 0.0

    @given(seed=st.integers(0, 10**6))
    def test_decomposition_holds_at_round_off(self, seed):
        cfg = tiny_cfg()
        rng = np.random.default_rng(seed)
        v = random_control(cfg, rng)
        g = rng.standard_normal(cfg.grid.n)
        scale = max(1.0, abs(lr.relaxed_cost(v, g, cfg)))
        assert lr.cost_decomposition_residual(v, g, cfg) <= 1e-12 * scale

    @given(seed=st.integers(0, 10**6))
    def test_duality_holds_at_round_off(self, seed):
        cfg = tiny_cfg()
        rng = np.random.default_rng(seed)
        v = random_control(cfg, rng)
        g = rng.standard_normal(cfg.grid.n)
        scale = max(1.0, abs(lr.cost(v, g, cfg)))
        assert lr.duality_residual(v, g, cfg) <= 1e-12 * scale

    def test_identities_invariant_under_rescaled_probes(self, small_cfg):
        rng = np.random.default_rng(71)
        v = random_control(small_cfg, rng)
        g = rng.standard_normal(small_cfg.grid.n)
        scale = max(1.0, abs(lr.relaxed_cost(2.0 * v, 3.0 * g, small_cfg)))
        assert lr.cost_decomposition_residual(2.0 * v, 3.0 * g, small_cfg) <= 1e-12 * scale
        assert lr.duality_residual(2.0 * v, 3.0 * g, small_cfg) <= 1e-12 * scale


class TestSharedTrajectories:
    @pytest.mark.parametrize("seed,v_scale,g_scale", [(0, 1.0, 1.0), (1, 1.0, 1.0), (2, 0.0, 1.0), (3, 1.0, 0.0), (4, 30.0, 0.01)])
    def test_public_identities_equal_the_composed_oracle(self, small_cfg, seed, v_scale, g_scale):
        rng = np.random.default_rng(seed)
        v = v_scale * random_control(small_cfg, rng)
        g = g_scale * rng.standard_normal(small_cfg.grid.n)
        ref = composed_identities(v, g, small_cfg)
        assert lr.cost_decomposition_residual(v, g, small_cfg) == ref["cost_decomposition"]
        assert lr.duality_residual(v, g, small_cfg) == ref["duality"]
        assert lr.fenchel_gap(v, g, small_cfg) == ref["fenchel_gap"]
        g_star = ref["xi0"] / small_cfg.gamma
        assert lr.fenchel_gap(v, g_star, small_cfg) == ref["fenchel_gap_at_maximizer"]
        assert lr.relaxed_cost(v, g, small_cfg) == ref["relaxed_cost"]
        superposition = lr.superposition_residual(small_cfg.propagator, small_cfg.f, v, g)
        assert superposition == ref["superposition"]
        assert lr.Probe(v, g, small_cfg).superposition_residual == ref["superposition"]


class TestFenchelGap:
    def test_zero_control_gap_is_probe_penalty(self, small_cfg):
        rng = np.random.default_rng(73)
        g = rng.standard_normal(small_cfg.grid.n)
        v0 = lr.zeros_space_time(small_cfg.grid, small_cfg.tgrid)
        expected = small_cfg.gamma * lr.inner_product_omega(g, g, small_cfg.grid)
        assert lr.fenchel_gap(v0, g, small_cfg) == expected

    def test_vanishes_at_the_maximizer(self, small_cfg):
        rng = np.random.default_rng(79)
        v = random_control(small_cfg, rng)
        xi0 = lr.solve_uncertainty_adjoint(v, small_cfg)[0]
        g_star = xi0 / small_cfg.gamma
        scale = max(1.0, lr.inner_product_omega(xi0, xi0, small_cfg.grid) / small_cfg.gamma)
        assert abs(lr.fenchel_gap(v, g_star, small_cfg)) <= 1e-12 * scale

    @given(seed=st.integers(0, 10**6))
    def test_nonnegative_for_every_probe(self, seed):
        cfg = tiny_cfg()
        rng = np.random.default_rng(seed)
        v = random_control(cfg, rng)
        g = rng.standard_normal(cfg.grid.n)
        xi0 = lr.solve_uncertainty_adjoint(v, cfg)[0]
        scale = max(1.0, lr.inner_product_omega(xi0, xi0, cfg.grid) / cfg.gamma)
        assert lr.fenchel_gap(v, g, cfg) >= -1e-12 * scale


class TestStackedProbe:
    @staticmethod
    def columns(probe, gamma):
        return {
            "decomposition_residual": probe.decomposition_residual,
            "duality_residual": probe.duality_residual,
            "fenchel_gap": probe.fenchel_gap(),
            "fenchel_gap_at_maximizer": probe.fenchel_gap(probe.xi0 / gamma),
            "superposition_residual": probe.superposition_residual,
            "relaxed_cost": probe.relaxed_cost,
            "sup_value": probe.sup_value,
        }

    @pytest.mark.parametrize("stack", [1, 2, 7])
    def test_each_entry_equals_the_single_probe(self, small_cfg, stack):
        rng = np.random.default_rng(stack)
        v = np.stack([random_control(small_cfg, rng) for _ in range(stack)])
        g = rng.standard_normal((stack, small_cfg.grid.n))
        stacked = self.columns(lr.Probe(v, g, small_cfg), small_cfg.gamma)
        assert all(column.shape == (stack,) for column in stacked.values())
        for p in range(stack):
            single = self.columns(lr.Probe(v[p], g[p], small_cfg), small_cfg.gamma)
            assert all(type(value) is float for value in single.values())
            assert {name: column[p] for name, column in stacked.items()} == single

    def test_stacked_uncertainty_adjoint_equals_single_solves(self, small_cfg):
        rng = np.random.default_rng(5)
        v = np.stack([random_control(small_cfg, rng) for _ in range(3)])
        adjoint = lr.solve_uncertainty_adjoint(v, small_cfg)
        for p in range(3):
            single = lr.solve_uncertainty_adjoint(v[p], small_cfg)
            assert np.array_equal(adjoint[p], single)

    def test_stacks_of_different_lengths_are_rejected_with_the_shapes(self, small_cfg):
        grid, tgrid = small_cfg.grid, small_cfg.tgrid
        v = np.zeros((3, tgrid.steps + 1, grid.n))
        with pytest.raises(ValueError, match=r"v of shape \(3, 11, 16\), g of shape \(2, 16\)"):
            lr.Probe(v, np.zeros((2, grid.n)), small_cfg)
        probe = lr.Probe(v, np.zeros((3, grid.n)), small_cfg)
        with pytest.raises(ValueError, match=r"a of shape \(4, 16\), b of shape \(3, 16\)"):
            probe.fenchel_gap(np.zeros((4, grid.n)))

    def test_a_nan_in_one_probe_is_rejected(self, small_cfg):
        rng = np.random.default_rng(6)
        v = np.stack([random_control(small_cfg, rng) for _ in range(3)])
        g = rng.standard_normal((3, small_cfg.grid.n))
        v[1, 4, 2] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            lr.Probe(v, g, small_cfg).decomposition_residual
        v[1, 4, 2] = 0.0
        g[2, 0] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            lr.Probe(v, g, small_cfg).duality_residual
