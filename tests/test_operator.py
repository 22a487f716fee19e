"""Fractional operator assembly: constants, structure, traces, energy identity."""

import math

import numpy as np
import pytest
from scipy import integrate

from lowregret import (
    assemble_operator,
    build_grid,
    inner_product_omega,
    integration_by_parts_residual,
    nonlocal_normal_derivative,
    normalization_constant,
)
from lowregret.oracles import benchmark_constant, benchmark_profile, load_oracle_table

from conftest import traced_peak

FIXTURE_DIR = "tests/fixtures"


def assembled_with_temporaries(grid, s):
    """The assembly written with a temporary per step (distances, kernel,
    its negation): the oracle of the in-place assembly, whose ufuncs act on
    the same values in the same order."""
    n, h, x = grid.n, grid.h, grid.nodes
    diff = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(diff, 1.0)
    kernel = h / diff ** (1.0 + 2.0 * s)
    np.fill_diagonal(kernel, 0.0)
    a = -kernel
    np.fill_diagonal(a, kernel.sum(axis=1))
    tail = ((x - grid.x_l) ** (-2.0 * s) + (grid.x_r - x) ** (-2.0 * s)) / (2.0 * s)
    a[np.arange(n), np.arange(n)] += tail
    coef = h ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s) / h**2
    idx = np.arange(n)
    a[idx, idx] += 2.0 * coef
    a[idx[:-1], idx[:-1] + 1] -= coef
    a[idx[1:], idx[1:] - 1] -= coef
    a *= normalization_constant(s)
    return a


class TestNormalizationConstant:
    def test_half_is_one_over_pi(self):
        assert normalization_constant(0.5) == pytest.approx(1.0 / math.pi, rel=1e-15)

    def test_quarter_in_closed_form(self):
        # Gamma((2s+1)/2) and Gamma(1-s) coincide at s=1/4 and cancel
        expected = 0.25 * math.sqrt(2.0) / math.sqrt(math.pi)
        assert normalization_constant(0.25) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("s", [0.0, 1.0, -0.3, 1.2])
    def test_rejects_orders_outside_open_interval(self, s):
        with pytest.raises(ValueError):
            normalization_constant(s)

    def test_positive_and_smooth_over_admissible_range(self):
        grid = np.linspace(0.05, 0.95, 19)
        vals = np.array([normalization_constant(s) for s in grid])
        assert np.all(vals > 0.0)
        # no jumps: successive relative increments stay modest on this grid
        assert np.all(np.abs(np.diff(vals)) < 0.5 * vals[:-1] + 0.1)


class TestAssembly:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_matrix_is_symmetric(self, s):
        op = assemble_operator(build_grid(-1.0, 1.0, 60), s)
        a = op.matrix
        assert np.max(np.abs(a - a.T)) <= 1e-13 * np.max(np.abs(a))

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_matrix_is_positive_definite(self, s):
        op = assemble_operator(build_grid(-1.0, 1.0, 40), s)
        assert np.linalg.eigvalsh(op.matrix)[0] > 0.0

    def test_off_diagonal_entries_negative_and_decaying(self):
        op = assemble_operator(build_grid(-1.0, 1.0, 31), 0.5)
        a = op.matrix
        n = a.shape[0]
        for i in range(n):
            row = a[i]
            off = np.concatenate([row[:i], row[i + 1 :]])
            assert np.all(off < 0.0)
            # interaction weakens monotonically with node separation
            assert np.all(np.diff(row[i + 1 :]) > 0.0)
            assert np.all(np.diff(row[:i]) < 0.0)

    def test_apply_is_linear(self):
        grid = build_grid(-1.0, 1.0, 25)
        op = assemble_operator(grid, 0.6)
        rng = np.random.default_rng(7)
        w, v = rng.normal(size=grid.n), rng.normal(size=grid.n)
        out = op.apply(2.0 * w - 3.0 * v)
        ref = 2.0 * op.apply(w) - 3.0 * op.apply(v)
        assert np.max(np.abs(out - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
        assert np.array_equal(op.apply(np.zeros(grid.n)), np.zeros(grid.n))

    def test_apply_rejects_wrong_length(self):
        op = assemble_operator(build_grid(-1.0, 1.0, 10), 0.5)
        with pytest.raises(ValueError):
            op.apply(np.zeros(11))

    def test_assembly_is_deterministic(self):
        grid = build_grid(-1.0, 1.0, 17)
        a = assemble_operator(grid, 0.35).matrix
        b = assemble_operator(grid, 0.35).matrix
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 2, 3, 40, 41, 149, 150, 151, 400, 401])
    @pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.9, 0.99])
    def test_matches_the_assembly_with_temporaries_bit_for_bit(self, n, s):
        grid = build_grid(-1.0, 1.0, n)
        assert np.array_equal(assemble_operator(grid, s).matrix, assembled_with_temporaries(grid, s))

    def test_peak_memory_is_one_matrix(self):
        # distances, kernel and A share one n x n array
        grid = build_grid(-1.0, 1.0, 200)
        assemble_operator(grid, 0.5)  # first-call allocations stay out of the peak
        peak = traced_peak(lambda: assemble_operator(grid, 0.5))
        assert peak <= 2 * grid.n * grid.n * 8


class TestBenchmarkIdentity:
    """Apply to the profile whose fractional Laplacian is constant inside the domain."""

    # max relative error over |x| <= 0.8 measured at n=199; bounds add ~2x headroom
    WINDOW_TOL = {0.25: 1.3e-2, 0.5: 3.0e-2, 0.75: 3.5e-2}

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_interior_window_matches_constant(self, s):
        grid = build_grid(-1.0, 1.0, 199)
        op = assemble_operator(grid, s)
        out = op.apply(benchmark_profile(grid.nodes, s))
        window = np.abs(grid.nodes) <= 0.8
        c = benchmark_constant(s)
        err = np.max(np.abs(out[window] - c)) / c
        assert err <= self.WINDOW_TOL[s]

    def test_constant_value_at_half(self):
        # 4^s Gamma(1+s) Gamma(s+1/2) / sqrt(pi) collapses to 1 at s = 1/2
        assert benchmark_constant(0.5) == pytest.approx(1.0, rel=1e-15)


class TestFixtureAgreement:
    """Discretization vs frozen adaptive-quadrature values at interior points."""

    BENCH_TOL = {0.25: 1.2e-2, 0.5: 3.0e-2, 0.75: 3.5e-2}
    BUMP_TOL = {0.25: 4.0e-3, 0.5: 2.5e-2, 0.75: 8.0e-2}

    @staticmethod
    def _max_error(op, values_by_point, profile):
        grid = op.grid
        out = op.apply(profile(grid.nodes))
        worst = 0.0
        for x, val in values_by_point:
            i = int(round((x - grid.x_l) / grid.h)) - 1
            assert abs(grid.nodes[i] - x) < 1e-12  # fixture points are grid nodes
            worst = max(worst, abs(out[i] - val) / max(1.0, abs(val)))
        return worst

    def test_benchmark_profile_fixture(self):
        params, cols = load_oracle_table(f"{FIXTURE_DIR}/quadrature_benchmark.csv")
        grid = build_grid(-1.0, 1.0, 199)
        for s in (0.25, 0.5, 0.75):
            sel = cols["s"] == s
            op = assemble_operator(grid, s)
            pts = list(zip(cols["x"][sel], cols["value"][sel]))
            err = self._max_error(op, pts, lambda x, s=s: benchmark_profile(x, s))
            assert err <= self.BENCH_TOL[s], f"s={s}: {err:.3e}"

    def test_biquadratic_bump_fixture(self):
        params, cols = load_oracle_table(f"{FIXTURE_DIR}/quadrature_bump.csv")
        grid = build_grid(-1.0, 1.0, 199)
        bump = lambda x: np.clip(1.0 - x * x, 0.0, None) ** 2
        for s in (0.25, 0.5, 0.75):
            sel = cols["s"] == s
            op = assemble_operator(grid, s)
            pts = list(zip(cols["x"][sel], cols["value"][sel]))
            err = self._max_error(op, pts, bump)
            assert err <= self.BUMP_TOL[s], f"s={s}: {err:.3e}"


class TestNonlocalNormalDerivative:
    def test_zero_field_gives_zero(self):
        op = assemble_operator(build_grid(-1.0, 1.0, 20), 0.5)
        assert nonlocal_normal_derivative(op, np.zeros(20), 3.0) == 0.0

    @pytest.mark.parametrize("p", [0.0, 1.0, -1.0, 0.999])
    def test_rejects_points_inside_closure(self, p):
        op = assemble_operator(build_grid(-1.0, 1.0, 20), 0.5)
        with pytest.raises(ValueError):
            nonlocal_normal_derivative(op, np.zeros(20), p)

    # measured midpoint-rule vs adaptive-quadrature gaps: 6.7e-4 (s=0.5), 2.0e-3 (s=0.25)
    @pytest.mark.parametrize("s,rel_tol", [(0.5, 2e-3), (0.25, 5e-3)])
    def test_matches_direct_quadrature(self, s, rel_tol):
        grid = build_grid(-1.0, 1.0, 199)
        op = assemble_operator(grid, s)
        w = benchmark_profile(grid.nodes, s)
        for p in (2.0, 4.0, -2.0):
            mine = nonlocal_normal_derivative(op, w, p)
            ref, _ = integrate.quad(
                lambda y: benchmark_profile(y, s) / abs(p - y) ** (1.0 + 2.0 * s),
                -1.0,
                1.0,
                epsabs=1e-13,
                epsrel=1e-13,
                limit=200,
            )
            ref = -op.c_ns * ref
            assert ref < 0.0 and mine < 0.0
            assert abs(mine - ref) <= rel_tol * abs(ref)

    @pytest.mark.parametrize("s", [0.25, 0.5])
    def test_far_field_decay_rate(self, s):
        # |N w(p)| ~ |p|^(-1-2s), so doubling p multiplies by ~2^(-1-2s)
        grid = build_grid(-1.0, 1.0, 199)
        op = assemble_operator(grid, s)
        w = benchmark_profile(grid.nodes, s)
        vals = [abs(nonlocal_normal_derivative(op, w, p)) for p in (4.0, 8.0, 16.0)]
        target = 2.0 ** (-(1.0 + 2.0 * s))
        for ratio in (vals[1] / vals[0], vals[2] / vals[1]):
            assert abs(ratio - target) <= 0.1 * target


class TestIntegrationByParts:
    def test_zero_fields_give_zero(self):
        op = assemble_operator(build_grid(-1.0, 1.0, 15), 0.5)
        z = np.zeros(15)
        assert integration_by_parts_residual(op, z, z) == 0.0

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_energy_matches_operator_pairing(self, s):
        grid = build_grid(-1.0, 1.0, 120)
        op = assemble_operator(grid, s)
        x = grid.nodes
        rng = np.random.default_rng(11)
        for _ in range(4):
            cw, cv = rng.normal(size=4), rng.normal(size=4)
            w = sum(c * np.sin((k + 1) * np.pi * (x + 1.0) / 2.0) for k, c in enumerate(cw))
            v = sum(c * np.sin((k + 1) * np.pi * (x + 1.0) / 2.0) for k, c in enumerate(cv))
            scale = max(
                1.0,
                math.sqrt(inner_product_omega(w, w, grid))
                * math.sqrt(inner_product_omega(v, v, grid)),
            )
            res = integration_by_parts_residual(op, w, v)
            # the two routes are algebraically identical; allow only round-off
            assert res <= 1e-9 * scale
            assert res <= 1e-3 * scale  # stated accuracy contract, a fortiori

    def test_symmetry_under_argument_swap(self):
        grid = build_grid(-1.0, 1.0, 40)
        op = assemble_operator(grid, 0.5)
        rng = np.random.default_rng(3)
        w, v = rng.normal(size=40), rng.normal(size=40)
        a = integration_by_parts_residual(op, w, v)
        b = integration_by_parts_residual(op, v, w)
        assert abs(a - b) <= 1e-12
