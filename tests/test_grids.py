import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lowregret import (
    ParameterError,
    build_grid,
    build_time_grid,
    inner_product_omega,
    inner_product_q,
    norm_omega,
    norm_q,
    zeros_space_time,
)
from lowregret.optimizer import check_gammas

from conftest import make_problem


def test_build_grid_small():
    grid = build_grid(-1.0, 1.0, 3)
    assert grid.h == pytest.approx(0.5)
    np.testing.assert_allclose(grid.nodes, [-0.5, 0.0, 0.5])


def test_build_grid_fine_spacing():
    assert build_grid(-1.0, 1.0, 199).h == pytest.approx(0.01)


def test_grid_endpoint_offsets():
    grid = build_grid(0.3, 2.7, 17)
    assert grid.nodes[0] == pytest.approx(grid.x_l + grid.h)
    assert grid.nodes[-1] == pytest.approx(grid.x_r - grid.h)
    assert np.all(np.diff(grid.nodes) > 0)


def test_build_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        build_grid(0.0, 0.0, 5)
    with pytest.raises(ValueError):
        build_grid(1.0, -1.0, 5)
    with pytest.raises(ValueError):
        build_grid(-1.0, 1.0, 0)
    # h*h underflows to zero, overflows, or h itself is not finite
    for x_l, x_r in ((0.0, 1e-200), (-1e200, 1e200), (-1e308, 1e308)):
        with pytest.raises(ParameterError) as err:
            build_grid(x_l, x_r, 12)
        assert err.value.field == "x_r"


def test_build_time_grid():
    tgrid = build_time_grid(1.0, 4)
    assert tgrid.dt == pytest.approx(0.25)
    assert tgrid.times[0] == 0.0
    assert tgrid.times[-1] == pytest.approx(1.0)
    assert build_time_grid(0.5, 50).dt == pytest.approx(0.01)


def test_build_time_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        build_time_grid(-1.0, 4)
    with pytest.raises(ValueError):
        build_time_grid(1.0, 0)


def test_numpy_integer_sizes_are_accepted():
    assert build_grid(-1.0, 1.0, np.int64(3)).n == 3
    assert build_time_grid(1.0, np.int32(4)).steps == 4


def _config(**changes):
    return dataclasses.replace(make_problem(n=4, steps=2), **changes)


# (call taking the bad value, parameter it is passed as, bad value, reason)
BAD_PARAMETERS = [
    (lambda v: build_grid(v, 1.0, 3), "x_l", -math.inf, "must be a finite float, got -inf"),
    (lambda v: build_grid(-1.0, v, 3), "x_r", math.nan, "must be a finite float, got nan"),
    (lambda v: build_grid(-1.0, 1.0, v), "n", 2.5, "expected an integer, got 2.5"),
    (lambda v: build_grid(-1.0, 1.0, v), "n", True, "expected an integer, got True"),
    (lambda v: build_time_grid(v, 4), "horizon", math.inf, "must be a finite float, got inf"),
    (lambda v: build_time_grid(v, 4), "horizon", 5e-324,
     "gives time step dt = 0.0; dt*dt must be positive"),
    (lambda v: build_time_grid(1.0, v), "steps", 2.5, "expected an integer, got 2.5"),
    (lambda v: _config(s=v), "s", math.nan, "must be a finite float, got nan"),
    (lambda v: _config(gamma=v), "gamma", math.inf, "must be a finite float, got inf"),
    (lambda v: _config(control_weight=v), "control_weight", math.inf,
     "must be a finite float, got inf"),
    (lambda v: _config(cg_tol=v), "cg_tol", math.inf, "must be a finite float, got inf"),
    (lambda v: _config(cg_max_iters=v), "cg_max_iters", 10.0, "expected an integer, got 10.0"),
    (lambda v: check_gammas((1.0, v)), "gammas[1]", math.inf, "must be a finite float, got inf"),
    (lambda v: check_gammas((1.0, v)), "gammas", 1.0, "must be strictly decreasing"),
]


@pytest.mark.parametrize(
    "call,field,bad,reason", BAD_PARAMETERS, ids=[f"{row[1]}={row[2]}" for row in BAD_PARAMETERS]
)
def test_bad_parameters_raise_an_error_naming_the_parameter(call, field, bad, reason):
    with pytest.raises(ParameterError) as err:
        call(bad)
    assert (err.value.field, err.value.reason) == (field, reason)
    assert str(err.value) == f"{field}: {reason}"


def test_inner_product_omega_ones():
    grid = build_grid(-1.0, 1.0, 3)
    ones = np.ones(3)
    assert inner_product_omega(ones, ones, grid) == pytest.approx(1.5)


def test_inner_product_omega_alternating_cancels():
    grid = build_grid(-1.0, 1.0, 4)
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    assert inner_product_omega(signs, np.ones(4), grid) == 0.0


def test_inner_product_q_measures_discrete_cylinder():
    # right-endpoint rule over M slices: h*dt*M*n = (n*h)*T
    grid = build_grid(-1.0, 1.0, 7)
    tgrid = build_time_grid(1.0, 9)
    ones = np.ones((10, 7))
    expected = grid.n * grid.h * tgrid.horizon
    assert inner_product_q(ones, ones, grid, tgrid) == pytest.approx(expected)


def test_inner_product_q_ignores_initial_slice():
    grid = build_grid(-1.0, 1.0, 5)
    tgrid = build_time_grid(1.0, 6)
    a = zeros_space_time(grid, tgrid)
    a[0] = 123.0
    assert inner_product_q(a, a, grid, tgrid) == 0.0


def test_dimension_mismatch_rejected():
    grid = build_grid(-1.0, 1.0, 5)
    tgrid = build_time_grid(1.0, 6)
    with pytest.raises(ValueError):
        inner_product_omega(np.ones(4), np.ones(4), grid)
    with pytest.raises(ValueError):
        inner_product_q(np.ones((6, 5)), np.ones((6, 5)), grid, tgrid)


@given(st.integers(1, 12), st.data())
def test_omega_product_symmetric_bilinear_definite(n, data):
    grid = build_grid(-1.0, 1.0, n)
    draw = st.lists(
        st.floats(-5, 5, allow_nan=False, width=32), min_size=n, max_size=n
    )
    a = np.array(data.draw(draw))
    b = np.array(data.draw(draw))
    c = np.array(data.draw(draw))
    lam = data.draw(st.floats(-3, 3, allow_nan=False, width=32))
    assert inner_product_omega(a, b, grid) == pytest.approx(
        inner_product_omega(b, a, grid)
    )
    assert inner_product_omega(lam * a + c, b, grid) == pytest.approx(
        lam * inner_product_omega(a, b, grid) + inner_product_omega(c, b, grid),
        abs=1e-9,
    )
    assert inner_product_omega(a, a, grid) >= 0.0
    if np.any(a != 0):
        assert inner_product_omega(a, a, grid) > 0.0


@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_q_product_positive_definite_off_initial_slice(n, steps, data):
    """The Q-product is an inner product on fields supported on slices 1..M."""
    grid = build_grid(-1.0, 1.0, n)
    tgrid = build_time_grid(1.0, steps)
    flat = st.lists(
        st.floats(-5, 5, allow_nan=False, width=32),
        min_size=steps * n,
        max_size=steps * n,
    )
    a = zeros_space_time(grid, tgrid)
    a[1:] = np.array(data.draw(flat)).reshape(steps, n)
    assert inner_product_q(a, a, grid, tgrid) >= 0.0
    if np.any(a[1:] != 0):
        assert inner_product_q(a, a, grid, tgrid) > 0.0
        assert norm_q(a, grid, tgrid) > 0.0


@pytest.mark.parametrize("n", [1, 2, 40, 41])
def test_stacked_products_equal_single_products_bitwise(n):
    grid = build_grid(-1.0, 1.0, n)
    tgrid = build_time_grid(1.0, 6)
    rng = np.random.default_rng(n)
    a, b = rng.normal(size=(2, 7, tgrid.steps + 1, n))
    x, y = rng.normal(size=(2, 7, n))
    q, omega = inner_product_q(a, b, grid, tgrid), inner_product_omega(x, y, grid)
    norms_q, norms_omega = norm_q(a, grid, tgrid), norm_omega(x, grid)
    assert q.shape == omega.shape == norms_q.shape == norms_omega.shape == (7,)
    for p in range(7):
        single = inner_product_q(a[p], b[p], grid, tgrid)
        assert type(single) is float and q[p] == single
        assert omega[p] == inner_product_omega(x[p], y[p], grid)
        assert norms_q[p] == norm_q(a[p], grid, tgrid)
        assert norms_omega[p] == norm_omega(x[p], grid)
        # an unstacked operand is shared by every entry
        assert inner_product_q(a, b[0], grid, tgrid)[p] == inner_product_q(a[p], b[0], grid, tgrid)
        assert inner_product_omega(x[0], y, grid)[p] == inner_product_omega(x[0], y[p], grid)


def test_stacks_of_different_lengths_are_rejected_with_the_shapes():
    grid = build_grid(-1.0, 1.0, 5)
    tgrid = build_time_grid(1.0, 6)
    with pytest.raises(ValueError, match=r"a of shape \(3, 5\), b of shape \(2, 5\)"):
        inner_product_omega(np.ones((3, 5)), np.ones((2, 5)), grid)
    with pytest.raises(ValueError, match=r"a of shape \(3, 7, 5\), b of shape \(2, 7, 5\)"):
        inner_product_q(np.ones((3, 7, 5)), np.ones((2, 7, 5)), grid, tgrid)
    with pytest.raises(ValueError, match="space-time field shape"):
        inner_product_q(np.ones((2, 3, 7, 5)), np.ones((7, 5)), grid, tgrid)
