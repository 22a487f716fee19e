import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import lowregret as lr

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def make_problem(
    n=16,
    steps=10,
    s=0.5,
    control_weight=0.5,
    gamma=0.1,
    horizon=1.0,
    x_l=-1.0,
    x_r=1.0,
    source_amp=0.6,
    target_amp=0.4,
):
    """Small well-conditioned configuration used across the unit tests."""
    grid = lr.build_grid(x_l, x_r, n)
    tgrid = lr.build_time_grid(horizon, steps)
    hump = source_amp * np.exp(-(((grid.nodes - 0.2) / 0.3) ** 2))
    wave = target_amp * np.sin(np.pi * (grid.nodes - x_l) / (x_r - x_l))
    return lr.RegretConfig(
        s=s,
        control_weight=control_weight,
        gamma=gamma,
        f=np.tile(hump, (steps + 1, 1)),
        z_d=np.tile(wave, (steps + 1, 1)),
        grid=grid,
        tgrid=tgrid,
    )


def random_control(cfg, rng):
    v = lr.zeros_space_time(cfg.grid, cfg.tgrid)
    v[1:] = rng.standard_normal((cfg.tgrid.steps, cfg.grid.n))
    return v


def traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` holds at once, by tracemalloc, beyond what
    was allocated before the call."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def small_cfg():
    return make_problem()


def patch_everywhere(monkeypatch, home, name, wrap):
    """Replace ``home.name`` by ``wrap(original)`` in every loaded lowregret
    module that binds it, since the package binds names with ``from .x
    import f``."""
    original = getattr(home, name)
    wrapped = wrap(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("lowregret") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapped)


def unthreaded(monkeypatch):
    """Run every ``second_thread`` block as ``wanted=False``, each call at
    its submit, through every binding."""
    patch_everywhere(monkeypatch, lr.evolution, "second_thread", lambda original: lambda wanted: original(False))


def count_calls(monkeypatch, home, names):
    """Calls by name of the named functions of module ``home``, through every binding."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrap(original, _name=name):
            def counted(*args, **kwargs):
                calls[_name] += 1
                return original(*args, **kwargs)
            return counted
        patch_everywhere(monkeypatch, home, name, wrap)
    return calls


def threads_started(monkeypatch):
    """The names of the threads started from here on, in order."""
    names, start = [], threading.Thread.start

    def counted(thread):
        names.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return names


def composed_identities(v, g, cfg):
    """Reference oracle for the identity residuals and their audit scales.

    Each term is composed with its own forward or backward sweep,
    the way the identities were written before a probe's trajectories were
    shared.  The sums and products are the same, so results must equal the
    library's bit for bit (compare with ``==``).
    """
    grid, tgrid = cfg.grid, cfg.tgrid
    zero = np.zeros(grid.n)

    def forward(source, initial):
        return lr.solve_forward(cfg.propagator, source, initial)

    def backward(source, terminal):
        return lr.solve_backward(cfg.propagator, source, terminal)

    def inner_q(a, b):
        return lr.inner_product_q(a, b, grid, tgrid)

    def inner_omega(a, b):
        return lr.inner_product_omega(a, b, grid)

    def cost(v, g):
        diff = forward(cfg.f + v, g) - cfg.z_d
        return inner_q(diff, diff) + cfg.control_weight * inner_q(v, v)

    def relaxed_cost(v, g):
        return cost(v, g) - cfg.gamma * inner_omega(g, g)

    def xi0(v):
        return backward(forward(v, zero), zero)[0].copy()

    def fenchel_gap(v, g):
        x = xi0(v)
        sup_value = inner_omega(x, x) / cfg.gamma
        return sup_value - (2.0 * inner_omega(g, x) - cfg.gamma * inner_omega(g, g))

    lhs = relaxed_cost(v, g) - relaxed_cost(0 * v, g)
    q_v0 = forward(cfg.f + v, zero)
    q_0g = forward(cfg.f, g)
    cross = inner_q(q_0g - cfg.q_background, q_v0 - cfg.q_background)
    rhs = relaxed_cost(v, zero) - cfg.relaxed_cost_00 + 2.0 * cross
    decomposition = abs(lhs - rhs)

    q_v0 = forward(cfg.f + v, zero)
    q_0g = forward(cfg.f, g)
    pairing = inner_q(q_v0 - cfg.q_background, q_0g - cfg.q_background)
    duality = abs(inner_omega(g, xi0(v)) - pairing)

    zero_v = np.zeros_like(cfg.f)
    q_vg = forward(cfg.f + v, g)
    q_v0 = forward(cfg.f + v, zero)
    q_0g = forward(cfg.f + zero_v, g)
    q_00 = forward(cfg.f + zero_v, zero)
    superposition = lr.norm_q(q_vg - q_v0 - q_0g + q_00, grid, tgrid)

    x = xi0(v)
    return {
        "cost_decomposition": decomposition,
        "duality": duality,
        "fenchel_gap": fenchel_gap(v, g),
        "fenchel_gap_at_maximizer": fenchel_gap(v, x / cfg.gamma),
        "superposition": superposition,
        "relaxed_cost": relaxed_cost(v, g),
        "xi0": x,
        "q_vg_norm": lr.norm_q(forward(cfg.f + v, g), grid, tgrid),
    }
