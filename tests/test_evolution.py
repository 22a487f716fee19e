"""Forward/backward implicit Euler: recursions, transpose and duality identities."""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dsyevd

from lowregret import (
    Propagator,
    assemble_operator,
    backward_defect,
    build_grid,
    build_time_grid,
    evolution,
    forward_defect,
    inner_product_omega,
    inner_product_q,
    norm_q,
    solve_backward,
    solve_forward,
    step_factor,
    superposition_residual,
    zeros_space_time,
)


def setup(n=24, steps=12, s=0.5, horizon=1.0, interval=(-1.0, 1.0)):
    """The propagator of a fresh problem, with its grid and time grid."""
    grid = build_grid(*interval, n)
    tgrid = build_time_grid(horizon, steps)
    return step_factor(assemble_operator(grid, s), tgrid), grid, tgrid


def random_field(grid, tgrid, rng):
    return rng.normal(size=(tgrid.steps + 1, grid.n))


class TestForward:
    def test_zero_data_zero_trajectory(self):
        prop, grid, tgrid = setup()
        src = zeros_space_time(grid, tgrid)
        q = solve_forward(prop, src, np.zeros(grid.n))
        assert np.array_equal(q, np.zeros_like(src))

    def test_stationary_solution(self):
        # source A p at every step with initial p keeps the trajectory at p
        prop, grid, tgrid = setup(n=30, steps=20)
        p = np.cos(0.5 * np.pi * grid.nodes)
        src = np.tile(prop.operator.apply(p), (tgrid.steps + 1, 1))
        q = solve_forward(prop, src, p)
        assert np.max(np.abs(q - p)) <= 1e-12 * np.max(np.abs(p))

    @pytest.mark.parametrize("dt", [1e-3, 1e-2, 1e-1])
    def test_unforced_step_is_contractive(self, dt):
        steps = 8
        prop, grid, tgrid = setup(n=20, steps=steps, horizon=dt * steps)
        rng = np.random.default_rng(2)
        init = rng.normal(size=grid.n)
        q = solve_forward(prop, zeros_space_time(grid, tgrid), init)
        norms = np.linalg.norm(q, axis=1)
        assert np.all(norms[1:] <= norms[:-1] * (1.0 + 1e-12))
        assert norms[-1] < norms[0]

    def test_initial_slice_is_returned_verbatim(self):
        prop, grid, tgrid = setup()
        rng = np.random.default_rng(9)
        init = rng.normal(size=grid.n)
        q = solve_forward(prop, random_field(grid, tgrid, rng), init)
        assert np.array_equal(q[0], init)

    def test_rejects_misshapen_data(self):
        prop, grid, tgrid = setup()
        with pytest.raises(ValueError):
            solve_forward(prop, np.zeros((tgrid.steps, grid.n)), np.zeros(grid.n))
        with pytest.raises(ValueError):
            solve_forward(prop, zeros_space_time(grid, tgrid), np.zeros(grid.n + 1))


class TestBackward:
    def test_zero_data_zero_trajectory(self):
        prop, grid, tgrid = setup()
        xi = solve_backward(prop, zeros_space_time(grid, tgrid), np.zeros(grid.n))
        assert np.array_equal(xi, np.zeros_like(xi))

    def test_time_reversal_matches_forward(self):
        # running the backward recursion is the forward march on the reversed
        # source, on a dense and on a folded basis change
        for n in (18, evolution.FOLD_NODES):
            prop, grid, tgrid = setup(n=n, steps=9)
            rng = np.random.default_rng(13)
            src = random_field(grid, tgrid, rng)
            terminal = rng.normal(size=grid.n)
            xi = solve_backward(prop, src, terminal)

            rev = np.zeros_like(src)
            rev[1:] = src[1:][::-1]
            q = solve_forward(prop, rev, terminal)
            for m in range(1, tgrid.steps + 1):
                assert np.array_equal(xi[m], q[tgrid.steps + 1 - m])

    def test_time_zero_trace_duplicates_first_slice(self):
        prop, grid, tgrid = setup()
        rng = np.random.default_rng(21)
        xi = solve_backward(prop, random_field(grid, tgrid, rng), rng.normal(size=grid.n))
        assert np.array_equal(xi[0], xi[1])


class TestAdjointIdentities:
    @given(seed=st.integers(0, 10**6))
    def test_source_map_transpose(self, seed):
        for n in (14, evolution.FOLD_NODES):  # a dense and a folded basis change
            prop, grid, tgrid = setup(n=n, steps=7)
            rng = np.random.default_rng(seed)
            w = random_field(grid, tgrid, rng)
            r = random_field(grid, tgrid, rng)
            zero = np.zeros(grid.n)
            sw = solve_forward(prop, w, zero)
            sr = solve_backward(prop, r, zero)
            lhs = inner_product_q(sw, r, grid, tgrid)
            rhs = inner_product_q(w, sr, grid, tgrid)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    @given(seed=st.integers(0, 10**6))
    def test_initial_datum_duality(self, seed):
        # <z(g), r>_Q = <g, xi_r(0)>_Omega with z(g) the free evolution of g
        prop, grid, tgrid = setup(n=14, steps=7)
        rng = np.random.default_rng(seed)
        g = rng.normal(size=grid.n)
        r = random_field(grid, tgrid, rng)
        z = solve_forward(prop, zeros_space_time(grid, tgrid), g)
        xi = solve_backward(prop, r, np.zeros(grid.n))
        lhs = inner_product_q(z, r, grid, tgrid)
        rhs = inner_product_omega(g, xi[0], grid)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


class TestSuperposition:
    def test_generic_data_cancels_to_round_off(self):
        prop, grid, tgrid = setup(n=20, steps=10)
        rng = np.random.default_rng(31)
        f = random_field(grid, tgrid, rng)
        v = random_field(grid, tgrid, rng)
        g = rng.normal(size=grid.n)
        scale = max(1.0, norm_q(f, grid, tgrid))
        assert superposition_residual(prop, f, v, g) <= 1e-12 * scale

    def test_zero_control_cancels_to_machine_eps(self):
        # not bitwise zero: the four-term sum is evaluated left to right, so the
        # pairwise-equal trajectories cancel only after an eps-level rounding
        prop, grid, tgrid = setup()
        rng = np.random.default_rng(33)
        f = random_field(grid, tgrid, rng)
        res = superposition_residual(prop, f, zeros_space_time(grid, tgrid), rng.normal(size=grid.n))
        assert res <= 1e-15 * max(1.0, norm_q(f, grid, tgrid))

    def test_zero_datum_cancels_exactly(self):
        prop, grid, tgrid = setup()
        rng = np.random.default_rng(34)
        f = random_field(grid, tgrid, rng)
        v = random_field(grid, tgrid, rng)
        assert superposition_residual(prop, f, v, np.zeros(grid.n)) == 0.0


class TestDefects:
    def test_forward_solution_has_tiny_defect(self):
        prop, grid, tgrid = setup()
        rng = np.random.default_rng(41)
        src, init = random_field(grid, tgrid, rng), rng.normal(size=grid.n)
        q = solve_forward(prop, src, init)
        assert forward_defect(prop, q, src, init) <= 1e-12 * max(1.0, norm_q(q, grid, tgrid))

    def test_forward_defect_detects_perturbation(self):
        prop, grid, tgrid = setup()
        rng = np.random.default_rng(42)
        src, init = random_field(grid, tgrid, rng), rng.normal(size=grid.n)
        q = solve_forward(prop, src, init)
        bad = q.copy()
        bad[3] += 0.5
        assert forward_defect(prop, bad, src, init) > 1e-3
        bad_init = q.copy()
        bad_init[0] += 1.0
        assert forward_defect(prop, bad_init, src, init) > 0.1

    def test_backward_solution_has_tiny_defect(self):
        prop, grid, tgrid = setup()
        rng = np.random.default_rng(43)
        src, terminal = random_field(grid, tgrid, rng), rng.normal(size=grid.n)
        xi = solve_backward(prop, src, terminal)
        assert backward_defect(prop, xi, src, terminal) <= 1e-12 * max(1.0, norm_q(xi, grid, tgrid))

    def test_backward_defect_detects_broken_trace_copy(self):
        prop, grid, tgrid = setup()
        rng = np.random.default_rng(44)
        src, terminal = random_field(grid, tgrid, rng), rng.normal(size=grid.n)
        xi = solve_backward(prop, src, terminal)
        bad = xi.copy()
        bad[0] = bad[1] + 0.3
        assert backward_defect(prop, bad, src, terminal) > 1e-2
        bad_mid = xi.copy()
        bad_mid[2] -= 0.4
        assert backward_defect(prop, bad_mid, src, terminal) > 1e-3


    @pytest.mark.parametrize("n, steps", [(24, 12), (400, 30)])  # 400: dt * source in 6 blocks
    def test_defects_are_the_full_field_formula_bit_for_bit(self, n, steps):
        prop, grid, tgrid = setup(n=n, steps=steps)
        rng = np.random.default_rng(45)
        traj, src, datum = random_field(grid, tgrid, rng), random_field(grid, tgrid, rng), rng.normal(size=n)

        def reference(forward):
            defect = np.zeros_like(traj)
            np.matmul(traj[1:], prop.operator.matrix, out=defect[1:])
            defect[1:] *= tgrid.dt
            defect[1:] += traj[1:]
            defect[1:] -= tgrid.dt * src[1:]
            if forward:
                defect[1:] -= traj[:-1]
                mismatch = traj[0] - datum
            else:
                defect[1:-1] -= traj[2:]
                defect[-1] -= datum
                mismatch = traj[0] - traj[1]
            return norm_q(defect, grid, tgrid) + grid.h ** 0.5 * float(np.linalg.norm(mismatch))

        assert forward_defect(prop, traj, src, datum) == reference(True)
        assert backward_defect(prop, traj, src, datum) == reference(False)

def cho_solve_reference(op, tgrid, src, datum, backward=False):
    """The sweeps as a plain loop over ``scipy.linalg.cho_solve``."""
    factor = cho_factor(np.eye(op.grid.n) + tgrid.dt * op.matrix)
    out = np.empty_like(src)
    if backward:
        carry = datum
        for m in range(tgrid.steps, 0, -1):
            carry = cho_solve(factor, carry + tgrid.dt * src[m])
            out[m] = carry
        out[0] = carry
    else:
        out[0] = datum
        for m in range(tgrid.steps):
            out[m + 1] = cho_solve(factor, out[m] + tgrid.dt * src[m + 1])
    return out


def run_sweep(sweep, prop, src, datum):
    return (solve_forward if sweep == "forward" else solve_backward)(prop, src, datum)


class TestDirectLapackSweeps:
    @pytest.mark.parametrize("interval", [(-1.0, 1.0), (0.3, 2.9)])
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 3, 40, 41, 400])
    def test_matches_a_cho_solve_loop(self, n, s, interval):
        # the modal march reorders the arithmetic of the per-step solves; both
        # sweeps are compared on the scale of the forward trajectory, whose
        # slice 0 is the datum they start from
        prop, grid, tgrid = setup(n=n, steps=5, s=s, interval=interval)
        rng = np.random.default_rng(n)
        src = random_field(grid, tgrid, rng)
        datum = rng.normal(size=grid.n)
        q = solve_forward(prop, src, datum)
        xi = solve_backward(prop, src, datum)
        q_ref = cho_solve_reference(prop.operator, tgrid, src, datum)
        xi_ref = cho_solve_reference(prop.operator, tgrid, src, datum, backward=True)
        scale = np.max(np.abs(q_ref))
        assert np.max(np.abs(q - q_ref)) <= 1e-13 * scale
        assert np.max(np.abs(xi - xi_ref)) <= 1e-13 * scale

    @pytest.mark.parametrize("sweep", ["forward", "backward"])
    @pytest.mark.parametrize("m", [1, 5, 12])
    def test_nan_in_a_read_source_slice_is_rejected(self, sweep, m):
        prop, grid, tgrid = setup()
        src = zeros_space_time(grid, tgrid)
        src[m, 3] = np.nan
        with pytest.raises(ValueError, match="source"):
            run_sweep(sweep, prop, src, np.zeros(grid.n))

    @pytest.mark.parametrize("sweep", ["forward", "backward"])
    def test_nan_in_source_slice_zero_is_ignored(self, sweep):
        prop, grid, tgrid = setup()
        rng = np.random.default_rng(51)
        src = random_field(grid, tgrid, rng)
        datum = rng.normal(size=grid.n)
        clean = run_sweep(sweep, prop, src, datum)
        src[0] = np.nan
        assert np.array_equal(run_sweep(sweep, prop, src, datum), clean)

    def test_nan_in_the_initial_datum_is_rejected(self):
        prop, grid, tgrid = setup()
        init = np.zeros(grid.n)
        init[0] = np.nan
        with pytest.raises(ValueError, match="initial datum"):
            solve_forward(prop, zeros_space_time(grid, tgrid), init)

    def test_inf_in_the_terminal_datum_is_rejected(self):
        prop, grid, tgrid = setup()
        terminal = np.zeros(grid.n)
        terminal[-1] = np.inf
        with pytest.raises(ValueError, match="terminal datum"):
            solve_backward(prop, zeros_space_time(grid, tgrid), terminal)

    @pytest.mark.parametrize("sweep", ["forward", "backward"])
    @pytest.mark.parametrize("steps", [1, 12])
    def test_a_sweep_that_overflows_is_rejected(self, sweep, steps):
        # finite data whose first right-hand side datum + dt*source exceeds
        # the float range; with one step that is also the last step
        prop, grid, tgrid = setup(steps=steps)
        huge = 0.95 * np.finfo(float).max
        src = np.full((tgrid.steps + 1, grid.n), huge)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="trajectory"
        ):
            run_sweep(sweep, prop, src, np.full(grid.n, huge))

    def test_step_factor_is_read_only(self):
        for n in (24, evolution.FOLD_NODES):  # with and without the dense basis
            prop, _, tgrid = setup(n=n)
            assert isinstance(prop, Propagator) and prop.tgrid is tgrid
            arrays = (prop.lam, prop.even, prop.odd, prop.ratio)
            if prop.basis is not None:
                arrays += (prop.basis,)
            for a in arrays:
                assert not a.flags.writeable
            for half in (prop.even, prop.odd):
                with pytest.raises(ValueError):
                    half[0, 0] = 1.0
            with pytest.raises(ValueError):
                prop.ratio[0] = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                prop.ratio = np.ones_like(prop.ratio)


class TestEigenbasisSweeps:
    """On ``Propagator.in_modes`` (V = I) every sweep marches in its own
    trajectory, the backward one in a reversed view of it."""

    @pytest.mark.parametrize("sweep", ["forward", "backward"])
    def test_is_the_modal_recurrence_bit_for_bit(self, sweep):
        prop, grid, tgrid = setup()
        view = prop.in_modes()
        rng = np.random.default_rng(47)
        src, datum = random_field(grid, tgrid, rng), rng.normal(size=grid.n)
        expected = [datum]
        for row in src[1:] if sweep == "forward" else src[:0:-1]:
            expected.append(view.ratio * (expected[-1] + tgrid.dt * row))
        if sweep == "backward":  # slices M..1, then the t=0 trace copies slice 1
            expected = expected[-1:] + expected[:0:-1]
        assert np.array_equal(run_sweep(sweep, view, src, datum), np.array(expected))


class TestRunPair:
    """``run_pair`` runs its second call on a thread it joins before returning."""

    def test_runs_the_second_call_on_a_joined_thread(self):
        threads = threading.active_count()
        first, second = evolution.run_pair(threading.get_ident, threading.get_ident)
        assert first == threading.get_ident() != second
        assert threading.active_count() == threads

    @pytest.mark.parametrize("failing", [("first",), ("second",), ("first", "second")])
    def test_an_exception_from_either_call_is_raised_in_the_caller(self, failing):
        threads = threading.active_count()

        def call(name):
            def run():
                if name in failing:
                    raise KeyError(name)
                return name
            return run

        with pytest.raises(KeyError) as raised:
            evolution.run_pair(call("first"), call("second"))
        assert raised.value.args == (failing[0],)
        assert threading.active_count() == threads

    def test_pairs_from_the_gate_on_two_cpus_or_more(self, monkeypatch):
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 2)
        assert evolution.pair_pays(evolution.PAIR_NODES)
        assert not evolution.pair_pays(evolution.PAIR_NODES - 1)
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 1)
        assert not evolution.pair_pays(100 * evolution.PAIR_NODES)


class TestUsableCpus:
    """The gate's CPU count: the affinity mask, capped by a cgroup v2 quota."""

    @staticmethod
    def cgroup(root, cpu_max=None, line="0::/box"):
        (root / "proc" / "self").mkdir(parents=True)
        (root / "proc" / "self" / "cgroup").write_text(f"4:memory:/other\n{line}\n")
        (root / "sys" / "fs" / "cgroup" / "box").mkdir(parents=True)
        if cpu_max is not None:
            (root / "sys" / "fs" / "cgroup" / "box" / "cpu.max").write_text(cpu_max + "\n")
        return str(root)

    @pytest.mark.parametrize("cpu_max, cpus", [
        ("max 100000", 4), ("50000 100000", 1), ("250000 100000", 2), ("800000 100000", 4),
    ])
    def test_the_quota_caps_the_affinity_count(self, monkeypatch, tmp_path, cpu_max, cpus):
        monkeypatch.setattr(evolution.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        assert evolution._usable_cpus(self.cgroup(tmp_path, cpu_max)) == cpus

    @pytest.mark.parametrize("layout", ["no cpu.max", "no v2 line", "no cgroup file"])
    def test_no_quota_file_is_no_cap(self, monkeypatch, tmp_path, layout):
        monkeypatch.setattr(evolution.os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
        if layout == "no cpu.max":
            root = self.cgroup(tmp_path)
        elif layout == "no v2 line":
            root = self.cgroup(tmp_path, "50000 100000", line="1:cpu:/box")
        else:
            root = str(tmp_path)
        assert evolution._usable_cpus(root) == 3

    def test_this_process_counts_at_least_one_cpu(self):
        assert 1 <= evolution._usable_cpus() <= len(evolution.os.sched_getaffinity(0))


class TestRunAhead:
    """``run_ahead`` fills each next block on a thread it joins on exit."""

    def test_one_bulk_draw_continues_the_stream_of_per_field_draws(self):
        # the audit draws a block of probes in one call where it drew each
        # field of each probe in turn; a Generator continues one stream
        sizes = [24, 3, 24, 24, 7, 1, 5]
        rng = np.random.default_rng(11)
        separate = np.concatenate([rng.standard_normal(size) for size in sizes])
        bulk = np.empty(sum(sizes))
        np.random.default_rng(11).standard_normal(out=bulk)
        assert np.array_equal(separate, bulk)

    @staticmethod
    def record(count, fail_in=None):
        """fill and take over ``count`` blocks, logging each call's block,
        thread and the value the fill left."""
        log, slot = [], {}

        def fill(k):
            log.append(("fill", k, threading.get_ident()))
            if k == fail_in:
                raise KeyError(k)
            slot["value"] = 10 * k

        def take(k):
            log.append(("take", k, threading.get_ident()))
            return slot.pop("value")

        return fill, take, log

    @pytest.mark.parametrize("cpus, count, threaded", [(2, 5, True), (1, 5, False), (2, 1, False), (2, 0, False)])
    def test_takes_come_in_order_and_the_thread_is_joined(self, monkeypatch, cpus, count, threaded):
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: cpus)
        fill, take, log = self.record(count)
        threads = threading.active_count()
        with evolution.run_ahead(fill, take, count) as blocks:
            assert list(blocks) == [10 * k for k in range(count)]
        assert threading.active_count() == threads
        order = [(kind, k) for kind, k, _ in log]
        assert [k for kind, k in order if kind == "fill"] == list(range(count))
        for k in range(count):  # fill(k) before take(k), and fill(k + 1) after it
            assert order.index(("fill", k)) < order.index(("take", k))
            if k + 1 < count:
                assert order.index(("take", k)) < order.index(("fill", k + 1))
        main = threading.get_ident()
        on_thread = [ident != main for kind, _, ident in log if kind == "fill"]
        assert on_thread == [k > 0 and threaded for k in range(count)]  # fill(0) runs here
        assert all(ident == main for kind, _, ident in log if kind == "take")

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_an_error_in_a_fill_is_raised_at_its_take(self, monkeypatch, cpus):
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: cpus)
        fill, take, log = self.record(4, fail_in=2)
        threads = threading.active_count()
        taken = []
        with pytest.raises(KeyError) as raised:
            with evolution.run_ahead(fill, take, 4) as blocks:
                for value in blocks:
                    taken.append(value)
        assert raised.value.args == (2,)
        assert taken == [0, 10]
        assert threading.active_count() == threads
        assert ("fill", 3) not in [(kind, k) for kind, k, _ in log]

    def test_every_take_sees_its_own_fill_under_fast_switching(self, monkeypatch):
        # one buffer shared by the two threads: a take that overlapped the
        # next fill would copy a mix of two blocks
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 2)
        buf = np.empty(4096)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with evolution.run_ahead(lambda k: buf.fill(k), lambda k: buf.copy(), 500) as blocks:
                copies = list(blocks)
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(copy, np.full(buf.shape, k)) for k, copy in enumerate(copies))
        assert not [t for t in threading.enumerate() if t.name == "lowregret-ahead"]

    def test_an_error_in_the_caller_joins_the_thread(self, monkeypatch):
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 2)
        fill, take, log = self.record(6)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="block 1"):
            with evolution.run_ahead(fill, take, 6) as blocks:
                for k, value in enumerate(blocks):
                    if k == 1:
                        raise ValueError("block 1")
        assert threading.active_count() == threads
        # the block after the failing one may have been drawn, no later one
        assert max(k for kind, k, _ in log if kind == "fill") <= 2


class TestPropagator:
    @pytest.mark.parametrize("interval", [(-1.0, 1.0), (0.3, 2.9)])
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 7, 40, 41, 400])
    def test_half_size_eigenpairs_are_exact_to_round_off(self, n, s, interval):
        prop, _, tgrid = setup(n=n, s=s, interval=interval)
        a, lam, ratio = prop.operator.matrix, prop.lam, prop.ratio
        basis = prop.from_modes(np.eye(n)).T  # V^T = I V^T
        k, c = n // 2, n - n // 2
        assert np.array_equal(prop.even, basis[:c, :c])  # the leading rows of V
        assert np.array_equal(prop.odd, basis[:k, c:])
        scale = np.max(np.abs(a))
        assert np.max(np.abs(a - a[::-1, ::-1])) <= 1e-12 * scale  # centrosymmetric
        assert np.max(np.abs(a @ basis - basis * lam)) <= 1e-13 * scale
        assert np.max(np.abs(basis.T @ basis - np.eye(n))) <= 1e-13
        assert np.array_equal(ratio, 1.0 / (1.0 + tgrid.dt * lam))


class TestEigensolver:
    """``_symmetric_eigh`` is LAPACK dsyevd bit for bit, vectors in its Fortran order."""

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 3, 40, 41, 149, 150, 151, 400, 401])
    def test_matches_dsyevd_on_the_half_blocks(self, monkeypatch, n, s):
        blocks, eigh = [], evolution._symmetric_eigh
        monkeypatch.setattr(evolution, "_symmetric_eigh", lambda b: blocks.append(b.copy()) or eigh(b))
        evolution.centrosymmetric_eigh(assemble_operator(build_grid(-1.0, 1.0, n), s).matrix)
        # the two halves may run as a pair, so in either order
        assert sorted(len(block) for block in blocks) == sorted([n - n // 2, n // 2])
        for block in blocks:
            lam, vectors = eigh(block.copy())
            ref_lam, ref_vectors, info = dsyevd(block.T)
            assert info == 0
            assert np.array_equal(lam, ref_lam)
            assert np.array_equal(vectors, ref_vectors)
            assert vectors.flags.f_contiguous and ref_vectors.flags.f_contiguous


class TestBasisChange:
    """``to_modes`` and ``from_modes`` against the dense products with V."""

    SIZES = [1, 2, 3, 40, 41, evolution.FOLD_NODES, evolution.FOLD_NODES + 1, 400, 401]

    @staticmethod
    def propagators(monkeypatch, n):
        """A propagator of n nodes that folds and one that does not."""
        grid, tgrid = build_grid(-1.0, 1.0, n), build_time_grid(1.0, 5)
        op = assemble_operator(grid, 0.5)
        monkeypatch.setattr(evolution, "FOLD_NODES", 1)
        folded = Propagator(op, tgrid)
        monkeypatch.setattr(evolution, "FOLD_NODES", n + 1)
        return folded, Propagator(op, tgrid)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("shape", [(), (7,), (3, 7)])
    def test_agree_with_the_dense_products_and_invert_each_other(self, monkeypatch, n, shape):
        folded, dense = self.propagators(monkeypatch, n)
        assert folded.basis is None and dense.basis is not None
        rng = np.random.default_rng(n)
        x = rng.normal(size=shape + (n,))
        scale = np.max(np.abs(x))
        modal = folded.to_modes(x)
        assert np.max(np.abs(modal - x @ dense.basis)) <= 1e-13 * scale
        assert np.max(np.abs(folded.from_modes(x) - x @ dense.basis.T)) <= 1e-13 * scale
        assert np.max(np.abs(folded.from_modes(modal) - x)) <= 1e-13 * scale
        assert np.max(np.abs(dense.from_modes(dense.to_modes(x)) - x)) <= 1e-13 * scale

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("shape", [(), (7,), (3, 7)])
    def test_fold_matches_the_full_buffer_fold_bit_for_bit(self, monkeypatch, n, shape):
        # u and w folded side by side into one (..., n) buffer, then the two GEMMs
        folded, _ = self.propagators(monkeypatch, n)
        k, c = n // 2, n - n // 2
        x = np.random.default_rng(n).normal(size=shape + (n,))
        both = np.empty(x.shape)
        both[..., :k] = x[..., :k] + x[..., ::-1][..., :k]
        both[..., k:c] = x[..., k:c]
        both[..., c:] = x[..., :k] - x[..., ::-1][..., :k]
        expected = np.empty(x.shape)
        np.matmul(both[..., :c], folded.even, out=expected[..., :c])
        np.matmul(both[..., c:], folded.odd, out=expected[..., c:])
        assert np.array_equal(folded.to_modes(x), expected)

    @pytest.mark.parametrize("n", [40, 41])
    def test_write_into_strided_views(self, monkeypatch, n):
        folded, _ = self.propagators(monkeypatch, n)
        rng = np.random.default_rng(n)
        x = rng.normal(size=(7, n))
        storage = np.empty((3, 8, n))
        folded.to_modes(x[::-1], out=storage[1, 1:])  # a reversed input, a strided output
        assert np.array_equal(storage[1, 1:], folded.to_modes(np.ascontiguousarray(x[::-1])))
        folded.from_modes(x[:3], out=storage[:, 0])
        assert np.array_equal(storage[:, 0], folded.from_modes(x[:3]))

    def test_only_small_propagators_hold_the_dense_basis(self):
        n = evolution.FOLD_NODES
        assert setup(n=n - 1)[0].basis.shape == (n - 1, n - 1)
        prop = setup(n=n)[0]
        assert prop.basis is None
        for f in dataclasses.fields(prop):
            value = getattr(prop, f.name)
            if isinstance(value, np.ndarray):
                assert value.shape != (n, n), f.name


class TestStackedSweeps:
    @pytest.mark.parametrize("n", [1, 2, 40, 41, evolution.FOLD_NODES, evolution.FOLD_NODES + 1])
    @pytest.mark.parametrize("stack", [1, 2, 7])
    def test_equal_single_sweeps_bitwise(self, n, stack):
        physical, grid, tgrid = setup(n=n, steps=6)
        rng = np.random.default_rng(10 * n + stack)
        src = rng.normal(size=(stack, tgrid.steps + 1, grid.n))
        datum = rng.normal(size=(stack, grid.n))
        for prop in (physical, physical.in_modes()):  # on V, and on V = I
            for sweep in (solve_forward, solve_backward):
                marched = sweep(prop, src, datum)
                assert marched.shape == src.shape
                for p in range(stack):
                    assert np.array_equal(marched[p], sweep(prop, src[p], datum[p]))

    @pytest.mark.parametrize("sweep", [solve_forward, solve_backward])
    def test_an_unstacked_operand_is_shared_by_every_entry(self, sweep):
        for n in (41, evolution.FOLD_NODES):  # a dense and a folded basis change
            physical, grid, tgrid = setup(n=n, steps=6)
            rng = np.random.default_rng(3)
            src = rng.normal(size=(4, tgrid.steps + 1, grid.n))
            datum = rng.normal(size=(4, grid.n))
            for prop in (physical, physical.in_modes()):  # on V, and on V = I
                shared_source = sweep(prop, src[0], datum)
                shared_datum = sweep(prop, src, datum[0])
                for p in range(4):
                    assert np.array_equal(shared_source[p], sweep(prop, src[0], datum[p]))
                    assert np.array_equal(shared_datum[p], sweep(prop, src[p], datum[0]))

    @pytest.mark.parametrize("sweep,datum", [(solve_forward, "initial datum"), (solve_backward, "terminal datum")])
    def test_stacks_of_different_lengths_are_rejected_with_the_shapes(self, sweep, datum):
        prop, grid, tgrid = setup(n=5, steps=6)
        with pytest.raises(ValueError, match=rf"source of shape \(3, 7, 5\), {datum} of shape \(2, 5\)"):
            sweep(prop, np.zeros((3, 7, 5)), np.zeros((2, 5)))
        with pytest.raises(ValueError, match="space-time field shape"):
            sweep(prop, np.zeros((2, 3, 7, 5)), np.zeros(5))
        with pytest.raises(ValueError, match="spatial field shape"):
            sweep(prop, np.zeros((7, 5)), np.zeros((2, 3, 5)))

    @pytest.mark.parametrize("sweep", ["forward", "backward"])
    def test_a_nan_in_one_entry_is_rejected(self, sweep):
        prop, grid, tgrid = setup()
        src = np.zeros((3, tgrid.steps + 1, grid.n))
        src[1, 4, 2] = np.nan
        with pytest.raises(ValueError, match="source slices 1..M must be finite"):
            run_sweep(sweep, prop, src, np.zeros((3, grid.n)))
        datum = np.zeros((3, grid.n))
        datum[2, 0] = np.inf
        with pytest.raises(ValueError, match="datum must be finite"):
            run_sweep(sweep, prop, np.zeros((3, tgrid.steps + 1, grid.n)), datum)
