"""End-to-end and traced measurements of the lowregret CLI path.

``measure_end_to_end`` times ``run_scenario`` on a generated config (tracing
off) and the library's set-up calls, and reads peak memory.
``measure_traced`` alternates untraced and traced executions of the same
config, derives per-layer metrics from the spans, runs the harness
self-checks, times a fresh-interpreter import, and reproduces the ROADMAP
calibration table.  Both gate every
output they produce (see ``workloads.check_outputs``).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

import numpy as np
import scipy

from lowregret import functional, optimizer
from lowregret.cli import load_scenario, run_scenario
from lowregret.functional import RegretConfig
from lowregret.grids import build_grid, build_time_grid
from lowregret.presets import space_time_field

import tracer as tr
from refkernel import RefKernel
from workloads import Workload, check_outputs, load_reference, make_config, report_digest

SETUP_SLICE_SECONDS = 0.3
MIN_ROUNDS = 3
IMPORT_SAMPLES = 7
MIN_TRACED_PAIRS = 2

# Sweeps each solve_low_regret makes outside CG: one for the right-hand side
# and eight after CG (five for the first-order system, three for the
# objective); a warm start adds one H-apply.  Each H-apply is four sweeps.
# Building the problem's workspace costs one sweep (the background state),
# and the sweep scenario adds one adjoint solve (two sweeps) after the loop.
RHS_SWEEPS = 1
POST_SOLVE_SWEEPS = 8
SWEEPS_PER_H_APPLY = 4
WORKSPACE_SWEEPS = 1
SCENARIO_EXTRA_SWEEPS = {"solve": 0, "sweep": 2}

# shipped source and target of configs/*.json, used by the calibration table
CALIBRATION_SOURCE = "gauss(0.2,0.25,0.7)"
CALIBRATION_TARGET = "sine(1,0.4)"
CALIBRATION_SIZES = ((40, 30), (200, 100), (800, 200))
CALIBRATION_REPEATS = 3


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


class Gate:
    """Runs the CLI path on one config and accounts operations and failures."""

    def __init__(self, w: Workload, seed: int, work_dir: str, reference=None):
        self.w, self.seed, self.work_dir = w, seed, work_dir
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.digest = None
        self.runs = 0
        os.makedirs(work_dir, exist_ok=True)
        self.config_path = os.path.join(work_dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(make_config(w, seed), fh, indent=2, sort_keys=True)

    def execute(self):
        """One timed run_scenario call; returns (wall seconds, out dir, outputs written).

        The wall time is returned whether or not the outputs pass the gate:
        failures are accounted in ``attempted`` and ``failed``, not by
        dropping samples.  A call that raised is timed up to the exception
        and has no outputs to read.
        """
        self.runs += 1
        out_dir = os.path.join(self.work_dir, f"run{self.runs}")
        ops = self.w.operations()
        self.attempted += ops
        started = time.perf_counter()
        try:
            run_scenario(self.config_path, out_dir=out_dir)
        except Exception:
            wall = time.perf_counter() - started
            self.failed += ops
            self.messages.append(f"run {self.runs} raised:\n{traceback.format_exc()}")
            return wall, out_dir, False
        wall = time.perf_counter() - started
        try:
            failed, msgs = check_outputs(self.w, self.seed, out_dir, self.reference)
            digest = report_digest(out_dir)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            failed, msgs, digest = ops, [f"run {self.runs}: unreadable output: {exc!r}"], None
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest and failed < ops:
            failed = ops
            msgs.append(f"report.json of run {self.runs} differs from run 1 (same seed)")
        self.failed += failed
        self.messages.extend(msgs)
        return wall, out_dir, True


def _setup_once(sc) -> float:
    """Parsed config -> problem ready for its first sweep, timed."""
    started = time.perf_counter()
    grid = build_grid(sc.x_left, sc.x_right, sc.nodes)
    tgrid = build_time_grid(sc.horizon, sc.steps)
    cfg = RegretConfig(
        s=sc.s,
        control_weight=sc.control_weight,
        gamma=sc.gammas[0] if sc.scenario == "sweep" else sc.gamma,
        f=space_time_field(sc.source, grid, tgrid),
        z_d=space_time_field(sc.target, grid, tgrid),
        grid=grid,
        tgrid=tgrid,
        cg_tol=sc.cg_tol,
        cg_max_iters=sc.cg_max_iters,
    )
    functional.workspace(cfg)
    return time.perf_counter() - started


_IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import lowregret.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)

# Seconds the reference kernel takes on the reference machine (reference.json).
# Timings are reported at that speed: raw median * REF_NOMINAL_S / kernel median.
REF_NOMINAL_S = 0.4


def measure_import(root: str) -> float:
    """Median ``import lowregret.cli`` time over fresh interpreters, raw seconds.

    One untimed child goes first, so every timed child finds compiled
    bytecode, as every ``lowregret`` invocation after the first does.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    samples = []
    for _ in range(IMPORT_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=root, env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples[1:])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure_end_to_end(w: Workload, seed: int, seconds: float, work_dir: str):
    """End-to-end metrics, tracing off.

    The run is a sequence of rounds.  Each round is fresh set-up builds for
    SETUP_SLICE_SECONDS and one ``run_scenario`` call with the reference
    kernel run right before and after it, so every timing samples the whole
    measured window.  Rounds continue while the next one is expected to end
    within ``seconds``.

    The speed of a shared machine drifts by tens of percent over minutes.
    Each timing is therefore reported at the reference machine's speed: its
    median times REF_NOMINAL_S over the median reference-kernel time of the
    same rounds.  The raw medians and the factor are printed as notes.  The
    kernel runs only while no other Python thread is alive, so work the
    library leaves running cannot slow it.
    """
    gate = Gate(w, seed, work_dir, load_reference())
    sc = load_scenario(gate.config_path)
    kernel = RefKernel()
    refs: list[float] = []
    setups: list[float] = []
    walls: list[float] = []

    def reference():
        if threading.active_count() != 1:
            raise RuntimeError("a thread outlived run_scenario; the reference kernel would be slowed")
        refs.append(kernel())

    started = time.perf_counter()
    while True:
        slice_start = time.perf_counter()
        while True:
            setups.append(_setup_once(sc))
            if time.perf_counter() - slice_start >= SETUP_SLICE_SECONDS:
                break
        reference()
        wall, out_dir, _ = gate.execute()
        reference()
        shutil.rmtree(out_dir, ignore_errors=True)
        walls.append(wall)
        elapsed = time.perf_counter() - started
        if gate.runs >= MIN_ROUNDS and elapsed + elapsed / gate.runs > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = REF_NOMINAL_S / statistics.median(refs)
    raw = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
    }
    notes = [
        f"rounds: {gate.runs}; medians of {len(walls)} run_scenario calls, "
        f"{len(setups)} fresh set-up builds and {len(refs)} reference-kernel runs",
        f"reference kernel median {statistics.median(refs):.4f} s -> speed factor {scale:.4f}",
        "raw medians: " + ", ".join(f"{k}={v:.4f}" for k, v in raw.items()),
        "raw wall_s samples: " + " ".join(f"{x:.3f}" for x in walls),
    ]
    metrics = {name: _metric(v * scale, "s") for name, v in raw.items()}
    metrics["peak_rss_mb"] = _metric(peak_mb, "MB")
    return gate, metrics, notes


# ---------------------------------------------------------------- traced run


def _bytes_written(out_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(out_dir, name)) for name in sorted(os.listdir(out_dir))
    )


def _cg_iterations(out_dir: str) -> int:
    with open(os.path.join(out_dir, "report.json")) as fh:
        metrics = json.load(fh)["metrics"]
    its = metrics.get("cg_iterations", 0)
    return sum(its) if isinstance(its, list) else its


def layer_metrics(t: tr.Tracer, run_id: int, w: Workload, wall: float, out_dir: str) -> dict:
    """Per-layer numbers of one traced execution (None where a span is absent)."""
    s = tr.summarize(t.spans, run_id)
    present = t.present_spans()

    def calls(name):
        return s.get(name, {}).get("calls", 0) if name in present else None

    def self_s(name):
        return s.get(name, {}).get("self_s", 0.0) if name in present else None

    def add(*values):
        return None if any(v is None for v in values) else sum(values)

    n, m_steps = w.nodes, w.steps
    sweeps = add(calls("evolution.forward"), calls("evolution.backward"))
    sweep_self = add(self_s("evolution.forward"), self_s("evolution.backward"))
    steps = None if sweeps is None else sweeps * m_steps
    # implicit-Euler step: rhs update (2n) plus two triangular solves with the
    # Cholesky factor (n^2 flops each, each reading half of an n x n array),
    # and four length-n vectors read or written
    flops = None if steps is None else steps * (2 * n * n + 2 * n)
    nbytes = None if steps is None else steps * (8 * n * (n + 1) + 4 * 8 * n)
    h_durs = s.get("optimizer.h_apply", {}).get("durations", [])
    if "optimizer.h_apply" not in present:
        h_ms = None
    else:
        h_ms = 1e3 * statistics.median(h_durs) if h_durs else 0.0
    if "optimizer.solve" in present:
        post = tr.count_under(
            t.spans, run_id, tr.SWEEP_SPANS, "optimizer.solve",
            ("optimizer.h_apply", "optimizer.rhs"),
        )
    else:
        post = None
    covered = sum(e["self_s"] for e in s.values())
    return {
        "evolution.forward.calls": calls("evolution.forward"),
        "evolution.backward.calls": calls("evolution.backward"),
        "evolution.sweep.self_s": sweep_self,
        "evolution.step_us": None if not steps else 1e6 * sweep_self / steps,
        "evolution.flops_computed": flops,
        "evolution.bytes_computed": nbytes,
        "evolution.gbps_computed": None if not steps else nbytes / sweep_self / 1e9,
        "evolution.defect.calls": calls("evolution.defect"),
        "evolution.defect.self_s": self_s("evolution.defect"),
        "evolution.factor.calls": calls("evolution.factor"),
        "evolution.factor.self_s": self_s("evolution.factor"),
        "optimizer.cg_iterations": _cg_iterations(out_dir),
        "optimizer.h_apply.calls": calls("optimizer.h_apply"),
        "optimizer.h_apply.ms": h_ms,
        "optimizer.post_solve.sweeps": post,
        "optimizer.solve.calls": calls("optimizer.solve"),
        "optimizer.solve.self_s": self_s("optimizer.solve"),
        "optimizer.rhs.self_s": self_s("optimizer.rhs"),
        "optimizer.residuals.self_s": self_s("optimizer.residuals"),
        "operator.assemble.calls": calls("operator.assemble"),
        "operator.assemble.self_s": self_s("operator.assemble"),
        "functional.workspace.calls": calls("functional.workspace"),
        "functional.workspace.self_s": self_s("functional.workspace"),
        "functional.identities.calls": calls("functional.identities"),
        "functional.identities.self_s": self_s("functional.identities"),
        "functional.reduced_cost.calls": calls("functional.reduced_cost"),
        "grids.inner_q.calls": calls("grids.inner_q"),
        "grids.inner_q.self_s": self_s("grids.inner_q"),
        "presets.field.self_s": self_s("presets.field"),
        "cli.parse.self_s": self_s("cli.parse"),
        "cli.execute.self_s": self_s("cli.execute"),
        "cli.write.self_s": self_s("cli.write"),
        "cli.bytes_written": _bytes_written(out_dir),
        "trace.covered_frac": covered / wall,
    }


COUNT_METRICS = (
    "evolution.forward.calls", "evolution.backward.calls", "evolution.defect.calls",
    "evolution.factor.calls", "optimizer.cg_iterations", "optimizer.h_apply.calls",
    "optimizer.post_solve.sweeps", "optimizer.solve.calls", "operator.assemble.calls",
    "functional.workspace.calls", "functional.identities.calls",
    "functional.reduced_cost.calls", "grids.inner_q.calls",
)


def self_check(w: Workload, layers: dict) -> list[str]:
    """Counts the tracer must reproduce from the program's own CG report."""
    problems = []
    cg = layers["optimizer.cg_iterations"]
    warm = len(w.gammas) - 1 if w.scenario == "sweep" else 0
    solves = len(w.gammas) if w.scenario == "sweep" else int(w.scenario == "solve")
    h_calls = layers["optimizer.h_apply.calls"]
    if h_calls != cg + warm:
        problems.append(
            f"optimizer.h_apply.calls={h_calls} but CG iterations + warm starts = {cg} + {warm}"
        )
    if w.scenario in SCENARIO_EXTRA_SWEEPS:
        expected = (
            WORKSPACE_SWEEPS
            + solves * (RHS_SWEEPS + POST_SOLVE_SWEEPS)
            + SWEEPS_PER_H_APPLY * (cg + warm)
            + SCENARIO_EXTRA_SWEEPS[w.scenario]
        )
        fwd, bwd = layers["evolution.forward.calls"], layers["evolution.backward.calls"]
        sweeps = None if fwd is None or bwd is None else fwd + bwd
        if sweeps != expected:
            problems.append(
                f"traced sweeps={sweeps} but {cg} CG iterations imply {expected}"
            )
        if layers["optimizer.post_solve.sweeps"] != solves * POST_SOLVE_SWEEPS:
            problems.append(
                f"optimizer.post_solve.sweeps={layers['optimizer.post_solve.sweeps']}, "
                f"expected {solves * POST_SOLVE_SWEEPS}"
            )
    return problems


def calibrate(t: tr.Tracer, seed: int, sizes=CALIBRATION_SIZES, repeats=CALIBRATION_REPEATS) -> dict:
    """Median assemble, workspace and H-apply times at the ROADMAP table sizes.

    Each size builds ``repeats`` fresh problems, then applies H ``repeats``
    times; the two phases are traced under separate run ids so the cached
    workspace lookups inside H-apply do not mix with the builds.  The calls
    go through the library modules, where the tracer has wrapped them.
    """
    rng = np.random.default_rng(seed)
    present = t.present_spans()
    out = {}
    for n, m_steps in sizes:
        t.run_id += 1
        for _ in range(repeats):
            grid = build_grid(-1.0, 1.0, n)
            tgrid = build_time_grid(1.0, m_steps)
            cfg = RegretConfig(
                s=0.5, control_weight=0.1, gamma=1e-2,
                f=space_time_field(CALIBRATION_SOURCE, grid, tgrid),
                z_d=space_time_field(CALIBRATION_TARGET, grid, tgrid),
                grid=grid, tgrid=tgrid,
            )
            functional.workspace(cfg)
        builds = tr.summarize(t.spans, t.run_id)
        t.run_id += 1
        v = rng.standard_normal((m_steps + 1, n))
        for _ in range(repeats):
            optimizer.apply_normal_operator(v, cfg)
        applies = tr.summarize(t.spans, t.run_id)

        def med(table, name, field, scale=1.0):
            if name not in present or name not in table:
                return None
            return scale * statistics.median(table[name][field])

        key = f"calib.{n}x{m_steps}"
        out[f"{key}.operator.assemble.self_s"] = med(builds, "operator.assemble", "selfs")
        out[f"{key}.functional.workspace.self_s"] = med(builds, "functional.workspace", "selfs")
        out[f"{key}.functional.workspace.total_s"] = med(builds, "functional.workspace", "durations")
        out[f"{key}.optimizer.h_apply.ms"] = med(applies, "optimizer.h_apply", "durations", 1e3)
    return out


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".sweeps", ".cg_iterations")):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith(("bytes_computed", "bytes_written")):
        return "B"
    if name.endswith("gbps_computed"):
        return "GB/s"
    return "ratio"


def _median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def measure_traced(
    w: Workload, seed: int, seconds: float, root: str, work_dir: str,
    calibration_sizes=CALIBRATION_SIZES,
):
    """Alternate untraced and traced runs of one config; derive layer metrics.

    Returns (gate, metrics, notes, problems, absent).  ``problems`` lists
    failed harness self-checks; ``absent`` names listed functions the
    library no longer has.
    """
    gate = Gate(w, seed, work_dir, load_reference())
    t = tr.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    per_run: list[dict] = []
    started = time.perf_counter()
    pairs = 0
    while True:
        wall, out_dir, _ = gate.execute()
        shutil.rmtree(out_dir, ignore_errors=True)
        untraced.append(wall)
        t.run_id += 1
        t.install()
        try:
            wall, out_dir, written = gate.execute()
        finally:
            t.uninstall()
        traced.append(wall)
        if written:
            per_run.append(layer_metrics(t, t.run_id, w, wall, out_dir))
        shutil.rmtree(out_dir, ignore_errors=True)
        pairs += 1
        elapsed = time.perf_counter() - started
        if pairs >= MIN_TRACED_PAIRS and elapsed + elapsed / pairs > seconds:
            break

    problems: list[str] = []
    for layers in per_run:
        problems.extend(self_check(w, layers))
    for name in COUNT_METRICS:
        if len({layers[name] for layers in per_run}) > 1:
            problems.append(f"{name} differs between traced runs: {[r[name] for r in per_run]}")
    values = {
        name: per_run[0][name] if name in COUNT_METRICS
        else _median_or_none([layers[name] for layers in per_run])
        for name in (per_run[0] if per_run else ())
    }
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    t.install()
    try:
        values.update(calibrate(t, seed, calibration_sizes))
    finally:
        t.uninstall()
    values["cli.import_s"] = measure_import(root)
    t.write(os.path.join(work_dir, "spans.json"))
    metrics = {name: _metric(values[name], unit_of(name)) for name in sorted(values)}
    notes = [
        f"traced runs: {len(traced)}, untraced runs: {len(untraced)}; "
        f"times are medians over traced runs, counts must repeat exactly",
        f"calibration: median of {CALIBRATION_REPEATS} builds and H-applies per size",
        f"cli.import_s: median of {IMPORT_SAMPLES} fresh interpreters",
    ]
    return gate, metrics, notes, problems, list(t.absent)
