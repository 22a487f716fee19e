"""Experiment runner: JSON scenario configs in, deterministic reports out.

Subcommands: ``run`` (executes the scenario named in the config), ``audit``
(identity checks on random probes), ``sweep`` (continuation over gamma) and
``validate`` (parse the config and build its problem, no solve).  Every
subcommand checks a config the same way: it applies ``--seed`` (and
``audit`` or ``sweep`` its scenario) to the parse, then builds the problem
(``ScenarioConfig.problem``), so ``validate`` refuses what ``run`` refuses,
and a refused config creates no output directory.  Every run writes
``report.json`` plus per-metric CSV plot data into the output directory;
wall-clock timings go to a separate ``timings.json`` so that reports from
identical config and seed are byte-identical.  Threads: on two CPUs, an
audit of two probe blocks or more draws each next block on a short-lived
thread (``evolution.run_ahead``), and a problem of ``evolution.PAIR_NODES``
nodes or more pairs its eigendecomposition (``evolution.run_pair``); both
are joined before the call that started them returns or raises.

Output directory resolution: ``--out`` flag, else the config's ``out_dir``
field, else ``$LOWREGRET_OUT/<scenario>`` (current directory when the
variable is unset).  Exit codes: 0 success, 2 configuration error, 3
scenario failure (non-convergence, an identity check out of tolerance, or a
library refusal such as a non-finite sweep).
"""

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cached_property

import numpy as np

from . import __version__
from .evolution import run_ahead, solve_backward, solve_forward
from .functional import Probe, RegretConfig, solve_uncertainty_adjoint, workspace
from .grids import (
    ParameterError,
    build_grid,
    build_time_grid,
    inner_product_omega,
    inner_product_q,
    norm_omega,
    norm_q,
)
from .optimizer import (
    DEFAULT_SWEEP_GAMMAS, check_gammas, gamma_sweep, optimality_residuals, solve_low_regret
)
from .presets import parse_profile, space_time_field, spatial_profile

SCENARIOS = ("solve", "audit", "sweep")

# Ceiling on domain.nodes: assembly builds A in one dense n x n float array,
# 200 MB at this size, which the problem then keeps.
MAX_NODES = 5000
# Ceiling on nodes x (steps + 1): every space-time field (source, target,
# each sweep's trajectory) holds that many floats, 80 MB each at this size;
# also on probes x nodes, the sweep's membership probes.
MAX_GRID_VALUES = 10**7

# JSON objects that group ScenarioConfig fields: section -> its keys
SECTIONS = {"domain": ("x_left", "x_right", "nodes"), "time": ("horizon", "steps")}
_SECTION_OF = {key: section for section, keys in SECTIONS.items() for key in keys}

# library parameter name -> JSON path, where the two differ
_JSON_PATHS = {
    "x_l": "domain.x_left", "x_r": "domain.x_right", "n": "domain.nodes",
    "horizon": "time.horizon", "steps": "time.steps", "f": "source", "z_d": "target",
}


class ConfigError(ParameterError):
    """Configuration problem; the message starts with the offending field."""


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """Validated scenario description (one JSON file).

    Each field's annotation is its JSON type and its default, if any, makes
    it optional; ``SECTIONS`` names the JSON object that holds it.
    """

    scenario: str = "solve"
    x_left: float
    x_right: float
    nodes: int
    horizon: float
    steps: int
    s: float
    control_weight: float
    gamma: float
    gammas: tuple[float, ...] = DEFAULT_SWEEP_GAMMAS
    source: str = "zero"
    target: str = "zero"
    probes: int = 5
    probe_presets: tuple[str, ...] = ()
    seed: int = 0
    out_dir: str | None = None
    cg_tol: float = 1e-12
    cg_max_iters: int = 5000

    @cached_property
    def problem(self) -> RegretConfig:
        """The scenario's problem at ``gamma``; a sweep re-gammas it per stage.

        Raises ParameterError, named as in the library, on any number out of
        range; the grid-size ceiling runs before a space-time field is made.
        """
        grid = build_grid(self.x_left, self.x_right, self.nodes)
        if self.nodes * (self.steps + 1) > MAX_GRID_VALUES:
            limit = MAX_GRID_VALUES // self.nodes - 1
            raise ParameterError("steps", f"must be <= {limit} at {self.nodes} nodes, got {self.steps}")
        tgrid = build_time_grid(self.horizon, self.steps)
        f, z_d = (space_time_field(text, grid, tgrid) for text in (self.source, self.target))
        return RegretConfig(
            s=self.s,
            control_weight=self.control_weight,
            gamma=self.gamma,
            f=f,
            z_d=z_d,
            grid=grid,
            tgrid=tgrid,
            cg_tol=self.cg_tol,
            cg_max_iters=self.cg_max_iters,
        )

    def echo(self) -> dict:
        """Everything that determines the report's numbers, normalized.

        Output location is deliberately excluded: it never affects results.
        """
        echo = asdict(self)
        del echo["out_dir"]
        for section, keys in SECTIONS.items():
            echo[section] = {key: echo.pop(key) for key in keys}
        return echo


@dataclass(frozen=True)
class RunReport:
    """Outcome of one scenario execution.

    ``metrics`` is JSON-ready; ``tables`` maps each CSV plot file's name to
    its lines and stays out of report.json.  ``timings`` is written to its
    own file to keep reports deterministic.
    """

    scenario: str
    config: dict
    config_digest: str
    version: str
    metrics: dict
    success: bool
    timings: dict
    tables: dict


def _typed(name: str, value, expect):
    """``value`` checked against the JSON type ``expect``; ints become floats."""
    if expect is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(name, f"expected a number, got {value!r}")
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            raise ConfigError(name, f"must be a finite float, got {value!r}") from None
    if expect is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(name, f"expected an integer, got {value!r}")
        return value
    if expect is str and not isinstance(value, str):
        raise ConfigError(name, f"expected a string, got {value!r}")
    return value


def _reject_unknown(raw: dict, known, path: str = "") -> None:
    for key in raw:
        if key not in known:
            raise ConfigError(f"{path}{key}", "unknown field")


def parse_scenario(raw: dict, scenario: str | None = None, seed: int | None = None) -> ScenarioConfig:
    """Build the scenario, and its problem, from a parsed JSON document.

    Types, defaults and sections come from ``ScenarioConfig``; ``scenario``
    and ``seed`` (the command line's, named ``--seed``) replace the
    document's before any check.  Building the problem runs the library's
    range checks; its ParameterError is reported under the field's JSON path.
    """
    if not isinstance(raw, dict):
        raise ConfigError("<config>", "top level must be a JSON object")
    _reject_unknown(raw, {f.name for f in fields(ScenarioConfig)} - _SECTION_OF.keys() | set(SECTIONS))
    for section, keys in SECTIONS.items():
        if not isinstance(raw.get(section), dict):
            raise ConfigError(section, f"required object with {', '.join(keys)}")
        _reject_unknown(raw[section], keys, f"{section}.")

    values = {}
    for f in fields(ScenarioConfig):
        section = _SECTION_OF.get(f.name)
        path = f"{section}.{f.name}" if section else f.name
        holder = raw[section] if section else raw
        if f.name in holder:
            values[f.name] = _typed(path, holder[f.name], f.type)
        elif f.default is MISSING:
            raise ConfigError(path, "required field is missing")
        else:
            values[f.name] = f.default
    if scenario is not None:
        values["scenario"] = scenario
    if seed is not None:
        values["seed"] = _typed("--seed", seed, int)

    if values["scenario"] not in SCENARIOS:
        raise ConfigError("scenario", f"must be one of {', '.join(SCENARIOS)}, got {values['scenario']!r}")
    nodes = values["nodes"]
    if nodes > MAX_NODES:
        raise ConfigError("domain.nodes", f"must be <= {MAX_NODES}, got {nodes}")
    for name, items in (("gammas", "numbers"), ("probe_presets", "preset strings")):
        if not isinstance(values[name], (list, tuple)):
            raise ConfigError(name, f"must be a list of {items}")
    gammas = [_typed(f"gammas[{idx}]", g, float) for idx, g in enumerate(values["gammas"])]
    presets = [(f"probe_presets[{idx}]", text) for idx, text in enumerate(values["probe_presets"])]
    for name, text in [("source", values["source"]), ("target", values["target"]), *presets]:
        try:
            parse_profile(text)
        except ValueError as exc:
            raise ConfigError(name, str(exc)) from None
    values["probe_presets"] = tuple(values["probe_presets"])
    probes = values["probes"]
    if probes < 0:
        raise ConfigError("probes", f"must be >= 0, got {probes}")
    if probes * nodes > MAX_GRID_VALUES:
        limit = MAX_GRID_VALUES // nodes
        raise ConfigError("probes", f"must be <= {limit} at {nodes} nodes, got {probes}")
    if values["seed"] < 0:
        raise ConfigError("seed" if seed is None else "--seed", f"must be >= 0, got {values['seed']}")
    if values["out_dir"] is not None and not isinstance(values["out_dir"], str):
        raise ConfigError("out_dir", f"expected a string, got {values['out_dir']!r}")

    try:
        values["gammas"] = check_gammas(gammas)
        sc = ScenarioConfig(**values)
        sc.problem  # built here, so the library checks every range
    except ParameterError as exc:
        raise ConfigError(_JSON_PATHS.get(exc.field, exc.field), exc.reason) from None
    for name, text in presets:
        if not np.isfinite(spatial_profile(text, sc.problem.grid)).all():
            raise ConfigError(name, "must be finite on the grid")
    return sc


def load_scenario(config_path, scenario: str | None = None, seed: int | None = None) -> ScenarioConfig:
    try:
        with open(config_path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(config_path), f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(str(config_path), f"not valid JSON: {exc}") from None
    return parse_scenario(raw, scenario, seed)


def _format_rows(*columns) -> list[str]:
    """One CSV line of ``repr`` floats per row of the given columns, which
    are converted to Python floats at once."""
    return [",".join(map(repr, row)) for row in np.column_stack(columns).tolist()]


def _execute_solve(sc: ScenarioConfig, say) -> tuple[dict, dict, bool]:
    """Returns (metrics, CSV tables by name, success); so do the other two."""
    cfg = workspace(sc.problem)
    grid, tgrid = cfg.grid, cfg.tgrid
    say(f"solving at gamma={cfg.gamma:g} (n={grid.n}, M={tgrid.steps}, s={cfg.s:g})")
    bundle = solve_low_regret(cfg)
    residuals = optimality_residuals(bundle, cfg)
    control_norm = norm_q(bundle.control, grid, tgrid)
    scale = max(1.0, norm_q(bundle.state, grid, tgrid), norm_q(cfg.z_d, grid, tgrid), control_norm)
    xi0 = bundle.uncertainty_adjoint[0]
    say(
        f"done: {bundle.cg_iterations} CG iterations, objective {bundle.value:.6e}, "
        f"converged={bundle.converged}"
    )
    metrics = {
        "objective": bundle.value,
        "cg_iterations": bundle.cg_iterations,
        "cg_residual": bundle.cg_residual,
        "converged": bundle.converged,
        "residuals": residuals,
        "residual_scale": scale,
        "control_norm": control_norm,
        "xi0_norm": norm_omega(xi0, grid),
        "worst_datum_norm": norm_omega(bundle.worst_initial_datum, grid),
    }
    slices = sorted({1, tgrid.steps // 2, tgrid.steps})
    snapshots = ["x," + ",".join(f"control_t{tgrid.times[m]:g}" for m in slices)]
    snapshots += _format_rows(grid.nodes, *bundle.control[slices])
    worst = ["x,worst_initial_datum,uncertainty_trace"]
    worst += _format_rows(grid.nodes, bundle.worst_initial_datum, xi0)
    residual_lines = ["identity,residual"]
    for name in sorted(residuals):
        residual_lines.append(f"{name},{float(residuals[name])!r}")
    tables = {
        "control_snapshots": snapshots,
        "worst_datum": worst,
        "residuals": residual_lines,
    }
    finite = all(map(np.isfinite, [*residuals.values(), scale]))
    return metrics, tables, bundle.converged and finite


# scaled tolerances mirrored by the audit: identity name -> budget
AUDIT_TOLERANCES = {
    "transpose": 1e-12,
    "cost_decomposition": 1e-11,
    "duality": 1e-11,
    "fenchel_nonnegative": 1e-12,
    "fenchel_at_maximizer": 1e-12,
    "superposition": 1e-11,
}


# Bytes of one stacked trajectory in the audit: probes are marched in blocks
# of at most this many bytes per trajectory (13 probes at 40 x 30, one at
# 400 x 200), so the audit's memory does not grow with its probe count.
AUDIT_BLOCK_BYTES = 128 * 1024


def _max(a, b):
    """Python's ``max(a, b)`` per value: b only where it is greater than a."""
    return np.where(b > a, b, a)


def _execute_audit(sc: ScenarioConfig, say) -> tuple[dict, dict, bool]:
    cfg = workspace(sc.problem)
    grid, tgrid = cfg.grid, cfg.tgrid
    rng = np.random.default_rng(sc.seed)
    say(f"auditing identities on {sc.probes} random probes (seed {sc.seed})")

    preset_data = np.array([spatial_profile(text, grid) for text in sc.probe_presets])
    shape = (tgrid.steps + 1, grid.n)
    cut = tgrid.steps * grid.n  # values in one probe's v, a or b
    zero = np.zeros(grid.n)
    block = max(1, AUDIT_BLOCK_BYTES // (8 * shape[0] * shape[1]))
    # one bulk draw per block, into one buffer: each row is one probe's v, g,
    # a and b in turn, the stream order of one call per field
    buf = np.empty((min(block, sc.probes), 3 * cut + grid.n))
    rows = [buf[:min(block, sc.probes - start)] for start in range(0, sc.probes, block)]

    def take(k):
        v, a, b = (np.zeros((len(rows[k]),) + shape) for _ in range(3))
        for x, at in ((v, 0), (a, cut + grid.n), (b, 2 * cut + grid.n)):
            x[:, 1:] = rows[k][:, at:at + cut].reshape(x[:, 1:].shape)
        g = rows[k][:, cut:cut + grid.n].copy()
        if len(preset_data):
            g += preset_data.take(range(k * block, k * block + len(g)), axis=0, mode="wrap")
        return v, g, a, b

    columns = {name: [] for name in AUDIT_TOLERANCES}
    # the next block is drawn while this one is marched (evolution.run_ahead)
    with run_ahead(lambda k: rng.standard_normal(out=rows[k]), take, len(rows)) as blocks:
        for v, g, a, b in blocks:
            # the identity is linear: scale each a and b by a power of two,
            # which is exact, to about unit Q-norm, so that the norms below
            # cannot underflow; the power is half the exponent of the squared
            # norm, one dot product per probe (slice 0 is zero, so it runs
            # over all slices)
            for x in (a, b):
                flat = x.reshape(len(x), -1)
                _, exponent = np.frexp(grid.h * tgrid.dt * np.vecdot(flat, flat))
                np.ldexp(x, -(exponent[:, None, None] // 2), out=x)

            fa = solve_forward(cfg.propagator, a, zero)
            bb = solve_backward(cfg.propagator, b, zero)
            lhs = inner_product_q(fa, b, grid, tgrid)
            rhs = inner_product_q(a, bb, grid, tgrid)
            # scaled by the norms, not by the pairing, which can nearly cancel
            transpose = abs(lhs - rhs) / _max(
                norm_q(fa, grid, tgrid) * norm_q(b, grid, tgrid), np.finfo(float).tiny
            )

            probe = Probe(v, g, cfg)
            duality_scale = norm_omega(probe.g, grid) * norm_omega(probe.xi0, grid)
            gap_scale = _max(1.0, probe.sup_value)
            block_columns = {
                "transpose": transpose,
                "cost_decomposition": probe.decomposition_residual / _max(1.0, abs(probe.relaxed_cost)),
                "duality": probe.duality_residual / _max(1.0, duality_scale),
                "fenchel_nonnegative": _max(0.0, -(probe.fenchel_gap() / gap_scale)),
                "fenchel_at_maximizer": abs(probe.fenchel_gap(probe.xi0 / cfg.gamma)) / gap_scale,
                "superposition": probe.superposition_residual
                / _max(1.0, norm_q(probe.q_vg, grid, tgrid)),
            }
            for name, values in block_columns.items():
                columns[name].extend(values.tolist())

    identities = {}
    for name, tol in AUDIT_TOLERANCES.items():
        worst = max(columns[name], default=0.0)
        identities[name] = {"residual": worst, "tolerance": tol, "passed": bool(worst <= tol)}
        say(f"  {name}: worst scaled residual {worst:.3e} (budget {tol:g})")

    success = all(entry["passed"] for entry in identities.values())
    metrics = {"identities": identities, "probes": sc.probes, "seed": sc.seed}
    summary = ["identity,residual,tolerance,passed"]
    for name in sorted(identities):
        entry = identities[name]
        summary.append(
            f"{name},{float(entry['residual'])!r},{float(entry['tolerance'])!r},"
            f"{int(entry['passed'])}"
        )
    names = sorted(AUDIT_TOLERANCES)
    per_probe = ["probe," + ",".join(names)]
    rows = _format_rows(*(columns[n] for n in names))
    per_probe += [f"{k},{row}" for k, row in enumerate(rows)]
    tables = {"residuals": summary, "probe_residuals": per_probe}
    return metrics, tables, success


def _execute_sweep(sc: ScenarioConfig, say) -> tuple[dict, dict, bool]:
    cfg = workspace(sc.problem)
    grid, tgrid = cfg.grid, cfg.tgrid
    say(f"sweeping gamma over {list(sc.gammas)} (n={grid.n}, M={tgrid.steps})")

    def progress(g, bundle):
        say(
            f"  gamma={g:g}: {bundle.cg_iterations} CG iterations, "
            f"objective {bundle.value:.6e}, |xi(0)|={norm_omega(bundle.uncertainty_adjoint[0], grid):.3e}"
        )

    report = gamma_sweep(cfg, sc.gammas, callback=progress)

    rng = np.random.default_rng(sc.seed)
    terminal_xi0 = solve_uncertainty_adjoint(report.controls[-1], cfg)[0]
    g = rng.standard_normal((max(sc.probes, 1), grid.n))
    ratios = abs(inner_product_omega(g, terminal_xi0, grid)) / norm_omega(g, grid)
    membership = max([0.0] + ratios.tolist())
    say(f"fitted slope {report.slope:.3f}, membership bound {membership:.3e}")

    metrics = {
        "gammas": list(report.gammas),
        "xi0_norms": list(report.xi0_norms),
        "control_norms": list(report.control_norms),
        "objectives": list(report.values),
        "distances": list(report.distances),
        "cg_iterations": list(report.cg_iterations),
        "converged": list(report.converged),
        "fitted_slope": report.slope,
        "degenerate": report.degenerate,
        "distances_strictly_decreasing": all(
            b < a for a, b in zip(report.distances, report.distances[1:])
        ),
        "membership_bound": membership,
        "membership_probes": max(sc.probes, 1),
    }
    decay = ["gamma,xi0_norm,control_norm,objective,cg_iterations"]
    rows = _format_rows(report.gammas, report.xi0_norms, report.control_norms, report.values)
    decay += [f"{row},{its}" for row, its in zip(rows, report.cg_iterations)]
    distance = ["gamma_next,distance"]
    distance += _format_rows(report.gammas[1:], report.distances)
    snapshots = ["x," + ",".join(f"control_gamma{g:g}" for g in report.gammas)]
    snapshots += _format_rows(grid.nodes, *(c[tgrid.steps] for c in report.controls))
    tables = {
        "xi0_vs_gamma": decay,
        "control_distance": distance,
        "control_snapshots": snapshots,
    }
    return metrics, tables, all(report.converged)


def emit_plot_data(report: RunReport, out_dir) -> list[str]:
    """Write per-metric CSV files (column 1 abscissa) into the existing ``out_dir``."""
    paths = []
    for name, lines in report.tables.items():
        path = os.path.join(out_dir, f"{report.scenario}_{name}.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        paths.append(path)
    return paths


def write_report_files(report: RunReport, out_dir) -> list[str]:
    """Write report.json (deterministic) and timings.json (not compared).

    ``out_dir`` must exist; ``run_scenario`` creates it before computing.
    """
    report_path = os.path.join(out_dir, "report.json")
    payload = {
        "version": report.version,
        "scenario": report.scenario,
        "config": report.config,
        "config_digest": report.config_digest,
        "metrics": report.metrics,
        "success": report.success,
    }
    with open(report_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    timings_path = os.path.join(out_dir, "timings.json")
    with open(timings_path, "w") as fh:
        json.dump({"timings": report.timings}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [report_path, timings_path]


_EXECUTORS = {"solve": _execute_solve, "audit": _execute_audit, "sweep": _execute_sweep}


def execute_scenario(sc: ScenarioConfig, quiet: bool = True) -> RunReport:
    """Run a validated scenario in memory; no files are written."""
    say = (lambda *_: None) if quiet else (lambda msg: print(msg, flush=True))
    echo = sc.echo()
    digest = hashlib.sha256(
        json.dumps(echo, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    started = time.perf_counter()
    metrics, tables, success = _EXECUTORS[sc.scenario](sc, say)
    elapsed = time.perf_counter() - started
    return RunReport(
        scenario=sc.scenario,
        config=echo,
        config_digest=digest,
        version=__version__,
        metrics=metrics,
        success=success,
        timings={"scenario_seconds": elapsed},
        tables=tables,
    )


def resolve_out_dir(flag_value, sc: ScenarioConfig) -> tuple[str, str]:
    """The output directory and the setting it came from, named as in errors."""
    if flag_value:
        return flag_value, "--out"
    if sc.out_dir:
        return sc.out_dir, "out_dir"
    return os.path.join(os.environ.get("LOWREGRET_OUT", "."), sc.scenario), "LOWREGRET_OUT"


def run_scenario(
    config_path,
    scenario: str | None = None,
    out_dir=None,
    seed: int | None = None,
    quiet: bool = True,
) -> RunReport:
    """Load a config, execute its scenario, and persist report plus plot data.

    ``scenario`` and ``seed`` override the config file; the effective values
    are echoed in the report.  Raises ConfigError on invalid input, and on an
    output directory that cannot be created, before any computation.
    """
    sc = load_scenario(config_path, scenario, seed)
    target, origin = resolve_out_dir(out_dir, sc)
    try:
        os.makedirs(target, exist_ok=True)
    except OSError as exc:
        raise ConfigError(origin, f"cannot create output directory {target!r}: {exc}") from None
    report = execute_scenario(sc, quiet=quiet)
    paths = write_report_files(report, target)
    paths += emit_plot_data(report, target)
    if not quiet:
        for path in paths:
            print(f"wrote {path}", flush=True)
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowregret",
        description="Low-regret control experiments for fractional diffusion with unknown initial data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "execute the scenario named in the config"),
        ("audit", "check the functional identities on random probes"),
        ("sweep", "solve along the config's gamma sequence"),
        ("validate", "parse and validate the config, then exit"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("config", help="path to a scenario JSON file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            sc = load_scenario(args.config, seed=args.seed)
            # the output directory run would create, or refuse; none is created
            target, origin = resolve_out_dir(args.out, sc)
            path = os.path.abspath(target)
            while not os.path.lexists(path):  # the nearest existing ancestor
                path = os.path.dirname(path)
            writable = path == os.path.abspath(target) or os.access(path, os.W_OK | os.X_OK)
            if not (os.path.isdir(path) and writable):
                reason = f"{path!r} is not a writable directory"
                raise ConfigError(origin, f"cannot create output directory {target!r}: {reason}")
            if not args.quiet:
                print(json.dumps(sc.echo(), indent=2, sort_keys=True))
            return 0
        scenario = None if args.command == "run" else args.command
        report = run_scenario(
            args.config,
            scenario=scenario,
            out_dir=args.out,
            seed=args.seed,
            quiet=args.quiet,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # the library refused the validated scenario's numbers
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    if not report.success:
        print(f"{report.scenario} scenario failed its checks", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
