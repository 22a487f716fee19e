"""Experiment runner: JSON scenario configs in, deterministic reports out.

Subcommands: ``run`` (executes the scenario named in the config), ``audit``
(identity checks on random probes), ``sweep`` (continuation over gamma) and
``validate`` (parse and check the config, no solve).  Every run writes
``report.json`` plus per-metric CSV plot data into the output directory;
wall-clock timings go to a separate ``timings.json`` so that reports from
identical config and seed are byte-identical.

Output directory resolution: ``--out`` flag, else the config's ``out_dir``
field, else ``$LOWREGRET_OUT/<scenario>`` (current directory when the
variable is unset).  Exit codes: 0 success, 2 configuration error, 3
scenario failure (non-convergence or an identity check out of tolerance).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .evolution import superposition_residual
from .functional import (
    RegretConfig,
    check_parameters,
    cost_decomposition_residual,
    duality_residual,
    fenchel_gap,
    relaxed_cost,
    solve_uncertainty_adjoint,
    workspace,
)
from .grids import (
    ParameterError,
    SpatialGrid,
    TimeGrid,
    build_grid,
    build_time_grid,
    inner_product_omega,
    inner_product_q,
    norm_omega,
    norm_q,
    zeros_space_time,
)
from .optimizer import (
    DEFAULT_SWEEP_GAMMAS, check_gammas, gamma_sweep, optimality_residuals, solve_low_regret
)
from .presets import parse_profile, space_time_field, spatial_profile

SCENARIOS = ("solve", "audit", "sweep")

# Ceiling on domain.nodes: assembly holds several dense n x n float arrays,
# 200 MB each at this size.
MAX_NODES = 5000
# Ceiling on nodes x (steps + 1): every space-time field (source, target,
# each sweep's trajectory) holds that many floats, 80 MB each at this size.
MAX_GRID_VALUES = 10**7

# JSON objects that group ScenarioConfig fields: section -> its keys
SECTIONS = {"domain": ("x_left", "x_right", "nodes"), "time": ("horizon", "steps")}

# library parameter name -> JSON path, where the two differ
_JSON_PATHS = {
    "x_l": "domain.x_left", "x_r": "domain.x_right", "n": "domain.nodes",
    "horizon": "time.horizon", "steps": "time.steps",
}


class ConfigError(ParameterError):
    """Configuration problem; the message starts with the offending field."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description (one JSON file)."""

    scenario: str
    x_left: float
    x_right: float
    nodes: int
    horizon: float
    steps: int
    s: float
    control_weight: float
    gamma: float
    gammas: tuple[float, ...]
    source: str
    target: str
    probes: int
    probe_presets: tuple[str, ...]
    seed: int
    out_dir: str | None
    cg_tol: float
    cg_max_iters: int

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


def _field(raw: dict, key: str, expect, path: str, default=...):
    if key not in raw:
        if default is ...:
            raise ConfigError(f"{path}{key}", "required field is missing")
        return default
    return _typed(f"{path}{key}", raw[key], expect)


def _reject_unknown(raw: dict, known, path: str = "") -> None:
    for key in raw:
        if key not in known:
            raise ConfigError(f"{path}{key}", "unknown field")


def parse_scenario(raw: dict) -> ScenarioConfig:
    """Build the scenario from a parsed JSON document.

    The library checks the ranges of the problem's numbers; its
    ParameterError is reported under the field's JSON path.
    """
    if not isinstance(raw, dict):
        raise ConfigError("<config>", "top level must be a JSON object")
    nested = {key for keys in SECTIONS.values() for key in keys}
    _reject_unknown(raw, {f.name for f in fields(ScenarioConfig)} - nested | set(SECTIONS))

    scenario = _field(raw, "scenario", str, "", default="solve")
    if scenario not in SCENARIOS:
        raise ConfigError("scenario", f"must be one of {', '.join(SCENARIOS)}, got {scenario!r}")

    for section, keys in SECTIONS.items():
        if not isinstance(raw.get(section), dict):
            raise ConfigError(section, f"required object with {', '.join(keys)}")
        _reject_unknown(raw[section], keys, f"{section}.")
    x_left = _field(raw["domain"], "x_left", float, "domain.")
    x_right = _field(raw["domain"], "x_right", float, "domain.")
    nodes = _field(raw["domain"], "nodes", int, "domain.")
    if nodes > MAX_NODES:
        raise ConfigError("domain.nodes", f"must be <= {MAX_NODES}, got {nodes}")
    horizon = _field(raw["time"], "horizon", float, "time.")
    steps = _field(raw["time"], "steps", int, "time.")

    s = _field(raw, "s", float, "")
    control_weight = _field(raw, "control_weight", float, "")
    gamma = _field(raw, "gamma", float, "")
    gammas_raw = raw.get("gammas", list(DEFAULT_SWEEP_GAMMAS))
    if not isinstance(gammas_raw, list):
        raise ConfigError("gammas", "must be a list of numbers")
    gammas = [_typed(f"gammas[{idx}]", g, float) for idx, g in enumerate(gammas_raw)]

    source = _field(raw, "source", str, "", default="zero")
    target = _field(raw, "target", str, "", default="zero")
    presets_raw = raw.get("probe_presets", [])
    if not isinstance(presets_raw, list):
        raise ConfigError("probe_presets", "must be a list of preset strings")
    presets = [(f"probe_presets[{idx}]", text) for idx, text in enumerate(presets_raw)]
    for field_name, text in [("source", source), ("target", target), *presets]:
        try:
            parse_profile(text)
        except ValueError as exc:
            raise ConfigError(field_name, str(exc)) from None

    probes = _field(raw, "probes", int, "", default=5)
    if probes < 0:
        raise ConfigError("probes", f"must be >= 0, got {probes}")

    seed = _field(raw, "seed", int, "", default=0)
    if seed < 0:
        raise ConfigError("seed", f"must be >= 0, got {seed}")
    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("out_dir", f"expected a string, got {out_dir!r}")
    cg_tol = _field(raw, "cg_tol", float, "", default=1e-12)
    cg_max_iters = _field(raw, "cg_max_iters", int, "", default=5000)

    try:
        build_grid(x_left, x_right, nodes)
        if nodes * (steps + 1) > MAX_GRID_VALUES:
            limit = MAX_GRID_VALUES // nodes - 1
            raise ParameterError("steps", f"must be <= {limit} at {nodes} nodes, got {steps}")
        build_time_grid(horizon, steps)
        check_parameters(s, control_weight, gamma, cg_tol, cg_max_iters)
        gammas = check_gammas(gammas)
    except ParameterError as exc:
        raise ConfigError(_JSON_PATHS.get(exc.field, exc.field), exc.reason) from None

    return ScenarioConfig(
        scenario=scenario,
        x_left=x_left,
        x_right=x_right,
        nodes=nodes,
        horizon=horizon,
        steps=steps,
        s=s,
        control_weight=control_weight,
        gamma=gamma,
        gammas=gammas,
        source=source,
        target=target,
        probes=probes,
        probe_presets=tuple(str(t) for t in presets_raw),
        seed=seed,
        out_dir=out_dir,
        cg_tol=cg_tol,
        cg_max_iters=cg_max_iters,
    )


def load_scenario(config_path) -> ScenarioConfig:
    try:
        with open(config_path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(config_path), f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(str(config_path), f"not valid JSON: {exc}") from None
    return parse_scenario(raw)


def _build_problem(sc: ScenarioConfig, gamma: float):
    grid = build_grid(sc.x_left, sc.x_right, sc.nodes)
    tgrid = build_time_grid(sc.horizon, sc.steps)
    cfg = RegretConfig(
        s=sc.s,
        control_weight=sc.control_weight,
        gamma=gamma,
        f=space_time_field(sc.source, grid, tgrid),
        z_d=space_time_field(sc.target, grid, tgrid),
        grid=grid,
        tgrid=tgrid,
        cg_tol=sc.cg_tol,
        cg_max_iters=sc.cg_max_iters,
    )
    return grid, tgrid, cfg


def _random_space_time(rng, grid: SpatialGrid, tgrid: TimeGrid) -> np.ndarray:
    field = zeros_space_time(grid, tgrid)
    field[1:] = rng.standard_normal((tgrid.steps, grid.n))
    return field


def _format_row(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _execute_solve(sc: ScenarioConfig, say) -> tuple[dict, dict, bool]:
    """Returns (metrics, CSV tables by name, success); so do the other two."""
    grid, tgrid, cfg = _build_problem(sc, sc.gamma)
    say(f"solving at gamma={cfg.gamma:g} (n={grid.n}, M={tgrid.steps}, s={cfg.s:g})")
    bundle = solve_low_regret(cfg)
    residuals = optimality_residuals(bundle, cfg)
    scale = max(
        1.0,
        norm_q(bundle.state, grid, tgrid),
        norm_q(cfg.z_d, grid, tgrid),
        norm_q(bundle.control, grid, tgrid),
    )
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
        "control_norm": norm_q(bundle.control, grid, tgrid),
        "xi0_norm": norm_omega(xi0, grid),
        "worst_datum_norm": norm_omega(bundle.worst_initial_datum, grid),
    }
    slices = sorted({1, tgrid.steps // 2, tgrid.steps})
    snapshots = ["x," + ",".join(f"control_t{tgrid.times[m]:g}" for m in slices)]
    for i in range(grid.n):
        snapshots.append(_format_row([grid.nodes[i]] + [bundle.control[m, i] for m in slices]))
    worst = ["x,worst_initial_datum,uncertainty_trace"]
    for i in range(grid.n):
        worst.append(_format_row([grid.nodes[i], bundle.worst_initial_datum[i], xi0[i]]))
    residual_lines = ["identity,residual"]
    for name in sorted(residuals):
        residual_lines.append(f"{name},{float(residuals[name])!r}")
    tables = {
        "control_snapshots": snapshots,
        "worst_datum": worst,
        "residuals": residual_lines,
    }
    return metrics, tables, bundle.converged


# scaled tolerances mirrored by the audit: identity name -> budget
AUDIT_TOLERANCES = {
    "transpose": 1e-12,
    "cost_decomposition": 1e-11,
    "duality": 1e-11,
    "fenchel_nonnegative": 1e-12,
    "fenchel_at_maximizer": 1e-12,
    "superposition": 1e-11,
}


def _execute_audit(sc: ScenarioConfig, say) -> tuple[dict, dict, bool]:
    grid, tgrid, cfg = _build_problem(sc, sc.gamma)
    ws = workspace(cfg)
    rng = np.random.default_rng(sc.seed)
    say(f"auditing identities on {sc.probes} random probes (seed {sc.seed})")

    preset_data = [spatial_profile(text, grid) for text in sc.probe_presets]
    rows = []
    for k in range(sc.probes):
        v = _random_space_time(rng, grid, tgrid)
        g = rng.standard_normal(grid.n)
        if preset_data:
            g = g + preset_data[k % len(preset_data)]

        a = _random_space_time(rng, grid, tgrid)
        b = _random_space_time(rng, grid, tgrid)
        fa = ws.forward(a, ws.zero_g)
        bb = ws.backward(b, ws.zero_g)
        lhs = inner_product_q(fa, b, grid, tgrid)
        rhs = inner_product_q(a, bb, grid, tgrid)
        # scaled by the norms, not by the pairing, which can nearly cancel
        transpose = abs(lhs - rhs) / max(
            norm_q(fa, grid, tgrid) * norm_q(b, grid, tgrid), np.finfo(float).tiny
        )

        decomposition = cost_decomposition_residual(v, g, cfg) / max(
            1.0, abs(relaxed_cost(v, g, cfg))
        )
        xi0 = solve_uncertainty_adjoint(v, cfg).initial_value
        duality = duality_residual(v, g, cfg) / max(
            1.0, norm_omega(g, grid) * norm_omega(xi0, grid)
        )
        gap_scale = max(1.0, inner_product_omega(xi0, xi0, grid) / cfg.gamma)
        gap = fenchel_gap(v, g, cfg) / gap_scale
        gap_at_max = abs(fenchel_gap(v, xi0 / cfg.gamma, cfg)) / gap_scale
        superpos = superposition_residual(ws.operator, tgrid, cfg.f, v, g, ws.factor)
        q_vg = ws.forward(cfg.f + v, g)
        superpos = superpos / max(1.0, norm_q(q_vg, grid, tgrid))
        rows.append(
            {
                "transpose": transpose,
                "cost_decomposition": decomposition,
                "duality": duality,
                "fenchel_nonnegative": max(0.0, -gap),
                "fenchel_at_maximizer": gap_at_max,
                "superposition": superpos,
            }
        )

    identities = {}
    for name, tol in AUDIT_TOLERANCES.items():
        worst = max((row[name] for row in rows), default=0.0)
        identities[name] = {"residual": worst, "tolerance": tol, "passed": worst <= tol}
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
    for k, row in enumerate(rows):
        per_probe.append(str(k) + "," + _format_row([row[n] for n in names]))
    tables = {"residuals": summary, "probe_residuals": per_probe}
    return metrics, tables, success


def _execute_sweep(sc: ScenarioConfig, say) -> tuple[dict, dict, bool]:
    grid, tgrid, cfg = _build_problem(sc, sc.gammas[0])
    say(f"sweeping gamma over {list(sc.gammas)} (n={grid.n}, M={tgrid.steps})")

    def progress(g, bundle):
        say(
            f"  gamma={g:g}: {bundle.cg_iterations} CG iterations, "
            f"objective {bundle.value:.6e}, |xi(0)|={norm_omega(bundle.uncertainty_adjoint[0], grid):.3e}"
        )

    report = gamma_sweep(cfg, sc.gammas, callback=progress)

    rng = np.random.default_rng(sc.seed)
    terminal_xi0 = solve_uncertainty_adjoint(report.controls[-1], cfg).initial_value
    membership = 0.0
    for _ in range(max(sc.probes, 1)):
        g = rng.standard_normal(grid.n)
        membership = max(
            membership,
            abs(inner_product_omega(g, terminal_xi0, grid)) / norm_omega(g, grid),
        )
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
    for k, g in enumerate(report.gammas):
        decay.append(
            _format_row([g, report.xi0_norms[k], report.control_norms[k], report.values[k]])
            + f",{report.cg_iterations[k]}"
        )
    distance = ["gamma_next,distance"]
    for k, d in enumerate(report.distances):
        distance.append(_format_row([report.gammas[k + 1], d]))
    snapshots = ["x," + ",".join(f"control_gamma{g:g}" for g in report.gammas)]
    for i in range(grid.n):
        snapshots.append(
            _format_row([grid.nodes[i]] + [c[tgrid.steps, i] for c in report.controls])
        )
    tables = {
        "xi0_vs_gamma": decay,
        "control_distance": distance,
        "control_snapshots": snapshots,
    }
    return metrics, tables, all(report.converged)


def emit_plot_data(report: RunReport, out_dir) -> list[str]:
    """Write per-metric CSV files (column 1 abscissa) for one report."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, lines in report.tables.items():
        path = os.path.join(out_dir, f"{report.scenario}_{name}.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        paths.append(path)
    return paths


def write_report_files(report: RunReport, out_dir) -> list[str]:
    """Write report.json (deterministic) and timings.json (not compared)."""
    os.makedirs(out_dir, exist_ok=True)
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


def _out_dir_and_origin(flag_value, sc: ScenarioConfig) -> tuple[str, str]:
    if flag_value:
        return flag_value, "--out"
    if sc.out_dir:
        return sc.out_dir, "out_dir"
    return os.path.join(os.environ.get("LOWREGRET_OUT", "."), sc.scenario), "LOWREGRET_OUT"


def resolve_out_dir(flag_value, sc: ScenarioConfig) -> str:
    return _out_dir_and_origin(flag_value, sc)[0]


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
    sc = load_scenario(config_path)
    updates = {}
    if scenario is not None:
        updates["scenario"] = scenario
    if seed is not None:
        if seed < 0:
            raise ConfigError("--seed", f"must be >= 0, got {seed}")
        updates["seed"] = seed
    if updates:
        sc = replace(sc, **updates)
    target, origin = _out_dir_and_origin(out_dir, sc)
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
            sc = load_scenario(args.config)
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
    if not report.success:
        print(f"{report.scenario} scenario failed its checks", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
