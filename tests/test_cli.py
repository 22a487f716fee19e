"""Scenario configs, profile presets, CLI subcommands, and report determinism."""

import csv
import json
import logging
import math
import os
import re
import tempfile
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lowregret as lr
from lowregret import ParameterError, build_grid, build_time_grid, cli, evolution, modal
from lowregret.cli import (
    MAX_GRID_VALUES,
    MAX_NODES,
    ConfigError,
    execute_scenario,
    load_scenario,
    main,
    parse_scenario,
    resolve_out_dir,
    run_scenario,
)
from lowregret.functional import check_parameters
from lowregret.optimizer import check_gammas
from lowregret.presets import parse_profile, space_time_field, spatial_profile

from conftest import composed_identities, count_calls, patch_everywhere, threads_started, traced_peak

AUDIT_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "audit.json")
SOLVE_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "solve.json")
SWEEP_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "sweep.json")


def config_dict(**overrides):
    raw = {
        "scenario": "solve",
        "domain": {"x_left": -1.0, "x_right": 1.0, "nodes": 12},
        "time": {"horizon": 1.0, "steps": 8},
        "s": 0.5,
        "control_weight": 0.1,
        "gamma": 0.01,
        "gammas": [1.0, 0.1, 0.01],
        "source": "gauss(0.2,0.25,0.7)",
        "target": "sine(1,0.4)",
        "probes": 4,
        "probe_presets": ["sine(2,0.5)"],
        "seed": 7,
    }
    raw.update(overrides)
    return raw


def benchmark_audit(probes=200):
    """The audit of ``perfbench``'s audit-probes at seed 0: 40 x 30 nodes
    and steps, gamma 1e-2 and the two shipped probe presets."""
    return parse_scenario(config_dict(
        scenario="audit", gamma=1e-2, probes=probes, seed=0,
        probe_presets=["gauss(-0.3,0.2,1.0)", "sine(2,0.5)"],
        domain={"x_left": -1.0, "x_right": 1.0, "nodes": 40}, time={"horizon": 1.0, "steps": 30},
    ))


def numeric_warnings(err):
    """The last line of ``err``, once every line before it, at least one, is
    a numpy warning as ``main`` shows it: ``warning: <message>``."""
    *warned, last = err.splitlines()
    assert warned
    assert all(re.fullmatch(r"warning: (overflow|invalid value) encountered in \w+", line) for line in warned)
    return last


def write_config(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestProfilePresets:
    def test_parse_accepts_the_three_shapes(self):
        assert parse_profile("zero") == ("zero",)
        assert parse_profile("gauss(0.2,0.25,0.7)") == ("gauss", 0.2, 0.25, 0.7)
        assert parse_profile("sine(2,0.5)") == ("sine", 2, 0.5)

    @pytest.mark.parametrize(
        "text",
        [
            "wiggle(1)", "gauss(0.2)", "gauss(0,0,1)", "sine(0,1)", "sine(-1,1)", "",
            "gauss(nan,0.2,1)", "sine(1,1e400)",
        ],
    )
    def test_parse_rejects_malformed_text(self, text):
        with pytest.raises(ValueError):
            parse_profile(text)

    def test_spatial_profiles_evaluate_on_the_grid(self):
        grid = build_grid(-1.0, 1.0, 15)
        assert np.array_equal(spatial_profile("zero", grid), np.zeros(15))
        gauss = spatial_profile("gauss(0.2,0.25,0.7)", grid)
        assert np.array_equal(
            gauss, 0.7 * np.exp(-(((grid.nodes - 0.2) / 0.25) ** 2))
        )
        sine = spatial_profile("sine(2,0.5)", grid)
        assert np.array_equal(
            sine, 0.5 * np.sin(2.0 * np.pi * (grid.nodes + 1.0) / 2.0)
        )

    def test_narrow_gauss_is_zero_off_its_centre_without_a_warning(self):
        # ((x - c)/w)^2 overflows to inf off the centre, and exp(-inf) = 0 is right
        grid = build_grid(-1.0, 1.0, 15)  # node 7 is x = 0
        expected = np.where(grid.nodes == 0.0, 2.0, 0.0)
        assert np.array_equal(spatial_profile("gauss(0,1e-300,2)", grid), expected)

    def test_space_time_field_tiles_all_slices(self):
        grid = build_grid(-1.0, 1.0, 9)
        tgrid = build_time_grid(1.0, 6)
        field = space_time_field("gauss(0,0.5,1)", grid, tgrid)
        assert field.shape == (7, 9)
        assert all(np.array_equal(field[m], field[0]) for m in range(7))


class TestParseScenario:
    def test_round_trip_of_a_valid_config(self):
        sc = parse_scenario(config_dict())
        assert sc.scenario == "solve"
        assert (sc.x_left, sc.x_right, sc.nodes) == (-1.0, 1.0, 12)
        assert (sc.horizon, sc.steps) == (1.0, 8)
        assert sc.gammas == (1.0, 0.1, 0.01)
        assert sc.probe_presets == ("sine(2,0.5)",)
        assert sc.seed == 7
        assert sc.out_dir is None
        assert sc.cg_tol == 1e-12 and sc.cg_max_iters == 5000

    def test_defaults_fill_in_optional_fields(self):
        raw = config_dict()
        for key in ("scenario", "gammas", "source", "target", "probes", "probe_presets", "seed"):
            raw.pop(key)
        sc = parse_scenario(raw)
        assert sc.scenario == "solve" and sc.source == "zero" and sc.seed == 0
        assert sc.probes == 5 and len(sc.gammas) == 5

    @pytest.mark.parametrize(
        "mutate,prefix",
        [
            (lambda r: r.pop("s"), "s:"),
            (lambda r: r.update(extra=1), "extra:"),
            (lambda r: r["domain"].update(slack=2), "domain.slack:"),
            (lambda r: r["domain"].update(nodes=10.5), "domain.nodes:"),
            (lambda r: r["domain"].update(nodes=0), "domain.nodes:"),
            (lambda r: r["domain"].update(x_right=-2.0), "domain.x_right:"),
            (lambda r: r["time"].update(horizon=0.0), "time.horizon:"),
            (lambda r: r.update(scenario="probe"), "scenario:"),
            (lambda r: r.update(s=1.5), "s:"),
            (lambda r: r.update(control_weight=0), "control_weight:"),
            (lambda r: r.update(gamma=True), "gamma:"),
            (lambda r: r.update(gammas=[0.5]), "gammas:"),
            (lambda r: r.update(gammas=[0.5, 0.5]), "gammas:"),
            (lambda r: r.update(gammas=[0.5, -0.1]), "gammas[1]:"),
            (lambda r: r.update(source="wiggle(1)"), "source:"),
            (lambda r: r.update(target="gauss(nan,0.2,1)"), "target: non-finite parameter"),
            (lambda r: r.update(probe_presets=["gauss(0,0.1,1)", "nope"]), "probe_presets[1]:"),
            (lambda r: r.update(probes=-1), "probes:"),
            (lambda r: r.update(out_dir=17), "out_dir:"),
            (lambda r: r.update(cg_tol=0.0), "cg_tol:"),
            (lambda r: r.update(cg_max_iters=0), "cg_max_iters:"),
            (lambda r: r.update(gammas=[1.0, float("nan")]), "gammas[1]: must be a finite float"),
            (lambda r: r.update(gamma=float("inf")), "gamma: must be a finite float"),
            (lambda r: r.update(gamma=10**400), "gamma: must be a finite float, got 1000"),
            (lambda r: r.update(control_weight=float("inf")), "control_weight: must be a finite float"),
            (lambda r: r.update(cg_tol=float("inf")), "cg_tol: must be a finite float"),
            (lambda r: r["time"].update(horizon=float("inf")), "time.horizon: must be a finite float"),
            (lambda r: r.update(seed=-1), "seed:"),
            # k*pi*(x - x_l) overflows, so the preset's values are NaN
            (lambda r: r.update(source="sine(1e308,1)"), "source: must be finite"),
            (lambda r: r.update(target="sine(1e308,1)"), "target: must be finite"),
            (lambda r: r.update(probe_presets=["zero", "sine(1e308,1)"]), "probe_presets[1]: must be finite"),
            (lambda r: r["domain"].update(nodes=20000), "domain.nodes: must be <= 5000"),
            (lambda r: r["time"].update(steps=10**12), "time.steps: must be <= 833332 at 12 nodes"),
        ],
    )
    def test_errors_name_the_offending_field(self, mutate, prefix):
        raw = config_dict()
        mutate(raw)
        with pytest.raises(ConfigError) as err:
            parse_scenario(raw)
        assert str(err.value).startswith(prefix)

    @pytest.mark.parametrize("nodes", [800, MAX_NODES])
    def test_node_ceiling_admits_large_grids(self, nodes):
        raw = config_dict()
        raw["domain"]["nodes"] = nodes
        assert parse_scenario(raw).nodes == nodes

    def test_grid_value_ceiling_admits_grids_up_to_it(self):
        raw = config_dict()
        raw["domain"]["nodes"] = MAX_NODES
        raw["time"]["steps"] = MAX_GRID_VALUES // MAX_NODES - 1
        assert parse_scenario(raw).steps == 1999
        raw["time"]["steps"] += 1
        with pytest.raises(ConfigError, match="^time.steps: must be <= 1999 at 5000 nodes"):
            parse_scenario(raw)

    @pytest.mark.parametrize(
        "path,bad,check,field",
        [
            ("domain.x_left", math.nan, lambda v: build_grid(v, 1.0, 12), "x_l"),
            ("domain.x_right", -2.0, lambda v: build_grid(-1.0, v, 12), "x_r"),
            ("domain.nodes", 0, lambda v: build_grid(-1.0, 1.0, v), "n"),
            ("time.horizon", math.inf, lambda v: build_time_grid(v, 8), "horizon"),
            ("time.steps", -3, lambda v: build_time_grid(1.0, v), "steps"),
            ("s", 1.0, lambda v: check_parameters(v, 0.1, 0.01, 1e-12, 5000), "s"),
            ("control_weight", -0.5, lambda v: check_parameters(0.5, v, 0.01, 1e-12, 5000),
             "control_weight"),
            ("gamma", 0.0, lambda v: check_parameters(0.5, 0.1, v, 1e-12, 5000), "gamma"),
            ("cg_tol", math.inf, lambda v: check_parameters(0.5, 0.1, 0.01, v, 5000), "cg_tol"),
            ("cg_max_iters", 0, lambda v: check_parameters(0.5, 0.1, 0.01, 1e-12, v),
             "cg_max_iters"),
            ("gammas", [1.0], check_gammas, "gammas"),
            ("gammas", [1.0, 0.1, 0.1], check_gammas, "gammas"),
            ("gammas[1]", [1.0, math.nan, 0.01], check_gammas, "gammas[1]"),
        ],
    )
    def test_library_reason_is_reported_under_the_json_path(self, path, bad, check, field):
        # the parser leaves these ranges to the library and only renames the field
        with pytest.raises(ParameterError) as lib:
            check(bad)
        assert lib.value.field == field
        raw = config_dict()
        section, _, key = path.partition("[")[0].rpartition(".")
        (raw[section] if section else raw)[key] = bad
        with pytest.raises(ConfigError) as err:
            parse_scenario(raw)
        assert str(err.value) == f"{path}: {lib.value.reason}"

    def test_zero_gamma_message_is_specific(self):
        raw = config_dict(gamma=0.0)
        with pytest.raises(ConfigError) as err:
            parse_scenario(raw)
        assert str(err.value) == "gamma: must be positive, got 0.0"

    def test_probe_ceiling_admits_probes_up_to_it(self):
        # the sweep draws its membership probes as one (probes, nodes) array
        assert parse_scenario(config_dict(probes=MAX_GRID_VALUES // 12)).probes == 833333
        with pytest.raises(ConfigError, match="^probes: must be <= 833333 at 12 nodes, got 833334$"):
            parse_scenario(config_dict(probes=MAX_GRID_VALUES // 12 + 1))

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ConfigError):
            parse_scenario([1, 2, 3])


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NOT_POSITIVE = NON_FINITE | st.floats(max_value=0.0)

# field -> values that must be rejected; integer fields get non-finite floats too
BAD_VALUES = {
    "s": NOT_POSITIVE | st.floats(min_value=1.0),
    "control_weight": NOT_POSITIVE,
    "gamma": NOT_POSITIVE,
    "cg_tol": NOT_POSITIVE,
    "time.horizon": NOT_POSITIVE,
    "domain.nodes": NON_FINITE | st.integers(max_value=0) | st.integers(min_value=MAX_NODES + 1),
    "time.steps": NON_FINITE | st.integers(max_value=0) | st.integers(min_value=MAX_GRID_VALUES),
    "seed": NON_FINITE | st.integers(max_value=-1),
    "probes": NON_FINITE | st.integers(max_value=-1) | st.integers(min_value=MAX_GRID_VALUES // 12 + 1),
}


class TestParserProperties:
    @pytest.mark.parametrize("name", [*sorted(BAD_VALUES), "gammas[i]"])
    @given(data=st.data())
    def test_bad_numbers_are_rejected_with_the_field_named(self, name, data):
        raw = config_dict()
        if name == "gammas[i]":
            idx = data.draw(st.integers(0, len(raw["gammas"]) - 1))
            raw["gammas"][idx] = data.draw(NOT_POSITIVE)
            name = f"gammas[{idx}]"
        else:
            section, _, key = name.rpartition(".")
            (raw[section] if section else raw)[key] = data.draw(BAD_VALUES[name])
        with pytest.raises(ConfigError) as err:
            parse_scenario(raw)
        assert str(err.value).startswith(f"{name}: ")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scenario.json")
            with open(path, "w") as fh:
                json.dump(raw, fh)
            assert main(["validate", path, "--quiet"]) == 2


class TestLoadScenario:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_scenario(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(path)


class TestOutDirResolution:
    def test_flag_beats_config_beats_environment(self, monkeypatch):
        sc = parse_scenario(config_dict(out_dir="from_config"))
        monkeypatch.setenv("LOWREGRET_OUT", "from_env")
        assert resolve_out_dir("from_flag", sc) == ("from_flag", "--out")
        assert resolve_out_dir(None, sc) == ("from_config", "out_dir")
        bare = parse_scenario(config_dict())
        assert resolve_out_dir(None, bare) == (os.path.join("from_env", "solve"), "LOWREGRET_OUT")

    def test_only_none_is_unset(self, monkeypatch):
        monkeypatch.setenv("LOWREGRET_OUT", "from_env")
        for flag, out_dir, origin in (("", "from_config", "--out"), (None, "", "out_dir"), ("", "", "--out")):
            with pytest.raises(ConfigError) as info:
                resolve_out_dir(flag, parse_scenario(config_dict(out_dir=out_dir)))
            assert (info.value.field, info.value.reason) == (origin, "must not be empty")

    @pytest.mark.parametrize("command", ["run", "audit", "sweep", "validate"])
    @pytest.mark.parametrize("origin", ["--out", "out_dir"])
    def test_an_empty_directory_exits_two_and_creates_nothing(self, monkeypatch, tmp_path, capsys, command, origin):
        # "--out $OUT" with OUT unset once wrote into ./<scenario>
        (tmp_path / "config").mkdir()
        path = write_config(tmp_path / "config", config_dict(out_dir="" if origin == "out_dir" else None))
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        monkeypatch.delenv("LOWREGRET_OUT", raising=False)

        def must_not_run(*args, **kwargs):
            raise AssertionError("scenario executed before the output check")

        monkeypatch.setattr(cli, "execute_scenario", must_not_run)
        flag = ["--out", ""] if origin == "--out" else []
        assert main([command, path, *flag, "--quiet"]) == 2
        assert capsys.readouterr().err == f"config error: {origin}: must not be empty\n"
        assert list((tmp_path / "work").iterdir()) == []


class TestValidateCommand:
    def test_valid_config_exits_zero_and_echoes(self, tmp_path, capsys):
        path = write_config(tmp_path, config_dict())
        assert main(["validate", path]) == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["scenario"] == "solve"
        assert echoed["domain"]["nodes"] == 12

    def test_quiet_validate_prints_nothing(self, tmp_path, capsys):
        path = write_config(tmp_path, config_dict())
        assert main(["validate", path, "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, config_dict(gamma=0.0))
        assert main(["validate", path]) == 2
        assert "config error: gamma:" in capsys.readouterr().err

    @pytest.mark.parametrize("origin", ["--out", "out_dir", "LOWREGRET_OUT"])
    def test_refuses_the_output_directory_run_refuses(self, monkeypatch, tmp_path, capsys, origin):
        # a directory under a regular file cannot be created; validate names
        # the setting it came from, as run does, and creates nothing
        (tmp_path / "plain").write_text("")
        target = str(tmp_path / "plain" / "out")
        path = write_config(tmp_path, config_dict(out_dir=target if origin == "out_dir" else None))
        flag = ["--out", target] if origin == "--out" else []
        monkeypatch.setenv("LOWREGRET_OUT", target if origin == "LOWREGRET_OUT" else str(tmp_path / "env"))
        before = sorted(tmp_path.rglob("*"))
        for command in ("validate", "run"):
            assert main([command, path, *flag, "--quiet"]) == 2
            assert capsys.readouterr().err.startswith(f"config error: {origin}: cannot create output directory")
        assert sorted(tmp_path.rglob("*")) == before

    def test_accepts_a_directory_run_can_create_and_creates_nothing(self, monkeypatch, tmp_path):
        path = write_config(tmp_path, config_dict())
        before = sorted(tmp_path.rglob("*"))
        for out in (tmp_path / "new" / "deeper", tmp_path):
            assert main(["validate", path, "--out", str(out), "--quiet"]) == 0
        assert sorted(tmp_path.rglob("*")) == before
        # a new directory needs an existing ancestor that takes a file, as
        # run's os.makedirs needs a writable one; an existing one must take
        # a file itself
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli.tempfile, "NamedTemporaryFile", refuse)
        assert main(["validate", path, "--out", str(tmp_path / "new"), "--quiet"]) == 2
        assert main(["validate", path, "--out", str(tmp_path), "--quiet"]) == 2


class TestRunCommand:
    def test_solve_writes_report_and_plot_data(self, tmp_path):
        path = write_config(tmp_path, config_dict())
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"] == "solve"
        assert report["success"] is True
        assert report["metrics"]["converged"] is True
        assert report["metrics"]["objective"] <= 0.0
        assert len(report["config_digest"]) == 64
        assert "out_dir" not in report["config"]
        for name in (
            "timings.json",
            "solve_control_snapshots.csv",
            "solve_worst_datum.csv",
            "solve_residuals.csv",
        ):
            assert (out / name).exists(), name

    def test_reports_are_byte_identical_across_reruns(self, tmp_path):
        path = write_config(tmp_path, config_dict())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", path, "--out", str(a), "--quiet"]) == 0
        assert main(["run", path, "--out", str(b), "--quiet"]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        for name in os.listdir(a):
            if name.endswith(".csv"):
                assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_override_changes_the_digest(self, tmp_path):
        path = write_config(tmp_path, config_dict())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", path, "--out", str(a), "--quiet"]) == 0
        assert main(["run", path, "--out", str(b), "--seed", "99", "--quiet"]) == 0
        ra = json.loads((a / "report.json").read_text())
        rb = json.loads((b / "report.json").read_text())
        assert ra["config_digest"] != rb["config_digest"]
        assert rb["config"]["seed"] == 99

    def test_environment_fallback_for_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOWREGRET_OUT", str(tmp_path / "env_out"))
        path = write_config(tmp_path, config_dict())
        assert main(["run", path, "--quiet"]) == 0
        assert (tmp_path / "env_out" / "solve" / "report.json").exists()

    def test_unconverged_solve_exits_three(self, tmp_path, capsys):
        # an unreachable tolerance: the refined solve meets 1e-12 in one step
        path = write_config(tmp_path, config_dict(cg_max_iters=1, cg_tol=1e-30))
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--quiet"]) == 3
        assert "failed its checks" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["success"] is False

    def test_config_error_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, config_dict(gamma=-1.0))
        assert main(["run", path, "--quiet"]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_unusable_grid_spacing_exits_two(self, tmp_path, capsys):
        raw = config_dict()
        raw["domain"].update(x_left=0.0, x_right=1e-200)  # h*h underflows to zero
        assert main(["run", write_config(tmp_path, raw), "--quiet"]) == 2
        assert "config error: domain.x_right: gives spacing h" in capsys.readouterr().err

    def test_vanishing_time_step_exits_two(self, tmp_path, capsys):
        raw = config_dict()
        raw["time"]["horizon"] = 5e-324  # dt = horizon / steps underflows to zero
        assert main(["run", write_config(tmp_path, raw), "--quiet"]) == 2
        assert "config error: time.horizon: gives time step dt = 0.0" in capsys.readouterr().err

    def test_overflowing_modal_factors_exit_two(self, tmp_path, capsys):
        # dt = 2.5e-161 passes the time grid, but control_weight/dt^2 overflows:
        # validate, which builds the problem, refuses it as run does, before
        # any directory is created
        with open(SOLVE_CONFIG) as fh:
            raw = json.load(fh)
        raw["time"] = {"horizon": 1e-160, "steps": 4}
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        for argv in (["validate", path], ["run", path, "--out", str(out)]):
            assert main([*argv, "--quiet"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: time.horizon: gives time step dt = 2.5e-161;")
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["solve", "sweep"])
    @pytest.mark.parametrize("amplitude", ["1e154", "1e160"])
    @pytest.mark.parametrize("field,preset", [("source", "gauss(0,0.3,{})"), ("target", "sine(1,{})")])
    def test_overflowing_data_exits_two(self, tmp_path, capsys, scenario, amplitude, field, preset):
        # every value of the field is finite, but its Q-norm overflows: the
        # objective would be NaN, so the run is refused before it solves, and
        # validate, which builds the same problem, refuses it too
        path = write_config(tmp_path, config_dict(scenario=scenario, **{field: preset.format(amplitude)}))
        out = tmp_path / "out"
        for argv in (["validate", path], ["run", path, "--out", str(out)]):
            assert main([*argv, "--quiet"]) == 2
            err = capsys.readouterr().err
            assert err == f"config error: {field}: its Q-norm overflows the float range\n"
        assert not out.exists()

    def test_overflowing_residuals_exit_three(self, tmp_path, capsys):
        # the solve converges, but the equation residuals of the first-order system overflow
        with open(SOLVE_CONFIG) as fh:
            raw = json.load(fh)
        raw["time"] = {"horizon": 1e300, "steps": 30}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert main(["run", write_config(tmp_path, raw), "--out", str(out), "--quiet"]) == 3
        assert numeric_warnings(capsys.readouterr().err) == "solve scenario failed its checks"
        report = json.loads((out / "report.json").read_text())
        assert report["success"] is False

    @pytest.mark.parametrize("gamma, code", [(1e-8, 0), (1e-12, 3)])
    def test_residuals_over_budget_exit_three(self, tmp_path, capsys, gamma, code):
        # both solves converge; at gamma = 1e-12 the stationarity residual is
        # about 1e-8 of residual_scale, over cli.RESIDUAL_BUDGET
        with open(SOLVE_CONFIG) as fh:
            raw = json.load(fh)
        raw["gamma"] = gamma
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, raw), "--out", str(out), "--quiet"]) == code
        report = json.loads((out / "report.json").read_text())
        metrics = report["metrics"]
        worst = max(metrics["residuals"].values()) / metrics["residual_scale"]
        assert metrics["converged"] is True
        assert report["success"] is (code == 0) is (worst <= cli.RESIDUAL_BUDGET)
        assert ("failed its checks" in capsys.readouterr().err) is (code == 3)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_one_node_and_one_step_solve(self, tmp_path, command):
        raw = config_dict()
        raw["domain"]["nodes"] = 1
        raw["time"]["steps"] = 1
        path = write_config(tmp_path, raw)
        assert main([command, path, "--out", str(tmp_path / "out"), "--quiet"]) == 0

    @pytest.mark.parametrize("gamma, message", [
        (1e-310, "run failed: source slices 1..M must be finite"),  # a sweep's source overflows
        (1e-300, "solve scenario failed its checks"),  # the refinement stalls, unconverged
    ], ids=["overflow", "stall"])
    def test_library_refusal_exits_three(self, tmp_path, capsys, gamma, message):
        # the parser accepts both values
        path = write_config(tmp_path, config_dict(gamma=gamma))
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 3
        assert numeric_warnings(capsys.readouterr().err) == message

    @pytest.mark.parametrize("origin", ["--out", "out_dir", "LOWREGRET_OUT"])
    def test_unwritable_output_exits_two_before_computing(
        self, tmp_path, capsys, monkeypatch, origin
    ):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        bad = str(blocker / "out")  # its parent is a regular file
        raw, argv = config_dict(), []
        if origin == "--out":
            argv = ["--out", bad]
        elif origin == "out_dir":
            raw["out_dir"] = bad
        else:
            monkeypatch.setenv("LOWREGRET_OUT", bad)

        def must_not_run(*args, **kwargs):
            raise AssertionError("scenario executed before the output check")

        monkeypatch.setattr(cli, "execute_scenario", must_not_run)
        path = write_config(tmp_path, raw)
        assert main(["run", path, "--quiet", *argv]) == 2
        assert f"config error: {origin}: cannot create output directory" in capsys.readouterr().err

    @staticmethod
    def _aimed_at(tmp_path, monkeypatch, origin, target):
        """(config, extra argv) whose output directory ``origin`` resolves to
        ``target``; LOWREGRET_OUT reaches it through a link named after the
        scenario."""
        raw, argv = config_dict(), []
        if origin == "--out":
            argv = ["--out", target]
        elif origin == "out_dir":
            raw["out_dir"] = target
        else:
            (tmp_path / "env").mkdir()
            (tmp_path / "env" / "solve").symlink_to(target)
            monkeypatch.setenv("LOWREGRET_OUT", str(tmp_path / "env"))
        return write_config(tmp_path, raw), argv

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs a Linux /proc")
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("origin", ["--out", "out_dir", "LOWREGRET_OUT"])
    def test_an_existing_directory_that_takes_no_files_exits_two_before_computing(
        self, tmp_path, capsys, monkeypatch, command, origin
    ):
        # /proc/self is a directory, and creating a file in it fails
        path, argv = self._aimed_at(tmp_path, monkeypatch, origin, "/proc/self")

        def must_not_run(*args, **kwargs):
            raise AssertionError("scenario executed before the output check")

        monkeypatch.setattr(cli, "execute_scenario", must_not_run)
        assert main([command, path, "--quiet", *argv]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {origin}: cannot write into output directory ")

    @pytest.mark.parametrize("origin", ["--out", "out_dir", "LOWREGRET_OUT"])
    def test_a_report_that_cannot_be_written_exits_two(self, tmp_path, capsys, monkeypatch, origin):
        out = tmp_path / "out"
        out.mkdir()
        path, argv = self._aimed_at(tmp_path, monkeypatch, origin, str(out))

        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_report_files", full_disk)
        assert main(["run", path, "--quiet", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {origin}: cannot write the report into ")
        assert "No space left on device" in err

    def test_the_probe_leaves_no_file(self, tmp_path):
        path = write_config(tmp_path, config_dict())
        out = tmp_path / "out"
        out.mkdir()
        assert main(["validate", path, "--out", str(out), "--quiet"]) == 0
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["validate", "run", "audit"])
    def test_negative_seed_flag_exits_two(self, tmp_path, capsys, command):
        path = write_config(tmp_path, config_dict())
        assert main([command, path, "--seed", "-1", "--quiet"]) == 2
        assert "config error: --seed: must be >= 0, got -1" in capsys.readouterr().err

    def test_validate_echoes_the_seed_flag(self, capsys):
        assert main(["validate", SOLVE_CONFIG, "--seed", "7"]) == 0  # the config's seed is 42
        assert json.loads(capsys.readouterr().out)["seed"] == 7

    @pytest.mark.parametrize(
        "override,field",
        [({"scenario": "bogus"}, "scenario"), ({"seed": 1.5}, "--seed"), ({"seed": True}, "--seed")],
    )
    def test_bad_override_is_rejected_before_the_output_directory(self, tmp_path, override, field):
        path = write_config(tmp_path, config_dict())
        out = tmp_path / "out"
        with pytest.raises(ConfigError) as info:
            run_scenario(path, out_dir=str(out), **override)
        assert info.value.field == field
        assert not out.exists()

    def test_solve_with_all_zero_data_writes_a_readable_report(self, tmp_path):
        raw = config_dict()
        del raw["source"], raw["target"]
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["success"] is True
        assert report["metrics"]["objective"] == 0.0


class TestAuditCommand:
    def test_audit_passes_and_writes_residual_tables(self, tmp_path):
        path = write_config(tmp_path, config_dict())
        out = tmp_path / "out"
        assert main(["audit", path, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"] == "audit"
        identities = report["metrics"]["identities"]
        assert set(identities) == {
            "transpose",
            "cost_decomposition",
            "duality",
            "fenchel_nonnegative",
            "fenchel_at_maximizer",
            "superposition",
        }
        assert all(entry["passed"] for entry in identities.values())

        lines = (out / "audit_residuals.csv").read_text().splitlines()
        assert lines[0] == "identity,residual,tolerance,passed"
        assert len(lines) == 1 + len(identities)

        probe_lines = (out / "audit_probe_residuals.csv").read_text().splitlines()
        assert len(probe_lines) == 1 + report["metrics"]["probes"]

    @pytest.mark.parametrize("cpus", [1, 2])  # the draws inline, or ahead where a block allows
    def test_zero_probe_audit_writes_an_empty_probe_table(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: cpus)
        path = write_config(tmp_path, config_dict(probes=0))
        out = tmp_path / "out"
        assert main(["audit", path, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["probes"] == 0
        assert report["metrics"]["identities"] == {
            name: {"residual": 0.0, "tolerance": tol, "passed": True}
            for name, tol in cli.AUDIT_TOLERANCES.items()
        }
        probe_lines = (out / "audit_probe_residuals.csv").read_text().splitlines()
        assert probe_lines == ["probe," + ",".join(sorted(cli.AUDIT_TOLERANCES))]

    def test_audit_whose_scale_hits_the_floor_writes_its_report(self, tmp_path):
        # on a domain of width 1e-150 some transpose scale falls below the
        # float floor, so that residual is a numpy float; its verdict must
        # still be written as a JSON boolean
        raw = config_dict()
        raw["domain"].update(x_left=0.0, x_right=1e-150)
        out = tmp_path / "out"
        code = main(["audit", write_config(tmp_path, raw), "--out", str(out), "--quiet"])
        report = json.loads((out / "report.json").read_text())
        assert code == (0 if report["success"] else 3)
        assert all(type(e["passed"]) is bool for e in report["metrics"]["identities"].values())

    def test_audit_on_a_tiny_domain_passes(self, tmp_path):
        # on (0, 1e-150) the product of the Q-norms of a and b underflowed and
        # a one-ulp transpose defect read 4.7e-10; a and b are now scaled to
        # about unit Q-norm by powers of two, which leaves the identity exact
        with open(SOLVE_CONFIG) as fh:
            raw = json.load(fh)
        raw["domain"].update(x_left=0.0, x_right=1e-150, nodes=12)
        raw["time"]["steps"] = 8
        out = tmp_path / "out"
        assert main(["audit", write_config(tmp_path, raw), "--out", str(out), "--quiet"]) == 0
        identities = json.loads((out / "report.json").read_text())["metrics"]["identities"]
        assert identities["transpose"]["residual"] <= 1e-15

    def test_transpose_defect_is_scaled_by_norms(self, tmp_path):
        # at seed 134 probe 19's pairing nearly cancels; dividing the defect
        # by its value read 1.5e-12, above the 1e-12 budget
        out = tmp_path / "out"
        assert main(["audit", AUDIT_CONFIG, "--seed", "134", "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["identities"]["transpose"]["residual"] <= 1e-15


    @staticmethod
    def count_sweeps(monkeypatch):
        """Patch both sweeps to count calls and swept right-hand sides: a
        stacked call sweeps one per stack entry, the product of its result's
        stack dimensions."""
        swept = {"solve_forward": 0, "solve_backward": 0}
        calls = dict.fromkeys(swept, 0)
        for name in swept:
            def wrap(original, _name=name):
                def counted(*args, **kwargs):
                    out = original(*args, **kwargs)
                    calls[_name] += 1
                    swept[_name] += math.prod(out.shape[:-2])
                    return out
                return counted
            patch_everywhere(monkeypatch, evolution, name, wrap)
        return swept, calls

    @pytest.mark.parametrize("probes", [1, 4, 7])
    def test_each_probe_costs_five_forward_and_two_backward_sweeps(self, monkeypatch, probes):
        swept, calls = self.count_sweeps(monkeypatch)
        execute_scenario(parse_scenario(config_dict(scenario="audit", probes=probes)))
        # one forward sweep builds the background state q(0,0)
        assert swept == {"solve_forward": 1 + 5 * probes, "solve_backward": 2 * probes}
        # on the 12 x 8 grid every probe fits one block, which shares each call
        assert calls == {"solve_forward": 1 + 5, "solve_backward": 2}

    def test_probes_past_one_block_cost_the_same_sweeps(self, monkeypatch):
        swept, calls = self.count_sweeps(monkeypatch)
        monkeypatch.setattr(cli, "AUDIT_BLOCK_BYTES", 3 * 8 * 9 * 12)  # 3 probes at 12 x 8
        execute_scenario(parse_scenario(config_dict(scenario="audit", probes=7)))
        assert swept == {"solve_forward": 1 + 5 * 7, "solve_backward": 2 * 7}
        assert calls == {"solve_forward": 1 + 5 * 3, "solve_backward": 2 * 3}

    def test_reports_do_not_depend_on_the_block_size(self, monkeypatch):
        raw = config_dict(scenario="audit", probes=7, probe_presets=["sine(2,0.5)", "gauss(0,0.3,1)"])
        blocked = execute_scenario(parse_scenario(raw))
        monkeypatch.setattr(cli, "AUDIT_BLOCK_BYTES", 1)  # one probe per block
        single = execute_scenario(parse_scenario(raw))
        assert (single.metrics, single.tables) == (blocked.metrics, blocked.tables)

    @staticmethod
    def record_draws(monkeypatch, fail_at=None):
        """Give the audit a generator that keeps, for each block it draws, a
        copy of the block and whether it was drawn on the main thread; draw
        ``fail_at`` raises instead."""
        draws, default_rng = [], np.random.default_rng

        class Recording:
            def __init__(self, seed):
                self.draw = default_rng(seed).standard_normal

            def standard_normal(self, out):
                on_main = threading.current_thread() is threading.main_thread()
                if len(draws) == fail_at:
                    draws.append((on_main, None))
                    raise ValueError(f"draw of block {fail_at} failed")
                draws.append((on_main, self.draw(out=out).copy()))
                return out

        monkeypatch.setattr(cli.np.random, "default_rng", Recording)
        return draws

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_block_draws_equal_the_per_probe_draws(self, monkeypatch, cpus):
        # one bulk draw per block, each row a probe's v, g, a and b, gives the
        # bits of drawing each field of each probe in turn
        presets = ["sine(2,0.5)", "gauss(0,0.3,1)"]
        sc = parse_scenario(config_dict(scenario="audit", probes=8, probe_presets=presets))
        grid, tgrid = sc.problem.grid, sc.problem.tgrid
        preset_data = [spatial_profile(text, grid) for text in presets]
        rng = np.random.default_rng(sc.seed)
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(cli, "AUDIT_BLOCK_BYTES", 3 * 8 * 9 * 12)  # 3 probes at 12 x 8
        draws, probes, probe = self.record_draws(monkeypatch), [], cli.Probe
        monkeypatch.setattr(cli, "Probe", lambda v, g, cfg: probes.append((v.copy(), g.copy())) or probe(v, g, cfg))
        assert execute_scenario(sc).success
        assert [len(block) for _, block in draws] == [3, 3, 2]
        assert [on_main for on_main, _ in draws] == [True] + [cpus == 1] * 2
        rows = np.concatenate([block for _, block in draws])
        vs, gs = (np.concatenate(x) for x in zip(*probes))
        for k, row in enumerate(rows):
            expected = {}
            for name in ("v", "g", "a", "b"):
                expected[name] = rng.standard_normal(grid.n if name == "g" else (tgrid.steps, grid.n))
            assert np.array_equal(row, np.concatenate([expected[name].ravel() for name in "vgab"]))
            assert np.array_equal(vs[k][1:], expected["v"]) and not vs[k][0].any()
            assert np.array_equal(gs[k], expected["g"] + preset_data[k % len(preset_data)])

    def test_reports_do_not_depend_on_the_drawing_route(self, monkeypatch):
        raw = config_dict(scenario="audit", probes=7, probe_presets=["sine(2,0.5)", "gauss(0,0.3,1)"])
        reports = {}
        for route in ("ahead", "inline", "single"):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli, "AUDIT_BLOCK_BYTES", 1 if route == "single" else 2 * 8 * 9 * 12)
                mp.setattr(evolution, "_usable_cpus", lambda: 1 if route == "inline" else 2)
                report = execute_scenario(parse_scenario(raw))
            reports[route] = report.metrics, report.tables
        assert reports["ahead"] == reports["inline"] == reports["single"]

    def test_no_thread_outlives_an_audit_run(self, monkeypatch, tmp_path):
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 2)
        draws = self.record_draws(monkeypatch)
        threads = threading.active_count()
        assert run_scenario(AUDIT_CONFIG, scenario="audit", out_dir=str(tmp_path / "out")).success
        assert threading.active_count() == threads
        assert [on_main for on_main, _ in draws] == [True, False]  # configs/audit.json drew ahead

    @pytest.mark.parametrize("failing", ["sweep", "draw"])
    def test_an_error_in_block_2_reaches_main_as_exit_3(self, monkeypatch, tmp_path, capsys, failing):
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "AUDIT_BLOCK_BYTES", 2 * 8 * 9 * 12)  # 2 probes at 12 x 8
        draws = self.record_draws(monkeypatch, fail_at=1 if failing == "draw" else None)
        backward, calls = cli.solve_backward, []

        def failing_in_block_2(*args):
            calls.append(len(calls))
            if len(calls) == 2:
                raise ValueError("backward trajectory must be finite")
            return backward(*args)

        if failing == "sweep":
            monkeypatch.setattr(cli, "solve_backward", failing_in_block_2)
        threads = threading.active_count()
        path = write_config(tmp_path, config_dict(probes=7))
        assert main(["audit", path, "--out", str(tmp_path / "out"), "--quiet"]) == 3
        assert threading.active_count() == threads
        err = capsys.readouterr().err
        if failing == "sweep":
            assert "run failed: backward trajectory must be finite" in err
            assert len(calls) == 2
        else:
            assert "run failed: draw of block 1 failed" in err
            assert draws[1] == (False, None)  # raised on the thread, reported by main

    def test_probe_columns_equal_the_composed_oracle(self, tmp_path):
        out = tmp_path / "out"
        run_scenario(AUDIT_CONFIG, out_dir=str(out))
        with open(out / "audit_probe_residuals.csv") as fh:
            rows = list(csv.DictReader(fh))
        sc = load_scenario(AUDIT_CONFIG)
        cfg = sc.problem
        grid, tgrid = cfg.grid, cfg.tgrid
        zero = np.zeros(grid.n)
        presets = [spatial_profile(text, grid) for text in sc.probe_presets]
        rng = np.random.default_rng(sc.seed)

        def draw_space_time():
            field = lr.zeros_space_time(grid, tgrid)
            field[1:] = rng.standard_normal((tgrid.steps, grid.n))
            return field

        for k, row in enumerate(rows[:8]):
            v = draw_space_time()
            g = rng.standard_normal(grid.n) + presets[k % len(presets)]
            a, b = draw_space_time(), draw_space_time()
            fa, bb = lr.solve_forward(cfg.propagator, a, zero), lr.solve_backward(cfg.propagator, b, zero)
            transpose = abs(lr.inner_product_q(fa, b, grid, tgrid) - lr.inner_product_q(a, bb, grid, tgrid)) / max(
                lr.norm_q(fa, grid, tgrid) * lr.norm_q(b, grid, tgrid), np.finfo(float).tiny
            )
            ref = composed_identities(v, g, cfg)
            xi0 = ref["xi0"]
            gap_scale = max(1.0, lr.inner_product_omega(xi0, xi0, grid) / cfg.gamma)
            expected = {
                "transpose": transpose,
                "cost_decomposition": ref["cost_decomposition"] / max(1.0, abs(ref["relaxed_cost"])),
                "duality": ref["duality"] / max(1.0, lr.norm_omega(g, grid) * lr.norm_omega(xi0, grid)),
                "fenchel_nonnegative": max(0.0, -(ref["fenchel_gap"] / gap_scale)),
                "fenchel_at_maximizer": abs(ref["fenchel_gap_at_maximizer"]) / gap_scale,
                "superposition": ref["superposition"] / max(1.0, ref["q_vg_norm"]),
            }
            assert int(row.pop("probe")) == k
            assert {name: float(text) for name, text in row.items()} == expected


class TestSweepBudget:
    """The sweeps, eigendecompositions and modal factorizations a solve and
    a gamma sweep cost, by the counts the benchmark's traced self-check
    encodes: one forward sweep for the background state q(0,0); per solve,
    one for the right-hand side and eight after CG (five for the first-order
    system, three for the objective); four per H-apply, one H-apply per CG
    iteration and per warm start; and two for the sweep's terminal adjoint."""

    def run(self, monkeypatch, config):
        sweeps = count_calls(monkeypatch, evolution, ("solve_forward", "solve_backward"))
        factors = count_calls(monkeypatch, evolution, ("step_factor",))
        modes = count_calls(monkeypatch, modal, ("NormalModes",))
        report = execute_scenario(load_scenario(config))
        assert report.success
        assert factors == {"step_factor": 1}
        assert modes == {"NormalModes": 1}
        return sum(sweeps.values()), report.metrics["cg_iterations"]

    def test_solve(self, monkeypatch):
        sweeps, iterations = self.run(monkeypatch, SOLVE_CONFIG)
        assert sweeps == 1 + 1 + 8 + 4 * iterations

    def test_gamma_sweep(self, monkeypatch):
        sweeps, iterations = self.run(monkeypatch, SWEEP_CONFIG)
        assert len(iterations) == 5
        assert sweeps == 1 + 5 * (1 + 8) + 4 * (sum(iterations) + 4) + 2


class TestPairedRoutes:
    """From ``evolution.PAIR_NODES`` nodes the eigendecomposition's odd half
    runs on a short-lived thread (``evolution.second_thread``) while the even
    half runs here; each is the same LAPACK call on the same operands either
    way."""

    @staticmethod
    def use(monkeypatch, route):
        """Pair at every size on two CPUs ("paired"), want the pair at every
        size on one CPU ("sequential"), or pair nowhere ("ungated")."""
        monkeypatch.setattr(evolution, "PAIR_NODES", 10**9 if route == "ungated" else 1)
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 1 if route == "sequential" else 2)

    def test_routes_are_bit_identical(self, tmp_path):
        path = write_config(tmp_path, config_dict(
            domain={"x_left": -1.0, "x_right": 1.0, "nodes": 41}, time={"horizon": 1.0, "steps": 12},
        ))
        matrix = lr.assemble_operator(build_grid(-1.0, 1.0, 41), 0.5).matrix
        results = {}
        for route in ("paired", "sequential", "ungated"):
            with pytest.MonkeyPatch.context() as mp:
                self.use(mp, route)
                halves = evolution.centrosymmetric_eigh(matrix)
                cfg = load_scenario(path).problem
                residuals = lr.optimality_residuals(lr.solve_low_regret(cfg))
                out = tmp_path / route
                assert main(["run", path, "--out", str(out), "--quiet"]) == 0
            files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "timings.json"}
            results[route] = halves, residuals, files
        paired = results.pop("paired")
        for halves, residuals, files in results.values():
            assert all(np.array_equal(a, b) for a, b in zip(halves, paired[0]))
            assert residuals == paired[1]
            assert files == paired[2] and "report.json" in files

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_no_thread_outlives_a_run_above_the_gate(self, monkeypatch, tmp_path, cpus):
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: cpus)
        started = threads_started(monkeypatch)
        path = write_config(tmp_path, config_dict(
            domain={"x_left": -1.0, "x_right": 1.0, "nodes": evolution.PAIR_NODES},
            time={"horizon": 1.0, "steps": 20},
        ))
        threads = threading.active_count()
        assert run_scenario(path, out_dir=str(tmp_path / "out")).success
        assert threading.active_count() == threads
        assert started == ["lowregret-second"] * (cpus == 2)

    def test_only_the_400_node_benchmark_workload_pairs(self, monkeypatch):
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 2)
        started = threads_started(monkeypatch)
        for scenario, nodes, steps in (("sweep", 120, 60), ("audit", 40, 30), ("solve", 400, 200)):
            execute_scenario(parse_scenario(config_dict(
                scenario=scenario,
                domain={"x_left": -1.0, "x_right": 1.0, "nodes": nodes},
                time={"horizon": 1.0, "steps": steps},
            )))
        assert started == ["lowregret-second"]  # the audit's 4 probes are one block

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_the_benchmark_audit_starts_one_thread_for_all_its_blocks(self, monkeypatch, cpus):
        # audit-probes' size at seed 0: 200 probes at 40 x 30 are 11 blocks,
        # whose 10 draws ahead share one thread, not one thread each
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: cpus)
        started = threads_started(monkeypatch)
        sc = benchmark_audit()
        assert -(-sc.probes // (cli.AUDIT_BLOCK_BYTES // (8 * 31 * 40))) == 11
        assert execute_scenario(sc).success
        assert started == ["lowregret-second"] * (cpus == 2)

    def test_an_error_on_the_thread_reaches_the_cli_as_exit_3(self, monkeypatch, tmp_path, capsys):
        eigh, raised = evolution._symmetric_eigh, []

        def failing_off_the_main_thread(block):
            if threading.current_thread() is threading.main_thread():
                return eigh(block)
            raised.append(len(block))
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(evolution, "_symmetric_eigh", failing_off_the_main_thread)
        self.use(monkeypatch, "paired")
        threads = threading.active_count()
        assert main(["run", write_config(tmp_path, config_dict()), "--out", str(tmp_path / "out"), "--quiet"]) == 3
        assert raised == [6]  # the odd half of 12 nodes
        assert threading.active_count() == threads
        assert "did not converge" in capsys.readouterr().err


class TestSolveMemory:
    def test_a_benchmark_sized_solve_peaks_below_sixteen_fields(self, tmp_path):
        # 400 x 200, as perfbench's solve-fine: before the modal factors were
        # freed ahead of the residuals, the control adjoint swept in place and
        # the H-apply's last product written into its spent source, the
        # peak was 16.13 fields; without any one of the three, 16.0-16.1
        with open(SOLVE_CONFIG) as fh:
            raw = json.load(fh)
        raw["domain"]["nodes"], raw["time"]["steps"] = 400, 200
        path = write_config(tmp_path, raw)
        execute_scenario(load_scenario(path))  # first-call allocations stay out of the peak
        peak = traced_peak(lambda: execute_scenario(load_scenario(path)))
        assert peak / (201 * 400 * 8) <= 15.8


class TestAuditMemory:
    @staticmethod
    def peaks(*probes):
        """The tracemalloc peak of ``benchmark_audit`` at each probe count,
        first-call allocations left out."""
        execute_scenario(benchmark_audit(1))
        peaks = {}
        for count in probes:
            sc = benchmark_audit(count)
            tracemalloc.start()
            try:
                execute_scenario(sc)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return peaks

    def test_peak_does_not_grow_with_the_probe_count(self):
        # probes are marched in blocks of a fixed byte budget, so ten times
        # the probes at 40 x 30 reach the same peak
        peaks = self.peaks(20, 200)
        assert abs(peaks[200] - peaks[20]) <= 0.5e6
        assert max(peaks.values()) < 4e6

    def test_the_benchmark_audit_peaks_no_higher_with_larger_blocks(self, monkeypatch):
        # audit-probes' size: 200 probes in 19-probe blocks, each field freed
        # at its last reader, peak at about 1.962e6 bytes.  13-probe blocks
        # that kept a block's fields until the next block replaced them
        # peaked at 2,031,550 bytes or more (2 CPUs, numpy 2.4), and so did
        # 19-probe blocks that kept the previous block's probe alive
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 2)
        assert self.peaks(200)[200] <= 2_031_550


class TestSweepCommand:
    def test_sweep_reports_continuation_metrics(self, tmp_path):
        path = write_config(tmp_path, config_dict())
        out = tmp_path / "out"
        assert main(["sweep", path, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"] == "sweep"
        metrics = report["metrics"]
        assert metrics["gammas"] == [1.0, 0.1, 0.01]
        assert len(metrics["xi0_norms"]) == 3
        assert len(metrics["distances"]) == 2
        assert metrics["fitted_slope"] > 0.0
        assert all(metrics["converged"])

        lines = (out / "sweep_xi0_vs_gamma.csv").read_text().splitlines()
        assert lines[0] == "gamma,xi0_norm,control_norm,objective,cg_iterations"
        assert len(lines) == 4
        assert len((out / "sweep_control_distance.csv").read_text().splitlines()) == 3
        assert (out / "sweep_control_snapshots.csv").exists()

    def test_sweep_does_not_depend_on_gamma(self, tmp_path):
        # the problem is built at gamma, but every stage solves at its own
        out = {}
        for gamma in (1.0, 0.37):
            path = write_config(tmp_path, config_dict(scenario="sweep", gamma=gamma), f"{gamma}.json")
            out[gamma] = tmp_path / str(gamma)
            assert main(["run", path, "--out", str(out[gamma]), "--quiet"]) == 0
        a, b = (json.loads((out[g] / "report.json").read_text()) for g in (1.0, 0.37))
        assert a["metrics"] == b["metrics"]
        assert a["config_digest"] != b["config_digest"]
        names = sorted(name for name in os.listdir(out[1.0]) if name.endswith(".csv"))
        assert names == sorted(name for name in os.listdir(out[0.37]) if name.endswith(".csv"))
        for name in names:
            assert (out[1.0] / name).read_bytes() == (out[0.37] / name).read_bytes(), name


def test_run_scenario_function_returns_the_report(tmp_path):
    path = write_config(tmp_path, config_dict())
    report = run_scenario(path, out_dir=str(tmp_path / "out"))
    assert report.scenario == "solve"
    assert report.success
    assert set(report.timings) == {"scenario_seconds"}


@pytest.mark.parametrize("settings", [
    {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": None},
    {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None},
    {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "4"},
], ids=["some set", "none set", "all set"])
def test_timings_name_the_blas_and_its_thread_settings(tmp_path, monkeypatch, settings):
    for name, value in settings.items():
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    out = tmp_path / "out"
    report = run_scenario(write_config(tmp_path, config_dict()), out_dir=str(out))
    timings = json.loads((out / "timings.json").read_text())
    blas = timings["blas"]
    assert timings == {"timings": report.timings, "blas": blas}
    assert blas == {"name": blas["name"], "version": blas["version"], **settings}
    # numpy's wheels name an OpenBLAS build and its dotted version
    assert isinstance(blas["name"], str) and "blas" in blas["name"].lower()
    assert isinstance(blas["version"], str) and blas["version"][:1].isdigit() and "." in blas["version"]
    assert "blas" not in (out / "report.json").read_text()


class TestProgressOutput:
    """Progress lines are the INFO records of the ``lowregret`` logger, which
    ``main`` writes to stdout unless ``--quiet``."""

    @pytest.mark.parametrize("command, config", [
        ("run", SOLVE_CONFIG), ("audit", AUDIT_CONFIG), ("sweep", SWEEP_CONFIG),
    ])
    def test_one_line_per_stage_and_per_file(self, tmp_path, capsys, command, config):
        with open(config) as fh:
            gammas = json.load(fh).get("gammas", ())
        stages = {
            "run": ["solving", "done"],
            "audit": ["auditing", *(f"  {name}:" for name in cli.AUDIT_TOLERANCES)],
            "sweep": ["sweeping", *(f"  gamma={g:g}:" for g in gammas), "fitted"],
        }[command]
        out = tmp_path / "out"
        assert main([command, config, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        files = sorted(os.listdir(out))
        assert len(lines) == len(stages) + len(files)
        assert all(line.startswith(stage) for line, stage in zip(lines, stages))
        assert sorted(lines[len(stages):]) == [f"wrote {out / name}" for name in files]

    @pytest.mark.parametrize("command, config", [
        ("run", SOLVE_CONFIG), ("audit", AUDIT_CONFIG), ("sweep", SWEEP_CONFIG),
    ])
    def test_quiet_prints_nothing(self, tmp_path, capsys, command, config):
        assert main([command, config, "--out", str(tmp_path / "out"), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("quiet", [[], ["--quiet"]], ids=["loud", "quiet"])
    @pytest.mark.parametrize("gamma, code", [(0.01, 0), (0.0, 2), (1e-300, 3)])
    def test_no_handler_outlives_main(self, tmp_path, capsys, quiet, gamma, code):
        logger = logging.getLogger("lowregret")
        before = list(logger.handlers), logger.level
        path = write_config(tmp_path, config_dict(gamma=gamma))
        with warnings.catch_warnings():  # which restores showwarning on its own exit
            warnings.simplefilter("ignore", RuntimeWarning)  # gamma = 1e-300 overflows
            shown = warnings.showwarning
            assert main(["run", path, "--out", str(tmp_path / "out"), *quiet]) == code
            assert warnings.showwarning is shown
        assert (list(logger.handlers), logger.level) == before


def strict_json(text):
    """``text`` parsed as JSON (RFC 8259), which has no NaN or Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestStrictReports:
    """A non-finite metric is written as null, so every report is JSON."""

    def test_zero_data_sweep_has_a_null_slope(self, tmp_path):
        with open(SWEEP_CONFIG) as fh:
            raw = json.load(fh)
        raw["source"] = raw["target"] = "zero"
        out = tmp_path / "out"
        assert main(["sweep", write_config(tmp_path, raw), "--out", str(out), "--quiet"]) == 0
        metrics = strict_json((out / "report.json").read_text())["metrics"]
        assert metrics["degenerate"] is True and metrics["fitted_slope"] is None
        strict_json((out / "timings.json").read_text())

    def test_overflowing_solve_has_null_norms(self, tmp_path, capsys):
        with open(SOLVE_CONFIG) as fh:
            raw = json.load(fh)
        raw["gamma"] = 1e-300
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert main(["run", write_config(tmp_path, raw), "--out", str(out), "--quiet"]) == 3
        assert numeric_warnings(capsys.readouterr().err) == "solve scenario failed its checks"
        metrics = strict_json((out / "report.json").read_text())["metrics"]
        nulls = [metrics["cg_residual"], metrics["worst_datum_norm"]]
        nulls += [metrics["residuals"][name] for name in ("control_adjoint", "stationarity")]
        assert nulls == [None] * 4
        strict_json((out / "timings.json").read_text())
