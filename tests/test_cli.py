"""Scenario configs, profile presets, CLI subcommands, and report determinism."""

import csv
import json
import math
import os
import tempfile
import threading
import tracemalloc

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

from conftest import composed_identities, count_calls, patch_everywhere

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
        # an existing directory need not be writable to pass, as for run's
        # os.makedirs; a new one needs a writable ancestor
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        assert main(["validate", path, "--out", str(tmp_path), "--quiet"]) == 0
        assert main(["validate", path, "--out", str(tmp_path / "new"), "--quiet"]) == 2


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
        # an unreachable tolerance: the preconditioned solve meets 1e-12 in one step
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
        # CG converges, but the equation residuals of the first-order system overflow
        with open(SOLVE_CONFIG) as fh:
            raw = json.load(fh)
        raw["time"] = {"horizon": 1e300, "steps": 30}
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning):
            assert main(["run", write_config(tmp_path, raw), "--out", str(out), "--quiet"]) == 3
        assert "failed its checks" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["success"] is False

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_one_node_and_one_step_solve(self, tmp_path, command):
        raw = config_dict()
        raw["domain"]["nodes"] = 1
        raw["time"]["steps"] = 1
        path = write_config(tmp_path, raw)
        assert main([command, path, "--out", str(tmp_path / "out"), "--quiet"]) == 0

    def test_library_refusal_exits_three(self, tmp_path, capsys):
        # the parser accepts gamma = 1e-300, but a sweep's source overflows
        path = write_config(tmp_path, config_dict(gamma=1e-300))
        with pytest.warns(RuntimeWarning):
            assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 3
        assert "run failed: source slices 1..M must be finite" in capsys.readouterr().err

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
    def record_blocks(monkeypatch, fail_fill_at=None):
        """Wrap ``cli.run_ahead`` to keep a copy of each block's unpacked v, g,
        a and b and whether each fill ran on the main thread; a fill of block
        ``fail_fill_at`` raises instead."""
        blocks, fills_on_main = [], []
        run_ahead = cli.run_ahead

        def recording(fill, take, count):
            def checked_fill(k):
                fills_on_main.append(threading.current_thread() is threading.main_thread())
                if k == fail_fill_at:
                    raise ValueError(f"draw of block {k} failed")
                return fill(k)

            def copied_take(k):
                fields = take(k)
                blocks.append([x.copy() for x in fields])
                return fields

            return run_ahead(checked_fill, copied_take, count)

        monkeypatch.setattr(cli, "run_ahead", recording)
        return blocks, fills_on_main

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_block_draws_equal_the_per_probe_draws(self, monkeypatch, cpus):
        # one bulk draw per block, each row a probe's v, g, a and b, gives the
        # bits of drawing each field of each probe in turn
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(cli, "AUDIT_BLOCK_BYTES", 3 * 8 * 9 * 12)  # 3 probes at 12 x 8
        blocks, fills_on_main = self.record_blocks(monkeypatch)
        presets = ["sine(2,0.5)", "gauss(0,0.3,1)"]
        sc = parse_scenario(config_dict(scenario="audit", probes=8, probe_presets=presets))
        assert execute_scenario(sc).success
        assert [len(block[0]) for block in blocks] == [3, 3, 2]
        assert fills_on_main == [True] + [cpus == 1] * 2
        grid, tgrid = sc.problem.grid, sc.problem.tgrid
        preset_data = [spatial_profile(text, grid) for text in presets]
        rng = np.random.default_rng(sc.seed)
        probes = [probe for block in blocks for probe in zip(*block)]
        for k, (v, g, a, b) in enumerate(probes):
            expected = {}
            for name in ("v", "g", "a", "b"):
                if name == "g":
                    expected[name] = rng.standard_normal(grid.n)
                    expected[name] += preset_data[k % len(preset_data)]
                else:
                    expected[name] = np.zeros((tgrid.steps + 1, grid.n))
                    expected[name][1:] = rng.standard_normal((tgrid.steps, grid.n))
            assert all(np.array_equal(x, expected[name]) for x, name in zip((v, g, a, b), "vgab"))

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
        _, fills_on_main = self.record_blocks(monkeypatch)
        threads = threading.active_count()
        assert run_scenario(AUDIT_CONFIG, scenario="audit", out_dir=str(tmp_path / "out")).success
        assert threading.active_count() == threads
        assert False in fills_on_main  # the configs/audit.json run drew ahead

    @pytest.mark.parametrize("failing", ["sweep", "fill"])
    def test_an_error_in_block_2_reaches_main_as_exit_3(self, monkeypatch, tmp_path, capsys, failing):
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "AUDIT_BLOCK_BYTES", 2 * 8 * 9 * 12)  # 2 probes at 12 x 8
        _, fills_on_main = self.record_blocks(monkeypatch, fail_fill_at=1 if failing == "fill" else None)
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
            assert fills_on_main[1] is False  # raised on the thread, reported by main

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
    """From ``evolution.PAIR_NODES`` nodes the eigendecomposition's halves run
    as a pair on a short-lived thread (``evolution.run_pair``); each is the
    same LAPACK call on the same operands either way."""

    @staticmethod
    def use(monkeypatch, route):
        """Pair at every size ("paired"), run the pair's calls in sequence
        ("sequential"), or pair nowhere ("ungated")."""
        monkeypatch.setattr(evolution, "pair_pays", lambda nodes: route != "ungated")
        if route == "sequential":
            monkeypatch.setattr(evolution, "run_pair", lambda first, second: (first(), second()))

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
                residuals = lr.optimality_residuals(lr.solve_low_regret(cfg), cfg)
                out = tmp_path / route
                assert main(["run", path, "--out", str(out), "--quiet"]) == 0
            files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "timings.json"}
            results[route] = halves, residuals, files
        paired = results.pop("paired")
        for halves, residuals, files in results.values():
            assert all(np.array_equal(a, b) for a, b in zip(halves, paired[0]))
            assert residuals == paired[1]
            assert files == paired[2] and "report.json" in files

    def test_no_thread_outlives_a_run_above_the_gate(self, monkeypatch, tmp_path):
        pairs = count_calls(monkeypatch, evolution, ("run_pair",))
        path = write_config(tmp_path, config_dict(
            domain={"x_left": -1.0, "x_right": 1.0, "nodes": evolution.PAIR_NODES},
            time={"horizon": 1.0, "steps": 20},
        ))
        threads = threading.active_count()
        assert run_scenario(path, out_dir=str(tmp_path / "out")).success
        assert threading.active_count() == threads
        assert pairs == {"run_pair": 1 if evolution._usable_cpus() >= 2 else 0}

    def test_only_the_400_node_benchmark_workload_pairs(self, monkeypatch):
        pairs = count_calls(monkeypatch, evolution, ("run_pair",))
        for scenario, nodes, steps in (("sweep", 120, 60), ("audit", 40, 30), ("solve", 400, 200)):
            execute_scenario(parse_scenario(config_dict(
                scenario=scenario,
                domain={"x_left": -1.0, "x_right": 1.0, "nodes": nodes},
                time={"horizon": 1.0, "steps": steps},
            )))
        assert pairs == {"run_pair": 1 if evolution._usable_cpus() >= 2 else 0}

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


class TestAuditMemory:
    def test_peak_does_not_grow_with_the_probe_count(self):
        # probes are marched in blocks of a fixed byte budget, so ten times
        # the probes at 40 x 30 reach the same peak
        def config(probes):
            return parse_scenario(config_dict(
                scenario="audit", probes=probes,
                domain={"x_left": -1.0, "x_right": 1.0, "nodes": 40},
                time={"horizon": 1.0, "steps": 30},
            ))

        execute_scenario(config(1))  # first-call allocations stay out of the peaks
        peaks = {}
        for probes in (20, 200):
            sc = config(probes)
            tracemalloc.start()
            try:
                execute_scenario(sc)
                peaks[probes] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks[200] - peaks[20]) <= 0.5e6
        assert max(peaks.values()) < 4e6


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
    report = run_scenario(path, out_dir=str(tmp_path / "out"), quiet=True)
    assert report.scenario == "solve"
    assert report.success
    assert set(report.timings) == {"scenario_seconds"}
