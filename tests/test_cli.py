"""Scenario configs, profile presets, CLI subcommands, and report determinism."""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lowregret import ParameterError, build_grid, build_time_grid, cli
from lowregret.cli import (
    MAX_GRID_VALUES,
    MAX_NODES,
    ConfigError,
    load_scenario,
    main,
    parse_scenario,
    resolve_out_dir,
    run_scenario,
)
from lowregret.functional import check_parameters
from lowregret.optimizer import check_gammas
from lowregret.presets import parse_profile, space_time_field, spatial_profile


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
    "probes": NON_FINITE | st.integers(max_value=-1),
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
        assert resolve_out_dir("from_flag", sc) == "from_flag"
        assert resolve_out_dir(None, sc) == "from_config"
        bare = parse_scenario(config_dict())
        assert resolve_out_dir(None, bare) == os.path.join("from_env", "solve")


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
        path = write_config(tmp_path, config_dict(cg_max_iters=1))
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--quiet"]) == 3
        assert "failed its checks" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["success"] is False

    def test_config_error_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, config_dict(gamma=-1.0))
        assert main(["run", path, "--quiet"]) == 2
        assert "config error:" in capsys.readouterr().err

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

    def test_negative_seed_flag_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, config_dict())
        assert main(["audit", path, "--seed", "-1", "--quiet"]) == 2
        assert "config error: --seed:" in capsys.readouterr().err

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

    def test_transpose_defect_is_scaled_by_norms(self, tmp_path):
        # at seed 134 probe 19's pairing nearly cancels; dividing the defect
        # by its value read 1.5e-12, above the 1e-12 budget
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "audit.json")
        out = tmp_path / "out"
        assert main(["audit", path, "--seed", "134", "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["identities"]["transpose"]["residual"] <= 1e-15


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


def test_run_scenario_function_returns_the_report(tmp_path):
    path = write_config(tmp_path, config_dict())
    report = run_scenario(path, out_dir=str(tmp_path / "out"), quiet=True)
    assert report.scenario == "solve"
    assert report.success
    assert set(report.timings) == {"scenario_seconds"}
