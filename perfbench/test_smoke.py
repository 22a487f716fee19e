"""Tiny-size smoke test of the benchmark harness (n=8, M=4).

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with a value,
that the tracer reports a missing library function by name instead of as
zero, and that the correctness gate rejects corrupted outputs.
"""

from __future__ import annotations

import csv
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import measure  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, check_outputs  # noqa: E402

TINY = {name: w.resized(8, 4) for name, w in WORKLOADS.items()}
TINY_CALIBRATION = ((8, 4),)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _assert_complete(metrics: dict, names: set[str]) -> None:
    assert set(metrics) == names
    for name, entry in metrics.items():
        assert isinstance(entry["value"], (int, float)), name
        assert entry["unit"]


def test_end_to_end_metrics_emitted(tmp_path):
    names = {m["name"] for m in _spec()["end_to_end"]}
    gate, metrics, _ = measure.measure_end_to_end(TINY["solve-fine"], 1, 0.01, str(tmp_path))
    assert gate.failed == 0 and gate.attempted >= measure.MIN_ROUNDS
    _assert_complete(metrics, names)
    assert all(metrics[n]["value"] > 0 for n in names)


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_metrics_emitted(tmp_path, name):
    calib = {
        f"calib.{n}x{m}.{rest}"
        for n, m in TINY_CALIBRATION
        for rest in (
            "operator.assemble.self_s", "functional.workspace.self_s",
            "functional.workspace.total_s", "optimizer.h_apply.ms",
        )
    }
    names = {m["name"] for m in _spec()["per_layer"] if not m["name"].startswith("calib.")}
    gate, metrics, _, problems, absent = measure.measure_traced(
        TINY[name], 1, 0.01, ROOT, str(tmp_path), TINY_CALIBRATION
    )
    assert gate.failed == 0
    assert problems == []
    assert absent == []
    _assert_complete(metrics, names | calib)
    assert os.path.isfile(tmp_path / "spans.json")


def test_spec_calibration_names_match_sizes():
    spec_calib = {m["name"] for m in _spec()["per_layer"] if m["name"].startswith("calib.")}
    sizes = {f"{n}x{m}" for n, m in measure.CALIBRATION_SIZES}
    assert {name.split(".")[1] for name in spec_calib} == sizes
    assert len(spec_calib) == 4 * len(sizes)


def test_tracer_wraps_every_binding_and_restores():
    import lowregret.evolution as evolution
    import lowregret.optimizer as optimizer

    original = evolution.forward_defect
    t = tr.Tracer()
    t.install()
    try:
        assert evolution.forward_defect is not original
        assert optimizer.forward_defect is evolution.forward_defect
    finally:
        t.uninstall()
    assert evolution.forward_defect is original
    assert optimizer.forward_defect is original


def test_absent_function_is_named_not_zero(monkeypatch, tmp_path):
    import lowregret.evolution as evolution

    monkeypatch.delattr(evolution, "forward_defect")
    monkeypatch.delattr(evolution, "backward_defect")
    gate, metrics, _, _, absent = measure.measure_traced(
        TINY["solve-fine"], 1, 0.01, ROOT, str(tmp_path), TINY_CALIBRATION
    )
    assert {"evolution.forward_defect", "evolution.backward_defect"} <= set(absent)
    assert metrics["evolution.defect.calls"]["value"] is None
    assert metrics["evolution.defect.self_s"]["value"] is None


def _tiny_run(tmp_path, name):
    gate = measure.Gate(TINY[name], 1, str(tmp_path))
    wall, out_dir, written = gate.execute()
    assert wall > 0 and written and gate.failed == 0
    return out_dir


def _edit_report(out_dir, edit):
    path = os.path.join(out_dir, "report.json")
    with open(path) as fh:
        report = json.load(fh)
    edit(report["metrics"])
    with open(path, "w") as fh:
        json.dump(report, fh)


def test_gate_rejects_corrupted_solve(tmp_path):
    out_dir = _tiny_run(tmp_path, "solve-fine")

    def corrupt(m):
        m["residuals"]["stationarity"] = 1e-3 * m["residual_scale"]

    _edit_report(out_dir, corrupt)
    failed, msgs = check_outputs(TINY["solve-fine"], 1, out_dir)
    assert failed == 1 and any("stationarity" in msg for msg in msgs)


def test_gate_rejects_corrupted_sweep(tmp_path):
    out_dir = _tiny_run(tmp_path, "sweep-deep")

    def corrupt(m):
        m["xi0_norms"][3] = m["xi0_norms"][2]

    _edit_report(out_dir, corrupt)
    failed, msgs = check_outputs(TINY["sweep-deep"], 1, out_dir)
    assert failed == 1 and any("index 3" in msg for msg in msgs)


def test_gate_rejects_corrupted_audit_row(tmp_path):
    out_dir = _tiny_run(tmp_path, "audit-probes")
    path = os.path.join(out_dir, "audit_probe_residuals.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[5][1] = "1e-6"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    failed, msgs = check_outputs(TINY["audit-probes"], 1, out_dir)
    assert failed == 1 and any("probe 4" in msg for msg in msgs)


def test_gate_rejects_changed_report_for_same_seed(tmp_path):
    gate = measure.Gate(TINY["solve-fine"], 1, str(tmp_path))
    gate.execute()
    gate.digest = "0" * 64
    wall, _, _ = gate.execute()
    assert wall > 0 and gate.failed == 1


def test_program_reported_audit_failure_fails_only_its_probe(tmp_path):
    out_dir = _tiny_run(tmp_path, "audit-probes")
    path = os.path.join(out_dir, "audit_probe_residuals.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][rows[0].index("transpose")] = "2e-12"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    report["success"] = False
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh)
    failed, msgs = check_outputs(TINY["audit-probes"], 1, out_dir)
    assert failed == 1 and any("success=false" in msg for msg in msgs)


def test_failed_runs_still_report_every_metric(monkeypatch, tmp_path):
    names = {m["name"] for m in _spec()["end_to_end"]}
    monkeypatch.setattr(measure, "check_outputs", lambda w, seed, out_dir, ref=None: (1, ["bad"]))
    gate, metrics, _ = measure.measure_end_to_end(TINY["solve-fine"], 1, 0.01, str(tmp_path))
    assert gate.failed == gate.attempted >= measure.MIN_ROUNDS
    _assert_complete(metrics, names)
