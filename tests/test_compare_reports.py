"""scripts/compare_reports.py on a pair of CLI output directories."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from lowregret.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCRIPT = os.path.join(ROOT, "scripts", "compare_reports.py")


def compare(a, b):
    out = subprocess.run(
        [sys.executable, SCRIPT, str(a), str(b)], capture_output=True, text=True, timeout=60
    )
    rows = {}
    for line in out.stdout.splitlines()[1:]:
        if not line.startswith("MISMATCH"):
            name, rel, absolute = line.split()
            rows[name] = (float(rel), float(absolute))
    return out.returncode, rows, out.stdout


def test_reports_field_differences_and_refuses_shape_changes(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    assert main(["run", os.path.join(ROOT, "configs", "solve.json"), "--out", str(parent), "--quiet"]) == 0
    shutil.copytree(parent, change)

    status, rows, _ = compare(parent, change)
    assert status == 0
    assert rows["report.json:metrics.objective"] == (0.0, 0.0)
    assert rows["solve_worst_datum.csv"] == (0.0, 0.0)

    report = json.loads((change / "report.json").read_text())
    objective = report["metrics"]["objective"]
    report["metrics"]["objective"] = objective * (1.0 + 1e-9)
    (change / "report.json").write_text(json.dumps(report))
    status, rows, _ = compare(parent, change)
    assert status == 0
    rel, absolute = rows["report.json:metrics.objective"]
    assert rel == pytest.approx(1e-9, rel=1e-3)
    assert absolute == pytest.approx(abs(objective) * 1e-9, rel=1e-3)

    del report["metrics"]["xi0_norm"]
    (change / "report.json").write_text(json.dumps(report))
    status, _, text = compare(parent, change)
    assert status == 1
    assert "metrics.xi0_norm only in parent" in text

    shutil.rmtree(change)
    shutil.copytree(parent, change)
    csv = change / "solve_worst_datum.csv"
    csv.write_text("\n".join(csv.read_text().splitlines()[:-1]) + "\n")
    status, _, text = compare(parent, change)
    assert status == 1
    assert "solve_worst_datum.csv: header or shape differs" in text
