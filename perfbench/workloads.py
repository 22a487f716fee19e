"""Workload definitions, seeded config generation and the correctness gate.

Each workload is one scenario config for the public CLI path
(``lowregret.cli.run_scenario``).  The grid, gamma schedule and probe count
are fixed per workload; the seed draws only the source and target preset
parameters (and the config's own ``seed``, which drives the audit and sweep
probes).  The cost of a workload is set by its size, not by its seed.

The source and target draws stay in ranges where every solve succeeds.  The
audit's probe stream does not always pass: the program scales the transpose
identity's defect by the value of a random inner product, which can nearly
cancel, so on about 9% of seeds one of 200 probes reads above the 1e-12
budget although the defect is at round-off relative to the norms.  The gate
reports those probes as failed; the fix belongs in ``lowregret.cli``.

The gate never trusts the program's ``success`` flag alone: it re-checks
every output it reads against bounds fixed here, and an operation fails if
the run raised, reported failure, or failed one of these checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0

SHIPPED_PROBE_PRESETS = ("gauss(-0.3,0.2,1.0)", "sine(2,0.5)")

# Per-identity budgets of the audit (scaled residuals), as documented for
# audit_residuals.csv; kept here so the gate does not read them from the
# program under test.
AUDIT_BUDGETS = {
    "transpose": 1e-12,
    "cost_decomposition": 1e-11,
    "duality": 1e-11,
    "fenchel_nonnegative": 1e-12,
    "fenchel_at_maximizer": 1e-12,
    "superposition": 1e-11,
}

RESIDUAL_BUDGET = 1e-10  # optimality residuals, relative to residual_scale
REFERENCE_RTOL = 1e-8    # default-seed objectives against reference.json

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    nodes: int
    steps: int
    gamma: float
    gammas: tuple[float, ...] = ()
    probes: int = 0
    probe_presets: tuple[str, ...] = ()

    def operations(self) -> int:
        """Operations one run_scenario call attempts (solves or probes)."""
        if self.scenario == "solve":
            return 1
        if self.scenario == "sweep":
            return len(self.gammas)
        return self.probes

    def resized(self, nodes: int, steps: int) -> "Workload":
        """Same workload on another grid (used by the smoke test)."""
        return Workload(
            self.name, self.scenario, nodes, steps, self.gamma,
            self.gammas, self.probes, self.probe_presets,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-fine", "solve", nodes=400, steps=200, gamma=1e-2),
        Workload(
            "sweep-deep", "sweep", nodes=120, steps=60, gamma=1.0,
            gammas=(1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6), probes=20,
        ),
        Workload(
            "audit-probes", "audit", nodes=40, steps=30, gamma=1e-2,
            probes=200, probe_presets=SHIPPED_PROBE_PRESETS,
        ),
    )
}


def make_config(w: Workload, seed: int) -> dict:
    """Scenario config for workload ``w``; the same seed gives the same file."""
    rng = np.random.default_rng([seed, 20180903])
    center = float(rng.uniform(-0.4, 0.4))
    width = float(rng.uniform(0.15, 0.35))
    amp = float(rng.uniform(0.5, 1.2))
    k = int(rng.integers(1, 3))
    target_amp = float(rng.uniform(0.2, 0.6))
    cfg = {
        "scenario": w.scenario,
        "domain": {"x_left": -1.0, "x_right": 1.0, "nodes": w.nodes},
        "time": {"horizon": 1.0, "steps": w.steps},
        "s": 0.5,
        "control_weight": 0.1,
        "gamma": w.gamma,
        "source": f"gauss({center!r},{width!r},{amp!r})",
        "target": f"sine({k},{target_amp!r})",
        "probes": w.probes,
        "probe_presets": list(w.probe_presets),
        "seed": seed,
    }
    if w.gammas:
        cfg["gammas"] = list(w.gammas)
    return cfg


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REFERENCE_RTOL * max(abs(ref), np.finfo(float).tiny)


def check_outputs(w: Workload, seed: int, out_dir: str, reference=None) -> tuple[int, list[str]]:
    """Gate one run's output directory.

    Returns (failed operations, messages).  ``reference`` holds the
    default-seed objectives; it is consulted only for the default seed at
    the workload's own size.
    """
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    metrics = report["metrics"]
    ops = w.operations()
    ref = None
    if reference is not None and seed == DEFAULT_SEED and w == WORKLOADS.get(w.name):
        ref = reference["objectives"].get(w.name)
    bad: set[int] = set()
    msgs: list[str] = []

    if w.scenario == "solve":
        scale = metrics["residual_scale"]
        for name in ("state", "uncertainty_adjoint", "worst_response", "control_adjoint", "stationarity"):
            value = metrics["residuals"][name]
            if not value <= RESIDUAL_BUDGET * scale:
                bad.add(0)
                msgs.append(f"residual {name}={value!r} exceeds {RESIDUAL_BUDGET:g} x {scale!r}")
        if not metrics["objective"] < 0:
            bad.add(0)
            msgs.append(f"objective {metrics['objective']!r} is not negative")
        if metrics["converged"] is not True:
            bad.add(0)
            msgs.append("solve reported unconverged")
        if ref is not None and not _close(metrics["objective"], ref):
            bad.add(0)
            msgs.append(f"objective {metrics['objective']!r} differs from reference {ref!r}")

    elif w.scenario == "sweep":
        converged, xi0 = metrics["converged"], metrics["xi0_norms"]
        objectives = metrics["objectives"]
        if not len(converged) == len(xi0) == len(objectives) == ops:
            bad.update(range(ops))
            msgs.append(f"sweep reported {len(converged)} solves, expected {ops}")
        for k in range(min(ops, len(converged))):
            if converged[k] is not True:
                bad.add(k)
                msgs.append(f"gamma index {k} unconverged")
            if k and not xi0[k] < xi0[k - 1]:
                bad.add(k)
                msgs.append(f"xi0_norms not strictly decreasing at index {k}")
            if ref is not None and not _close(objectives[k], ref[k]):
                bad.add(k)
                msgs.append(f"objective {k} {objectives[k]!r} differs from reference {ref[k]!r}")

    else:
        path = os.path.join(out_dir, "audit_probe_residuals.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != ops:
            bad.update(range(ops))
            msgs.append(f"audit wrote {len(rows)} probe rows, expected {ops}")
        for k, row in enumerate(rows[:ops]):
            for name, budget in AUDIT_BUDGETS.items():
                value = float(row.get(name, "nan"))
                if not value <= budget:
                    bad.add(k)
                    msgs.append(f"probe {k} {name}={value!r} exceeds budget {budget:g}")

    if report.get("success") is not True:
        # The program's own verdict.  Operations the checks above already
        # failed account for it; otherwise every operation of the run fails.
        if not bad:
            bad.update(range(ops))
        msgs.append("report.json says success=false")
    return len(bad), msgs


def report_digest(out_dir: str) -> str:
    with open(os.path.join(out_dir, "report.json"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
