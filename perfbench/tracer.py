"""Span tracer that wraps library functions from outside the library.

The package binds names with ``from .x import f``, so a function is reached
through every module that imported it, not only the one that defines it.
``Tracer.install`` therefore replaces each listed function wherever it is
bound across the loaded ``lowregret`` modules, and ``uninstall`` puts the
originals back.  Spans live in memory (name, start, end, parent index, run
id) and are written out once, when the benchmark ends.

A listed function that no longer exists is recorded in ``absent``; metrics
built only from absent functions are reported as missing, never as zero.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (defining module, function, span name); several functions may share a span.
TARGETS = (
    ("grids", "build_grid", "grids.build"),
    ("grids", "build_time_grid", "grids.build"),
    ("grids", "inner_product_q", "grids.inner_q"),
    ("grids", "inner_product_omega", "grids.inner_omega"),
    ("grids", "norm_q", "grids.norm"),
    ("grids", "norm_omega", "grids.norm"),
    ("grids", "zeros_space_time", "grids.zeros"),
    ("presets", "parse_profile", "presets.parse"),
    ("presets", "spatial_profile", "presets.field"),
    ("presets", "space_time_field", "presets.field"),
    ("operator", "assemble_operator", "operator.assemble"),
    ("evolution", "step_factor", "evolution.factor"),
    ("evolution", "solve_forward", "evolution.forward"),
    ("evolution", "solve_backward", "evolution.backward"),
    ("evolution", "forward_defect", "evolution.defect"),
    ("evolution", "backward_defect", "evolution.defect"),
    ("evolution", "superposition_residual", "evolution.superposition"),
    ("functional", "workspace", "functional.workspace"),
    ("functional", "cost", "functional.cost"),
    ("functional", "relaxed_cost", "functional.cost"),
    ("functional", "reduced_cost", "functional.reduced_cost"),
    ("functional", "solve_uncertainty_adjoint", "functional.adjoint"),
    ("functional", "cost_decomposition_residual", "functional.identities"),
    ("functional", "duality_residual", "functional.identities"),
    ("functional", "fenchel_gap", "functional.identities"),
    ("optimizer", "normal_rhs", "optimizer.rhs"),
    ("optimizer", "apply_normal_operator", "optimizer.h_apply"),
    ("optimizer", "solve_low_regret", "optimizer.solve"),
    ("optimizer", "optimality_residuals", "optimizer.residuals"),
    ("optimizer", "gamma_sweep", "optimizer.sweep"),
    ("cli", "load_scenario", "cli.parse"),
    ("cli", "execute_scenario", "cli.execute"),
    ("cli", "write_report_files", "cli.write"),
    ("cli", "emit_plot_data", "cli.write"),
)

SWEEP_SPANS = ("evolution.forward", "evolution.backward")

# indices into a span record
NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [span, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    def install(self, package: str = "lowregret") -> None:
        self.absent = []
        loaded = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        ]
        for module, func, span in TARGETS:
            home = sys.modules.get(f"{package}.{module}")
            original = getattr(home, func, None) if home is not None else None
            if original is None:
                self.absent.append(f"{module}.{func}")
                continue
            wrapper = self._wrap(span, original)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def present_spans(self) -> set[str]:
        missing = set(self.absent)
        present = set()
        for module, func, span in TARGETS:
            if f"{module}.{func}" not in missing:
                present.add(span)
        return present

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "fields": ["name", "start", "end", "parent", "run"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


def summarize(spans: list[list], run_id: int) -> dict:
    """Per-span-name calls, total self time, and per-call durations and self
    times for one run.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the traced code is single-threaded.
    """
    child_time = defaultdict(float)
    for rec in spans:
        if rec[RUN] == run_id and rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    out: dict[str, dict] = {}
    for idx, rec in enumerate(spans):
        if rec[RUN] != run_id:
            continue
        entry = out.setdefault(rec[NAME], {"calls": 0, "self_s": 0.0, "durations": [], "selfs": []})
        dur = rec[END] - rec[START]
        entry["calls"] += 1
        entry["self_s"] += dur - child_time[idx]
        entry["durations"].append(dur)
        entry["selfs"].append(dur - child_time[idx])
    return out


def count_under(spans: list[list], run_id: int, names, inside: str, outside=()) -> int:
    """Spans named in ``names`` with an ancestor ``inside`` and none in ``outside``."""
    total = 0
    for rec in spans:
        if rec[RUN] != run_id or rec[NAME] not in names:
            continue
        seen_inside = False
        parent = rec[PARENT]
        while parent >= 0:
            pname = spans[parent][NAME]
            if pname in outside:
                seen_inside = False
                break
            if pname == inside:
                seen_inside = True
            parent = spans[parent][PARENT]
        total += seen_inside
    return total
