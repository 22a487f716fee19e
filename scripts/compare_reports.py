#!/usr/bin/env python3
"""Field-by-field difference of two lowregret output directories.

For every numeric field of ``report.json`` (nested keys joined by dots, list
entries indexed) and for every CSV file, prints the largest relative and
absolute difference between the two directories.  The relative difference
of a and b is |a - b| / max(|a|, |b|), zero when both are zero.
``timings.json`` holds wall-clock times and is not compared.

Exits 1 when the two directories do not have the same report keys, the same
CSV files, the same CSV headers and shapes, or the same non-numeric values;
otherwise 0, whatever the size of the numeric differences.

Usage: python3 scripts/compare_reports.py PARENT_DIR CHANGE_DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys


def flatten(value, prefix=""):
    """{dotted path: leaf} of a parsed JSON document."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            out.update(flatten(item, f"{prefix}.{key}" if prefix else key))
        return out
    if isinstance(value, list):
        out = {}
        for idx, item in enumerate(value):
            out.update(flatten(item, f"{prefix}[{idx}]"))
        return out
    return {prefix: value}


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def difference(a: float, b: float) -> tuple[float, float]:
    """(relative, absolute) difference; equal non-finite values differ by 0."""
    if a == b:
        return 0.0, 0.0
    absolute = abs(a - b)
    if not math.isfinite(absolute):
        return math.inf, math.inf
    return absolute / max(abs(a), abs(b)), absolute


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def parse_cell(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def compare(parent: str, change: str, out=sys.stdout) -> int:
    """Print the comparison table; return the exit status."""
    problems: list[str] = []
    rows: list[tuple[str, float, float]] = []

    def note(name, a, b):
        if is_number(a) and is_number(b):
            rows.append((name, *difference(float(a), float(b))))
        elif a != b:
            problems.append(f"{name}: {a!r} != {b!r}")

    with open(os.path.join(parent, "report.json")) as fh:
        old = flatten(json.load(fh))
    with open(os.path.join(change, "report.json")) as fh:
        new = flatten(json.load(fh))
    for key in sorted(old.keys() ^ new.keys()):
        problems.append(f"report.json: key {key} only in {'parent' if key in old else 'change'}")
    for key in sorted(old.keys() & new.keys()):
        note(f"report.json:{key}", old[key], new[key])

    csvs_old = {f for f in os.listdir(parent) if f.endswith(".csv")}
    csvs_new = {f for f in os.listdir(change) if f.endswith(".csv")}
    for name in sorted(csvs_old ^ csvs_new):
        problems.append(f"{name}: only in {'parent' if name in csvs_old else 'change'}")
    for name in sorted(csvs_old & csvs_new):
        head_a, body_a = read_csv(os.path.join(parent, name))
        head_b, body_b = read_csv(os.path.join(change, name))
        shape_a = [len(r) for r in body_a]
        shape_b = [len(r) for r in body_b]
        if head_a != head_b or shape_a != shape_b:
            problems.append(f"{name}: header or shape differs")
            continue
        worst = (0.0, 0.0)
        for line_a, line_b in zip(body_a, body_b):
            for cell_a, cell_b in zip(line_a, line_b):
                a, b = parse_cell(cell_a), parse_cell(cell_b)
                if isinstance(a, float) and isinstance(b, float):
                    rel, absolute = difference(a, b)
                    worst = (max(worst[0], rel), max(worst[1], absolute))
                elif a != b:
                    problems.append(f"{name}: {cell_a!r} != {cell_b!r}")
        rows.append((name, *worst))

    width = max((len(name) for name, _, _ in rows), default=5)
    print(f"{'field':<{width}}  {'max_rel':>9}  {'max_abs':>9}", file=out)
    for name, rel, absolute in rows:
        print(f"{name:<{width}}  {rel:9.2e}  {absolute:9.2e}", file=out)
    for line in problems:
        print(f"MISMATCH {line}", file=out)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="output directory of the reference run")
    parser.add_argument("change", help="output directory of the run under test")
    args = parser.parse_args(argv)
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
