#!/usr/bin/env python3
"""Rewrite the golden reports that the acceptance tests compare
`equiweyl suite --all` against, byte for byte.

Each JSON report is kept without its wall-clock keys (timestamp,
runtime_s); CSV files are kept as written.  manifest.json records the
numpy version, its BLAS and the SIMD features numpy reports, since the
last bits of a report may move with any of them.  For each golden file
whose content changes, it prints how many numbers moved, the worst
relative move, every verdict or check pass that flipped, and how many
entries came or went.

Usage: python3 scripts/golden_reports.py [--from DIR] [--to DIR]
  --from DIR   reports already written by `equiweyl suite --all`
               (default: run the suite into a temporary directory)
  --to DIR     where the golden files go (default: tests/golden)
"""
import argparse
import contextlib
import csv
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from equiweyl import cli
from equiweyl.util import json_dumps

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"
MANIFEST = "manifest.json"
VOLATILE = ("timestamp", "runtime_s")


def normalized(path):
    """A report file's text, a JSON report's without its wall-clock keys."""
    path = Path(path)
    if path.suffix != ".json":
        return path.read_text()
    report = json.loads(path.read_text())
    for key in VOLATILE:
        report.pop(key, None)
    return json_dumps(report) + "\n"


def environment():
    """What the report bits rest on besides the source: numpy, its BLAS
    and the SIMD features it dispatches to on this machine."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]
    # numpy leaves "found" out when it dispatches to nothing past the baseline
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "simd_baseline": list(simd["baseline"]), "simd_found": list(simd.get("found", []))}


def _leaves(value, path=""):
    """(path, value) for every scalar of a JSON value, paths as series[3].measured."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _cells(text, suffix):
    """A golden file's scalars by path; a CSV cell's path is [row].column."""
    if suffix == ".json":
        return dict(_leaves(json.loads(text)))
    rows = csv.DictReader(text.splitlines())
    return {f"[{i}].{key}": _number(cell)
            for i, row in enumerate(rows) for key, cell in row.items()}


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def moves(old_text, new_text, suffix):
    """What changed between two texts of one golden file, in one line."""
    old, new = _cells(old_text, suffix), _cells(new_text, suffix)
    moved = []
    for path, a in old.items():
        b = new.get(path)
        if _is_number(a) and _is_number(b) and a != b:
            moved.append((abs(a - b) / max(abs(a), abs(b)), path))
    parts = [f"{len(moved)} numbers moved"]
    if moved:
        worst, where = max(moved)
        parts[0] += f" (worst {worst:.3g} relative, {where})"
    flips = [f"{path} {old[path]} -> {new[path]}" for path in old
             if path.rsplit(".", 1)[-1] in ("verdict", "pass") and path in new
             and old[path] != new[path]]
    parts.append("flipped: " + ", ".join(flips) if flips else "no verdict or check pass flipped")
    reshaped = len(old.keys() ^ new.keys())
    if reshaped:
        parts.append(f"{reshaped} entries added or removed")
    return "; ".join(parts)


def write(source, target):
    """Replace the golden files in target by the normalized reports in source;
    a line for each file whose content changed."""
    target.mkdir(parents=True, exist_ok=True)
    before = {}
    for old in [*target.glob("*.json"), *target.glob("*.csv")]:
        before[old.name] = old.read_text()
        old.unlink()
    reports = sorted(p for p in source.iterdir() if p.suffix in (".json", ".csv"))
    changed = []
    for path in reports:
        text = normalized(path)
        (target / path.name).write_text(text)
        if path.name not in before:
            changed.append(f"{path.name}: new")
        elif before[path.name] != text:
            changed.append(f"{path.name}: {moves(before[path.name], text, path.suffix)}")
    (target / MANIFEST).write_text(json.dumps(environment(), indent=2) + "\n")
    return len(reports), changed


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--from", dest="source", type=Path)
    parser.add_argument("--to", dest="target", type=Path, default=GOLDEN)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        source = args.source
        if source is None:
            source = Path(tmp)
            # the pole experiment fails on purpose, so the suite exits 1
            with contextlib.redirect_stdout(sys.stderr):
                cli.main(["suite", "--all", "--out-dir", tmp])
        count, changed = write(source, args.target)
    for line in changed:
        print(line)
    print(f"{count} golden reports and {MANIFEST} written to {args.target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
