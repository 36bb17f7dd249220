#!/usr/bin/env python3
"""Rewrite the golden reports that the acceptance tests compare
`equiweyl suite --all` against, byte for byte.

Each JSON report is kept without its wall-clock keys (timestamp,
runtime_s); CSV files are kept as written.  manifest.json records the
numpy version, its BLAS and the SIMD features numpy reports, since the
last bits of a report may move with any of them.

Usage: python3 scripts/golden_reports.py [--from DIR] [--to DIR]
  --from DIR   reports already written by `equiweyl suite --all`
               (default: run the suite into a temporary directory)
  --to DIR     where the golden files go (default: tests/golden)
"""
import argparse
import contextlib
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


def write(source, target):
    """Replace the golden files in target by the normalized reports in source."""
    target.mkdir(parents=True, exist_ok=True)
    for old in [*target.glob("*.json"), *target.glob("*.csv")]:
        old.unlink()
    reports = sorted(p for p in source.iterdir() if p.suffix in (".json", ".csv"))
    for path in reports:
        (target / path.name).write_text(normalized(path))
    (target / MANIFEST).write_text(json.dumps(environment(), indent=2) + "\n")
    return len(reports)


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
        count = write(source, args.target)
    print(f"{count} golden reports and {MANIFEST} written to {args.target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
