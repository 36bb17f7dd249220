"""Regenerate reference.json: the seed-independent outputs the checks compare against.

Run from the repository root:  python3 perfbench/record_reference.py

Only fixed inputs are recorded (torus-profile eigenvalues, the probe
diagonals, the global coefficient and the cluster L^p norms), so the file
does not depend on any workload seed.  Re-record only when a change is meant
to alter these values, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main():
    build = workloads.WORKLOADS["sor_build"]
    query = workloads.WORKLOADS["sor_query"]
    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        torus = build.run(build.setup(0, scratch))["torus"]
        out = query.run(query.setup(0, scratch))
    record = {
        "sor_build": {
            "torus_eigenvalues_by_m": {
                str(m): v for m, v in build.torus_eigenvalues_by_m(torus).items()},
        },
        "sor_query": {
            "probe_diagonals": out["probes"].tolist(),
            "global_coefficient": float(out["global"]),
            "lp_norms": out["lp"].tolist(),
        },
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
