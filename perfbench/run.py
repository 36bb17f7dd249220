"""equiweyl benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Each workload runs in its own fresh interpreter (worker.py), so peak RSS and
the cold pass belong to that workload alone.  ``setup_s`` is measured from
spawning an interpreter until the workload is ready, in several fresh
interpreters, and reported as the median.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of one traced pass.  See README.md for the workloads and
for which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("suite", "sor_build", "sor_query")
# set-up is timed in at least SETUP_MIN fresh interpreters, and in more, up to
# SETUP_MAX, while the set-ups so far took less than SETUP_BUDGET_S in all
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0
# the whole command must end within 180 s; keep a margin for start-up
DEADLINE_S = 170.0


# one core's worth of work: the calibration runs on one core, and more BLAS
# threads than that on a shared 2-vCPU host measure the scheduler
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="warm-pass measuring time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def check_program():
    if not (ROOT / "src" / "equiweyl" / "__init__.py").is_file():
        raise BenchError(f"no equiweyl package under {ROOT / 'src'}")


def spawn(workload, seed, seconds, trace, mode, deadline):
    """Run worker.py in a fresh interpreter and return its JSON result.

    The worker times its set-up from the spawn, sampling the host's speed
    from a calibration taken here just before it.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    calibration = hostspeed.calibrate()
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace), "--mode", mode, "--calibration", repr(calibration),
           "--started", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining, env=WORKER_ENV)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} worker printed no result")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    t0 = time.monotonic()
    while not trace and (len(setups) < SETUP_MIN - 1 or (
            len(setups) < SETUP_MAX - 1 and time.monotonic() - t0 < SETUP_BUDGET_S)):
        setups.append(spawn(workload, seed, seconds, trace, "setup", deadline))
    res = spawn(workload, seed, seconds, trace, "run", deadline)
    setups.append(res)
    for key in ("setup_raw_s", "setup_s"):
        res[key] = [s[key] for s in setups]
    return res


def end_to_end(res):
    return {
        "wall_s": (statistics.median(res["warm_s"]), "s"),
        "cold_pass_s": (res["cold_s"], "s"),
        "setup_s": (statistics.median(res["setup_s"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def source_record():
    """The git commit when the checkout is a repository, and a digest of the package source."""
    commit = None
    if (ROOT / ".git").exists():  # never report an enclosing repository's commit
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "equiweyl").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "source_sha256": h.hexdigest()}


def describe(workload, res, metrics):
    base = f"{res['failed']}/{res['attempted']} operations"
    lines = [f"{workload}:"]
    lines += [f"  {k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"  failed_frac = {res['failed'] / res['attempted']:.6g} ratio ({base})")
    for kind in ("", "raw_"):
        unit = "wall s" if kind else "reference s"
        lines.append(f"  warm passes: {', '.join(f'{t:.4f}' for t in res[f'warm_{kind}s'])}; "
                     f"cold pass: {res[f'cold_{kind}s']:.4f}; set-up samples: "
                     f"{', '.join(f'{t:.4f}' for t in res[f'setup_{kind}s'])} ({unit})")
    lines.append(f"  host-speed samples: median {statistics.median(res['calibrations_s']):.5f} s"
                 f" over {len(res['calibrations_s'])}, reference {hostspeed.REFERENCE_S} s")
    lines.append(f"  worst check errors: {json.dumps(res['worst'])}")
    checks = {**res["self_checks"], **res.get("trace_self_checks", {})}
    lines.append(f"  self-checks: {json.dumps(checks)}")
    return lines


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        check_program()
        spec = load_spec()
        seconds = float(args.seconds if args.seconds is not None else spec["run_seconds"])
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {name: run_workload(name, args.seed, seconds, args.trace) for name in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    source = source_record()
    record = {"seed": args.seed, "seconds": seconds, "trace": args.trace, **source,
              "results": results}
    out_dir = ROOT / ".bench_out" / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    metrics = {}
    correct = True
    print(f"context: {json.dumps({**next(iter(results.values()))['context'], **source})}")
    for name, res in results.items():
        m = res["per_layer"] if args.trace else end_to_end(res)
        for line in describe(name, res, m):
            print(line)
        prefix = "" if len(results) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in m.items()})
        checks = {**res["self_checks"], **res.get("trace_self_checks", {})}
        correct = correct and res["failed"] == 0 and all(checks.values())
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if len(results) == 1 and sorted(metrics) != sorted(expected):
        print(f"benchmark error: metric names {sorted(metrics)} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
