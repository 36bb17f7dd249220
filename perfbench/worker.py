"""One workload in a fresh interpreter; started by run.py, never by hand.

Prints one JSON object as its last stdout line.  In ``setup`` mode it only
reports its set-up time, from the spawn until the workload is ready, in raw
and in reference seconds (see hostspeed.py).  In ``run``
mode it times a cold pass, then warm passes for ``--seconds``, checks every
pass's outputs, and with ``--trace 1`` adds a traced set-up and pass whose
spans give the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import hostspeed
import tracer

# a traced pass must account for at least this share of its own wall time;
# the rest is the benchmark's loop between calls into the package
MIN_TRACE_COVERAGE = 0.9


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--started", type=float, required=True,
                   help="monotonic time at which run.py spawned this interpreter")
    p.add_argument("--calibration", type=float, required=True,
                   help="host-speed calibration run.py took just before the spawn")
    return p.parse_args(argv)


class Runner:
    """Times and checks passes of one workload, counting failed operations."""

    def __init__(self, workload, state, scratch):
        self.workload = workload
        self.state = state
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.worst = {}

    def timed_pass(self, sampler):
        """Run and check one pass while ``sampler`` samples the host's speed.

        Returns the pass's raw seconds (less the sampling inside it), its
        reference seconds and its output digest (None when the pass raised).
        """
        mark = sampler.mark()
        try:
            out = self.workload.run(self.state)
        except Exception:  # a raising pass fails every operation in it
            traceback.print_exc()
            out = None
        elapsed, calibration = sampler.close(mark)
        if out is None:
            self.attempted += self.workload.ops_per_pass
            self.failed += self.workload.ops_per_pass
            digest = None
        else:
            digest = self.check(out)
        return elapsed, hostspeed.scale(elapsed, calibration), digest

    def check(self, out):
        checked = self.workload.check(self.state, out)
        self.attempted += self.workload.ops_per_pass
        self.failed += checked.failed
        for key, value in checked.worst.items():
            self.worst[key] = max(value, self.worst.get(key, value))
        return checked.digest


def context():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sampler = hostspeed.Sampler()
    sampler.samples.append(args.calibration)  # opens the set-up interval
    sampler.start()
    try:
        return run(args, sampler)
    finally:
        sampler.stop()


def run(args, sampler):
    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    import equiweyl
    import workloads
    from equiweyl import util

    if Path(equiweyl.__file__).resolve().parent != (root / "src" / "equiweyl").resolve():
        raise SystemExit(f"equiweyl imported from {equiweyl.__file__}, not from {root / 'src'}")
    workload = workloads.WORKLOADS[args.workload]
    scratch_root = root / ".bench_out" / "tmp"
    scratch_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
        state = workload.setup(args.seed, scratch)
        # set-up runs from the spawn, sampled from run.py's calibration on
        setup_raw_s, calibration = sampler.close((0, 0.0, args.started))
        setup = {"setup_raw_s": setup_raw_s, "setup_s": hostspeed.scale(setup_raw_s, calibration)}
        if args.mode == "setup":
            print(json.dumps(setup))
            return 0
        runner = Runner(workload, state, scratch)
        result = {**setup, **measure(runner, args, root, util.gauss_nodes, workloads.Suite.ids,
                                     sampler)}
    print(json.dumps(result))
    return 0


def hit_ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def measure(runner, args, root, gauss, experiment_ids, sampler):
    """Cold pass, warm passes, and with --trace 1 a traced set-up and pass.

    ``sampler`` samples the host's speed through every timed pass;
    ``*_s`` are reference seconds, ``*_raw_s`` wall seconds.  ``gauss`` is
    the original ``util.gauss_nodes``; its ``cache_info()`` is read from
    outside, around the passes.
    """
    info0 = gauss.cache_info()
    cold_raw_s, cold_s, cold_digest = runner.timed_pass(sampler)
    info1 = gauss.cache_info()
    warm_raw_s, warm_s, warm_digests = [], [], []
    t0 = time.perf_counter()
    while not warm_s or time.perf_counter() - t0 < args.seconds:
        raw, scaled, digest = runner.timed_pass(sampler)
        warm_raw_s.append(raw)
        warm_s.append(scaled)
        warm_digests.append(digest)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digests = {cold_digest, *warm_digests}
    result = {
        "cold_s": cold_s,
        "cold_raw_s": cold_raw_s,
        "warm_s": warm_s,
        "warm_raw_s": warm_raw_s,
        "calibrations_s": sampler.samples,
        "peak_rss_mb": peak_rss_mb,
        "gauss_cold": [info1.hits - info0.hits, info1.misses - info0.misses],
        "self_checks": {"passes_identical": len(digests) == 1 and None not in digests},
        "context": context(),
    }
    if args.trace:
        sampler.stop()  # the traced pass is timed raw
        values, trace = traced_pass(runner, args, root, gauss, warm_digests[-1])
        hits, misses = result["gauss_cold"]
        values["util.gauss_nodes.cold_lookups"] = hits + misses
        values["util.gauss_nodes.cold_hit_ratio"] = hit_ratio(hits, misses)
        values["trace.overhead_ratio"] = trace["traced_s"] / statistics.median(warm_raw_s)
        spec = tracer.per_layer_spec(experiment_ids)
        result.update(trace, per_layer={name: (values.get(name, 0), unit) for name, unit in spec})
    result.update(attempted=runner.attempted, failed=runner.failed, worst=runner.worst)
    return result


def traced_pass(runner, args, root, gauss, untraced_digest):
    """Set up again and run one pass with the tracer installed.

    The set-up is traced too, so work that moves between set-up and the
    passes (the ``sor_query`` basis build) shows in the layer metrics.  The
    seeded inputs are the same, so the untraced state checks the outputs.
    Returns the span-derived values and a record of the traced run.
    """
    tr = tracer.Tracer()
    info0 = gauss.cache_info()
    tr.install()
    try:
        t0 = time.perf_counter()
        state = runner.workload.setup(args.seed, runner.scratch)
        t1 = time.perf_counter()
        out = runner.workload.run(state)
        t2 = time.perf_counter()
    finally:
        tr.uninstall()
    info1 = gauss.cache_info()
    digest = runner.check(out)

    summary = tr.summary()
    values = tracer.span_values(summary, tr.counters)
    hits, misses = info1.hits - info0.hits, info1.misses - info0.misses
    values["util.gauss_nodes.lookups"] = hits + misses
    values["util.gauss_nodes.hit_ratio"] = hit_ratio(hits, misses)
    covered = sum(row["self_s"] for row in summary.values()) / (t2 - t0)
    values["trace.coverage_ratio"] = covered
    trace_dir = root / ".bench_out" / "trace"
    stem = f"{args.workload}-seed{args.seed}"
    tr.write(trace_dir / f"{stem}.spans.csv")
    (trace_dir / f"{stem}.summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    return values, {
        "traced_s": t2 - t1,
        "spans": len(tr.spans),
        "trace_self_checks": {
            "traced_output_identical": digest == untraced_digest,
            f"coverage_at_least_{MIN_TRACE_COVERAGE}": MIN_TRACE_COVERAGE <= covered,
        },
    }


if __name__ == "__main__":
    sys.exit(main())
