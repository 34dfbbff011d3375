"""rmtlab benchmark: one workload, timed passes or a traced run, checked outputs.

    python3 perfbench/run.py --workload mp_ks --seed 1 --seconds 15 --trace 0

Run from the repository root. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics (wall_s, peak_rss_mb, setup_s), with --trace 1 the
per-layer metrics of the traced run. Earlier lines give the run record and
every check. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def _blas_info():
    """OpenBLAS version and live thread count, read from the loaded library."""
    import ctypes
    import glob

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    threads = None
    if libs:
        lib = ctypes.CDLL(libs[0])
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return f"{blas['name']} {blas['version']}", threads


def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "rmtlab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_record(args, nproc):
    import numpy as np
    import scipy

    blas, threads = _blas_info()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": threads, "git_revision": _git_revision(),
            "src_sha256": _source_digest()}


# ---------------------------------------------------------------------------
# Set-up, passes, artifacts
# ---------------------------------------------------------------------------

def measure_setup(workload, seed):
    """Median wall time of fresh interpreters importing rmtlab and validating."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
                        workload, str(seed)], cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(experiments):
    """One timed pass; returns (wall seconds, results, failures)."""
    results, failures = [], []
    t0 = time.perf_counter()
    for experiment in experiments:
        try:
            results.append(experiment())
        except Exception as exc:  # counted as a failed experiment, run continues
            failures.append(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, results, failures


@dataclass
class Passes:
    """What the passes of one run leave: walls, failures, artifact digests,
    the last complete results and, for traced passes, layer rows and counts."""

    walls: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)
    layer_rows: list = field(default_factory=list)
    pass_counts: list = field(default_factory=list)
    digests: set = field(default_factory=set)
    failures: list = field(default_factory=list)
    attempted: int = 0
    results: list | None = None

    def run(self, experiments, art_dir, walls):
        wall, results, failed = run_pass(experiments)
        walls.append(wall)
        self.attempted += len(experiments)
        self.failures += failed
        self.digests.add(artifact_digest(art_dir))
        if not failed:
            self.results = results
        return wall


def run_passes(experiments, art_dir, seconds, tracer=None):
    """Repeat rounds until the next would end after `seconds` (at least one).
    A round is one untraced pass, plus one traced pass when tracing."""
    passes = Passes()
    start = time.perf_counter()
    while True:
        step = passes.run(experiments, art_dir, passes.walls)
        if tracer is not None:
            import tracing
            with tracer:
                first = tracer.begin_pass(len(passes.traced_walls))
                step += passes.run(experiments, art_dir, passes.traced_walls)
            passes.layer_rows.append(
                tracing.layer_table(tracer.spans, first, passes.traced_walls[-1]))
            passes.pass_counts.append({**tracer.counts, "flops": tracer.flops,
                                       "bytes": tracer.artifact_bytes})
        if time.perf_counter() - start + step > seconds:
            return passes


def artifact_digest(out_dir):
    """Digest of a pass's artifacts, leaving out the timing field of report.json."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).rglob("*")):
        if not path.is_file():
            continue
        h.update(path.relative_to(out_dir).as_posix().encode())
        if path.name == "report.json":
            report = json.loads(path.read_text())
            report.pop("runtime_seconds", None)
            h.update(json.dumps(report, sort_keys=True).encode())
        else:
            h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rmtlab" / "__init__.py").is_file():
        print(f"error: rmtlab sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # BLAS threads at most nproc; set before numpy is first imported
    threads = min(int(os.environ.get("OPENBLAS_NUM_THREADS", nproc)), nproc)
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    sys.path.insert(0, str(SRC))

    import checks
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    record = run_record(args, nproc)
    print("record " + json.dumps(record, sort_keys=True), flush=True)

    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
    art_dir = out_dir / "artifacts"
    experiments = workload.experiments(args.seed, art_dir)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    passes = run_passes(experiments, art_dir, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    found = []
    if passes.results is not None:
        found += workload.check(args.seed, workload.outputs(passes.results))
    n_passes = len(passes.walls) + len(passes.traced_walls)
    found.append(checks.Check("artifacts_repeat", len(passes.digests) == 1,
                              f"{len(passes.digests)} distinct artifact digests over "
                              f"{n_passes} passes"))
    if tracer is None:
        metrics = {"wall_s": {"value": statistics.median(passes.walls), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                   "setup_s": {"value": setup_s, "unit": "s"}}
    else:
        metrics = layer_metrics(passes)
        counts = [_exact(c) for c in passes.pass_counts]
        earlier = _earlier_counts(out_dir / f"run_seed{args.seed}_trace1.json", record)
        found.append(checks.Check("counts_repeat", all(c == counts[0] for c in counts + earlier),
                                  f"exact counts equal over {len(counts)} traced passes "
                                  f"and {len(earlier)} earlier run(s) of this seed and program"))
        coverage = metrics["trace.coverage"]["value"]
        found.append(checks.Check("trace_coverage", coverage >= 0.9,
                                  f"spans cover {coverage:.4f} of the traced wall time"))
        tracer.write(out_dir / f"spans_seed{args.seed}.jsonl")

    for check in found:
        verdict = ("ok  " if check.ok else "FAIL") if check.gate else \
            ("info ok  " if check.ok else "info over")
        print(f"check {verdict} {check.name}: {check.detail}")
    for failure in passes.failures:
        print(f"experiment failed: {failure}")
    result = {"correct": passes.results is not None and all(c.ok for c in found if c.gate),
              "attempted": passes.attempted, "failed": len(passes.failures),
              "metrics": metrics}
    (out_dir / f"run_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result, "pass_walls": passes.walls,
                    "traced_pass_walls": passes.traced_walls,
                    "counts": _exact(passes.pass_counts[0]) if passes.pass_counts else None,
                    "checks": [c.__dict__ for c in found]}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def _exact(counts):
    # artifact bytes vary with the digits of report.json's runtime_seconds
    return {k: v for k, v in counts.items() if k != "bytes"}


SAME_PROGRAM = ("src_sha256", "numpy", "scipy", "blas")


def _earlier_counts(path, record):
    """Counts of the previous traced run of this seed, if it ran the same
    source on the same numpy, scipy and BLAS."""
    if not path.is_file():
        return []
    earlier = json.loads(path.read_text())
    if any(earlier["record"].get(k) != record.get(k) for k in SAME_PROGRAM):
        return []
    return [earlier["counts"]]


def layer_metrics(passes):
    import tracing

    metrics = {}
    for key in passes.layer_rows[0]:
        unit = "share" if key == "trace.coverage" else "s"
        metrics[key] = {"value": statistics.median(r[key] for r in passes.layer_rows),
                        "unit": unit}
    counts = passes.pass_counts[0]
    for key in tracing.COUNTS:
        metrics[key] = {"value": int(counts.get(key, 0)), "unit": "count"}
    cov_s = metrics["ensemble.covariance_s"]["value"]
    metrics["ensemble.covariance_gflops"] = {
        "value": counts["flops"] / cov_s / 1e9 if cov_s > 0 else 0.0, "unit": "GFLOP/s"}
    metrics["harness.artifact_bytes"] = {"value": int(counts["bytes"]), "unit": "bytes"}
    untraced = statistics.median(passes.walls)
    traced = statistics.median(passes.traced_walls)
    metrics["trace.wall_s"] = {"value": traced, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
