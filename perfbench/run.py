"""growthopt benchmark.

    python3 perfbench/run.py --workload {sweep,oracle,cli} --seed N --seconds S --trace {0,1}

Runs one workload in a closed loop for S seconds against this checkout's
``src/growthopt`` and checks every op. The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics. The line before it is a JSON report with the environment, the
traffic mix and the workload's extra figures; both are also written under
``.perfbench_out/`` at the checkout root. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import growthopt from this checkout's src, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import growthopt
    except ImportError as exc:
        fail(f"cannot import growthopt from {SRC}: {exc}")
    origin = Path(growthopt.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        fail(f"growthopt was imported from {origin}, not from {SRC}")
    return growthopt


def _git(*args):
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _cpu_model():
    for line in _read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _cache_sizes():
    """Cache sizes of CPU 0 as the kernel lists them, e.g. {"L1d": "32K"}."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read_text(index / "level").strip()
        kind = _read_text(index / "type").strip()
        size = _read_text(index / "size").strip()
        if level and size:
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            caches[f"L{level}{suffix}"] = size
    return caches


def environment(growthopt):
    import numpy
    import scipy

    is_repo = (ROOT / ".git").exists()
    status = _git("status", "--porcelain", "--untracked-files=no") if is_repo else None
    return {
        "git_sha": _git("rev-parse", "HEAD") if is_repo else None,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "growthopt_path": str(Path(growthopt.__file__).resolve().parent),
    }


def timed_op(op, i, show_error):
    """Run op(i); return (seconds, ok, output). An exception is a failed op."""
    began = time.perf_counter()
    try:
        ok, out = op(i)
    except Exception:  # the run must go on; the failure is counted
        if show_error:
            traceback.print_exc(file=sys.stderr)
        ok, out = False, None
    return time.perf_counter() - began, ok, out


def closed_loop(op, seconds):
    """Run op(0), op(1), ... one after another for ``seconds``."""
    latencies, outputs, failed = [], [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        took, ok, out = timed_op(op, len(latencies), failed == 0)
        latencies.append(took)
        outputs.append(out)
        failed += not ok
    return latencies, outputs, failed, time.perf_counter() - start


def tail(latencies):
    """Highest percentile (0.1 resolution) with at least ten samples beyond it."""
    n = len(latencies)
    if n <= 10:
        return 100.0, max(latencies)
    pct = math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0
    return pct, float(np.percentile(latencies, pct))


def setup_seconds(args):
    """Median wall time of fresh processes that set the workload up and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    walls = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - began)
    return statistics.median(walls), walls


def with_units(section, values):
    """Attach the units BENCHMARK.json declares; the names must match it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    units = {entry["name"]: entry["unit"] for entry in spec}
    if set(units) != set(values):
        raise RuntimeError(
            f"{section} metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}"
        )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def end_to_end(args, workload_cls, workdir):
    setup_s, setup_walls = setup_seconds(args)
    workload = workload_cls(args.seed, workdir)
    workload.warm_up()
    latencies, outputs, failed, elapsed = closed_loop(workload.op, args.seconds)
    pct, tail_s = tail(latencies)
    n = len(latencies)
    metrics = with_units("end_to_end", {
        "setup_s": setup_s,
        "ops_per_s": n / elapsed,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
    })
    extra = {
        "ops": n,
        "failed_ratio": failed / n,
        "op_tail_percentile": pct,
        "setup_walls_s": setup_walls,
        **workload.report(outputs, latencies),
    }
    return n, failed, metrics, extra


def traced(args, workload_cls, workdir):
    import layers

    workload = workload_cls(args.seed, workdir)
    workload.warm_up()
    lat_u, out_u, failed_u, _ = closed_loop(workload.op, args.seconds)
    # Replay the first ops twice each, untraced and traced in alternating
    # order, so both see the same machine state; traced outputs must equal
    # those of the timed window.
    m = min(len(lat_u), workload_cls.trace_ops)
    workload.trace_begin()
    replay = {False: [], True: []}
    failed_r = 0
    for i in range(m):
        for tracing in (False, True) if i % 2 == 0 else (True, False):
            took, ok, out = timed_op(workload.trace_op if tracing else workload.op, i, True)
            replay[tracing].append(took)
            failed_r += not ok or (tracing and out != out_u[i])
    n_spans, self_ms = workload.trace_end(m, OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz")
    untraced_rate = m / sum(replay[False])
    traced_rate = m / sum(replay[True])
    metrics = with_units("per_layer", layers.measure(args.seed, workdir))
    extra = {
        "ops_untraced": len(lat_u),
        "ops_replayed": m,
        "replays_failed_or_mismatched": failed_r,
        "tracing_overhead_ops_per_s": traced_rate - untraced_rate,
        "untraced_ops_per_s_same_ops": untraced_rate,
        "spans": n_spans,
        "self_ms_per_op": self_ms,
    }
    return len(lat_u) + 2 * m, failed_u + failed_r, metrics, extra


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "oracle", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, warm it up and exit (times setup_s)")
    return parser.parse_args()


def main():
    args = parse_args()
    growthopt = import_library()
    import workloads

    workload_cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_only:
            workload_cls(args.seed, workdir).warm_up()
            return
        own_import_s = time.perf_counter() - STARTED
        run = traced if args.trace else end_to_end
        attempted, failed, metrics, extra = run(args, workload_cls, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "own_import_s": own_import_s,
        "environment": environment(growthopt),
        **extra,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    (OUT / f"report-{tag}.json").write_text(json.dumps({"report": report, "result": result}, indent=2))
    print(json.dumps(report))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
