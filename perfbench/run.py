"""Benchmark: two-stage training, multi-clue evaluation, long-clip extraction.

    python3 perfbench/run.py --workload {train,evaluate,extract_long} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src/. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1. A fuller record, with the
environment, goes to perfbench/results/.
"""

import os
import sys
import time

SCRIPT_START = time.monotonic()
# BLAS threads are pinned in this process's own environment, before numpy loads.
THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import json
import platform
import resource
import shutil
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seconds_since_process_start() -> float:
    """Wall time since the kernel started this process (Linux), else since the script began."""
    fallback = time.monotonic() - SCRIPT_START
    try:
        with open("/proc/self/stat", encoding="ascii") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        since = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return fallback
    return since if fallback <= since < fallback + 60 else fallback


def git_commit():
    """The checkout's commit, read from .git without running git; None outside a repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mctse", "__init__.py")):
        print(f"error: no program to measure at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy as np
    import scipy

    import mctse
    import tracing
    import workloads

    if os.path.dirname(os.path.abspath(mctse.__file__)) != os.path.join(src, "mctse"):
        print(f"error: imported mctse from {mctse.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    results_dir = os.path.join(HERE, "results")
    workdir = os.path.join(HERE, "work", str(os.getpid()))
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, tracer)
        workload.warmup()
        setup_s = seconds_since_process_start()

        workload.counting = True
        per_round = []
        start = time.perf_counter()
        while True:
            per_round.append(workload.round())
            elapsed = time.perf_counter() - start
            # Start another whole round only if it should end within the budget.
            if elapsed * (len(per_round) + 1) / len(per_round) > args.seconds:
                break
        measured_s = time.perf_counter() - start
        workload.counting = False
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        workload.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rates = {}
    for stage in ("s1", "s2"):
        values = [r[stage] for r in per_round if r.get(stage) is not None]
        if not values:
            print("".join(workload.errors), file=sys.stderr)
            print(f"error: every {stage} operation failed", file=sys.stderr)
            return 1
        rates[f"{stage}_items_per_s"] = statistics.median(values)
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        **{name: {"value": value, "unit": "items/s"} for name, value in rates.items()},
    }
    if tracer is not None:
        metrics = {name: {"value": value, "unit": tracing.PER_LAYER[name]}
                   for name, value in tracer.per_layer(len(per_round)).items()}
    else:
        metrics = end_to_end
    correct = not workload.failures
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(np, scipy),
        "rounds": len(per_round), "measured_s": measured_s, "per_round": per_round,
        "end_to_end": end_to_end, "metrics": metrics, "correct": correct,
        "check_failures": workload.failures, "errors": workload.errors,
    }
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(results_dir, f"{tag}-spans.json"))
    for failure in workload.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
