"""One benchmark process: set up a workload, warm it up, then time ops.

run.py starts this as a separate process (one per set-up), so that set-up
time starts at process start and peak memory belongs to one workload:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --t0 MONOTONIC --workdir DIR --result FILE [--spans FILE]

``--t0`` is the parent's ``time.monotonic()`` just before the spawn; the
monotonic clock is system-wide, so set-up time covers interpreter start,
imports, input generation and one untimed warm-up op. Each op is preceded
by a host probe, which run.py uses to scale timings to a reference host
speed. With ``--trace 1`` ops alternate untraced and traced, so the run
also gives the tracing overhead.
"""

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_symkoop():
    """Import symkoop from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import symkoop

    if not Path(symkoop.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"symkoop imported from {symkoop.__file__}, not {ROOT / 'src'}")
    return symkoop


def environment():
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        try:
            threads = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            continue
        break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def host_probe():
    """Seconds for a fixed piece of work that does not touch symkoop:
    small-array RK4-like steps, a small SVD and a pass over a 320 kB array,
    all in well under 1 MB so that it leaves peak memory alone. Its fastest
    time in a run tracks the host's speed during that run."""
    import numpy as np

    start = time.perf_counter()
    x = np.array([3.0, 0.2])
    for _ in range(1000):
        k = np.array([x[1] * x[1] * x[1] - 9.0 * x[1], x[0] * x[0] * x[0] - 9.0 * x[0]])
        x = x + 1e-3 * k
    a = np.arange(84 * 500, dtype=float).reshape(84, 500) % 7.0
    for _ in range(4):
        np.linalg.svd(a, full_matrices=False)
    for _ in range(20):
        a.sum()
    return time.perf_counter() - start


def guarded(fn, *args):
    """Run ``fn``; an exception is a failed op, reported in one line."""
    try:
        return fn(*args), None
    except Exception as err:  # noqa: BLE001 - a failing op is a measured outcome
        return None, f"{type(err).__name__}: {err}"


def gate(workload, output, failure):
    """The op's failure: its exception, or else its correctness gate's."""
    if failure is not None:
        return failure
    reason, error = guarded(workload.check, output)
    return reason or error


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    import_symkoop()
    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(args.seed, args.workdir)
    warmup_failure = gate(workload, *guarded(workload.op))
    tr = tracer.Tracer() if args.trace else None

    ops = []          # [seconds, traced, failure]
    layer_stats = []  # per traced op
    spans = []
    gc.collect()
    setup_s = time.monotonic() - args.t0
    deadline = time.perf_counter() + args.seconds
    min_ops = 2 if args.trace else 1
    probes = []
    while len(ops) < min_ops or time.perf_counter() < deadline:
        probes.append(host_probe())
        traced = bool(tr) and len(ops) % 2 == 1
        if traced:
            tr.install()
        start = time.perf_counter()
        output, failure = guarded(workload.op)
        seconds = time.perf_counter() - start
        if traced:
            tr.uninstall()
            stats, op_spans = tr.end_op()
            layer_stats.append(stats)
            spans.append(op_spans)
        ops.append([seconds, traced, gate(workload, output, failure)])
        gc.collect()

    result = {
        "setup_s": setup_s,
        "warmup_failure": warmup_failure,
        "ops": ops,
        "layer_stats": layer_stats,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "record": workload.record,
        "host_probe_s": probes,
        "environment": environment(),
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    if args.spans:
        with open(args.spans, "w") as fh:
            json.dump(spans, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
