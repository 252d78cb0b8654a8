"""Benchmark of symkoop: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it measures the symkoop under
``src/`` of that checkout and fails (exit 2, no result) where there is none.
Workloads: verify, hamiltonian_pipeline, lorenz_edmd, group_scale (see
workloads.py and README.md for what each one is for).

A run starts PROCESSES worker processes one after another. Each imports
symkoop, makes its inputs from the seed, runs one untimed warm-up op and
then times ops for ``S / PROCESSES`` seconds, every op followed by its
correctness gate outside the timed interval. The processes give set-up
time several times per run; their median is reported.

With ``--trace 0`` the result holds the end-to-end metrics, measured with
tracing off. With ``--trace 1`` ops alternate untraced and traced, and the
result holds the per-layer metrics of the traced ops plus the tracing
overhead. Lines before the last describe the run; the last line of
standard output is the result:

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

The full record (environment, per-op times, per-process set-up and memory)
is written to ``.perfbench_out/`` in the checkout, with the spans of traced
runs.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("verify", "hamiltonian_pipeline", "lorenz_edmd", "group_scale")
PROCESSES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# Single-threaded BLAS. On a 2-core host an idle OpenBLAS thread spins on
# the second core after every call and slows the interpreter thread that
# runs next, so op times then depend on how BLAS calls and Python steps
# interleave rather than on the code; with one thread they repeat.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1"}

# Host-speed scaling. Other tenants of the host slow this process by up to
# 2x in phases lasting from seconds to minutes, and the host's top speed
# drifts by 15-30% over tens of minutes, so raw op times do not repeat
# between runs. Each worker times a fixed probe (worker.host_probe, no
# symkoop code) before every op; each op's wall time is scaled by
# PROBE_REF_S over the mean of the probes just before and after it, and
# set-up time by PROBE_REF_S over the process's first probe. PROBE_REF_S is
# the probe's fastest time on the host this benchmark was defined on
# (2-core Xeon VM, numpy 2.4.6), so on a quiet host of that kind the scaled
# times are the wall times. There, in two sets of ten runs per workload,
# the run-to-run spread (IQR/median) of the median op was 0.10-0.85 raw and
# 0.05-0.18 scaled. Raw op, set-up and probe times are kept in the record.
PROBE_REF_S = 0.016

END_TO_END = {
    "op_s_p50_norm": "s",  # median op, each op scaled by the probes around it
    "setup_s": "s",        # median start-to-first-timed-op of the processes, scaled
    "peak_rss_mb": "MB",   # largest ru_maxrss of the processes
    "ok_frac": "ratio",    # ops that passed their gate / ops attempted
}

_SCENARIO_CHECKS = ("group_axioms", "equivariance", "conjugation_exact",
                    "conjugation_statistical", "spectrum_invariance",
                    "commutation_symmetric", "invariant_set_image")

PER_LAYER = {
    "dynamics.step.calls": "count",
    "dynamics.step.self_s": "s",
    "dynamics.simulate.calls": "count",
    "dynamics.simulate.steps": "count",
    "dynamics.simulate.self_s": "s",
    "dynamics.snapshots.self_s": "s",
    "dynamics.save_trajectory.bytes": "B",
    "dynamics.save_trajectory.self_s": "s",
    "dynamics.load_trajectory.bytes": "B",
    "dynamics.load_trajectory.self_s": "s",
    "dictionaries.lift.columns": "count",
    "dictionaries.lift.self_s": "s",
    "dictionaries.induced_representation.calls": "count",
    "dictionaries.induced_representation.probe_calls": "count",
    "dictionaries.induced_representation.self_s": "s",
    "koopman.fit_edmd.calls": "count",
    "koopman.fit_edmd.self_s": "s",
    "koopman.fit_edmd.rank_ratio": "ratio",
    "koopman.spectrum.self_s": "s",
    "koopman.predict.self_s": "s",
    "groups.generate_group.calls": "count",
    "groups.generate_group.order": "count",
    "groups.generate_group.self_s": "s",
    "groups.check_axioms.self_s": "s",
    "groups.check_equivariance.self_s": "s",
    "equivariant.transport_case1.calls": "count",
    "equivariant.assemble_global.self_s": "s",
    "equivariant.global_predict.self_s": "s",
    "equivariant.verify_conjugation.self_s": "s",
    "equivariant.verify_invariant_set_image.self_s": "s",
    "equivariant.data_stabilizer_labels.self_s": "s",
    "equivariant.data_stabilizer_labels.tensor_bytes": "B_computed",
    **{f"scenarios.check_{name}.self_s": "s" for name in _SCENARIO_CHECKS},
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",  # fastest traced op minus fastest untraced op
}

# counts that must repeat exactly between traced ops and runs of one seed
DETERMINISTIC = {"calls", "steps", "bytes", "columns", "probe_calls", "order",
                 "tensor_bytes"}


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def git_commit():
    """The commit of a git checkout, read from .git without running git."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest():
    """sha256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host():
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level.strip()} {(kind or '').strip()}"] = size.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def run_workers(args, deadline):
    """Start the worker processes one after another; return their results."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}"
    results = []
    for i in range(PROCESSES):
        workdir.mkdir(exist_ok=True)
        for stale in workdir.iterdir():
            stale.unlink()
        result_path = OUT / f"worker-{args.workload}-{i}.json"
        result_path.unlink(missing_ok=True)
        command = [
            sys.executable, str(ROOT / "perfbench" / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds / PROCESSES), "--trace", str(args.trace),
            "--workdir", workdir.relative_to(ROOT).as_posix(),
            "--result", str(result_path),
        ]
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}-p{i}.json"
            command += ["--spans", str(spans)]
        command += ["--t0", repr(time.monotonic())]
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                              env={**os.environ, **WORKER_ENV},
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {i} exited with {proc.returncode}")
        results.append(json.loads(result_path.read_text()))
        result_path.unlink()
    return results


def scaled_op_seconds(result):
    """A worker's op times, each scaled to the reference host speed by the
    probes taken just before and just after it."""
    probes = result["host_probe_s"]
    return [seconds * PROBE_REF_S / statistics.fmean(probes[i:i + 2])
            for i, (seconds, _, _) in enumerate(result["ops"])]


def end_to_end(results, ops):
    passed = sum(1 for _, _, failure in ops if failure is None)
    return {
        "op_s_p50_norm": statistics.median(
            s for r in results for s in scaled_op_seconds(r)),
        "setup_s": statistics.median(
            r["setup_s"] * PROBE_REF_S / r["host_probe_s"][0] for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "ok_frac": passed / len(ops),
    }


def per_layer(ops, layer_stats, problems):
    """Medians of the traced ops' self times; counts, which must repeat."""
    first = layer_stats[0]
    for stats in layer_stats[1:]:
        for key, value in stats.items():
            if key.rsplit(".", 1)[1] in DETERMINISTIC and value != first.get(key):
                problems.append(f"count {key} differs between traced ops: "
                                f"{first.get(key)} vs {value}")
    values = {}
    for name in PER_LAYER:
        if name.endswith("_s") and name in first:
            values[name] = statistics.median(s[name] for s in layer_stats)
        else:
            values[name] = first.get(name, 0)
    fits = first.get("koopman.fit_edmd.features", 0)
    values["koopman.fit_edmd.rank_ratio"] = (
        first.get("koopman.fit_edmd.rank_used", 0) / fits if fits else 0.0)
    traced = [seconds for seconds, was_traced, _ in ops if was_traced]
    untraced = [seconds for seconds, was_traced, _ in ops if not was_traced]
    values["trace.overhead_s"] = min(traced) - min(untraced)
    return values, statistics.median(traced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "symkoop" / "__init__.py").is_file():
        print(f"error: no symkoop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        results = run_workers(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    ops = [op for r in results for op in r["ops"]]
    problems = [f"warm-up op failed: {r['warmup_failure']}"
                for r in results if r["warmup_failure"]]
    problems += sorted({f"op failed: {failure}" for _, _, failure in ops if failure})
    digests = {json.dumps(r["record"].get("digests"), sort_keys=True) for r in results}
    if len(digests) > 1:
        problems.append("output files differ between processes of one seed")

    if args.trace:
        layer_stats = [s for r in results for s in r["layer_stats"]]
        metrics, traced_p50 = per_layer(ops, layer_stats, problems)
        units = PER_LAYER
    else:
        metrics = end_to_end(results, ops)
        units = END_TO_END
    failed = sum(1 for _, _, failure in ops if failure)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "processes": PROCESSES,
        "samples": len(ops),
        "op_s_p50": statistics.median(seconds for seconds, traced, _ in ops
                                      if not traced),
        "op_s_min": min(seconds for seconds, traced, _ in ops if not traced),
        "host_probe_min_s": min(p for r in results for p in r["host_probe_s"]),
        "setup_s_wall": statistics.median(r["setup_s"] for r in results),
        "environment": {**results[0]["environment"], **host()},
        "metrics": metrics,
        "problems": problems,
        "processes_detail": [
            {"setup_s": r["setup_s"], "peak_rss_mb": r["peak_rss_mb"],
             "op_s": [seconds for seconds, _, _ in r["ops"]],
             "host_probe_s": r["host_probe_s"], "record": r["record"]}
            for r in results
        ],
    }
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} ops in "
          f"{PROCESSES} processes, median op {record['op_s_p50']:.6g} s, fastest "
          f"{record['op_s_min']:.6g} s, fastest probe "
          f"{record['host_probe_min_s']:.6g} s, "
          f"record in {record_path.relative_to(ROOT)}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, value in metrics.items():
        share = ""
        if args.trace and name.endswith(".self_s") and traced_p50 > 0:
            share = f"  ({100 * value / traced_p50:.1f}% of the traced op)"
        print(f"{name} = {value:.6g} {units[name]}{share}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
