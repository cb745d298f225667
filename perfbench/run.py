"""graphpsd benchmark: time the estimation pipeline end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload reference --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``reference``,
``vertex_large`` and ``estimate_large``.  With ``--trace 0`` the run times
set-up five times (four set-up-only processes and the measuring process)
and then runs calls for ``--seconds`` in one fresh process with tracing off;
it reports the end-to-end metrics.  With ``--trace 1`` it runs pairs of an
untraced and a traced call and reports the per-layer metrics.  Every call's
outputs are checked after the timed region (``checks.py``).

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with the environment and, when traced, the
spans, goes to ``.perfbench_results/``.  The exit code is not 0, and no
result is printed, when the package cannot be built or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("reference", "vertex_large", "estimate_large")
SETUP_PROBES = 4  # set-up-only processes; the measuring process is one more sample
DEADLINE_S = 170.0

END_TO_END = ("pipeline_s", "pipeline_cpu_s", "setup_s", "peak_rss_mb")


class BenchmarkError(Exception):
    pass


def run_worker(args, mode, work_dir, deadline):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--work-dir", work_dir]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a worker")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} worker timed out") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - started
    return report


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(args, work_dir, deadline, units):
    setups = [run_worker(args, "setup", work_dir, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    report = run_worker(args, "measure", work_dir, deadline)
    setups.append(report["setup_s"])
    calls = report["calls"]
    metrics = {
        "pipeline_s": statistics.median(c["wall_s"] for c in calls),
        "pipeline_cpu_s": statistics.median(c["cpu_s"] for c in calls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    nmses = [c["nmse"] for c in calls if c["nmse"] is not None]
    failed = sum(1 for c in calls if c["problems"])
    lines = [f"{name:<16} {metrics[name]:.6g} {units.get(name, '?')}" for name in metrics]
    lines[0] += f"  (median of {len(calls)} calls; wall per call: " + \
        ", ".join(f"{c['wall_s']:.3f}" for c in calls) + ")"
    lines[2] += "  (median of set-ups: " + ", ".join(f"{s:.3f}" for s in setups) + ")"
    lines.append(f"{'nmse_p50':<16} {statistics.median(nmses) if nmses else float('nan'):.6g} ratio"
                 "  (varies with the seed; not a bounded metric)")
    lines.append(f"{'failed_frac':<16} {failed / len(calls):.6g} ratio  ({failed} of {len(calls)} calls)")
    report["setups_s"] = setups
    return report, metrics, lines


def per_layer(args, work_dir, deadline, units):
    report = run_worker(args, "trace", work_dir, deadline)
    metrics = report.get("metrics", {})
    lines = []
    for name, value in metrics.items():
        note = f"  (computed: {report['computed'][name]})" if name in report["computed"] else ""
        lines.append(f"{name:<34} {value:.6g} {units.get(name, '?')}{note}")
    if metrics:
        wall = statistics.median(c["wall_s"] for c in report["calls"])
        shares = ", ".join(f"{m} {t / wall:.1%}" for m, t in
                           sorted(report["module_self_s"].items(), key=lambda kv: -kv[1]))
        lines.append(f"self time by module, share of a traced call ({wall:.3f} s): {shares}")
    return report, metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "graphpsd", "__init__.py")):
        print(f"no graphpsd sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    units = declared_units(args.trace)
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        measure = per_layer if args.trace else end_to_end
        report, metrics, lines = measure(args, work_dir, deadline, units)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    calls = report["calls"]
    failed = sum(1 for c in calls if c["problems"])
    problems = [p for c in calls for p in c["problems"]]
    if sorted(metrics) != sorted(units):
        problems.append(f"metric names {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")

    env = report["environment"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']['name']} {env['blas']['version']}, BLAS threads {env['blas_threads']}, "
          f"nproc {env['nproc']}, {env['cpu_model']}")
    for line in lines:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem.strip()}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "metrics": metrics, "units": units, "problems": problems,
              **{k: v for k, v in report.items() if k not in ("spans", "environment", "metrics")}}
    out_dir = os.path.join(ROOT, ".perfbench_results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(report["spans"], fh)

    print(json.dumps({
        "correct": not problems,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
