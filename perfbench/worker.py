"""One benchmark process: set up, run one workload's calls, check them, report.

Started by ``run.py``; prints one JSON line as the last line of its output.
``--mode setup`` stops after set-up (import plus one warm-up call) and
reports when it got there; ``--mode measure`` then runs calls for
``--seconds`` with tracing off, and ``--mode trace`` runs pairs of an
untraced and a traced call on the same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import graphpsd  # noqa: E402

if not os.path.abspath(graphpsd.__file__).startswith(SRC + os.sep):
    sys.exit(f"graphpsd imported from {graphpsd.__file__}, not from {SRC}")

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from envinfo import environment  # noqa: E402


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed(call, collect):
    """Run one call and read its outputs; return them (or the error) with the call's wall and CPU seconds."""
    c0, t0 = cpu_seconds(), time.perf_counter()
    try:
        raw = call()
    except Exception:  # a failed call is counted, not fatal
        return None, traceback.format_exc(limit=3), time.perf_counter() - t0, cpu_seconds() - c0
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    try:
        return collect(raw), None, wall, cpu
    except Exception:
        return None, traceback.format_exc(limit=3), wall, cpu


class Run:
    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir

    def prepare(self, index, tag="", k=None):
        out_dir = os.path.join(self.work_dir, f"{index}{tag}")
        return self.workload.prepare(self.seed, index, out_dir, k=k)

    def warm_up(self):
        _, call, _ = self.prepare(workloads.WARMUP_INDEX, k=workloads.WARMUP_K)
        call()
        shutil.rmtree(os.path.join(self.work_dir, str(workloads.WARMUP_INDEX)), ignore_errors=True)

    def calls(self, seconds):
        """Yield call indices until ``seconds`` have passed (at least one)."""
        limit = self.workload.max_calls()
        start = time.perf_counter()
        index = 0
        while index == 0 or (time.perf_counter() - start < seconds and (limit is None or index < limit)):
            yield index
            index += 1


def measure(run, seconds, checker):
    records = []
    for index in run.calls(seconds):
        cfg, call, collect = run.prepare(index)
        outputs, error, wall, cpu = timed(call, collect)
        records.append((cfg, outputs, error, wall, cpu))
    rss = peak_rss_mb()
    calls = []
    for cfg, outputs, error, wall, cpu in records:
        problems = [error] if error else checker.check(cfg, outputs)
        calls.append({"graph_seed": cfg.graph.seed, "seed": cfg.seed, "wall_s": wall, "cpu_s": cpu,
                      "nmse": outputs.nmse if outputs else None, "problems": problems})
    return {"calls": calls, "peak_rss_mb": rss}


def trace(run, seconds, checker):
    """Pairs of an untraced and a traced call on the same inputs, in alternating order."""
    tracer = tracing.Tracer()
    calls, per_call, overheads, nmses = [], [], [], []
    counts = None
    for index in run.calls(seconds):
        for traced_turn in (False, True) if index % 2 == 0 else (True, False):
            cfg, call, collect = run.prepare(index, "-traced" if traced_turn else "-plain")
            if traced_turn:
                with tracer.installed(index):
                    traced, error, wall, cpu = timed(call, collect)
            else:
                plain, plain_error, plain_wall, _ = timed(call, collect)
        problems = [e for e in (plain_error, error) if e]
        if not problems:
            problems = checker.check(cfg, traced)
            if plain.fingerprint() != traced.fingerprint():
                problems.append("traced call's outputs differ from the untraced call's")
            per_call.append(tracing.call_layers(tracer.call_spans(index)))
            overheads.append(wall - plain_wall)
            nmses.append(traced.nmse)
        counts = tracing.computed_counts(cfg)
        calls.append({"graph_seed": cfg.graph.seed, "seed": cfg.seed, "wall_s": wall, "cpu_s": cpu,
                      "untraced_wall_s": plain_wall, "problems": problems})
    result = {"calls": calls, "spans": tracer.spans, "computed": tracing.COMPUTED}
    if per_call:
        metrics = tracing.layer_metrics(per_call, counts, nmses)
        metrics["trace.overhead_s"] = statistics.median(overheads)
        result["metrics"] = metrics
        result["module_self_s"] = {
            m: statistics.median(c["module_self_s"].get(m, 0.0) for c in per_call)
            for m in sorted({m for c in per_call for m in c["module_self_s"]})
        }
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    run = Run(workload, args.seed, args.work_dir)
    run.warm_up()
    report = {"ready": time.monotonic()}
    if args.mode != "setup":
        checker = checks.Checker(workload, workloads.golden())
        if args.mode == "measure":
            report.update(measure(run, args.seconds, checker))
        else:
            report.update(trace(run, args.seconds, checker))
        report["environment"] = environment()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
