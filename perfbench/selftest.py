"""Self-tests of the benchmark, on small instances (a few seconds).

Usage, from the repository root::

    python3 perfbench/selftest.py

Checks that

1. the metric names the benchmark produces are those ``BENCHMARK.json``
   declares (each run checks this again on what it prints);
2. a traced call's deterministic outputs are byte-identical to an untraced
   call's with the same config, for each workload's call path;
3. the computed ``design.gain_evals`` equals the number of candidate gains
   the per-candidate greedy loop evaluates, counted by wrapping
   ``DesignObjective.rows_for_candidate``.  This pins the formula to the
   original gain path; a batched gain path may stop calling that method,
   and then this test reports a mismatch while the formula still holds.

Exits 0 when all pass.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from graphpsd import design, experiments, graphs, spectral  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = (
    dataclasses.replace(workloads.REFERENCE, n=30, k=8),
    dataclasses.replace(workloads.VERTEX_LARGE, n=40, k=6),
    dataclasses.replace(workloads.ESTIMATE_LARGE, n=40, k=12),
)


def traced_matches_untraced(work_dir):
    failures, per_call = [], []
    tracer = tracing.Tracer()
    for index, workload in enumerate(SMALL):
        fingerprints = []
        for tag in ("plain", "traced"):
            cfg, call, collect = workload.prepare(7, index, os.path.join(work_dir, f"{workload.name}-{tag}"))
            if tag == "traced":
                with tracer.installed(index):
                    outputs = collect(call())
            else:
                outputs = collect(call())
            fingerprints.append(outputs.fingerprint())
        if fingerprints[0] != fingerprints[1]:
            failures.append(f"{workload.name}: traced outputs differ from untraced")
        layers = tracing.layer_metrics([tracing.call_layers(tracer.call_spans(index))],
                                       tracing.computed_counts(cfg), [outputs.nmse])
        per_call.append(layers)
    return failures, per_call


def metric_names(per_call):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []
    produced = sorted(list(per_call[0]) + ["trace.overhead_s"])
    if produced != sorted(m["name"] for m in spec["per_layer"]):
        failures.append(f"per-layer names {produced} differ from BENCHMARK.json")
    if sorted(run.END_TO_END) != sorted(m["name"] for m in spec["end_to_end"]):
        failures.append(f"end-to-end names {sorted(run.END_TO_END)} differ from BENCHMARK.json")
    return failures


def gain_evals_formula():
    failures = []
    original = design.DesignObjective.rows_for_candidate
    counter = {"calls": 0}

    def counting(self, selected, candidate):
        counter["calls"] += 1
        return original(self, selected, candidate)

    shift = graphs.build_laplacian(graphs.random_sensor_graph(24, 4, seed=3))
    objectives = {
        "spectral": design.DesignObjective.spectral(spectral.eigendecompose(shift)),
        "vertex": design.DesignObjective.vertex(shift, 5),
    }
    design.DesignObjective.rows_for_candidate = counting
    try:
        for domain, objective in objectives.items():
            for k in (1, 5, 9):
                counter["calls"] = 0
                design.greedy_design(objective, k)
                cfg = experiments.ExperimentConfig(graph=experiments.GraphSpec(n=24), k=k, domain=domain, q=5)
                expected = tracing.computed_counts(cfg)["design.gain_evals"]
                if counter["calls"] != expected:
                    failures.append(f"{domain} K={k}: counted {counter['calls']} gains, formula {expected}")
    finally:
        design.DesignObjective.rows_for_candidate = original
    return failures


def main():
    work_dir = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    try:
        failures, per_call = traced_matches_untraced(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failures += metric_names(per_call)
    failures += gain_evals_formula()
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
