"""Regenerate ``golden.json``: what the checks compare against, and the input pools.

- ``reference``: the greedy selection order and gain drift on its graph.
- ``vertex_large``: the same for each graph seed of its pool.
- ``estimate_large``: the pool of graph seeds (each also the call's
  snapshot and sampler seed) whose random pattern lets the population
  covariance recover the spectrum to a tenth of the check's 1e-8.  A random
  pattern can leave a localized eigenvector barely observed, and then no
  solver recovers that component to 1e-8.  Rejected seeds are listed with
  their error.
- ``gain_drift_tolerance``: ten times the largest gain drift recorded.

The orders were recorded with the package's original per-candidate greedy
loop; rerunning this script on a later version shows whether that version
still selects the same vertices.

Usage, from the repository root (about ten minutes)::

    python3 perfbench/golden.py            # rewrites perfbench/golden.json
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from graphpsd import design, experiments, graphs, sampling, spectral  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

DRIFT_TOLERANCE_FACTOR = 10.0
POOL_RECOVERY_LIMIT = 1e-9


def greedy_order(workload, graph_seed):
    graph = graphs.random_sensor_graph(workload.n, workloads.K_NEIGHBORS, graph_seed)
    shift = graphs.build_shift_operator(graph, graphs.LAPLACIAN)
    if workload.domain == sampling.SPECTRAL:
        objective = design.DesignObjective.spectral(spectral.eigendecompose(shift))
    else:
        objective = design.DesignObjective.vertex(shift, workload.q)
    _, trace = design.greedy_design(objective, workload.k)
    return [int(v) for v in trace.chosen], checks.gain_drift(trace.final_value, trace.gains)


def random_recovery_error(workload, graph_seed):
    """Population re-estimate error of the call whose graph and sampler seed is ``graph_seed``."""
    cfg = experiments.ExperimentConfig(
        graph=experiments.GraphSpec(n=workload.n, k_neighbors=workloads.K_NEIGHBORS, seed=graph_seed),
        domain=workload.domain, k=workload.k, sampler=workload.sampler, seed=graph_seed,
    )
    pattern = design.random_design(cfg.graph.n, cfg.k, seed=cfg.seed)
    rank_ok, error = checks.Checker(workload, {}).recovery_error(cfg, pattern.selected)
    return error if rank_ok else None


def main():
    ref = workloads.REFERENCE
    order, drift = greedy_order(ref, ref.graph_seed)
    golden = {"reference": {"graph_seed": ref.graph_seed, "chosen": order, "gain_drift": drift}}
    drifts = [drift]

    vl = workloads.VERTEX_LARGE
    chosen, vl_drift = {}, {}
    for graph_seed in vl.candidates:
        chosen[str(graph_seed)], vl_drift[str(graph_seed)] = greedy_order(vl, graph_seed)
        print(f"vertex_large graph seed {graph_seed}: drift {vl_drift[str(graph_seed)]:.3g}", flush=True)
    golden["vertex_large"] = {"pool": list(vl.candidates), "chosen": chosen, "gain_drift": vl_drift}
    drifts += vl_drift.values()

    el = workloads.ESTIMATE_LARGE
    errors = {}
    for graph_seed in el.candidates:
        errors[str(graph_seed)] = random_recovery_error(el, graph_seed)
        print(f"estimate_large graph seed {graph_seed}: recovery error {errors[str(graph_seed)]}", flush=True)
    golden["estimate_large"] = {
        "pool": [s for s in el.candidates if errors[str(s)] is not None and errors[str(s)] <= POOL_RECOVERY_LIMIT],
        "pool_recovery_limit": POOL_RECOVERY_LIMIT,
        "recovery_error": errors,
    }

    golden["gain_drift_tolerance"] = DRIFT_TOLERANCE_FACTOR * max(drifts)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
