"""How good is the greedy sampler, and what does its objective really satisfy?

Three measurements: greedy against the exhaustive optimum on instances small
enough to enumerate; greedy against random selection across budgets; and an
empirical audit of the regularized log-det set function itself.  The audit
shows the function is normalized and monotone but *not* submodular: a new
vertex contributes 2|X|+1 model rows, and the cross rows shared with
already-selected vertices create increasing returns.  (Two vertices whose
self rows are parallel but whose cross rows are not -- any two-vertex graph
-- already violate diminishing returns by about 2 log 2.)  Greedy remains
near-optimal on every instance we can verify exhaustively.
"""

import math

from graphpsd import (
    DesignObjective,
    ExperimentConfig,
    GraphSpec,
    brute_force_design,
    build_laplacian,
    check_submodularity,
    compression_sweep,
    eigendecompose,
    greedy_design,
    objective_value,
    random_sensor_graph,
)

print("greedy vs exhaustive optimum (N=8, K=3):")
ratios = []
for seed in range(5):
    graph = random_sensor_graph(8, 3, seed=200 + seed)
    basis = eigendecompose(build_laplacian(graph))
    objective = DesignObjective.spectral(basis)
    _, trace = greedy_design(objective, 3)
    best = brute_force_design(objective, 3)
    ratio = trace.final_value / objective_value(objective, best)
    ratios.append(ratio)
    print(f"  instance {seed}: greedy/optimal = {ratio:.4f}")
print(f"  worst ratio {min(ratios):.4f} (guarantee would be 1-1/e = {1-1/math.e:.4f})")

print("\ngreedy vs random across budgets (N=100, population covariance):")
cfg = ExperimentConfig(
    graph=GraphSpec(n=100, k_neighbors=6, seed=1),
    n_snapshots=0,  # the population covariance
)
rows = compression_sweep(cfg, [14, 20, 35, 50], n_seeds=5)
print("    K  sampler  mean nmse    rank-ok fraction")
for row in rows:
    print(f"  {row['k']:3d}  {row['sampler']:7s}  {row['mean_nmse']:.3e}  "
          f"{row['rank_ok_fraction']:.2f}")

print("\nset-function audit of the log-det objective (200 chains per instance):")
for n in (6, 8, 10):
    graph = random_sensor_graph(n, 3, seed=300 + n)
    basis = eigendecompose(build_laplacian(graph))
    report = check_submodularity(DesignObjective.spectral(basis), trials=200, seed=0)
    print(f"  n={n:2d}: normalized={report.normalization_ok}, "
          f"monotonicity violations={report.monotonicity_violations}, "
          f"diminishing-returns violations={report.diminishing_returns_violations} "
          f"(worst {report.max_violation:.2f} nats)")
