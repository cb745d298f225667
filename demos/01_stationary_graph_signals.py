"""Stationary signals on a sensor graph, from filter to sample covariance.

Builds a random geometric sensor network, shapes white noise with a lowpass
polynomial filter of the graph Laplacian, and checks the two facts that make
everything downstream work: the process covariance is diagonalized by the
graph Fourier basis, and its diagonal in that basis -- the graph power
spectrum -- is the squared frequency response of the filter.
"""

import numpy as np

from graphpsd import (
    basis_filter_rows,
    build_laplacian,
    eigendecompose,
    fit_lowpass_filter,
    is_stationary,
    random_sensor_graph,
    sample_covariance,
    synthesize,
    true_covariance,
    true_power_spectrum,
)

graph = random_sensor_graph(100, k_neighbors=6, seed=1)
print(f"sensor graph: {graph.n_vertices} vertices, {graph.n_edges} edges")

shift = build_laplacian(graph)
basis = eigendecompose(shift)
print(f"Laplacian spectrum: [{basis.eigenvalues[0]:.2e}, {basis.eigenvalues[-1]:.3f}]")

filt = fit_lowpass_filter(basis, length=7, rate=3.0)
print(f"lowpass filter coefficients: {np.array2string(filt.coefficients, precision=4)}")

# the spectrum is the squared response; compare with the rotated covariance
p = true_power_spectrum(filt, basis)
h = basis_filter_rows(filt, basis)  # all N rows: the filter matrix H
rotated = np.diag(basis.eigenvectors.T @ (h @ h.T) @ basis.eigenvectors)
print(f"spectrum range: [{p.min():.4f}, {p.max():.4f}]")
print(f"|diag(U^T H H^T U) - p|_max = {np.abs(rotated - p).max():.2e}")

# population covariance is stationary by construction; sample covariance
# approaches it as snapshots accumulate
r_true = true_covariance(filt, basis)
_, ratio_true = is_stationary(r_true, basis)
print(f"population covariance off-diagonal energy ratio: {ratio_true:.2e}")

for n_snapshots in (100, 1000, 10000):
    snapshots = synthesize(filt, basis, n_snapshots, seed=0)
    r_hat = sample_covariance(snapshots)
    _, ratio = is_stationary(r_hat, basis)
    err = np.linalg.norm(r_hat.matrix - r_true.matrix) / np.linalg.norm(r_true.matrix)
    print(f"N_s={n_snapshots:>6}: covariance rel. error {err:.3f}, "
          f"off-diagonal ratio {ratio:.4f}")
