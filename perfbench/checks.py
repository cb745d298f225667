"""Per-call output checks, run after the timed region.

A call passes when every check that applies to it holds:

- the model had full column rank and the NMSE is finite;
- the reported true spectrum is the one the call's graph and filter give,
  and the reported NMSE is the one its estimate gives;
- re-estimating from the population covariance on the chosen pattern
  recovers the true spectrum to the tolerances of acceptance criteria 1
  (spectral, 1e-8) and 2 (vertex, 1e-6), relative sup-norm;
- greedy calls only: the selection order equals the one ``golden.json``
  records for the same graph, and ``|final - sum(gains)| / |final|`` stays
  within the tolerance recorded there.
"""

from __future__ import annotations

import numpy as np

from graphpsd import graphs, sampling, spectral

RECOVERY_TOLERANCE = {sampling.SPECTRAL: 1e-8, sampling.VERTEX: 1e-6}


def gain_drift(final_value, gains):
    """How far the greedy gains' sum is from the final objective value, relative to it."""
    return abs(final_value - sum(gains)) / abs(final_value)


def relative_sup_error(estimate, truth):
    return float(np.abs(np.asarray(estimate) - truth).max() / np.abs(truth).max())


class Checker:
    """Checks the calls of one workload; caches the last graph's ground truth."""

    def __init__(self, workload, golden):
        self.workload = workload
        self.golden = golden
        self._setting_key = None
        self._setting = None
        self._recovery = {}

    def golden_order(self, graph_seed):
        chosen = self.golden[self.workload.name]["chosen"]
        return chosen[str(graph_seed)] if isinstance(chosen, dict) else chosen

    def _ground_truth(self, cfg):
        key = cfg.graph
        if key != self._setting_key:
            shift = graphs.build_shift_operator(cfg.graph.build(), cfg.shift_kind)
            basis = spectral.eigendecompose(shift)
            filt = cfg.filter.build(basis)
            self._setting = (
                shift,
                basis,
                spectral.true_power_spectrum(filt, basis),
                spectral.true_covariance(filt, basis),
            )
            self._setting_key = key
            self._recovery = {}
        return self._setting

    def recovery_error(self, cfg, selected):
        """``(rank_ok, relative sup error)`` of re-estimating from the population covariance."""
        if selected not in self._recovery:
            shift, basis, p_true, cov = self._ground_truth(cfg)
            pattern = sampling.SamplingPattern(n_vertices=shift.n, selected=selected)
            cov_sub = sampling.subsampled_covariance(cov, pattern)
            if cfg.domain == sampling.SPECTRAL:
                model = sampling.build_spectral_model(basis, pattern)
                est = sampling.estimate_spectrum_spectral(cov_sub, model)
            else:
                model = sampling.build_vertex_model(shift, pattern, cfg.q)
                est = sampling.estimate_spectrum_vertex(cov_sub, model, basis)
            self._recovery[selected] = (est.rank_ok, relative_sup_error(est.p_hat, p_true))
        return self._recovery[selected]

    def check(self, cfg, outputs):
        """Return the list of failed checks (empty when the call is correct)."""
        problems = []
        if not outputs.rank_ok:
            problems.append("model is rank deficient")
        if not np.isfinite(outputs.nmse):
            problems.append(f"NMSE is not finite: {outputs.nmse}")
        _, _, p_true, _ = self._ground_truth(cfg)
        if outputs.p_true.shape != p_true.shape or relative_sup_error(outputs.p_true, p_true) > 1e-12:
            problems.append("reported true spectrum differs from the graph's")
            return problems
        nmse = float(np.sum((outputs.p_hat - p_true) ** 2) / np.sum(p_true**2))
        if not abs(nmse - outputs.nmse) <= 1e-9 * abs(nmse):
            problems.append(f"reported NMSE {outputs.nmse} but the estimate gives {nmse}")
        if len(outputs.selected) != cfg.k:
            problems.append(f"pattern has {len(outputs.selected)} vertices, expected {cfg.k}")
            return problems
        rank_ok, err = self.recovery_error(cfg, tuple(outputs.selected))
        tol = RECOVERY_TOLERANCE[cfg.domain]
        if not (rank_ok and err <= tol):
            problems.append(f"population re-estimate error {err:.3g} (tolerance {tol:g}, rank_ok={rank_ok})")
        if cfg.sampler == "greedy":
            expected = self.golden_order(cfg.graph.seed)
            if list(outputs.chosen) != expected:
                problems.append(f"greedy order {list(outputs.chosen)} differs from recorded {expected}")
            drift = gain_drift(outputs.final_value, outputs.gains)
            if not drift <= self.golden["gain_drift_tolerance"]:
                problems.append(f"gain drift {drift:.3g} above {self.golden['gain_drift_tolerance']:.3g}")
        return problems
