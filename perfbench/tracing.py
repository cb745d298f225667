"""Spans around the package's public functions, and the per-layer metrics from them.

A traced call runs with the functions below replaced, on their modules, by
wrappers that record a span: name, start, end, parent span and call id.
``experiments`` and ``cli`` reach every layer through these module
attributes, so the package itself is unchanged.  Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

from graphpsd import cli, design, experiments, graphs, sampling, spectral

import checks


def _greedy_attrs(result):
    _, trace = result
    return {"final_value": trace.final_value, "gain_drift": checks.gain_drift(trace.final_value, trace.gains)}


# (module, attribute, span name, attributes recorded from the return value)
TARGETS = (
    (graphs, "random_sensor_graph", "graphs.random_sensor_graph", lambda g: {"n_edges": g.n_edges}),
    (graphs, "build_shift_operator", "graphs.build_shift_operator", None),
    (spectral, "eigendecompose", "spectral.eigendecompose", None),
    (spectral, "fit_lowpass_filter", "spectral.fit_lowpass_filter", None),
    (spectral, "true_power_spectrum", "spectral.true_power_spectrum", None),
    (spectral, "true_covariance", "spectral.true_covariance", None),
    (spectral, "synthesize", "spectral.synthesize", None),
    (spectral, "sample_covariance", "spectral.sample_covariance", None),
    (design.DesignObjective, "spectral", "design.objective_build", None),
    (design.DesignObjective, "vertex", "design.objective_build", None),
    (design, "greedy_design", "design.greedy_design", _greedy_attrs),
    (design, "random_design", "design.random_design", None),
    (design, "objective_value", "design.objective_value", None),
    (sampling, "subsampled_covariance", "sampling.subsampled_covariance", None),
    (sampling, "build_spectral_model", "sampling.build_model", None),
    (sampling, "build_vertex_model", "sampling.build_model", None),
    (sampling, "estimate_spectrum_spectral", "sampling.estimate", lambda e: {"rank_ok": bool(e.rank_ok)}),
    (sampling, "estimate_spectrum_vertex", "sampling.estimate", lambda e: {"rank_ok": bool(e.rank_ok)}),
    (experiments, "run_experiment", "experiments.run_experiment",
     lambda r: {"write_s": r.runtimes.get("write", 0.0)}),
    (cli, "main", "cli.main", None),
)


class Tracer:
    """Records spans of the calls made while it is installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._call = None

    def _wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "call": self._call,
                    "parent": self._stack[-1]["id"] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span["attrs"] = attrs(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, call_id):
        """Patch every target for the duration of one call, then restore it."""
        saved = []
        self._call = call_id
        try:
            for owner, attr, name, attrs in TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(original.__func__, name, attrs)))
                else:
                    setattr(owner, attr, self._wrap(original, name, attrs))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._call = None

    def call_spans(self, call_id):
        return [s for s in self.spans if s["call"] == call_id]


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in spans}


def computed_counts(cfg):
    """Work and memory sizes that follow from the call's configuration alone."""
    n, k = cfg.graph.n, cfg.k
    m = n if cfg.domain == sampling.SPECTRAL else cfg.q
    greedy = cfg.sampler == "greedy"
    rows = k * k
    return {
        "design.gain_evals": k * n - k * (k - 1) // 2 if greedy else 0,
        "design.objective_mb": n * n * m * 8 / 1e6 if greedy else 0.0,
        "sampling.model_mb": rows * m * 8 / 1e6,
        # thin SVD with U, S and V (Golub & Van Loan's R-SVD count)
        "sampling.svd_flops": 6 * rows * m * m + 11 * m**3,
        # symmetric eigendecomposition with eigenvectors
        "spectral.eigh_flops": 9 * n**3,
    }


COMPUTED = {
    "design.gain_evals": "K*N - K*(K-1)/2 candidate gains, greedy only",
    "design.objective_mb": "N*N*M*8 bytes of pair rows, greedy only",
    "sampling.model_mb": "K*K*M*8 bytes of model matrix",
    "sampling.svd_flops": "6*K^2*M^2 + 11*M^3 for the thin SVD",
    "spectral.eigh_flops": "9*N^3 for eigh with eigenvectors",
}

_TIMED = {
    "design.greedy_s": "design.greedy_design",
    "design.objective_build_s": "design.objective_build",
    "design.objective_value_s": "design.objective_value",
    "sampling.estimate_s": "sampling.estimate",
    "sampling.model_build_s": "sampling.build_model",
    "sampling.subsampled_covariance_s": "sampling.subsampled_covariance",
    "spectral.eigendecompose_s": "spectral.eigendecompose",
    "spectral.synthesize_s": "spectral.synthesize",
    "spectral.sample_covariance_s": "spectral.sample_covariance",
    "spectral.fit_lowpass_filter_s": "spectral.fit_lowpass_filter",
    "graphs.random_sensor_graph_s": "graphs.random_sensor_graph",
    "graphs.build_shift_operator_s": "graphs.build_shift_operator",
    "experiments.run_experiment_s": "experiments.run_experiment",
    "cli.main_s": "cli.main",
}


def call_layers(spans):
    """Per-layer numbers of one traced call, from its spans."""
    own = self_times(spans)
    out = {key: sum((s["end"] - s["start"] for s in spans if s["name"] == name), 0.0) for key, name in _TIMED.items()}
    out["experiments.self_s"] = sum((own[s["id"]] for s in spans if s["name"] == "experiments.run_experiment"), 0.0)
    out["cli.self_s"] = sum((own[s["id"]] for s in spans if s["name"] == "cli.main"), 0.0)
    attrs = {}
    for s in spans:
        attrs.update(s.get("attrs", {}))
    out["experiments.write_s"] = attrs.get("write_s", 0.0)
    out["graphs.n_edges"] = attrs.get("n_edges", 0)
    out["sampling.rank_ok"] = attrs.get("rank_ok", False)
    out["design.final_logdet"] = attrs.get("final_value", 0.0)
    out["design.gain_drift"] = attrs.get("gain_drift", 0.0)
    modules = {}
    for s in spans:
        module = s["name"].split(".")[0]
        modules[module] = modules.get(module, 0.0) + own[s["id"]]
    out["module_self_s"] = modules
    return out


def layer_metrics(per_call, counts, nmses):
    """Aggregate traced calls into the per-layer metrics: medians over calls."""
    metrics = {key: statistics.median(c[key] for c in per_call)
               for key in list(_TIMED) + ["experiments.self_s", "cli.self_s", "experiments.write_s",
                                         "graphs.n_edges", "design.final_logdet", "design.gain_drift"]}
    metrics.update(counts)
    evals = counts["design.gain_evals"]
    metrics["design.gain_eval_us"] = metrics["design.greedy_s"] / evals * 1e6 if evals else 0.0
    metrics["sampling.rank_ok_frac"] = sum(c["sampling.rank_ok"] for c in per_call) / len(per_call)
    metrics["sampling.nmse_p50"] = statistics.median(nmses)
    return metrics
