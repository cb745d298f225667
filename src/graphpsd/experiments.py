"""End-to-end experiment pipeline and reproducibility plumbing.

Wires the full chain (graph -> shift -> basis -> filter -> sampler design
-> subsampled model -> covariance at the sampled vertices -> least-squares
estimate), reproduces the reference experiments at desk scale, and writes
deterministic CSV/JSON results plus gnuplot-ready plot data.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import design as design_mod
from . import graphs as graphs_mod
from . import sampling as sampling_mod
from . import spectral as spectral_mod
from .errors import ConfigError, InvariantViolation, ParseError

SPECTRUM_CSV = "spectrum.csv"
PATTERN_JSON = "pattern.json"
METRICS_JSON = "metrics.json"
TRACE_JSON = "trace.json"
FAILURE_JSON = "failure.json"

# files whose bytes are reproducible given an identical config
DETERMINISTIC_OUTPUTS = (
    SPECTRUM_CSV,
    PATTERN_JSON,
    METRICS_JSON,
    TRACE_JSON,
    "spectrum_true.dat",
    "spectrum_estimate.dat",
    "nodes.dat",
)


def _fmt(x):
    return f"{float(x):.17g}"


def _fmt_all(values):
    """``_fmt`` of each value of an array, in one pass over a list of floats."""
    return list(map("{:.17g}".format, np.asarray(values, dtype=float).ravel().tolist()))


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _is_count(value):
    """True for an integer value that is not a bool (JSON ``true`` is not a count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value):
    """True for a finite real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _builtin(obj):
    """``json``'s fallback: a numpy scalar or array as builtin values.

    ``json`` writes a ``np.float64``, a ``float`` subclass, with
    ``float.__repr__`` itself, so the bytes match those of a builtin float.
    """
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_builtin)
        fh.write("\n")


@dataclass(frozen=True)
class GraphSpec:
    """Where the pipeline's graph comes from: a generator or a file."""

    n: int = 100
    k_neighbors: int = 6
    seed: int = 1
    path: str | None = None

    def build(self):
        """The graph; a graph file that cannot be read or parsed is a ConfigError."""
        if self.path is not None:
            try:
                return graphs_mod.load_graph(self.path)
            except (OSError, ParseError, InvariantViolation) as exc:
                raise ConfigError(f"cannot load graph {self.path}: {exc}") from exc
        return graphs_mod.random_sensor_graph(self.n, self.k_neighbors, self.seed)


@dataclass(frozen=True)
class FilterSpec:
    """The filter: its ``coefficients`` when given, else the lowpass fit of
    ``exp(-rate lam / lam_max)`` with ``length`` taps."""

    rate: float = 3.0
    length: int = 7
    coefficients: tuple | None = None

    def build(self, basis):
        if self.coefficients is not None:
            return spectral_mod.GraphFilter(coefficients=np.asarray(self.coefficients))
        return spectral_mod.fit_lowpass_filter(basis, length=self.length, rate=self.rate)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one deterministic end-to-end experiment.

    ``seed`` drives the sample covariance's draw and the random sampler;
    the graph generator has its own seed inside ``graph``.  ``n_snapshots``
    is the snapshot count of the sample covariance; 0 takes the population
    covariance, its limit.
    """

    graph: GraphSpec = field(default_factory=GraphSpec)
    shift_kind: str = graphs_mod.LAPLACIAN
    filter: FilterSpec = field(default_factory=FilterSpec)
    n_snapshots: int = 1000
    domain: str = sampling_mod.SPECTRAL
    k: int = 50
    q: int | None = None
    sampler: str = "greedy"
    pattern_path: str | None = None
    objective_kind: str = design_mod.LOGDET_EPS
    epsilon: float | None = None
    seed: int = 0
    output_dir: str | None = None

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Raise ConfigError unless every field holds a usable value; return ``self``.

        Runs when the config is built, so every ``ExperimentConfig`` in
        existence has passed it.
        """
        for name, value, spec in (("graph", self.graph, GraphSpec), ("filter", self.filter, FilterSpec)):
            if not isinstance(value, spec):
                raise ConfigError(f"{name} must be a {spec.__name__}, got {value!r}")
        paths = {"graph.path": self.graph.path, "pattern_path": self.pattern_path,
                 "output_dir": self.output_dir}
        for name, value in paths.items():
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        # each count field and its least value
        counts = {"k": (self.k, 1), "n_snapshots": (self.n_snapshots, 0)}
        if self.q is not None:
            counts["q"] = (self.q, 1)
        if self.graph.path is None:
            counts["graph.n"] = (self.graph.n, 2)
            counts["graph.k_neighbors"] = (self.graph.k_neighbors, 1)
        if self.filter.coefficients is None:
            counts["filter.length"] = (self.filter.length, 1)
        for name, (value, least) in counts.items():
            if not _is_count(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{name} must be at least {least}, got {value}")
        seeds = {"seed": self.seed}
        if self.graph.path is None:
            seeds["graph.seed"] = self.graph.seed
        for name, value in seeds.items():
            if not (_is_count(value) and value >= 0):
                raise ConfigError(f"{name} must be a nonnegative integer, got {value!r}")
        if self.epsilon is not None and not (_is_real(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be a positive number, got {self.epsilon!r}")
        coefficients = self.filter.coefficients
        if coefficients is None:
            if not _is_real(self.filter.rate):
                raise ConfigError(f"filter.rate must be a finite number, got {self.filter.rate!r}")
        elif not (isinstance(coefficients, (tuple, list)) and coefficients
                  and all(_is_real(c) for c in coefficients)):
            raise ConfigError(
                f"filter.coefficients must be a non-empty list of finite numbers, got {coefficients!r}"
            )
        if self.domain not in (sampling_mod.SPECTRAL, sampling_mod.VERTEX):
            raise ConfigError(f"unknown domain {self.domain!r}")
        if self.sampler not in ("greedy", "random", "file"):
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        if self.sampler == "file" and not self.pattern_path:
            raise ConfigError("sampler 'file' needs pattern_path")
        if self.sampler != "file" and self.pattern_path is not None:
            raise ConfigError(
                f"pattern_path is read by sampler 'file' only, and sampler is {self.sampler!r}"
            )
        if self.shift_kind not in (graphs_mod.LAPLACIAN, graphs_mod.ADJACENCY):
            raise ConfigError(f"unknown shift kind {self.shift_kind!r}")
        if self.graph.path is None:
            if self.graph.k_neighbors >= self.graph.n:
                raise ConfigError("graph.k_neighbors must satisfy 1 <= k_neighbors < graph.n")
            # with a file pattern the budget comes from the file, not from k
            if self.sampler != "file" and self.k > self.graph.n:
                raise ConfigError("k cannot exceed the number of vertices")
            if self.q is not None and self.q > self.graph.n:
                raise ConfigError("q cannot exceed the number of vertices")
        if self.objective_kind != design_mod.LOGDET_EPS:
            raise ConfigError(f"unknown objective kind {self.objective_kind!r}")
        return self

    def to_dict(self):
        data = dataclasses.asdict(self)
        if self.filter.coefficients is not None:
            data["filter"]["coefficients"] = list(self.filter.coefficients)
        return data

    @classmethod
    def from_dict(cls, data):
        try:
            graph, filt = data.get("graph", {}), data.get("filter", {})
            for name, value in (("graph", graph), ("filter", filt)):
                if not isinstance(value, dict):
                    raise ConfigError(f"{name} must be an object, got {value!r}")
            for name, value, spec in (("config", data, cls), ("graph", graph, GraphSpec),
                                      ("filter", filt, FilterSpec)):
                unknown = set(value) - {f.name for f in dataclasses.fields(spec)}
                if unknown:
                    raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
            graph = GraphSpec(**graph)
            filt = FilterSpec(**filt)
            if filt.coefficients is not None:
                filt = dataclasses.replace(filt, coefficients=tuple(filt.coefficients))
            known = {k: v for k, v in data.items() if k not in ("graph", "filter")}
            return cls(graph=graph, filter=filt, **known)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def load_config(path):
    """Read an :class:`ExperimentConfig` from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    return ExperimentConfig.from_dict(data)


def save_pattern(pattern, path):
    _write_json(path, {"n_vertices": pattern.n_vertices, "selected": list(pattern.selected)})


def load_pattern(path):
    """Read a pattern file; ``n_vertices`` and every ``selected`` entry must be integers.

    A file that cannot be read, or whose entries do not make a valid
    :class:`~graphpsd.sampling.SamplingPattern`, is a ConfigError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        n, selected = data["n_vertices"], data["selected"]
        if not (_is_count(n) and isinstance(selected, list) and all(map(_is_count, selected))):
            raise ValueError("n_vertices and the selected vertices must be integers")
        return sampling_mod.SamplingPattern(n_vertices=n, selected=tuple(selected))
    except (OSError, KeyError, TypeError, ValueError, InvariantViolation) as exc:
        raise ConfigError(f"cannot load pattern {path}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Outcome of one pipeline run, with enough context to plot it."""

    graph: graphs_mod.Graph
    pattern: sampling_mod.SamplingPattern
    p_true: np.ndarray
    p_hat: np.ndarray
    estimate: sampling_mod.SpectrumEstimate
    nmse: float
    trace: design_mod.GreedyTrace | None
    eigenvalues: np.ndarray
    config: ExperimentConfig
    runtimes: dict


class _StageTimer:
    """Wall time of each finished stage, and the stage running now (None between stages)."""

    def __init__(self):
        self.runtimes = {}
        self.current = None

    @contextlib.contextmanager
    def stage(self, name):
        # a stage that raises stays current, so the failure names it
        self.current, t0 = name, time.perf_counter()
        yield
        self.runtimes[name] = time.perf_counter() - t0
        self.current = None


@dataclass(frozen=True, eq=False)
class Setting:
    """The stationary setting every pipeline entry point starts from.

    Built by :func:`prepare`: the graph, its shift operator and Fourier
    basis, the filter and the true spectrum.  The setting owns the choice
    between the spectral- and the vertex-domain model, so callers ask it for
    a design, a covariance, a model or an estimate and never branch on the
    domain themselves.  A vertex-domain setting's basis holds eigenvalues
    only: its covariances come from the filter's rows at the observed
    vertices (:func:`spectral.filter_rows`), by sparse products with the
    shift.
    """

    config: ExperimentConfig
    graph: graphs_mod.Graph
    shift: graphs_mod.ShiftOperator
    basis: spectral_mod.SpectralBasis
    filter: spectral_mod.GraphFilter
    p_true: np.ndarray

    @property
    def spectral(self):
        return self.config.domain == sampling_mod.SPECTRAL

    @property
    def q(self):
        """Vertex-domain polynomial order: as configured, else exact for the filter."""
        if self.config.q is not None:
            return self.config.q
        return sampling_mod.required_q(self.filter.length, self.graph.n_vertices)

    def greedy(self, k):
        """Greedy design of ``k`` vertices: ``(pattern, trace)``."""
        cfg = self.config
        if self.spectral:
            objective = design_mod.DesignObjective.spectral(
                self.basis, kind=cfg.objective_kind, epsilon=cfg.epsilon
            )
        else:
            objective = design_mod.DesignObjective.vertex(
                self.shift, self.q, kind=cfg.objective_kind, epsilon=cfg.epsilon,
                eigenvalues=self.basis.eigenvalues,
            )
        return design_mod.greedy_design(objective, k)

    def design(self):
        """The configured sampler's ``(pattern, trace)``; greedy only has a trace."""
        cfg = self.config
        if cfg.sampler == "greedy":
            return self.greedy(cfg.k)
        if cfg.sampler == "random":
            return design_mod.random_design(self.graph.n_vertices, cfg.k, seed=cfg.seed), None
        return load_pattern(cfg.pattern_path), None

    def _check_pattern(self, pattern):
        n = self.graph.n_vertices
        if pattern.n_vertices != n:
            raise ConfigError(
                f"the pattern is for {pattern.n_vertices} vertices, the graph has {n}"
            )

    def covariances(self, seed, patterns):
        """K x K covariance at each pattern's vertices, in order.

        Each comes from a K x N factor F of the covariance ``C_X = F F^T``
        at its pattern's vertices X: ``U_X diag(V h)`` in the spectral
        domain, the filter's rows ``H_X`` (:func:`spectral.filter_rows`,
        sparse products with the shift) in the vertex domain.  With
        ``n_snapshots`` 0 it is the population covariance ``F F^T``;
        otherwise the sample covariance of ``n_snapshots`` snapshots, drawn
        from its Wishart law (:func:`spectral.wishart_covariance`), each
        pattern with ``seed``, so no snapshot, no N x N filter and no N x N
        covariance is built.  A pattern of another vertex count is a
        ConfigError.
        """
        for pattern in patterns:
            self._check_pattern(pattern)
        # one K x N factor alive at a time
        factors = (self._factor(pattern.selected) for pattern in patterns)
        n_snapshots = self.config.n_snapshots
        if n_snapshots == 0:
            return [spectral_mod.population_covariance(f) for f in factors]
        return [spectral_mod.wishart_covariance(f, n_snapshots, seed=seed) for f in factors]

    def _factor(self, vertices):
        if self.spectral:
            response = spectral_mod.frequency_response(self.filter, self.basis)
            return self.basis.eigenvectors[np.asarray(vertices, dtype=int)] * response
        return spectral_mod.filter_rows(self.filter, self.shift, vertices)

    def model(self, pattern):
        """Model matrix of ``pattern``; a pattern of another vertex count is a ConfigError."""
        self._check_pattern(pattern)
        if self.spectral:
            return sampling_mod.build_spectral_model(self.basis, pattern)
        return sampling_mod.build_vertex_model(self.shift, pattern, self.q)

    def estimate(self, cov_sub, model):
        """Least-squares estimate from a subsampled covariance, and its NMSE."""
        if self.spectral:
            est = sampling_mod.estimate_spectrum_spectral(cov_sub, model)
        else:
            est = sampling_mod.estimate_spectrum_vertex(cov_sub, model, self.basis)
        nmse = float(np.sum((est.p_hat - self.p_true) ** 2) / np.sum(self.p_true**2))
        return est, nmse


def prepare(cfg, timer=None):
    """Build the :class:`Setting` of ``cfg``.

    Checks ``k`` (unless the pattern comes from a file) and ``q`` against
    the built graph, so a graph file that is too small is a
    :class:`ConfigError`, as a generated one is.  So is a filter whose
    response vanishes at every graph frequency: its true spectrum is zero,
    and no NMSE is defined against it.  ``timer`` records the ``graph``,
    ``basis`` and ``filter`` stages.
    """
    timer = timer or _StageTimer()
    with timer.stage("graph"):
        graph = cfg.graph.build()
    n = graph.n_vertices
    if cfg.sampler != "file" and cfg.k > n:
        raise ConfigError(f"k={cfg.k} exceeds the graph's {n} vertices")
    if cfg.q is not None and cfg.q > n:
        raise ConfigError(f"q={cfg.q} exceeds the graph's {n} vertices")
    with timer.stage("basis"):
        shift = graphs_mod.build_shift_operator(graph, cfg.shift_kind)
        # the vertex domain reads eigenvalues only
        basis = spectral_mod.eigendecompose(
            shift, eigenvectors=cfg.domain == sampling_mod.SPECTRAL
        )
    with timer.stage("filter"):
        filt = cfg.filter.build(basis)
        p_true = spectral_mod.true_power_spectrum(filt, basis)
    # the NMSE divides by the true spectrum's energy
    if not np.any(p_true**2):
        raise ConfigError("the filter's response vanishes at every graph frequency")
    return Setting(cfg, graph, shift, basis, filt, p_true)


def run_experiment(cfg):
    """Run the full pipeline for one configuration.

    Deterministic given the config (all randomness is seeded).  The stages
    run in the order graph, basis, filter, design, model, covariance and
    estimate: the design picks the K observed vertices, the model checks
    the pattern against the graph, and the covariance is formed only at
    those vertices, a sampled one drawn from its Wishart law
    (:meth:`Setting.covariances`), so no N x N covariance and no snapshot
    is built, and the draw's cost depends on neither N nor ``n_snapshots``.
    When ``cfg.output_dir`` is set, writes ``spectrum.csv``,
    ``pattern.json``, ``metrics.json``, ``trace.json`` (greedy only), and
    gnuplot ``.dat`` files there; on error a ``failure.json`` naming the
    failed stage, or ``checks`` for a check between stages, is left behind
    instead.  Stage wall times are returned on the result, not written, so
    outputs stay byte-reproducible.
    """
    timer = _StageTimer()
    out = cfg.output_dir
    if out is not None:
        os.makedirs(out, exist_ok=True)
    try:
        setting = prepare(cfg, timer)
        with timer.stage("design"):
            pattern, trace = setting.design()
        with timer.stage("model"):
            model = setting.model(pattern)
        with timer.stage("covariance"):
            (cov_sub,) = setting.covariances(cfg.seed, [pattern])
        with timer.stage("estimate"):
            estimate, nmse = setting.estimate(cov_sub, model)
        result = ExperimentResult(
            graph=setting.graph,
            pattern=pattern,
            p_true=setting.p_true,
            p_hat=estimate.p_hat,
            estimate=estimate,
            nmse=nmse,
            trace=trace,
            eigenvalues=setting.basis.eigenvalues,
            config=cfg,
            runtimes=timer.runtimes,
        )
    except Exception as exc:
        if out is not None:
            _write_json(
                f"{out}/{FAILURE_JSON}",
                {"stage": timer.current or "checks", "error": f"{type(exc).__name__}: {exc}"},
            )
        raise
    if out is not None:
        with timer.stage("write"):
            _write_result(result, out)
    return result


def _write_design(out_dir, pattern, trace):
    """Write ``pattern.json`` and, for a greedy design, ``trace.json`` from its trace."""
    save_pattern(pattern, f"{out_dir}/{PATTERN_JSON}")
    if trace is not None:
        _write_json(
            f"{out_dir}/{TRACE_JSON}",
            {
                "chosen": list(trace.chosen),
                "gains": list(trace.gains),
                "final_value": trace.final_value,
                "epsilon": trace.epsilon,
                "objective_kind": trace.objective_kind,
            },
        )


def _write_result(result, out_dir):
    cfg = result.config
    p_true, p_hat = _fmt_all(result.p_true), _fmt_all(result.p_hat)
    rows = zip(_fmt_all(result.eigenvalues), p_true, p_hat)
    _write_text(
        f"{out_dir}/{SPECTRUM_CSV}",
        "index,eigenvalue,p_true,p_hat\n"
        + "".join(f"{i},{lam},{pt},{ph}\n" for i, (lam, pt, ph) in enumerate(rows)),
    )
    _write_design(out_dir, result.pattern, result.trace)
    est = result.estimate
    _write_json(
        f"{out_dir}/{METRICS_JSON}",
        {
            "n_vertices": result.graph.n_vertices,
            "domain": cfg.domain,
            "sampler": cfg.sampler,
            "k": result.pattern.k,
            "q": est.alpha_hat.shape[0] if est.alpha_hat is not None else None,
            "n_snapshots": cfg.n_snapshots,
            "use_population_covariance": cfg.n_snapshots == 0,
            "seed": cfg.seed,
            "objective_kind": cfg.objective_kind,
            "epsilon": None if result.trace is None else result.trace.epsilon,
            "rank": est.rank,
            "rank_ok": est.rank_ok,
            "rank_tolerance": est.rank_tolerance,
            "residual_norm": est.residual_norm,
            "nmse": result.nmse,
        },
    )
    _write_plot_data(result, out_dir, p_true, p_hat)


def _write_plot_data(result, out_dir, p_true, p_hat):
    """Write gnuplot-ready two-column spectrum files and a node-selection file.

    ``spectrum_true.dat`` and ``spectrum_estimate.dat`` hold
    ``eigenvalue-index  value`` rows of the formatted spectra ``p_true``
    and ``p_hat``; ``nodes.dat`` holds ``x  y  selected`` rows when the
    graph carries coordinates.
    """
    _write_text(f"{out_dir}/spectrum_true.dat", "".join(f"{i} {p}\n" for i, p in enumerate(p_true)))
    _write_text(
        f"{out_dir}/spectrum_estimate.dat", "".join(f"{i} {p}\n" for i, p in enumerate(p_hat))
    )
    if result.graph.coordinates is not None:
        xy = _fmt_all(result.graph.coordinates.ravel())
        _write_text(
            f"{out_dir}/nodes.dat",
            "".join(
                f"{x} {y} {int(selected)}\n"
                for x, y, selected in zip(xy[0::2], xy[1::2], result.pattern.mask.tolist())
            ),
        )


def _greedy_prefix_models(cfg, k_values):
    """The setting of ``cfg`` and ``(k, model)`` of the greedy prefix of each ``k``.

    One greedy design at the largest budget gives every smaller budget's
    pattern as a prefix of its selection order.  The design runs when the
    first model is read, and the models are built as they are read, once
    per budget, in the order each budget first appears in ``k_values``.  An
    empty list, a budget that is not an integer, or a budget below 1, is a
    ConfigError.
    """
    k_values = list(k_values)
    if not k_values:
        raise ConfigError("no budgets given")
    if not all(map(_is_count, k_values)):
        raise ConfigError(f"budgets must be integers, got {k_values!r}")
    k_values = list(dict.fromkeys(k_values))
    if min(k_values) < 1:
        raise ConfigError(f"budget must be at least 1, got {min(k_values)}")
    setting = prepare(
        dataclasses.replace(cfg, k=max(k_values), sampler="greedy", pattern_path=None)
    )

    def models():
        _, trace = setting.greedy(max(k_values))
        n = setting.graph.n_vertices
        for k in k_values:
            yield k, setting.model(sampling_mod.SamplingPattern(n, trace.chosen[:k]))

    return setting, models()


def rank_threshold_scan(cfg, k_range):
    """Full-rank threshold of the model along the greedy selection order.

    Designs one greedy pattern at the largest requested budget and reports
    ``(K, rank_ok)`` for every prefix size in ``k_range``, reusing the
    nested structure of greedy selections.
    """
    _, models = _greedy_prefix_models(cfg, k_range)
    return sorted((k, sampling_mod.model_rank(model)[1]) for k, model in models)


def compression_sweep(cfg, k_list, n_seeds, out_dir=None):
    """Compare greedy and random samplers across sample budgets.

    For every K in ``k_list`` runs ``n_seeds`` seeded pipelines per sampler
    and aggregates mean NMSE and the fraction of runs whose model had full
    column rank.  Every pattern's sample covariance is drawn with its
    seed, exactly as :func:`run_experiment` draws it for that seed and
    pattern; a repeated budget is estimated once and its rows repeated.
    Each greedy prefix's model is built once and shared by every seed, so
    its Gram factor is formed once.
    Returns the rows and optionally writes ``sweep.csv``.
    """
    k_values = list(k_list)
    if not (_is_count(n_seeds) and n_seeds >= 1):
        raise ConfigError(f"need a positive integer number of seeds, got {n_seeds!r}")
    # a budget listed twice is estimated once and reported twice
    setting, prefixes = _greedy_prefix_models(cfg, k_values)
    greedy = dict(prefixes)
    n = setting.graph.n_vertices
    # runs[k][sampler] collects (rank_ok, nmse) of budget k, one entry per seed
    runs = {k: {"greedy": [], "random": []} for k in greedy}
    for seed in range(cfg.seed, cfg.seed + n_seeds):
        cells = [
            (k, sampler, pattern)
            for k in runs
            for sampler, pattern in (
                ("greedy", greedy[k].pattern),
                ("random", design_mod.random_design(n, k, seed=seed)),
            )
        ]
        covs = setting.covariances(seed, [pattern for _, _, pattern in cells])
        for (k, sampler, pattern), cov_sub in zip(cells, covs):
            model = greedy[k] if sampler == "greedy" else setting.model(pattern)
            est, nmse = setting.estimate(cov_sub, model)
            runs[k][sampler].append((est.rank_ok, nmse))
    rows = [
        {
            "k": k,
            "sampler": sampler,
            "mean_nmse": float(np.mean([nmse for _, nmse in stats])),
            "rank_ok_fraction": float(np.mean([ok for ok, _ in stats])),
        }
        for k in k_values
        for sampler, stats in runs[k].items()
    ]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_text(
            f"{out_dir}/sweep.csv",
            "k,sampler,mean_nmse,rank_ok_fraction\n"
            + "".join(
                f"{r['k']},{r['sampler']},{_fmt(r['mean_nmse'])},{_fmt(r['rank_ok_fraction'])}\n"
                for r in rows
            ),
        )
    return rows


def _sensor_laplacian(n, k_neighbors, seed):
    """``(shift, basis)`` of a property-suite instance: the Laplacian of a
    sensor graph of ``n`` vertices, at most ``n - 1`` neighbours each."""
    graph = graphs_mod.random_sensor_graph(n, min(k_neighbors, n - 1), seed)
    shift = graphs_mod.build_laplacian(graph)
    return shift, spectral_mod.eigendecompose(shift)


def _scaled_error(got, want, scale):
    """Largest absolute difference of ``got`` and ``want`` over ``max(scale, 1)``."""
    return float(np.abs(got - want).max() / max(scale, 1.0))


def run_property_suites(seed=0, trials=200):
    """Run the structural property suites and collect a machine-readable report.

    Covers objective normalization/monotonicity/diminishing-returns sampling,
    the greedy-versus-brute-force bound, the model-equivalence identity, the
    squared-response consistency of the spectrum, the agreement of
    incremental gains with from-scratch evaluation, and the agreement of the
    spectral estimator's Gram and QR paths on sample covariances.
    """
    report = {}

    rng = np.random.default_rng(seed)
    sub_rows = []
    for i in range(10):
        n = int(rng.integers(5, 11))
        shift, basis = _sensor_laplacian(n, 3, 100 + i)
        if i % 2 == 0:
            domain, objective = sampling_mod.SPECTRAL, design_mod.DesignObjective.spectral(basis)
        else:
            q = int(rng.integers(2, min(6, n) + 1))
            # epsilon from the objective's own eigenvalues-only solve: eigh's differ by rounding
            domain, objective = sampling_mod.VERTEX, design_mod.DesignObjective.vertex(shift, q)
        rep = design_mod.check_submodularity(objective, trials=trials, seed=seed)
        sub_rows.append(
            {
                "n": n,
                "domain": domain,
                "normalization_ok": rep.normalization_ok,
                "monotonicity_violations": rep.monotonicity_violations,
                "diminishing_returns_violations": rep.diminishing_returns_violations,
                "max_violation": rep.max_violation,
            }
        )
    report["submodularity"] = {
        "instances": sub_rows,
        "ok": all(
            r["normalization_ok"]
            and r["monotonicity_violations"] == 0
            and r["diminishing_returns_violations"] == 0
            for r in sub_rows
        ),
    }

    bound = 1.0 - 1.0 / math.e
    greedy_rows = []
    for i in range(5):
        shift, basis = _sensor_laplacian(8, 3, 200 + i)
        if i % 2 == 0:
            objective = design_mod.DesignObjective.spectral(basis)
        else:
            objective = design_mod.DesignObjective.vertex(shift, 4)
        _, trace = design_mod.greedy_design(objective, 3)
        best = design_mod.brute_force_design(objective, 3)
        f_opt = design_mod.objective_value(objective, best)
        greedy_rows.append(
            {"instance": i, "greedy": trace.final_value, "optimum": f_opt,
             "ratio": trace.final_value / f_opt if f_opt else 1.0}
        )
    report["greedy_bound"] = {
        "instances": greedy_rows,
        "ok": all(r["greedy"] >= bound * r["optimum"] - 1e-9 for r in greedy_rows),
    }

    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(6, 31))
        shift, basis = _sensor_laplacian(n, 4, 300 + i)
        k = int(rng.integers(2, n + 1))
        pattern = design_mod.random_design(n, k, seed=300 + i)
        q = int(rng.integers(1, min(8, n) + 1))
        vertex = sampling_mod.build_vertex_model(shift, pattern, q).matrix
        spectral = sampling_mod.build_spectral_model(basis, pattern).matrix
        via_basis = spectral @ spectral_mod.vandermonde(basis.eigenvalues, q)
        scale = max(np.abs(vertex).max(), np.abs(via_basis).max())
        worst = max(worst, _scaled_error(vertex, via_basis, scale))
    report["model_equivalence"] = {"trials": 20, "max_scaled_error": worst, "ok": worst <= 1e-8}

    worst = 0.0
    for i in range(20):
        n = int(rng.integers(5, 31))
        _, basis = _sensor_laplacian(n, 4, 400 + i)
        length = int(rng.integers(1, 6))
        filt = spectral_mod.GraphFilter(coefficients=rng.standard_normal(length))
        h = spectral_mod.basis_filter_rows(filt, basis)
        u = basis.eigenvectors
        rotated = np.diag(u.T @ (h @ h.T) @ u)
        p = spectral_mod.true_power_spectrum(filt, basis)
        worst = max(worst, _scaled_error(rotated, p, np.abs(p).max()))
    report["spectrum_consistency"] = {"trials": 20, "max_scaled_error": worst, "ok": worst <= 1e-8}

    worst = 0.0
    for i, (n, k) in enumerate([(16, 8), (20, 10)]):
        _, basis = _sensor_laplacian(n, 4, 500 + i)
        objective = design_mod.DesignObjective.spectral(basis, epsilon=1e-6)
        _, trace = design_mod.greedy_design(objective, k, validate_gains=True)
        worst = max(worst, trace.max_gain_check_error)
    report["incremental_gains"] = {"max_relative_error": worst, "ok": worst <= 1e-8}

    rng = np.random.default_rng(seed + 2)
    worst, gram_solves = 0.0, 0
    for i in range(20):
        n = int(rng.integers(6, 31))
        _, basis = _sensor_laplacian(n, 4, 600 + i)
        k_min = math.ceil((math.sqrt(8 * n + 1) - 1) / 2)
        pattern = design_mod.random_design(n, int(rng.integers(k_min, n + 1)), seed=600 + i)
        filt = spectral_mod.GraphFilter(coefficients=rng.standard_normal(3))
        cov_sub = spectral_mod.sample_covariance(
            spectral_mod.synthesize(filt, basis, 200, seed=600 + i, vertices=pattern.selected)
        )
        model = sampling_mod.build_spectral_model(basis, pattern)
        gram_solves += model.gram_factor is not None
        # the same system given by its dense matrix takes the QR path
        dense = sampling_mod.CovarianceModelMatrix(
            sampling_mod.SPECTRAL, pattern=pattern, matrix=model.matrix
        )
        gram = sampling_mod.estimate_spectrum_spectral(cov_sub, model).p_hat
        qr = sampling_mod.estimate_spectrum_spectral(cov_sub, dense).p_hat
        worst = max(worst, _scaled_error(gram, qr, np.abs(qr).max()))
    report["estimator_agreement"] = {
        "trials": 20, "gram_solves": gram_solves, "max_scaled_error": worst, "ok": worst <= 1e-8
    }

    report["ok"] = all(section["ok"] for section in report.values() if isinstance(section, dict))
    return report
