"""End-to-end experiment pipeline and reproducibility plumbing.

Wires the full chain (graph -> shift -> basis -> filter -> sampler design
-> subsampled model -> covariance at the sampled vertices -> least-squares
estimate), reproduces the reference experiments at desk scale, and writes
deterministic CSV/JSON results plus gnuplot-ready plot data.
"""

from __future__ import annotations

import dataclasses
import functools
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


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _is_count(value):
    """True for an integer value that is not a bool (JSON ``true`` is not a count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value):
    """True for a finite real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
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
    """Filter coefficients, either explicit or a named lowpass profile."""

    profile: str | None = "lowpass_exp"
    rate: float = 3.0
    length: int = 7
    coefficients: tuple | None = None

    def build(self, basis):
        if self.coefficients is not None:
            return spectral_mod.GraphFilter(coefficients=np.asarray(self.coefficients))
        if self.profile == "lowpass_exp":
            return spectral_mod.fit_lowpass_filter(basis, length=self.length, rate=self.rate)
        raise ConfigError(f"unknown filter profile {self.profile!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one deterministic end-to-end experiment.

    ``seed`` drives snapshot synthesis and the random sampler; the graph
    generator has its own seed inside ``graph``.
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
    use_population_covariance: bool = False
    seed: int = 0
    output_dir: str | None = None

    def validate(self):
        counts = {"k": self.k, "q": self.q, "n_snapshots": self.n_snapshots}
        if self.graph.path is None:
            counts["graph.n"] = self.graph.n
            counts["graph.k_neighbors"] = self.graph.k_neighbors
        if self.filter.coefficients is None:
            counts["filter.length"] = self.filter.length
        for name, value in counts.items():
            if value is not None and not _is_count(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        seeds = {"seed": self.seed}
        if self.graph.path is None:
            seeds["graph.seed"] = self.graph.seed
        for name, value in seeds.items():
            if not (_is_count(value) and value >= 0):
                raise ConfigError(f"{name} must be a nonnegative integer, got {value!r}")
        if self.epsilon is not None and not (_is_real(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be a positive number, got {self.epsilon!r}")
        population = self.use_population_covariance
        if not isinstance(population, bool):
            raise ConfigError(f"use_population_covariance must be true or false, got {population!r}")
        coefficients = self.filter.coefficients
        if coefficients is None:
            if not _is_real(self.filter.rate):
                raise ConfigError(f"filter.rate must be a finite number, got {self.filter.rate!r}")
        elif not (coefficients and all(_is_real(c) for c in coefficients)):
            raise ConfigError(
                f"filter.coefficients must be a non-empty list of finite numbers, got {coefficients!r}"
            )
        if self.domain not in (sampling_mod.SPECTRAL, sampling_mod.VERTEX):
            raise ConfigError(f"unknown domain {self.domain!r}")
        if self.sampler not in ("greedy", "random", "file"):
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        if self.sampler == "file" and not self.pattern_path:
            raise ConfigError("sampler 'file' needs pattern_path")
        if self.n_snapshots < 1:
            raise ConfigError("n_snapshots must be positive")
        if self.k < 1:
            raise ConfigError("k must be positive")
        if self.q is not None and self.q < 1:
            raise ConfigError("q must be positive")
        if self.shift_kind not in (graphs_mod.LAPLACIAN, graphs_mod.ADJACENCY):
            raise ConfigError(f"unknown shift kind {self.shift_kind!r}")
        if self.filter.coefficients is None and self.filter.length < 1:
            raise ConfigError("filter.length must be positive")
        if self.graph.path is None:
            if self.graph.n < 2:
                raise ConfigError("graph.n must be >= 2")
            if not (1 <= self.graph.k_neighbors < self.graph.n):
                raise ConfigError("graph.k_neighbors must satisfy 1 <= k_neighbors < graph.n")
            # with a file pattern the budget comes from the file, not from k
            if self.sampler != "file" and self.k > self.graph.n:
                raise ConfigError("k cannot exceed the number of vertices")
            if self.q is not None and self.q > self.graph.n:
                raise ConfigError("q cannot exceed the number of vertices")
        if self.objective_kind not in (design_mod.LOGDET_EPS, design_mod.FRAME_POTENTIAL):
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
            graph = GraphSpec(**data.get("graph", {}))
            filt = data.get("filter", {})
            coefficients = filt.get("coefficients")
            filt = FilterSpec(
                profile=filt.get("profile", "lowpass_exp" if "coefficients" not in filt else None),
                rate=filt.get("rate", 3.0),
                length=filt.get("length", 7),
                coefficients=None if coefficients is None else tuple(coefficients),
            )
            names = {f.name for f in dataclasses.fields(cls)}
            unknown = set(data) - names
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            known = {k: data[k] for k in names - {"graph", "filter"} if k in data}
            return cls(graph=graph, filter=filt, **known).validate()
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


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one pipeline run, with enough context to plot it."""

    graph: graphs_mod.Graph
    pattern: sampling_mod.SamplingPattern
    p_true: np.ndarray
    p_hat: np.ndarray
    estimate: sampling_mod.SpectrumEstimate
    nmse: float
    trace: design_mod.GreedyTrace | None
    objective_epsilon: float | None
    eigenvalues: np.ndarray
    config: ExperimentConfig
    runtimes: dict


class _StageTimer:
    def __init__(self):
        self.runtimes = {}
        self.current = None

    def stage(self, name):
        self.current = name
        self._t0 = time.perf_counter()
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.runtimes[self.current] = time.perf_counter() - self._t0
        return False


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
        """Greedy design of ``k`` vertices: ``(pattern, trace, epsilon)``."""
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
        pattern, trace = design_mod.greedy_design(objective, k)
        return pattern, trace, objective.epsilon

    def design(self):
        """The configured sampler's ``(pattern, trace, epsilon)``; greedy only has a trace."""
        cfg = self.config
        if cfg.sampler == "greedy":
            return self.greedy(cfg.k)
        if cfg.sampler == "random":
            return design_mod.random_design(self.graph.n_vertices, cfg.k, seed=cfg.seed), None, None
        return load_pattern(cfg.pattern_path), None, None

    def _check_pattern(self, pattern):
        n = self.graph.n_vertices
        if pattern.n_vertices != n:
            raise ConfigError(
                f"the pattern is for {pattern.n_vertices} vertices, the graph has {n}"
            )

    def covariances(self, seed, patterns):
        """K x K covariance at each pattern's vertices, in order.

        The population covariance's principal submatrices, or the sample
        covariances of one snapshot draw seeded with ``seed``, each
        synthesized only at its pattern's vertices.  The spectral domain
        filters through the Fourier basis; the vertex domain through the
        filter's K rows ``H_X`` (:func:`spectral.filter_rows`), as
        ``H_X n`` for the same draw ``n`` or ``H_X H_X^T`` for the
        population, so neither the N x N filter nor the N x N covariance is
        built.  A pattern of another vertex count is a ConfigError.
        """
        for pattern in patterns:
            self._check_pattern(pattern)
        population = self.config.use_population_covariance
        n_snapshots = self.config.n_snapshots
        if self.spectral:
            if population:
                cov = self._population_covariance
                return [sampling_mod.subsampled_covariance(cov, pattern) for pattern in patterns]
            noise = spectral_mod.white_noise(self.graph.n_vertices, n_snapshots, seed=seed)
            return [
                spectral_mod.sample_covariance(
                    spectral_mod.synthesize(
                        self.filter, self.basis, n_snapshots, vertices=pattern.selected, noise=noise
                    )
                )
                for pattern in patterns
            ]
        rows = [spectral_mod.filter_rows(self.filter, self.shift, p.selected) for p in patterns]
        if population:
            return [spectral_mod.population_covariance(r) for r in rows]
        noise = spectral_mod.white_noise(self.graph.n_vertices, n_snapshots, seed=seed)
        return [spectral_mod.sample_covariance(r @ noise) for r in rows]

    def covariance(self, seed, pattern):
        """K x K covariance at ``pattern``'s vertices (see :meth:`covariances`)."""
        (cov,) = self.covariances(seed, [pattern])
        return cov

    @functools.cached_property
    def _population_covariance(self):
        return spectral_mod.true_covariance(self.filter, self.basis)

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
    :class:`ConfigError`, as a generated one is.  ``timer`` records the
    ``graph``, ``basis`` and ``filter`` stages.
    """
    cfg.validate()
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
    return Setting(cfg, graph, shift, basis, filt, p_true)


def run_experiment(cfg):
    """Run the full pipeline for one configuration.

    Deterministic given the config (all randomness is seeded).  The stages
    run in the order graph, basis, filter, design, model, covariance and
    estimate: the design picks the K observed vertices, the model checks
    the pattern against the graph, and the covariance is formed only at
    those vertices, so no N x N covariance or N x N_s snapshot array is
    built.  When ``cfg.output_dir`` is set, writes ``spectrum.csv``,
    ``pattern.json``, ``metrics.json``, ``trace.json`` (greedy only), and
    gnuplot ``.dat`` files there; on error a ``failure.json`` naming the
    failed stage is left behind instead.  Stage wall times are returned on
    the result, not written, so outputs stay byte-reproducible.
    """
    cfg.validate()
    timer = _StageTimer()
    out = cfg.output_dir
    if out is not None:
        os.makedirs(out, exist_ok=True)
    try:
        setting = prepare(cfg, timer)
        with timer.stage("design"):
            pattern, trace, epsilon = setting.design()
        with timer.stage("model"):
            model = setting.model(pattern)
        with timer.stage("covariance"):
            cov_sub = setting.covariance(cfg.seed, pattern)
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
            objective_epsilon=epsilon,
            eigenvalues=setting.basis.eigenvalues,
            config=cfg,
            runtimes=timer.runtimes,
        )
    except Exception as exc:
        if out is not None:
            _write_json(
                f"{out}/{FAILURE_JSON}",
                {"stage": timer.current, "error": f"{type(exc).__name__}: {exc}"},
            )
        raise
    if out is not None:
        with timer.stage("write"):
            _write_result(result, out)
    return result


def _write_design(out_dir, objective_kind, pattern, trace, epsilon):
    """Write ``pattern.json`` and, for a greedy design, ``trace.json``."""
    save_pattern(pattern, f"{out_dir}/{PATTERN_JSON}")
    if trace is not None:
        _write_json(
            f"{out_dir}/{TRACE_JSON}",
            {
                "chosen": list(trace.chosen),
                "gains": list(trace.gains),
                "final_value": trace.final_value,
                "epsilon": epsilon,
                "objective_kind": objective_kind,
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
    _write_design(
        out_dir, cfg.objective_kind, result.pattern, result.trace, result.objective_epsilon
    )
    est = result.estimate
    _write_json(
        f"{out_dir}/{METRICS_JSON}",
        {
            "n_vertices": result.graph.n_vertices,
            "domain": cfg.domain,
            "sampler": cfg.sampler,
            "k": result.pattern.k,
            "q": est.alpha_hat.shape[0] if est.alpha_hat is not None else None,
            "n_snapshots": 0 if cfg.use_population_covariance else cfg.n_snapshots,
            "use_population_covariance": cfg.use_population_covariance,
            "seed": cfg.seed,
            "objective_kind": cfg.objective_kind,
            "epsilon": result.objective_epsilon,
            "rank": est.rank,
            "rank_ok": est.rank_ok,
            "rank_tolerance": est.rank_tolerance,
            "residual_norm": est.residual_norm,
            "nmse": result.nmse,
        },
    )
    _write_plot_data(result, out_dir, p_true, p_hat)


def emit_plot_data(result, out_dir):
    """Write gnuplot-ready two-column spectrum files and a node-selection file.

    ``spectrum_true.dat`` and ``spectrum_estimate.dat`` hold
    ``eigenvalue-index  value`` rows; ``nodes.dat`` holds
    ``x  y  selected`` rows when the graph carries coordinates.
    """
    _write_plot_data(result, out_dir, _fmt_all(result.p_true), _fmt_all(result.p_hat))


def _write_plot_data(result, out_dir, p_true, p_hat):
    """:func:`emit_plot_data` with the spectra already formatted."""
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


def rank_threshold_scan(cfg, k_range):
    """Full-rank threshold of the model along the greedy selection order.

    Designs one greedy pattern at the largest requested budget and reports
    ``(K, rank_ok)`` for every prefix size in ``k_range``, reusing the
    nested structure of greedy selections.
    """
    k_values = sorted(set(int(k) for k in k_range))
    if not k_values:
        raise ConfigError("empty k range")
    if k_values[0] < 1:
        raise ConfigError("k range outside [1, n]")
    setting = prepare(dataclasses.replace(cfg, k=k_values[-1], sampler="greedy"))
    _, trace, _ = setting.greedy(k_values[-1])
    n = setting.graph.n_vertices
    rows = []
    for k in k_values:
        model = setting.model(sampling_mod.SamplingPattern(n, trace.chosen[:k]))
        rows.append((k, sampling_mod.model_rank(model)[1]))
    return rows


def compression_sweep(cfg, k_list, n_seeds, out_dir=None):
    """Compare greedy and random samplers across sample budgets.

    For every K in ``k_list`` runs ``n_seeds`` seeded pipelines per sampler
    and aggregates mean NMSE and the fraction of runs whose model had full
    column rank.  Each seed draws its snapshot noise once, and every
    pattern's covariance is synthesized from that draw at its own vertices,
    exactly as :func:`run_experiment` does; a repeated budget is estimated
    once and its rows repeated.
    Returns the rows and optionally writes ``sweep.csv``.
    """
    k_values = [int(k) for k in k_list]
    if not k_values:
        raise ConfigError("empty k list")
    if n_seeds < 1:
        raise ConfigError("need at least one seed")
    if min(k_values) < 1:
        raise ConfigError("k outside [1, n]")
    setting = prepare(dataclasses.replace(cfg, k=max(k_values), sampler="greedy"))
    _, trace, _ = setting.greedy(max(k_values))
    n = setting.graph.n_vertices
    # runs[k][sampler] collects (rank_ok, nmse) of budget k, one entry per seed;
    # a budget listed twice is estimated once and reported twice
    runs = {k: {"greedy": [], "random": []} for k in k_values}
    for seed in range(cfg.seed, cfg.seed + n_seeds):
        cells = [
            (cell[sampler], pattern)
            for k, cell in runs.items()
            for sampler, pattern in (
                ("greedy", sampling_mod.SamplingPattern(n, trace.chosen[:k])),
                ("random", design_mod.random_design(n, k, seed=seed)),
            )
        ]
        covs = setting.covariances(seed, [pattern for _, pattern in cells])
        for (stats, pattern), cov_sub in zip(cells, covs):
            est, nmse = setting.estimate(cov_sub, setting.model(pattern))
            stats.append((est.rank_ok, nmse))
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
        with open(f"{out_dir}/sweep.csv", "w", encoding="utf-8") as fh:
            fh.write("k,sampler,mean_nmse,rank_ok_fraction\n")
            for row in rows:
                fh.write(
                    f"{row['k']},{row['sampler']},{_fmt(row['mean_nmse'])},"
                    f"{_fmt(row['rank_ok_fraction'])}\n"
                )
    return rows


def _property_instances(seed):
    """Small deterministic instances used by the property suites."""
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(10):
        n = int(rng.integers(5, 11))
        graph = graphs_mod.random_sensor_graph(n, min(3, n - 1), seed=100 + i)
        shift = graphs_mod.build_laplacian(graph)
        if i % 2 == 0:
            basis = spectral_mod.eigendecompose(shift)
            objective = design_mod.DesignObjective.spectral(basis)
            domain = sampling_mod.SPECTRAL
        else:
            q = int(rng.integers(2, min(6, n) + 1))
            objective = design_mod.DesignObjective.vertex(shift, q)
            domain = sampling_mod.VERTEX
        instances.append((n, domain, objective))
    return instances


def run_property_suites(seed=0, trials=200):
    """Run the structural property suites and collect a machine-readable report.

    Covers objective normalization/monotonicity/diminishing-returns sampling,
    the greedy-versus-brute-force bound, the model-equivalence identity, the
    squared-response consistency of the spectrum, the agreement of
    incremental gains with from-scratch evaluation, and the agreement of the
    spectral estimator's Gram and QR paths on sample covariances.
    """
    report = {}

    instances = _property_instances(seed)
    sub_rows = []
    for n, domain, objective in instances:
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
        graph = graphs_mod.random_sensor_graph(8, 3, seed=200 + i)
        shift = graphs_mod.build_laplacian(graph)
        basis = spectral_mod.eigendecompose(shift)
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
        graph = graphs_mod.random_sensor_graph(n, min(4, n - 1), seed=300 + i)
        shift = graphs_mod.build_laplacian(graph)
        basis = spectral_mod.eigendecompose(shift)
        k = int(rng.integers(2, n + 1))
        pattern = design_mod.random_design(n, k, seed=300 + i)
        q = int(rng.integers(1, min(8, n) + 1))
        vertex = sampling_mod.build_vertex_model(shift, pattern, q).matrix
        spectral = sampling_mod.build_spectral_model(basis, pattern).matrix
        via_basis = spectral @ spectral_mod.vandermonde(basis.eigenvalues, q)
        scale = max(np.abs(vertex).max(), np.abs(via_basis).max(), 1.0)
        worst = max(worst, float(np.abs(vertex - via_basis).max() / scale))
    report["model_equivalence"] = {"trials": 20, "max_scaled_error": worst, "ok": worst <= 1e-8}

    worst = 0.0
    for i in range(20):
        n = int(rng.integers(5, 31))
        graph = graphs_mod.random_sensor_graph(n, min(4, n - 1), seed=400 + i)
        basis = spectral_mod.eigendecompose(graphs_mod.build_laplacian(graph))
        length = int(rng.integers(1, 6))
        filt = spectral_mod.GraphFilter(coefficients=rng.standard_normal(length))
        h = spectral_mod.filter_matrix(filt, basis)
        u = basis.eigenvectors
        rotated = np.diag(u.T @ (h @ h.T) @ u)
        p = spectral_mod.true_power_spectrum(filt, basis)
        scale = max(np.abs(p).max(), 1.0)
        worst = max(worst, float(np.abs(rotated - p).max() / scale))
    report["spectrum_consistency"] = {"trials": 20, "max_scaled_error": worst, "ok": worst <= 1e-8}

    worst = 0.0
    for i, (n, k) in enumerate([(16, 8), (20, 10)]):
        graph = graphs_mod.random_sensor_graph(n, 4, seed=500 + i)
        basis = spectral_mod.eigendecompose(graphs_mod.build_laplacian(graph))
        objective = design_mod.DesignObjective.spectral(basis, epsilon=1e-6)
        _, trace = design_mod.greedy_design(objective, k, validate_gains=True)
        worst = max(worst, trace.max_gain_check_error)
    report["incremental_gains"] = {"max_relative_error": worst, "ok": worst <= 1e-8}

    rng = np.random.default_rng(seed + 2)
    worst, gram_solves = 0.0, 0
    for i in range(20):
        n = int(rng.integers(6, 31))
        graph = graphs_mod.random_sensor_graph(n, min(4, n - 1), seed=600 + i)
        basis = spectral_mod.eigendecompose(graphs_mod.build_laplacian(graph))
        k_min = math.ceil((math.sqrt(8 * n + 1) - 1) / 2)
        pattern = design_mod.random_design(n, int(rng.integers(k_min, n + 1)), seed=600 + i)
        filt = spectral_mod.GraphFilter(coefficients=rng.standard_normal(3))
        cov_sub = spectral_mod.sample_covariance(
            spectral_mod.synthesize(filt, basis, 200, seed=600 + i, vertices=pattern.selected)
        )
        model = sampling_mod.build_spectral_model(basis, pattern)
        gram_solves += sampling_mod._gram_factor(model) is not None
        # the same system given by its dense matrix takes the QR path
        dense = sampling_mod.CovarianceModelMatrix(
            sampling_mod.SPECTRAL, pattern=pattern, matrix=model.matrix
        )
        gram = sampling_mod.estimate_spectrum_spectral(cov_sub, model).p_hat
        qr = sampling_mod.estimate_spectrum_spectral(cov_sub, dense).p_hat
        scale = max(np.abs(qr).max(), 1.0)
        worst = max(worst, float(np.abs(gram - qr).max() / scale))
    report["estimator_agreement"] = {
        "trials": 20, "gram_solves": gram_solves, "max_scaled_error": worst, "ok": worst <= 1e-8
    }

    report["ok"] = all(section["ok"] for section in report.values() if isinstance(section, dict))
    return report
