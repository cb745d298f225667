"""graphpsd: power spectrum estimation for stationary graph signals.

Synthesizes second-order stationary signals on graphs by polynomial
filtering of white noise, recovers their power spectrum by least squares
from covariance observations on a small designed subset of vertices, and
designs that subset with a greedy log-det sampler.
"""

from .design import (
    LOGDET_EPS,
    DesignObjective,
    GreedyTrace,
    SubmodularityReport,
    brute_force_design,
    check_submodularity,
    cholesky_rank1_update,
    default_epsilon,
    greedy_design,
    greedy_gain,
    objective_value,
    random_design,
)
from .errors import (
    ConfigError,
    ConvergenceFailure,
    FailedToConnect,
    GraphPSDError,
    InvalidSupport,
    InvariantViolation,
    NonFinite,
    ParseError,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    FilterSpec,
    GraphSpec,
    Setting,
    compression_sweep,
    load_config,
    load_pattern,
    prepare,
    rank_threshold_scan,
    run_experiment,
    run_property_suites,
    save_pattern,
)
from .graphs import (
    ADJACENCY,
    LAPLACIAN,
    Graph,
    ShiftOperator,
    build_laplacian,
    build_shift_operator,
    load_graph,
    random_sensor_graph,
    save_graph,
)
from .sampling import (
    SPECTRAL,
    VERTEX,
    CovarianceModelMatrix,
    SamplingPattern,
    SpectrumEstimate,
    build_spectral_model,
    build_vertex_model,
    estimate_spectrum_spectral,
    estimate_spectrum_spectral_reduced,
    estimate_spectrum_vertex,
    model_rank,
    nonnegative_projection,
    required_q,
    subsample,
    subsampled_covariance,
)
from .spectral import (
    CovarianceEstimate,
    GraphFilter,
    SpectralBasis,
    basis_filter_rows,
    eigendecompose,
    filter_rows,
    fit_lowpass_filter,
    frequency_response,
    is_stationary,
    load_matrix_csv,
    population_covariance,
    sample_covariance,
    save_matrix_csv,
    synthesize,
    true_covariance,
    true_power_spectrum,
    vandermonde,
    white_noise,
    wishart_covariance,
)

__version__ = "0.1.0"
