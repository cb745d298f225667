"""Vertex subsampling and least-squares power-spectrum recovery.

Observing a covariance only on a subset of K vertices gives K^2 linear
equations in the unknown spectrum.  Two parametrizations are supported: the
spectral-domain model, whose columns come from the Khatri-Rao product of the
subsampled Fourier basis with itself (N unknowns), and the vertex-domain
model, whose columns are vectorized powers of the shift operator (Q unknowns,
no eigendecomposition needed to build it).

Vectorization is column-major everywhere; all Kronecker/Khatri-Rao identities
in this module assume that single convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSupport, InvariantViolation
from .spectral import CovarianceEstimate, vandermonde

SPECTRAL = "spectral"
VERTEX = "vertex"


@dataclass(frozen=True)
class SamplingPattern:
    """Subset of vertices to observe, kept as sorted distinct indices."""

    n_vertices: int
    selected: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.selected)
        if len(idx) == 0:
            raise InvariantViolation("pattern must select at least one vertex")
        if len(set(idx)) != len(idx):
            raise InvariantViolation("pattern has duplicate vertices")
        if min(idx) < 0 or max(idx) >= self.n_vertices:
            raise InvariantViolation("pattern index out of range")
        object.__setattr__(self, "selected", tuple(sorted(idx)))

    @classmethod
    def from_mask(cls, mask):
        mask = np.asarray(mask, dtype=bool)
        return cls(n_vertices=mask.size, selected=tuple(np.flatnonzero(mask)))

    @property
    def k(self):
        return len(self.selected)

    @property
    def mask(self):
        w = np.zeros(self.n_vertices, dtype=bool)
        w[list(self.selected)] = True
        return w


@dataclass(frozen=True)
class CovarianceModelMatrix:
    """Tall matrix mapping spectrum unknowns to the vectorized K x K covariance.

    ``domain`` is :data:`SPECTRAL` (N columns) or :data:`VERTEX` (Q columns).
    Rows are indexed by vertex pairs in column-major vectorization order;
    with ``dedup=True`` only one row per unordered pair is kept (changes the
    implicit least-squares weighting under noise, so it is off by default).
    """

    domain: str
    matrix: np.ndarray
    pattern: SamplingPattern
    order: int | None = None
    dedup: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n_unknowns(self):
        return self.matrix.shape[1]

    def vectorize(self, cov_matrix):
        """Flatten a K x K covariance in this model's row order."""
        k = self.pattern.k
        m = np.asarray(cov_matrix, dtype=float)
        if m.shape != (k, k):
            raise InvariantViolation(f"expected a {k} x {k} covariance, got {m.shape}")
        vec = m.reshape(-1, order="F")
        if self.dedup:
            return vec[_upper_triangle_rows(k)]
        return vec


@dataclass(frozen=True)
class SpectrumEstimate:
    """Least-squares spectrum recovery result.

    ``p_hat`` is the raw solution (no nonnegativity clamp); for the vertex
    domain it is derived as ``V_Q @ alpha_hat``.  ``rank_ok`` is False when
    the model matrix was numerically rank deficient, in which case ``p_hat``
    is the minimum-norm solution and should be treated with suspicion.
    """

    p_hat: np.ndarray
    domain: str
    residual_norm: float
    rank_ok: bool
    rank: int
    rank_tolerance: float
    alpha_hat: np.ndarray | None = None


def _upper_triangle_rows(k):
    # positions of upper-triangle entries in the column-major vectorization
    a, b = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    return np.flatnonzero((a <= b).reshape(-1, order="F"))


def subsample(x, pattern):
    """Keep the rows of a vector or snapshot matrix at the selected vertices."""
    x = np.asarray(x)
    if x.shape[0] != pattern.n_vertices:
        raise InvariantViolation(
            f"input has {x.shape[0]} rows, pattern expects {pattern.n_vertices}"
        )
    return x[list(pattern.selected)]


def subsampled_covariance(cov, pattern):
    """K x K principal submatrix of a covariance at the selected vertices."""
    if cov.n != pattern.n_vertices:
        raise InvariantViolation(
            f"covariance is {cov.n} x {cov.n}, pattern expects {pattern.n_vertices} vertices"
        )
    idx = list(pattern.selected)
    sub = cov.matrix[np.ix_(idx, idx)]
    return CovarianceEstimate(matrix=sub, n_snapshots=cov.n_snapshots)


def build_spectral_model(basis, pattern, dedup=False):
    """Spectral-domain model: Khatri-Rao product of the subsampled basis.

    Column n is the vectorized outer product of eigenvector n restricted to
    the selected vertices, so the model maps a power spectrum to the
    vectorized subsampled covariance.
    """
    u_sub = basis.eigenvectors[list(pattern.selected)]
    k = pattern.k
    model = (u_sub[:, None, :] * u_sub[None, :, :]).reshape(k * k, basis.n, order="F")
    if dedup:
        model = model[_upper_triangle_rows(k)]
    return CovarianceModelMatrix(
        domain=SPECTRAL, matrix=model, pattern=pattern, dedup=dedup
    )


def build_vertex_model(shift, pattern, q_order, dedup=False):
    """Vertex-domain model: subsampled powers of the shift operator.

    Column q holds the vectorized K x K submatrix of ``S^q`` for
    q = 0..Q-1, computed by iterated multiplication (no eigendecomposition)
    of the K selected columns only: ``S^q[:, X]`` is an N x K block.
    """
    n = shift.n
    if not (1 <= q_order <= n):
        raise InvariantViolation(f"need 1 <= Q <= {n}, got {q_order}")
    idx = list(pattern.selected)
    k = pattern.k
    cols = np.empty((k * k, q_order))
    block = np.eye(n)[:, idx]
    for q in range(q_order):
        cols[:, q] = block[idx].reshape(-1, order="F")
        if q + 1 < q_order:
            block = shift.matrix @ block
    if dedup:
        cols = cols[_upper_triangle_rows(k)]
    return CovarianceModelMatrix(
        domain=VERTEX, matrix=cols, pattern=pattern, order=q_order, dedup=dedup
    )


def _equilibrated_svd(matrix):
    """SVD of the column-equilibrated matrix plus a numerical-rank decision.

    Columns are scaled to unit norm before the SVD so the rank reflects
    genuine dependence rather than column scaling (vertex models span many
    orders of magnitude).  The rank tolerance is
    ``max(rows, cols) * eps * (largest equilibrated column norm)``.
    """
    rows, cols = matrix.shape
    col_norms = np.linalg.norm(matrix, axis=0)
    scale = np.where(col_norms > 0.0, col_norms, 1.0)
    scaled = matrix / scale
    u, s, vt = np.linalg.svd(scaled, full_matrices=False)
    tol = max(rows, cols) * np.finfo(float).eps * float(np.linalg.norm(scaled, axis=0).max())
    rank = int(np.sum(s > tol))
    return u, s, vt, scale, rank, float(tol)


def model_rank(model):
    """Numerical rank of a model matrix and whether it has full column rank."""
    _, _, _, _, rank, _ = _equilibrated_svd(model.matrix)
    return rank, rank == model.n_unknowns


def _solve_least_squares(matrix, rhs):
    """Minimum-norm least squares via the equilibrated SVD."""
    u, s, vt, scale, rank, tol = _equilibrated_svd(matrix)
    projected = u[:, :rank].T @ rhs
    solution = (vt[:rank].T @ (projected / s[:rank])) / scale
    residual = float(np.linalg.norm(matrix @ solution - rhs))
    return solution, rank, tol, residual


def estimate_spectrum_spectral(cov_sub, model):
    """Recover the full power spectrum from a subsampled covariance.

    Solves the spectral-domain system by least squares.  Needs K^2 >= N
    observations for a full-rank model; with fewer (or an unlucky pattern)
    the minimum-norm solution is returned and flagged via ``rank_ok``.
    """
    if model.domain != SPECTRAL:
        raise InvariantViolation("model is not spectral-domain")
    rhs = model.vectorize(cov_sub.matrix)
    p_hat, rank, tol, residual = _solve_least_squares(model.matrix, rhs)
    return SpectrumEstimate(
        p_hat=p_hat,
        domain=SPECTRAL,
        residual_norm=residual,
        rank_ok=rank == model.n_unknowns,
        rank=rank,
        rank_tolerance=tol,
    )


def estimate_spectrum_spectral_reduced(cov_sub, model, support):
    """Reduced-order recovery when the spectrum's support is known.

    Solves the least-squares problem over the given columns only and
    zero-fills the rest, enabling recovery with K^2 below N.
    """
    if model.domain != SPECTRAL:
        raise InvariantViolation("model is not spectral-domain")
    support = sorted({int(b) for b in support})
    n = model.n_unknowns
    if len(support) == 0:
        raise InvalidSupport("empty spectral support")
    if support[0] < 0 or support[-1] >= n:
        raise InvalidSupport(f"support index out of range for N={n}")
    rhs = model.vectorize(cov_sub.matrix)
    reduced = model.matrix[:, support]
    coef, rank, tol, residual = _solve_least_squares(reduced, rhs)
    p_hat = np.zeros(n)
    p_hat[support] = coef
    return SpectrumEstimate(
        p_hat=p_hat,
        domain=SPECTRAL,
        residual_norm=residual,
        rank_ok=rank == len(support),
        rank=rank,
        rank_tolerance=tol,
    )


def estimate_spectrum_vertex(cov_sub, model, basis):
    """Recover polynomial covariance coefficients, then the spectrum.

    Least squares gives the expansion coefficients of the covariance in
    powers of the shift operator; mapping them through the eigenvalue
    Vandermonde matrix (which needs all N eigenvalues) yields the spectrum.
    """
    if model.domain != VERTEX:
        raise InvariantViolation("model is not vertex-domain")
    rhs = model.vectorize(cov_sub.matrix)
    alpha_hat, rank, tol, residual = _solve_least_squares(model.matrix, rhs)
    p_hat = vandermonde(basis.eigenvalues, model.order) @ alpha_hat
    return SpectrumEstimate(
        p_hat=p_hat,
        domain=VERTEX,
        residual_norm=residual,
        rank_ok=rank == model.n_unknowns,
        rank=rank,
        rank_tolerance=tol,
        alpha_hat=alpha_hat,
    )


def required_q(filter_length, n):
    """Number of polynomial covariance coefficients for a given filter length.

    A degree-(L-1) filter gives a covariance that is a polynomial of degree
    2(L-1) in the shift operator, hence min(2L-1, N) coefficients.
    """
    if filter_length < 1 or n < 1:
        raise InvariantViolation("filter length and n must be positive")
    return min(2 * filter_length - 1, n)


def nonnegative_projection(p):
    """Clamp a raw spectrum estimate to the nonnegative orthant."""
    return np.maximum(np.asarray(p, dtype=float), 0.0)
