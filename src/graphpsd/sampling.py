"""Vertex subsampling and least-squares power-spectrum recovery.

Observing a covariance only on a subset of K vertices gives K^2 linear
equations in the unknown spectrum.  Two parametrizations are supported: the
spectral-domain model, whose columns come from the Khatri-Rao product of the
subsampled Fourier basis with itself (N unknowns), and the vertex-domain
model, whose columns are vectorized powers of the shift operator (Q unknowns,
no eigendecomposition needed to build it).

A spectral model keeps only the K x N rows ``U_X`` of the Fourier basis at
the selected vertices.  Its Gram matrix ``(U_X^T U_X)**2`` (elementwise) and
normal right-hand side ``diag(U_X^T C_X U_X)`` cost O(K N^2), so the
estimator solves it by Cholesky and one corrected semi-normal step, and
never forms the K^2 x N Khatri-Rao model, when a margin for the squared
conditioning lets the Cholesky factor certify full rank.  Every other
system (vertex models, underdetermined or nearly rank-deficient spectral
ones) is solved by one numpy QR of the model's distinct pair rows, and the
SVD of the small R factor decides the rank and gives the minimum-norm
solution.  All of it is numpy: scipy loads its own OpenBLAS, whose threads
contend with numpy's.  The vertex model's columns come from the shift's
one power routine, ``ShiftOperator.powers``, the only products with the
shift here; the operator owns its ``scipy.sparse`` form, imported on first
use, so the spectral domain runs on numpy alone.

The covariance reaches the solver as its K x K matrix; row ``i + j K`` of a
model's ``matrix`` is the vertex pair (i, j).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidSupport, InvariantViolation, NonFinite
from .spectral import CovarianceEstimate, _count, _index, vandermonde

SPECTRAL = "spectral"
VERTEX = "vertex"


@dataclass(frozen=True)
class SamplingPattern:
    """Subset of vertices to observe, kept as sorted distinct indices.

    ``n_vertices`` and every entry must be integers (numpy integers too);
    a float is an error, not truncated, and a bool is not vertex 0 or 1.
    """

    n_vertices: int
    selected: tuple

    def __post_init__(self):
        try:
            n = _index(self.n_vertices)
            idx = tuple(map(_index, self.selected))
        except TypeError as exc:
            raise InvariantViolation(
                f"a pattern's vertex count and vertices must be integers: {exc}"
            ) from exc
        if len(idx) == 0:
            raise InvariantViolation("pattern must select at least one vertex")
        if len(set(idx)) != len(idx):
            raise InvariantViolation("pattern has duplicate vertices")
        if min(idx) < 0 or max(idx) >= n:
            raise InvariantViolation("pattern index out of range")
        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "selected", tuple(sorted(idx)))

    @classmethod
    def from_mask(cls, mask):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 1:
            raise InvariantViolation(f"a mask must be 1-D, got shape {mask.shape}")
        return cls(n_vertices=mask.size, selected=tuple(np.flatnonzero(mask)))

    @property
    def k(self):
        return len(self.selected)

    @property
    def mask(self):
        w = np.zeros(self.n_vertices, dtype=bool)
        w[list(self.selected)] = True
        return w


@dataclass(frozen=True, init=False, eq=False)
class CovarianceModelMatrix:
    """Tall matrix mapping spectrum unknowns to the vectorized K x K covariance.

    ``domain`` is :data:`SPECTRAL` (N columns) or :data:`VERTEX` (Q columns).
    Rows are indexed by vertex pairs in column-major vectorization order.

    A spectral model from :func:`build_spectral_model` keeps only
    ``basis_rows``, the K x N rows ``U_X`` of the Fourier basis at the
    selected vertices: column n of the model is ``vec(u_n u_n^T)``, so
    ``matrix`` (the K^2 x N Khatri-Rao product ``U_X (.) U_X``) is built
    only when it is read, and the estimator solves from ``U_X`` alone (see
    :attr:`gram_factor`).  A model built from a raw ``matrix`` holds that
    matrix, and the estimator factors its rows.
    """

    domain: str
    pattern: SamplingPattern
    basis_rows: np.ndarray | None = None

    def __init__(self, domain, *, pattern, matrix=None, basis_rows=None):
        if (matrix is None) == (basis_rows is None):
            raise InvariantViolation("a model needs exactly one of matrix and basis_rows")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "pattern", pattern)
        if basis_rows is not None:
            basis_rows = np.asarray(basis_rows, dtype=float)
            if basis_rows.shape[0] != pattern.k:
                raise InvariantViolation(
                    f"basis_rows has {basis_rows.shape[0]} rows, pattern selects {pattern.k}"
                )
            basis_rows.flags.writeable = False
        object.__setattr__(self, "basis_rows", basis_rows)
        if matrix is not None:
            m = np.asarray(matrix, dtype=float)
            m.flags.writeable = False
            self.__dict__["matrix"] = m

    @functools.cached_property
    def matrix(self):
        """The K^2 x N Khatri-Rao product of ``basis_rows`` with itself."""
        u = self.basis_rows
        # row i + j*k is the (i, j) entry; C order keeps each row contiguous
        m = (u[None, :, :] * u[:, None, :]).reshape(self.pattern.k ** 2, u.shape[1])
        m.flags.writeable = False
        return m

    @functools.cached_property
    def gram_factor(self):
        """The certified Gram factor ``(L^-T, scale, tol)`` of :func:`_gram_factor`, or None.

        Formed on first read and kept, so every solve and rank query of the
        model shares one factorization.
        """
        return _gram_factor(self)

    @property
    def n_unknowns(self):
        held = self.basis_rows if self.basis_rows is not None else self.matrix
        return held.shape[1]

    def columns(self, support):
        """The model restricted to the unknowns in ``support``."""
        if self.basis_rows is not None:
            return CovarianceModelMatrix(
                self.domain, pattern=self.pattern, basis_rows=self.basis_rows[:, support]
            )
        return CovarianceModelMatrix(
            self.domain, pattern=self.pattern, matrix=self.matrix[:, support]
        )


@dataclass(frozen=True, eq=False)
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


def build_spectral_model(basis, pattern):
    """Spectral-domain model: Khatri-Rao product of the subsampled basis.

    Column n is the vectorized outer product of eigenvector n restricted to
    the selected vertices, so the model maps a power spectrum to the
    vectorized subsampled covariance.  The model keeps only those K x N
    restricted eigenvectors; its K^2 x N ``matrix`` is built when read.
    """
    return CovarianceModelMatrix(
        SPECTRAL, pattern=pattern, basis_rows=basis.eigenvectors[list(pattern.selected)]
    )


def build_vertex_model(shift, pattern, q_order):
    """Vertex-domain model: subsampled powers of the shift operator.

    Column q holds the vectorized K x K submatrix of ``S^q`` for
    q = 0..Q-1, computed by iterated multiplication (no eigendecomposition)
    of the K selected columns only: ``S^q[:, X]`` is the N x K block that
    :meth:`ShiftOperator.powers` yields for the pattern's vertices.
    """
    n, q_order = shift.n, _count(q_order, "the order Q")
    if not (1 <= q_order <= n):
        raise InvariantViolation(f"need 1 <= Q <= {n}, got {q_order}")
    idx = list(pattern.selected)
    cols = np.empty((pattern.k**2, q_order))
    for q, power in enumerate(shift.powers(idx, q_order)):
        cols[:, q] = power[idx].reshape(-1, order="F")
    return CovarianceModelMatrix(VERTEX, pattern=pattern, matrix=cols)


def _equilibrated_r(model, cov):
    """R factor of the model's weighted, column-equilibrated pair rows.

    The model holds each off-diagonal pair twice, as (i, j) and (j, i).  Its
    K(K+1)/2 rows with i <= j (by j, then i, as ``np.tril_indices`` gives
    them), the off-diagonal ones and their right-hand sides ``(C_ij + C_ji)
    / 2`` from the K x K covariance ``cov`` weighted by sqrt(2), give the
    same normal equations, column norms, singular values and residual norm.
    Those rows, with the right-hand side appended as one more column, are
    factored by a single ``np.linalg.qr(..., mode="r")``, so Q is never
    formed: ``R`` is the first ``cols`` columns of the factor and ``Q^T b``
    its last.  The model entries, then the right-hand sides, are checked
    for non-finite values before the QR.

    Columns are scaled to unit norm so the rank reflects genuine dependence
    rather than column scaling (vertex models span many orders of
    magnitude).  The scales are the column norms of ``R``, which equal
    those of the pair rows: Householder QR is columnwise backward stable
    (Higham 2002, Thm 19.4), so ``R`` is the exact factor of the rows
    perturbed column by column by a few ulps of each column's norm, and
    scaling ``R`` is as good as scaling the rows before the QR.  A zero
    column is scaled to zero, and so is a negligible spectral column: every
    spectral column has norm at most 1 (squared entries of unit
    eigenvectors), so one whose norm is at or below
    ``max(rows, cols) * eps * (largest column norm)`` is numerically zero.
    Vertex columns are not compared this way, because the norm of a column
    grows with the power of the shift it holds.  A column scaled to zero
    adds a zero singular value and gets a zero coefficient.  The rank
    tolerance is ``max(rows, cols) * eps * (largest equilibrated column
    norm)``; both count the model's K^2 rows.

    Returns ``(r, qtb, scale, tol)``: ``qtb`` is ``Q^T`` times the weighted
    right-hand side, and the solution is divided by ``scale``.
    """
    k = model.pattern.k
    j, i = np.tril_indices(k)
    weights = np.where(i == j, 1.0, np.sqrt(2.0))
    cols = model.n_unknowns
    augmented = np.empty((i.size, cols + 1))
    np.multiply(model.matrix[i + j * k], weights[:, None], out=augmented[:, :cols])
    if not np.all(np.isfinite(augmented[:, :cols])):
        raise NonFinite("model matrix is not finite")
    augmented[:, cols] = (cov[i, j] + cov[j, i]) / 2.0 * weights
    if not np.all(np.isfinite(augmented[:, cols])):
        raise NonFinite("covariance is not finite")
    factor = np.linalg.qr(augmented, mode="r")
    top = min(i.size, cols)
    r, qtb = factor[:top, :cols], factor[:top, cols]
    col_norms = np.linalg.norm(r, axis=0)
    if not np.all(np.isfinite(col_norms)):
        raise NonFinite("model matrix is not finite")
    eps_rows = max(k * k, cols) * np.finfo(float).eps
    negligible = eps_rows * col_norms.max() if model.domain == SPECTRAL else 0.0
    scale = np.where(col_norms > negligible, col_norms, np.inf)
    r = r / scale
    tol = eps_rows * float(np.linalg.norm(r, axis=0).max())
    return r, qtb, scale, tol


def _upper_inverse(upper, out=None):
    """Inverse of an upper-triangular matrix, by numpy alone, block by block.

    ``[[A, B], [0, C]]^-1 = [[A^-1, -A^-1 B C^-1], [0, C^-1]]`` down to blocks
    of at most 32 rows, which ``np.linalg.inv`` inverts (the LU of an upper
    triangle does not pivot).  It serves the greedy design's whitening and the
    estimator's Gram path (:func:`_gram_factor`) only.  Not scipy's
    ``dtrtri``, for the reason the whole package keeps its dense linear
    algebra in numpy: scipy loads its own OpenBLAS, whose threads contend
    with numpy's (on a 2-vCPU VM with 2 OpenBLAS threads, dtrtri took 19 ms
    a call inside greedy at N=200, against 0.3 ms alone, and the estimator's
    scipy QR of 1,275 x 101 rows took from 6 to 125 ms inside the reference
    run, against about 7 ms alone).  Not one ``np.linalg.inv`` of the whole
    matrix either: its LU took about 1 ms a call at m=100 inside the
    pipeline.

    Every block is written into one m x m output (``out`` of the
    recursion), so besides it only the m/2 x m/2 product ``B C^-1`` is held.
    ``out`` may be ``upper`` itself: each block is read before it is
    overwritten.
    """
    m = upper.shape[0]
    if out is None:
        out = np.zeros((m, m))
    if m <= 32:
        out[...] = np.linalg.inv(upper)
        return out
    h = m // 2
    top = _upper_inverse(upper[:h, :h], out[:h, :h])
    bottom = _upper_inverse(upper[h:, h:], out[h:, h:])
    corner = upper[:h, h:] @ bottom
    np.negative(corner, out=corner)
    np.matmul(top, corner, out=out[:h, h:])
    return out


def _gram_factor(model):
    """Certified Cholesky factor of a spectral model's equilibrated Gram matrix, or None.

    For ``A = U_X (.) U_X`` the Gram matrix is ``A^T A = (U_X^T U_X)**2``
    (elementwise), an N x N GEMM of K rows, where the QR of the K(K+1)/2
    pair rows costs K^2 N^2 flops.  The columns are equilibrated by
    ``d = sqrt(diag G)``, which is ``||u_n||^2``: the exact column norms of
    the model, a sum of squares with no cancellation, so the negligible-
    column rule of :func:`_equilibrated_r` reads them as it reads the norms
    of ``R``.  The equilibrated ``G = L L^T`` is factored by
    ``np.linalg.cholesky`` and ``L^-T`` formed by :func:`_upper_inverse`
    over ``L^T`` in place.  The Gram matrix is dropped once ``L`` exists,
    so two N x N arrays are held during the Cholesky and one, with the
    half-size block of the inversion, after it.

    The normal equations square the condition number, so the certificate
    asks for more than the rank tolerance.  With ``n = max(K, cols)`` and u
    the unit roundoff, ``beta = 1/||L^-1||_F`` bounds ``sigma_min(L^T)``
    from below (``sigma_min(L^T) = 1/||L^-1||_2 >= 1/||L^-1||_F``), and
    ``beta`` must clear both ``cols * tol`` and the margin ``2 n sqrt(u)``.
    The constant: an entry of ``U_X^T U_X`` is computed to ``K u ||u_m||
    ||u_n||``, so an entry of the equilibrated Gram matrix is off by at most
    about ``2 K u``, and Cholesky is backward stable with ``|E| <= (cols+1)
    u |L||L^T|``, whose entries are at most ``(cols+1) u`` because the rows
    of ``L`` have unit norm.  Summed over the entries, ``lambda_min`` of the
    exact equilibrated Gram matrix is within about ``3 n^2 u`` of
    ``sigma_min(L^T)^2``, and ``beta > 2 n sqrt(u)`` makes that less than
    ``(3/4) beta^2``.  So the model's smallest equilibrated singular value
    is above ``beta / 2 > cols * tol / 2 >= tol``, and the rank rule counts
    every column.  (The inverse's own rounding moves ``sigma_min`` by about
    ``n^1.5 u``, far below ``beta / 2``.)  The same margin keeps the squared
    condition number under ``cols / beta^2 < 1 / (4 n u)``, where one
    corrected step of :func:`_gram_solve` gets back the accuracy of QR.  On
    the 149 ``estimate_large`` graphs (N = 600, K = 100) the smallest
    ``beta`` is about 2.5e-5, twice the margin.

    It returns None, and the caller takes the QR path, for every other
    system: no ``basis_rows`` (vertex models and models built from a raw
    matrix), fewer pair rows than columns, a negligible or zero column, a
    failed Cholesky or a bound within the margin.  Non-finite
    ``basis_rows`` raise :class:`NonFinite`.

    Returns ``(inverse, scale, tol)``: ``inverse`` is ``L^-T``, ``scale``
    the column norms ``d``, ``tol`` the rank tolerance of
    :func:`_equilibrated_r`.
    """
    u_x = model.basis_rows
    if u_x is None:
        return None
    if not np.all(np.isfinite(u_x)):
        raise NonFinite("model matrix is not finite")
    k, cols = u_x.shape
    if k * (k + 1) // 2 < cols:
        return None
    gram = u_x.T @ u_x
    np.square(gram, out=gram)
    scale = np.sqrt(np.diagonal(gram))
    eps_rows = max(k * k, cols) * np.finfo(float).eps
    if not scale.min() > eps_rows * scale.max():
        return None
    gram /= scale
    gram /= scale[:, None]
    tol = eps_rows * float(np.sqrt(np.diagonal(gram).max()))
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    del gram
    inverse = _upper_inverse(lower.T, out=lower.T)
    margin = 2.0 * max(k, cols) * np.sqrt(np.finfo(float).eps / 2.0)
    if not 1.0 / np.linalg.norm(inverse) > max(cols * tol, margin):
        return None
    return inverse, scale, tol


def _gram_solve(model, cov, inverse, scale):
    """Least squares from :func:`_gram_factor`'s ``L^-T`` and column scales.

    The right-hand side of the normal equations is
    ``A^T vec(C) = diag(U_X^T C U_X)``, read from the K x K covariance
    ``cov`` as it is laid out.  The first solve, ``(L L^T)^-1`` applied as
    ``L^-T (L^-1 v)``, loses accuracy with the squared condition number;
    one correction step (Bjorck 1987, "Stability analysis of the method of
    seminormal equations for linear least squares problems") solves again
    for the residual of that solution, the K x K
    matrix ``C - U_X diag(x) U_X^T``.  Returns ``(solution, residual)``,
    where ``residual`` is the Frobenius norm of that matrix at the returned
    solution, which is ``||A x - vec(C)||`` over all K^2 rows.
    """
    u_x = model.basis_rows
    if not np.all(np.isfinite(cov)):
        raise NonFinite("covariance is not finite")

    def step(target):
        normal = np.einsum("kn,kn->n", u_x, target @ u_x) / scale
        return (inverse @ (inverse.T @ normal)) / scale

    def residual_of(x):
        return cov - (u_x * x) @ u_x.T

    solution = step(cov)
    solution += step(residual_of(solution))
    return solution, float(np.linalg.norm(residual_of(solution)))


def model_rank(model):
    """Numerical rank of a model matrix and whether it has full column rank.

    A full rank certified by the Gram factor of a spectral model
    (:attr:`CovarianceModelMatrix.gram_factor`) is taken as it is.  Any
    other model's rank counts the singular values of its equilibrated ``R``
    (:func:`_equilibrated_r`) above the tolerance.
    """
    if model.gram_factor is not None:
        return model.n_unknowns, True
    k = model.pattern.k
    r, _, _, tol = _equilibrated_r(model, np.zeros((k, k)))
    rank = int(np.sum(np.linalg.svd(r, compute_uv=False) > tol))
    return rank, rank == model.n_unknowns


def _solve_least_squares(model, cov):
    """Minimum-norm least squares for the K x K covariance ``cov``.

    Returns ``(solution, rank, tol, residual)``; a ``cov`` of another shape
    is an :class:`InvariantViolation`.  A spectral model whose Gram factor
    certifies full rank (:attr:`CovarianceModelMatrix.gram_factor`) is
    solved from ``U_X`` by :func:`_gram_solve`, and its K^2 x N matrix is
    never formed.  Every other system is solved
    on the equilibrated R factor of its pair rows (one QR,
    :func:`_equilibrated_r`): the SVD of ``R`` gives the rank (singular
    values above the tolerance) and the minimum-norm solution.
    ``residual`` is the norm of ``model.matrix @ solution`` minus the
    column-major ``cov``, over all of the model's K^2 rows.
    """
    k = model.pattern.k
    if cov.shape != (k, k):
        raise InvariantViolation(f"expected a {k} x {k} covariance, got {cov.shape}")
    if model.gram_factor is not None:
        inverse, scale, tol = model.gram_factor
        solution, residual = _gram_solve(model, cov, inverse, scale)
        return solution, model.n_unknowns, tol, residual
    r, qtb, scale, tol = _equilibrated_r(model, cov)
    u, s, vt = np.linalg.svd(r, full_matrices=False)
    rank = int(np.sum(s > tol))
    projected = u[:, :rank].T @ qtb
    solution = (vt[:rank].T @ (projected / s[:rank])) / scale
    residual = float(np.linalg.norm(model.matrix @ solution - cov.ravel(order="F")))
    return solution, rank, tol, residual


def _estimate(cov_sub, model, domain):
    """The least-squares estimate of the unknowns of a ``domain`` model from ``cov_sub``."""
    if model.domain != domain:
        raise InvariantViolation(f"model is not {domain}-domain")
    solution, rank, tol, residual = _solve_least_squares(model, cov_sub.matrix)
    return SpectrumEstimate(
        p_hat=solution,
        domain=domain,
        residual_norm=residual,
        rank_ok=rank == model.n_unknowns,
        rank=rank,
        rank_tolerance=tol,
    )


def estimate_spectrum_spectral(cov_sub, model):
    """Recover the full power spectrum from a subsampled covariance.

    Solves the spectral-domain system by least squares.  Needs K^2 >= N
    observations for a full-rank model; with fewer (or an unlucky pattern)
    the minimum-norm solution is returned and flagged via ``rank_ok``.
    """
    return _estimate(cov_sub, model, SPECTRAL)


def estimate_spectrum_spectral_reduced(cov_sub, model, support):
    """Reduced-order recovery when the spectrum's support is known.

    Solves the least-squares problem over the given columns only and
    zero-fills the rest, enabling recovery with K^2 below N.  Support
    entries must be integers.
    """
    try:
        support = sorted({_index(b) for b in support})
    except TypeError as exc:
        raise InvalidSupport(f"spectral support entries must be integers: {exc}") from exc
    n = model.n_unknowns
    if len(support) == 0:
        raise InvalidSupport("empty spectral support")
    if support[0] < 0 or support[-1] >= n:
        raise InvalidSupport(f"support index out of range for N={n}")
    est = _estimate(cov_sub, model.columns(support), SPECTRAL)
    p_hat = np.zeros(n)
    p_hat[support] = est.p_hat
    return replace(est, p_hat=p_hat)


def estimate_spectrum_vertex(cov_sub, model, basis):
    """Recover polynomial covariance coefficients, then the spectrum.

    Least squares gives the expansion coefficients of the covariance in
    powers of the shift operator; mapping them through the eigenvalue
    Vandermonde matrix (which needs all N eigenvalues) yields the spectrum.
    A basis of another vertex count than the model's pattern is an
    :class:`InvariantViolation`.
    """
    n = model.pattern.n_vertices
    if basis.n != n:
        raise InvariantViolation(f"basis has {basis.n} eigenvalues, pattern expects {n}")
    est = _estimate(cov_sub, model, VERTEX)
    p_hat = vandermonde(basis.eigenvalues, model.n_unknowns) @ est.p_hat
    return replace(est, p_hat=p_hat, alpha_hat=est.p_hat)


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
