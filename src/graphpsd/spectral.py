"""Graph Fourier basis, polynomial filters, and stationary-signal statistics.

The shift operator's eigenvectors play the role of a Fourier basis and its
eigenvalues the role of frequencies.  A polynomial filter shapes white noise
into a stationary process whose power spectrum is the squared frequency
response of the filter.

The vertex domain needs the frequencies only: its model holds powers of the
shift, and the spectrum follows from the eigenvalue Vandermonde matrix.  So
a basis can hold eigenvalues alone (``eigendecompose(shift,
eigenvectors=False)``), and the filter's rows at the observed vertices come
from products with the shift (:func:`filter_rows`), as the matrix
polynomial ``sum_l h_l S^l`` it is: Horner's rule steps ``shift @ block``,
the operator's own product, from the unit columns its power routine
``ShiftOperator.powers`` starts at.  The spectral domain's rows come from
the Fourier basis (:func:`basis_filter_rows`).

A sample covariance need not come from snapshots: from any factor of the
population covariance, :func:`wishart_covariance` draws it from its
Wishart law at a cost that depends on neither N nor the snapshot count.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure, InvariantViolation


@dataclass(frozen=True, init=False, eq=False)
class SpectralBasis:
    """Eigendecomposition of a shift operator.

    ``eigenvalues`` are ascending; column ``n`` of ``eigenvectors`` pairs
    with ``eigenvalues[n]``.  The basis carries a fixed sign convention: in
    every column the entry of largest magnitude is positive (first such
    entry on ties), which makes the decomposition deterministic.

    A basis built without eigenvectors holds the frequencies only (see
    :func:`eigendecompose`); reading its ``eigenvectors`` raises
    :class:`InvariantViolation`.
    """

    eigenvalues: np.ndarray
    _eigenvectors: np.ndarray | None = field(repr=False)

    def __init__(self, eigenvalues, eigenvectors=None):
        lam = np.asarray(eigenvalues, dtype=float)
        lam.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)
        if eigenvectors is not None:
            eigenvectors = np.asarray(eigenvectors, dtype=float)
            eigenvectors.flags.writeable = False
        object.__setattr__(self, "_eigenvectors", eigenvectors)

    @property
    def eigenvectors(self):
        if self._eigenvectors is None:
            raise InvariantViolation("this basis holds eigenvalues only, not eigenvectors")
        return self._eigenvectors

    @property
    def n(self):
        return self.eigenvalues.shape[0]


@dataclass(frozen=True, eq=False)
class GraphFilter:
    """Polynomial filter ``H = sum_l h_l S^l`` given by its coefficients."""

    coefficients: np.ndarray

    def __post_init__(self):
        h = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        if h.ndim != 1 or h.size < 1:
            raise InvariantViolation("filter needs at least one coefficient")
        if not np.all(np.isfinite(h)):
            raise InvariantViolation("filter coefficients must be finite")
        h.flags.writeable = False
        object.__setattr__(self, "coefficients", h)

    @property
    def length(self):
        return self.coefficients.shape[0]


def _index(value):
    """``value`` as an int, by ``operator.index`` (numpy integers pass);
    anything else, a float or a bool among them, is a ``TypeError``."""
    if isinstance(value, bool):  # operator.index reads True as 1
        raise TypeError(f"a bool is not an integer: {value!r}")
    return operator.index(value)


def _count(value, name):
    """``value`` as an int by :func:`_index`; anything else is an :class:`InvariantViolation`."""
    try:
        return _index(value)
    except TypeError as exc:
        raise InvariantViolation(f"{name} must be an integer, got {value!r}") from exc


def _vertices(vertices, n):
    """``vertices`` as an int array, each entry by :func:`_count` and in ``[0, n)``."""
    idx = np.array([_count(v, "a vertex") for v in vertices], dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InvariantViolation(f"vertices must lie in [0, {n})")
    return idx


def _seed(value):
    """``value`` as a nonnegative int, the seed of a random draw; anything
    else, a negative or a float seed among them, is an
    :class:`InvariantViolation`."""
    seed = _count(value, "the seed")
    if seed < 0:
        raise InvariantViolation(f"the seed must be nonnegative, got {seed}")
    return seed


def is_symmetric(m):
    """Whether the square array ``m`` is symmetric to 1e-12 of its largest entry.

    Exact symmetry, the cheap test, comes first.  Non-finite entries never
    fail the test; they are left to the checks of what reads the matrix.
    """
    if np.array_equal(m, m.T):
        return True
    scale = np.abs(m).max() if m.size else 0.0
    with np.errstate(invalid="ignore"):
        return not (scale and np.abs(m - m.T).max() > 1e-12 * scale)


@dataclass(frozen=True, eq=False)
class CovarianceEstimate:
    """Symmetric covariance matrix tagged with the snapshot count behind it.

    ``n_snapshots == 0`` marks a population (exact) covariance.
    """

    matrix: np.ndarray
    n_snapshots: int = 0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvariantViolation("covariance must be square")
        if not is_symmetric(m):
            raise InvariantViolation("covariance is not symmetric")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n(self):
        return self.matrix.shape[0]


def eigendecompose(shift, eigenvectors=True):
    """Spectral basis of a symmetric shift operator.

    Eigenvalues come out ascending and each eigenvector is sign-fixed so
    that repeated calls on the same matrix give identical bases.  With
    ``eigenvectors=False`` only the eigenvalues are computed, by
    ``np.linalg.eigvalsh``, which skips the eigenvector work (about 4N^3/3
    flops for the tridiagonal reduction, against about 9N^3 for ``eigh``),
    and the basis holds no eigenvectors; its eigenvalues agree with those of
    ``eigh`` to rounding, not bitwise.

    The dense matrix of the shift is built once, for the solver, and
    dropped when it returns; the eigenvectors' signs are fixed in place.

    Raises :class:`ConvergenceFailure` if the shift is not finite (LAPACK
    reads one triangle of the matrix and can pass over a NaN or infinity) or
    if the eigensolver fails.
    """
    if not np.all(np.isfinite(shift.data)):
        raise ConvergenceFailure("eigendecomposition of a shift with non-finite entries")
    matrix = shift.matrix
    try:
        if eigenvectors:
            lam, u = np.linalg.eigh(matrix)
        else:
            lam, u = np.linalg.eigvalsh(matrix), None
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    del matrix
    if not np.all(np.isfinite(lam)) or (u is not None and not np.all(np.isfinite(u))):
        raise ConvergenceFailure("eigendecomposition produced non-finite values")
    if u is None:
        return SpectralBasis(eigenvalues=lam)
    # sign convention: largest-magnitude entry per column positive
    pivot = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[pivot, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    u *= signs
    return SpectralBasis(eigenvalues=lam, eigenvectors=u)


def vandermonde(eigenvalues, order):
    """N x order matrix of eigenvalue powers, ``V[i, q] = lam_i**q``."""
    lam = np.asarray(eigenvalues, dtype=float)
    if order < 1:
        raise InvariantViolation("vandermonde order must be >= 1")
    return np.vander(lam, N=order, increasing=True)


def frequency_response(filt, basis):
    """Filter response at each graph frequency: ``V_L h``."""
    v = vandermonde(basis.eigenvalues, filt.length)
    return v @ filt.coefficients


def filter_matrix(filt, basis):
    """Dense filter matrix ``U diag(V_L h) U^T``.

    Equals the matrix polynomial ``sum_l h_l S^l`` evaluated directly.
    """
    return basis_filter_rows(filt, basis)


def basis_filter_rows(filt, basis, vertices=None):
    """Rows ``H[X, :] = (U_X diag(V_L h)) U^T`` of the filter at the ``vertices`` X.

    The spectral domain's counterpart of :func:`filter_rows`: a K x N array
    whose rows follow the order of ``vertices``.  Only those K rows are
    formed; with no ``vertices`` they are all N, the filter matrix.
    """
    u = basis.eigenvectors
    rows = u if vertices is None else u[_vertices(vertices, basis.n)]
    return (rows * frequency_response(filt, basis)) @ u.T


def true_power_spectrum(filt, basis):
    """Ground-truth power spectrum of the filtered process: ``(V_L h)^2``."""
    resp = frequency_response(filt, basis)
    return resp * resp


def filter_rows(filt, shift, vertices):
    """Rows ``H[X, :]`` of the filter ``H = sum_l h_l S^l`` at the ``vertices`` X.

    ``S`` is symmetric, so ``H[X, :]`` is the transpose of ``H[:, X]``,
    which Horner's rule builds from the N x K block of unit columns ``E_X``
    as ``B <- S B + h_l E_X`` for l = L-2 .. 0, starting at ``h_{L-1} E_X``:
    L-1 products ``shift @ block`` of the shift operator with an N x K
    block.  No eigenvector and no N x N matrix is used.  Returns a K x N
    array whose rows follow the order of ``vertices``.
    """
    h = filt.coefficients
    (unit,) = shift.powers(vertices, 1)  # E_X, the zeroth power
    block = h[-1] * unit
    for coefficient in h[-2::-1]:
        block = shift @ block
        block += coefficient * unit
    return block.T


def population_covariance(rows):
    """Population covariance ``R R^T`` of the process ``R n``, ``n`` white noise.

    ``rows`` are filter rows: all of ``H`` gives the N x N covariance, the
    rows at a vertex set X its K x K principal submatrix.  Any other factor
    of that covariance, such as ``U_X diag(V h)``, gives it to rounding.
    """
    r = rows @ rows.T
    return CovarianceEstimate(matrix=(r + r.T) / 2.0, n_snapshots=0)


def true_covariance(filt, basis):
    """Population covariance ``H H^T`` of the filtered white-noise process."""
    return population_covariance(filter_matrix(filt, basis))


def white_noise(n, n_snapshots, seed=0):
    """``n x n_snapshots`` i.i.d. standard normal draw, deterministic in ``seed``.

    Both counts must be integers (numpy integers too), and the seed a
    nonnegative one.
    """
    n, n_snapshots = _count(n, "the vertex count n"), _count(n_snapshots, "n_snapshots")
    if n_snapshots < 1:
        raise InvariantViolation("need n_snapshots >= 1")
    return np.random.default_rng(_seed(seed)).standard_normal((n, n_snapshots))


def synthesize(filt, basis, n_snapshots, seed=0, vertices=None):
    """Draw stationary realizations by filtering white noise.

    Returns a ``K x n_snapshots`` array whose columns are independent
    samples ``H n`` with ``n = white_noise(N, n_snapshots, seed)``, observed
    at the K ``vertices`` (in their order; all N vertices by default), as
    :func:`basis_filter_rows` times the noise.  The rows of a call with
    ``vertices`` agree with the same rows of an all-vertex call to
    rounding, not bitwise, because the products run at another shape.
    """
    rows = basis_filter_rows(filt, basis, vertices)
    return rows @ white_noise(basis.n, n_snapshots, seed)


def sample_covariance(snapshots, subtract_mean=False):
    """Sample covariance ``(1/N_s) X X^T`` of snapshot columns.

    The process is synthesized zero-mean, so no mean is subtracted by
    default; pass ``subtract_mean=True`` to remove the empirical mean.
    """
    x = np.asarray(snapshots, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n_snapshots = x.shape[1]
    if subtract_mean:
        x = x - x.mean(axis=1, keepdims=True)
    r = (x @ x.T) / n_snapshots
    return CovarianceEstimate(matrix=(r + r.T) / 2.0, n_snapshots=n_snapshots)


def wishart_covariance(factor, n_snapshots, seed=0):
    """Sample covariance of ``n_snapshots`` Gaussian snapshots of covariance
    ``C = F F^T``, drawn from its Wishart law without drawing a snapshot.

    ``factor`` is any K x N array F with ``F F^T = C``.  For zero-mean
    Gaussian snapshots ``T C_hat ~ Wishart(C, T)``, and the Bartlett
    decomposition (Bartlett 1933; Odell & Feiveson 1966) draws it as
    ``C_hat = L A A^T L^T / T``, where ``C = L L^T`` and A is a lower
    triangular K x min(K, T) array: from ``default_rng(seed)`` first its
    strictly-lower N(0, 1) entries in row-major order, then its diagonal
    ``sqrt(chisquare(T - i))``.  For T < K this is the singular Bartlett
    form, and C_hat has rank T.  L is the Cholesky factor of C, or, when C
    is singular, ``R^T`` of the QR decomposition of F^T.  The cost depends
    on neither N (beyond the Gram ``F F^T``) nor T.

    A non-finite factor is an :class:`InvariantViolation`, as are a count
    or seed that ``white_noise`` would refuse.
    """
    f = np.asarray(factor, dtype=float)
    t = _count(n_snapshots, "n_snapshots")
    if t < 1:
        raise InvariantViolation("need n_snapshots >= 1")
    if f.ndim != 2 or not np.all(np.isfinite(f)):
        raise InvariantViolation("the factor must be a finite 2-d array")
    rng = np.random.default_rng(_seed(seed))
    gram = f @ f.T
    try:
        lower = np.linalg.cholesky((gram + gram.T) / 2.0)
    except np.linalg.LinAlgError:  # a singular C: any L with L L^T = C will do
        lower = np.linalg.qr(f.T, mode="r").T
    k, m = lower.shape[1], min(lower.shape[1], t)
    a = np.zeros((k, m))
    below = np.tril_indices(k, -1, m)
    a[below] = rng.standard_normal(below[0].size)
    a[np.diag_indices(m)] = np.sqrt(rng.chisquare(t - np.arange(m)))
    la = lower @ a
    r = (la @ la.T) / t
    return CovarianceEstimate(matrix=(r + r.T) / 2.0, n_snapshots=t)


def is_stationary(cov, basis, tol=1e-8):
    """Check joint diagonalizability of a covariance with the basis.

    Rotates the covariance into the spectral domain and compares
    off-diagonal to diagonal energy.  Returns ``(stationary, ratio)`` where
    ``ratio = sum(offdiag^2) / sum(diag^2)``.
    """
    u = basis.eigenvectors
    m = u.T @ cov.matrix @ u
    diag_energy = float(np.sum(np.diag(m) ** 2))
    off_energy = float(np.sum(m * m)) - diag_energy
    if diag_energy == 0.0:
        ratio = 0.0 if off_energy == 0.0 else np.inf
    else:
        ratio = max(off_energy, 0.0) / diag_energy
    return ratio <= tol, ratio


def fit_lowpass_filter(basis, length=7, rate=3.0):
    """Least-squares lowpass filter for the experiment pipeline.

    Fits ``length`` polynomial coefficients so the frequency response
    matches ``exp(-rate * lam / lam_max)`` at the basis eigenvalues.  Any
    smooth decaying profile would do; this one is fixed so experiments are
    self-describing.

    The fit runs on ``x = lam / lam_max``, at most 1, and returns
    ``h_l = c_l / lam_max**l``, the same polynomial in ``lam``.  The
    Vandermonde matrix of ``x`` is far better conditioned than that of
    ``lam`` (about 2e4 against 2e6 on 800-vertex sensor graphs, L=7), so
    eigenvalues that differ by rounding, as those of ``eigh`` and
    ``eigvalsh`` do, give true spectra that differ by rounding too.
    """
    lam = basis.eigenvalues
    lam_max = float(lam.max())
    if lam_max <= 0.0:
        raise InvariantViolation("spectrum has no positive eigenvalue to normalize by")
    x = lam / lam_max
    coeffs, *_ = np.linalg.lstsq(vandermonde(x, length), np.exp(-rate * x), rcond=None)
    return GraphFilter(coefficients=coeffs / lam_max ** np.arange(length))


def save_matrix_csv(path, matrix):
    """Write a dense matrix as CSV with a ``# rows cols`` header."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {m.shape[0]} {m.shape[1]}\n")
        for row in m:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def load_matrix_csv(path):
    """Read a matrix written by :func:`save_matrix_csv`."""
    from .errors import ParseError

    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ParseError("missing '# rows cols' header", 1)
        try:
            rows, cols = (int(t) for t in header[1:].split())
        except ValueError as exc:
            raise ParseError(f"bad header: {exc}", 1) from exc
        data = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                values = [float(t) for t in line.split(",")]
            except ValueError as exc:
                raise ParseError(f"bad number: {exc}", lineno) from exc
            if len(values) != cols:
                raise ParseError(f"expected {cols} columns", lineno)
            data.append(values)
    if len(data) != rows:
        raise ParseError(f"expected {rows} rows, got {len(data)}")
    return np.array(data)
