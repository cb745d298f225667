"""Greedy design of the sampling pattern via a regularized log-det objective.

Selecting vertex set X keeps the model-matrix rows indexed by all ordered
pairs in X x X, so each new vertex contributes 2|X|+1 rank-one terms to the
Gram matrix.  The covariance is symmetric, so rows ``(s, j)`` and ``(j, s)``
are the same row and their two terms equal one term of ``sqrt(2)`` times the
row: greedy gains are scored with the |X|+1 rows ``(s, s)`` and
``sqrt(2) (s, j)``, which carry the same Gram matrix.  The objective

    f(X) = logdet( sum_{(i,j) in XxX} psi_ij psi_ij^T + eps I ) - M log(eps)

is normalized (f of the empty set is exactly zero) and monotone; greedy
maximization with a fixed lowest-index tie-break gives a deterministic,
near-optimal pattern in practice.  A frame-potential objective (squared
Frobenius norm of the Gram matrix) is available as an alternative cost.

Marginal gains are evaluated through the Cholesky factor of the regularized
Gram matrix: either as block updates via the matrix determinant lemma
(default; each greedy round inverts the m x m factor once, whitens the |X|+1
new rows ``W`` of all remaining candidates in place by GEMMs against that
inverse, and factors the smaller of their systems ``I + W W^T`` and
``I + W^T W``, which share a determinant, with one batched Cholesky, in
blocks of about 1 MB) or as the equivalent sequence of 2|X|+1 rank-one
factor updates per candidate over the ordered rows.  GEMM, not a triangular
solve, whitens the rows because a threaded triangular solve costs several
milliseconds per call at these shapes and a GEMM does not; the inverse is
computed with numpy, as every other BLAS call of a round is.  Both paths agree to roundoff and are
cross-checked against from-scratch recomputation in tests.

No objective on the pipeline path stores the N x N x M tensor of all pair
rows (N^3 floats in the spectral domain).  Each objective reads its rows
from a row source with two accessors, the diagonal rows ``(s, s)`` of some
candidates and the block of rows ``(i, j)`` for ``i`` and ``j`` in two index
lists: the spectral source multiplies rows of the Fourier basis, the vertex
source keeps the diagonals of the powers ``S^q`` and builds the columns
``S^q e_j`` of the vertices greedy chooses, by sparse products with the
shift, and an explicit tensor is indexed.  The vertex diagonals take half a
power sweep, up to ``S^(Q//2)``: ``(S^(a+b))_cc = <S^a e_c, S^b e_c>`` for a
symmetric shift, the moment identity of Lin, Saad and Yang (2016).  Its
regularizer needs ``sum_q |S^q|_F^2``, which is ``sum_q sum_n lam_n^(2q)``
over the shift's eigenvalues, so no power is swept for it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation, NonFinite
from .sampling import SamplingPattern, _upper_inverse

LOGDET_EPS = "logdet_eps"
FRAME_POTENTIAL = "frame_potential"


# Bytes of one block of work: the candidates of a batched greedy round (their
# rows, never smaller than their small systems), or one chunk of an
# objective's set-up, so a round's working set stays small.
_BLOCK_BYTES = 1 << 20

# Bytes of the rows one whitening GEMM reads (at least m rows): a block is
# whitened chunk by chunk in place, so it is never copied whole.
_WHITEN_BYTES = 1 << 16


class _RowSource:
    """The pair rows of an objective, read a few at a time.

    ``diagonal(cands)`` gives the rows ``(s, s)`` of the candidates as a
    (len(cands), m) array; ``block(rows, cols)`` the rows ``(i, j)`` for
    ``i`` in ``rows`` and ``j`` in ``cols`` as a (len(rows), len(cols), m)
    array; ``default_epsilon()`` 1e-8 times the mean squared row norm, as
    :func:`default_epsilon` of the whole tensor.  ``n`` and ``m`` are the
    vertex and unknown counts.
    """


class _TensorRows(_RowSource):
    """Rows indexed from an explicit (n, n, m) tensor."""

    def __init__(self, pair_rows):
        rows = np.asarray(pair_rows, dtype=float).view()
        if rows.ndim != 3 or rows.shape[0] != rows.shape[1]:
            raise InvariantViolation("pair_rows must have shape (n, n, m)")
        if not np.all(np.isfinite(rows)):
            raise InvariantViolation("pair_rows must be finite")
        rows.flags.writeable = False
        self.tensor = rows
        self.n, _, self.m = rows.shape

    def diagonal(self, cands):
        return self.tensor[cands, cands]

    def block(self, rows, cols):
        return self.tensor[np.ix_(rows, cols)]

    def default_epsilon(self):
        return default_epsilon(self.tensor)


class _SpectralRows(_RowSource):
    """Row ``(i, j)`` is ``u_i * u_j`` for the rows ``u_i`` of the Fourier basis."""

    def __init__(self, eigenvectors):
        # |u_ik u_jk| <= max(u_ik^2, u_jk^2): finite squares make every row finite
        with np.errstate(over="ignore"):
            squares = eigenvectors * eigenvectors
        if not np.all(np.isfinite(squares)):
            raise InvariantViolation("pair_rows must be finite")
        self.u = eigenvectors
        self.n, self.m = eigenvectors.shape

    def diagonal(self, cands):
        u = self.u[cands]
        return u * u

    def block(self, rows, cols):
        return self.u[rows][:, None, :] * self.u[cols][None, :, :]

    def default_epsilon(self):
        # default_epsilon's per-pair reduction, a chunk of i at a time
        n = self.n
        everything = np.arange(n)
        chunk = max(1, _BLOCK_BYTES // (8 * n * n))
        squared_norms = np.empty((n, n))
        for i in range(0, n, chunk):
            rows = self.block(everything[i : i + chunk], everything)
            rows *= rows
            np.sum(rows, axis=-1, out=squared_norms[i : i + chunk])
        return 1e-8 * float(np.mean(squared_norms))


class _VertexRows(_RowSource):
    """Row ``(i, j)`` holds ``(S^q)_ij`` for q < Q, from sparse products with S.

    The diagonals (n x Q) come from one sweep over column chunks of the
    powers up to ``S^(Q//2)`` only: ``(S^2a)_cc = |S^a e_c|^2`` and
    ``(S^(2a+1))_cc = <S^a e_c, S^(a+1) e_c>`` for a symmetric S.  The
    regularizer's ``sum_q |S^q|_F^2`` is ``sum_q sum_n lam_n^(2q)``, from the
    eigenvalues of S (given, or computed once when epsilon is asked for).
    The columns ``S^q e_j`` are computed for the ``j`` a block asks for only,
    and kept in one growing (n, cap, Q) array in the order they were first
    asked for: greedy asks for those of its chosen vertices, in turn, so its
    blocks are one slice of that array.
    """

    def __init__(self, shift, q_order, eigenvalues=None):
        self.n, self.m = shift.n, q_order
        self.matrix = shift.matrix
        self.shift = shift.sparse
        if eigenvalues is not None:
            eigenvalues = np.asarray(eigenvalues, dtype=float)
            if eigenvalues.shape != (self.n,):
                raise InvariantViolation(f"need {self.n} eigenvalues, got {eigenvalues.shape}")
        self.eigenvalues = eigenvalues
        self.diag = np.empty((self.n, q_order))
        # two power blocks are alive at a time: together half a block of work
        chunk = max(1, _BLOCK_BYTES // (4 * 8 * self.n))
        for start in range(0, self.n, chunk):
            cols = np.arange(start, min(start + chunk, self.n))
            power = np.zeros((self.n, len(cols)))
            power[cols, np.arange(len(cols))] = 1.0
            for a in range((q_order + 1) // 2):
                self.diag[cols, 2 * a] = np.einsum("ij,ij->j", power, power)
                if 2 * a + 1 < q_order:
                    following = self.shift @ power
                    self.diag[cols, 2 * a + 1] = np.einsum("ij,ij->j", power, following)
                    power = following
        if not np.all(np.isfinite(self.diag)):
            raise InvariantViolation("pair_rows must be finite")
        self._columns = np.empty((self.n, 0, q_order))
        self._slots = {}

    def _powers(self, cols):
        """Yield the columns ``cols`` of ``S^q``, an (n, len(cols)) block, for q < Q."""
        power = np.zeros((self.n, len(cols)))
        power[cols, np.arange(len(cols))] = 1.0
        for q in range(self.m):
            yield power
            if q + 1 < self.m:
                power = self.shift @ power

    def diagonal(self, cands):
        return self.diag[cands]

    def _slots_of(self, cols):
        """Slots of the columns ``cols`` in the column array, computing the new ones."""
        new = [j for j in dict.fromkeys(int(j) for j in cols) if j not in self._slots]
        if new:
            used = len(self._slots)
            if used + len(new) > self._columns.shape[1]:
                grown = np.empty((self.n, max(used + len(new), 2 * used), self.m))
                grown[:, :used] = self._columns[:, :used]
                self._columns = grown
            added = self._columns[:, used : used + len(new)]
            for q, power in enumerate(self._powers(new)):
                added[:, :, q] = power
            if not np.all(np.isfinite(added)):
                raise InvariantViolation("pair_rows must be finite")
            self._slots.update((j, used + t) for t, j in enumerate(new))
        return [self._slots[int(j)] for j in cols]

    def block(self, rows, cols):
        slots = self._slots_of(cols)
        if slots == list(range(len(slots))):
            return self._columns[rows, : len(slots)]
        return self._columns[np.ix_(rows, slots)]

    def default_epsilon(self):
        lam = self.eigenvalues
        if lam is None:
            if not np.all(np.isfinite(self.matrix)):
                raise InvariantViolation("pair_rows must be finite")
            lam = np.linalg.eigvalsh(self.matrix)
        with np.errstate(over="ignore", invalid="ignore"):
            squared_norm = float(np.sum(np.power.outer(lam * lam, np.arange(self.m))))
        if not np.isfinite(squared_norm):
            raise InvariantViolation("pair_rows must be finite")
        return 1e-8 * squared_norm / self.n**2


@dataclass(frozen=True, init=False)
class DesignObjective:
    """Set function over vertex subsets, backed by per-pair model rows.

    Row ``(i, j)`` is the model-matrix row for vertex pair ``(i, j)``; the
    Gram matrix of a subset X sums the outer products of all rows with both
    endpoints in X.  Rows ``(i, j)`` and ``(j, i)`` must be the same row (the
    model of a symmetric covariance): the greedy gains score one
    ``sqrt(2)``-weighted row per unordered pair, and :func:`greedy_design`
    checks the pairs that enter its design.

    ``pair_rows`` is an explicit (n, n, m) tensor, read by indexing (the
    objective keeps a read-only view of it).  :meth:`spectral` and
    :meth:`vertex` instead generate the rows they are asked for, from the
    Fourier basis or from sparse powers of the shift, and never hold the
    tensor; their :attr:`pair_rows` builds it on demand.
    """

    kind: str
    epsilon: float | None
    _rows: _RowSource = field(repr=False)

    def __init__(self, kind, pair_rows, epsilon=None):
        rows = pair_rows if isinstance(pair_rows, _RowSource) else _TensorRows(pair_rows)
        if kind == LOGDET_EPS:
            eps = rows.default_epsilon() if epsilon is None else epsilon
            if not (eps > 0.0 and np.isfinite(eps)):
                raise InvariantViolation("epsilon must be positive and finite")
            eps = float(eps)
        elif kind == FRAME_POTENTIAL:
            eps = None
        else:
            raise InvariantViolation(f"unknown objective kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "_rows", rows)

    @property
    def n_vertices(self):
        return self._rows.n

    @property
    def n_unknowns(self):
        return self._rows.m

    @property
    def pair_rows(self):
        """The (n, n, m) tensor of all pair rows; built on demand unless it was given."""
        if isinstance(self._rows, _TensorRows):
            return self._rows.tensor
        everything = np.arange(self.n_vertices)
        return self._rows.block(everything, everything)

    @classmethod
    def spectral(cls, basis, kind=LOGDET_EPS, epsilon=None):
        """Objective over the full spectral-domain model (M = N columns)."""
        return cls(kind=kind, pair_rows=_SpectralRows(basis.eigenvectors), epsilon=epsilon)

    @classmethod
    def vertex(cls, shift, q_order, kind=LOGDET_EPS, epsilon=None, eigenvalues=None):
        """Objective over the vertex-domain model (M = Q columns).

        ``eigenvalues`` are those of ``shift``; the default epsilon is read
        from them, and without them one ``eigvalsh`` of the shift computes
        them when that epsilon is needed.
        """
        n = shift.n
        if not (1 <= q_order <= n):
            raise InvariantViolation(f"need 1 <= Q <= {n}, got {q_order}")
        rows = _VertexRows(shift, q_order, eigenvalues)
        return cls(kind=kind, pair_rows=rows, epsilon=epsilon)

    def rows_for_set(self, selected):
        """All pair rows with both endpoints in ``selected``, as a (k^2, m) array."""
        idx = list(selected)
        k = len(idx)
        return self._rows.block(idx, idx).reshape(k * k, self.n_unknowns)

    def rows_for_candidate(self, selected, candidate):
        """The 2|X|+1 new ordered pair rows contributed by adding ``candidate``.

        Ordered ``(s, s)``, then ``(s, j)`` and ``(j, s)`` for ``j`` in ``selected``.
        """
        idx = list(selected)
        rows = self._rows
        return np.concatenate(
            [rows.diagonal([candidate]), rows.block([candidate], idx)[0],
             rows.block(idx, [candidate])[:, 0]]
        )

    def candidate_rows(self, selected, candidates):
        """Gain rows of several candidates, as a (len(candidates), |X|+1, m) stack.

        Each candidate's rows are ``(s, s)``, then ``sqrt(2) (s, j)`` for ``j``
        in ``selected``: by the symmetry of the pair rows their Gram matrix is
        that of the 2|X|+1 rows of :meth:`rows_for_candidate`.
        """
        idx = list(selected)
        cands = np.asarray(candidates, dtype=int)
        rows = np.empty((len(cands), len(idx) + 1, self.n_unknowns))
        rows[:, 0] = self._rows.diagonal(cands)
        if idx:
            np.multiply(self._rows.block(cands, idx), math.sqrt(2.0), out=rows[:, 1:])
        return rows

    def gram(self, selected):
        """Regularization-free Gram matrix of a subset."""
        rows = self.rows_for_set(selected)
        return rows.T @ rows


@dataclass(frozen=True)
class GreedyTrace:
    """Selection order, per-step gains, and final objective of a greedy run.

    ``max_gain_check_error`` is set by ``validate_gains=True``: the worst
    relative deviation of a gain from its from-scratch recomputation.  At
    the default epsilon that reference is a difference of two
    log-determinants of about 1e3, so it is itself off by up to about 1e-8
    relative (measured 4.1e-9 spectral, N=60, K=12; 1.0e-8 vertex, N=40,
    Q=5); below that level the check cannot tell a wrong gain from the
    reference's own rounding.
    """

    chosen: tuple
    gains: tuple
    final_value: float
    max_gain_check_error: float | None = None


@dataclass(frozen=True)
class SubmodularityReport:
    """Empirical check of normalization, monotonicity, and diminishing returns."""

    trials: int
    normalization_ok: bool
    monotonicity_violations: int
    max_monotonicity_violation: float
    diminishing_returns_violations: int
    max_violation: float


def default_epsilon(pair_rows):
    """Regularizer scaled to the rows: 1e-8 times the mean squared row norm."""
    return 1e-8 * float(np.mean(np.sum(pair_rows * pair_rows, axis=-1)))


def _selection_indices(selection):
    if isinstance(selection, SamplingPattern):
        return list(selection.selected)
    return sorted(int(i) for i in selection)


def _logdet_cholesky(matrix):
    try:
        factor = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise NonFinite(f"Gram matrix lost positive definiteness: {exc}") from exc
    value = 2.0 * float(np.sum(np.log(np.diag(factor))))
    if not np.isfinite(value):
        raise NonFinite("log-determinant is not finite")
    return value


def objective_value(objective, selection):
    """Evaluate the design objective on a vertex subset.

    The empty set evaluates to exactly 0 for both objective kinds.
    """
    idx = _selection_indices(selection)
    if len(idx) == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        gram = objective.gram(idx)
    if not np.all(np.isfinite(gram)):
        raise NonFinite("Gram matrix overflowed")
    if objective.kind == FRAME_POTENTIAL:
        return float(np.sum(gram * gram))
    m = objective.n_unknowns
    eps = objective.epsilon
    return _logdet_cholesky(gram + eps * np.eye(m)) - m * math.log(eps)


def cholesky_rank1_update(factor, vector):
    """In-place rank-one update of a lower-triangular Cholesky factor.

    After the call ``factor @ factor.T`` has grown by the outer product of
    ``vector`` with itself.  Returns the log-determinant increment.
    """
    v = np.array(vector, dtype=float)
    n = factor.shape[0]
    increment = 0.0
    for i in range(n):
        lii = factor[i, i]
        r = math.hypot(lii, v[i])
        c = r / lii
        s = v[i] / lii
        increment += 2.0 * (math.log(r) - math.log(lii))
        factor[i, i] = r
        if i + 1 < n:
            factor[i + 1 :, i] = (factor[i + 1 :, i] + s * v[i + 1 :]) / c
            v[i + 1 :] = c * v[i + 1 :] - s * factor[i + 1 :, i]
    return increment


def _gain_by_updates(factor, new_rows):
    """Log-det gain of a block of rows via sequential rank-one updates."""
    work = factor.copy()
    return sum(cholesky_rank1_update(work, row) for row in new_rows)


def _gain_by_block(whitening, new_rows):
    """Log-det gains of a stack of row blocks via the matrix determinant lemma.

    ``new_rows`` has shape (b, r, m): the r rows each of b candidates, here
    the r = |X|+1 rows of :meth:`DesignObjective.candidate_rows`.  The gain
    of one block equals (to roundoff) applying its rows as successive
    rank-one updates.  The rows are whitened in place, ``w = rows L^-T``
    with ``whitening`` = ``L^-T`` for the current Cholesky factor ``L``, by
    GEMMs over chunks of at least m rows (about 64 KB), so no second copy of
    the block is made; then all b blocks share one batched Cholesky of the
    smaller of their systems, ``I_r + w w^T`` or ``I_m + w^T w``, which have
    the same determinant.  ``new_rows`` is overwritten.
    """
    b, r, m = new_rows.shape
    w = new_rows.reshape(b * r, m)
    chunk = max(m, _WHITEN_BYTES // (8 * m))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, b * r, chunk):
            w[i : i + chunk] = w[i : i + chunk] @ whitening
        if r <= m:
            small = new_rows @ new_rows.transpose(0, 2, 1)
        else:
            small = new_rows.transpose(0, 2, 1) @ new_rows
    size = min(r, m)
    small[:, np.arange(size), np.arange(size)] += 1.0
    try:
        small_factor = np.linalg.cholesky(small)
    except np.linalg.LinAlgError as exc:
        raise NonFinite(f"Gram matrix lost positive definiteness: {exc}") from exc
    return 2.0 * np.sum(np.log(np.diagonal(small_factor, axis1=1, axis2=2)), axis=1)


def _candidate_gains(objective, factor, chosen, value, candidates, gain_method):
    """Marginal gains of adding each of ``candidates`` to ``chosen``.

    ``value`` is the objective value of ``chosen`` and ``factor`` the
    Cholesky factor of its regularized Gram matrix (log-det only).
    """
    if objective.kind == FRAME_POTENTIAL:
        return np.array([objective_value(objective, chosen + [s]) - value for s in candidates])
    if gain_method == "updates":
        return np.array(
            [_gain_by_updates(factor, objective.rows_for_candidate(chosen, s)) for s in candidates]
        )
    whitening = _upper_inverse(factor.T)
    r = len(chosen) + 1
    block = max(1, _BLOCK_BYTES // (8 * r * objective.n_unknowns))
    return np.concatenate(
        [
            _gain_by_block(whitening, objective.candidate_rows(chosen, candidates[i : i + block]))
            for i in range(0, len(candidates), block)
        ]
    )


# Largest difference between rows (s, j) and (j, s) of a chosen pair, relative
# to the largest entry of that unknown among the compared rows.  Dense powers
# of a symmetric shift stay within about 1e-15.
_SYMMETRY_RTOL = 1e-10


def _check_symmetric_pairs(rows, vertex, selected):
    """Raise unless the ``(s, X)`` and ``(X, s)`` halves of ordered rows agree.

    ``rows`` are the ordered rows of :meth:`DesignObjective.rows_for_candidate`
    for ``vertex`` against ``selected``.
    """
    k = len(selected)
    if k == 0:
        return
    out_rows, in_rows = rows[1 : k + 1], rows[k + 1 :]
    scale = np.maximum(np.abs(out_rows).max(axis=0), np.abs(in_rows).max(axis=0))
    asymmetric = np.abs(out_rows - in_rows) > _SYMMETRY_RTOL * scale
    if np.any(asymmetric):
        j = selected[int(np.flatnonzero(asymmetric.any(axis=1))[0])]
        raise InvariantViolation(
            f"pair rows ({vertex}, {j}) and ({j}, {vertex}) differ; "
            "the design objective needs symmetric pair rows"
        )


def greedy_gain(objective, selected, candidate, factor=None):
    """Marginal gain of adding one vertex to the current selection.

    For the log-det objective the gain is computed by 2|X|+1 Cholesky
    rank-one updates on a copy of the factor of the regularized Gram matrix
    (built from scratch when not supplied).  The frame-potential gain is a
    direct difference of objective values.
    """
    idx = _selection_indices(selected)
    if candidate in idx:
        raise InvariantViolation(f"candidate {candidate} already selected")
    if objective.kind == FRAME_POTENTIAL:
        return objective_value(objective, idx + [candidate]) - objective_value(
            objective, idx
        )
    if factor is None:
        m = objective.n_unknowns
        factor = np.linalg.cholesky(objective.gram(idx) + objective.epsilon * np.eye(m))
    return _gain_by_updates(factor, objective.rows_for_candidate(idx, candidate))


def greedy_design(objective, k, gain_method="block", validate_gains=False):
    """Greedy maximization of the design objective under a cardinality budget.

    Each round scores every unselected vertex into one gain vector and adds
    the first maximizer, so ties go to the lowest index and the result is
    deterministic.  ``gain_method`` picks the log-det gain evaluation:
    "block" whitens the |X|+1 rows ``(s, s)`` and ``sqrt(2) (s, j)`` of all
    candidates of a round by GEMMs against the inverse of the round's
    Cholesky factor and factors their small systems with one batched
    Cholesky, in blocks of about 1 MB; "updates" applies the 2|X|+1 ordered
    rows as rank-one updates per candidate (slow; an oracle).  The running
    Gram matrix adds the chosen vertex's ordered rows, and those rows must
    be symmetric: an ``(s, j)`` row that differs from its ``(j, s)`` row
    by more than 1e-10 of the largest entry of its unknown raises
    :class:`InvariantViolation`.  A gain that is not finite raises
    :class:`NonFinite` in the round where it appears.  With
    ``validate_gains=True`` every candidate gain is recomputed from scratch
    and the worst relative deviation of both the selecting gain and the
    rank-one-update gain is recorded on the trace (slow; meant for small
    instances).  At the default epsilon the from-scratch reference is a
    difference of two log-determinants of about 1e3, so it carries an error
    of its own near 1e-8 relative (measured 4.1e-9 on a spectral objective,
    N=60, K=12, and 1.0e-8 on a vertex one, N=40, Q=5): a recorded error
    below about 1e-8 cannot tell a wrong gain from that rounding.

    Returns ``(pattern, trace)`` where the pattern is the sorted vertex set
    and the trace records the selection order and per-step gains.
    """
    n = objective.n_vertices
    if not (1 <= k <= n):
        raise InvariantViolation(f"need 1 <= k <= {n}, got {k}")
    if gain_method not in ("block", "updates"):
        raise InvariantViolation(f"unknown gain method {gain_method!r}")
    logdet = objective.kind == LOGDET_EPS
    m = objective.n_unknowns
    factor = None
    if logdet:
        gram = objective.epsilon * np.eye(m)
        factor = np.linalg.cholesky(gram)
    chosen = []
    remaining = np.arange(n)
    gains = []
    value = 0.0
    max_check_error = 0.0
    for _ in range(k):
        round_gains = _candidate_gains(objective, factor, chosen, value, remaining, gain_method)
        bad = np.flatnonzero(~np.isfinite(round_gains))
        if bad.size:
            raise NonFinite(f"gain of vertex {remaining[bad[0]]} is not finite")
        if validate_gains:
            for s, gain in zip(remaining, round_gains):
                reference = objective_value(objective, chosen + [s]) - value
                checked = [gain]
                if logdet:
                    checked.append(
                        _gain_by_updates(factor, objective.rows_for_candidate(chosen, s))
                    )
                for g in checked:
                    scale = max(abs(reference), abs(g), 1e-300)
                    max_check_error = max(max_check_error, abs(g - reference) / scale)
        best = int(np.argmax(round_gains))
        best_vertex = int(remaining[best])
        best_gain = round_gains[best]
        if logdet:
            best_rows = objective.rows_for_candidate(chosen, best_vertex)
            _check_symmetric_pairs(best_rows, best_vertex, chosen)
            gram = gram + best_rows.T @ best_rows
            factor = np.linalg.cholesky(gram)
        chosen.append(best_vertex)
        remaining = np.delete(remaining, best)
        gains.append(float(best_gain))
        value += best_gain
    pattern = SamplingPattern(n_vertices=n, selected=tuple(chosen))
    trace = GreedyTrace(
        chosen=tuple(chosen),
        gains=tuple(gains),
        final_value=objective_value(objective, chosen),
        max_gain_check_error=max_check_error if validate_gains else None,
    )
    return pattern, trace


def brute_force_design(objective, k):
    """Exact maximizer over all k-subsets; the oracle for greedy quality.

    Guarded to instances with at most 1e6 candidate subsets.  Ties go to the
    lexicographically smallest subset.
    """
    n = objective.n_vertices
    if not (1 <= k <= n):
        raise InvariantViolation(f"need 1 <= k <= {n}, got {k}")
    n_subsets = math.comb(n, k)
    if n_subsets > 10**6:
        raise InvariantViolation(
            f"brute force over {n_subsets} subsets exceeds the 1e6 guard"
        )
    best_value = -np.inf
    best_subset = None
    for subset in itertools.combinations(range(n), k):
        value = objective_value(objective, subset)
        if value > best_value:
            best_value = value
            best_subset = subset
    return SamplingPattern(n_vertices=n, selected=best_subset)


def random_design(n, k, seed=0):
    """Uniform k-subset without replacement; the baseline sampler."""
    if not (1 <= k <= n):
        raise InvariantViolation(f"need 1 <= k <= {n}, got {k}")
    rng = np.random.default_rng(seed)
    selected = rng.choice(n, size=k, replace=False)
    return SamplingPattern(n_vertices=n, selected=tuple(int(i) for i in selected))


def check_submodularity(objective, trials=200, seed=0, slack=1e-9):
    """Sample random chains X subset Y and measure diminishing returns.

    For each trial draws s and X subset Y subset complement of {s}, then
    compares the marginal gain of s at X against the gain at Y.  Also
    tracks monotonicity over the sampled inclusion pairs and that the empty
    set evaluates to zero.  Violations smaller than ``slack`` are ignored.

    This is a measurement, not an assertion: the report carries the counts
    and worst violation and the caller decides what to do with them.
    """
    n = objective.n_vertices
    rng = np.random.default_rng(seed)
    normalization_ok = objective_value(objective, ()) == 0.0
    dr_violations = 0
    max_violation = 0.0
    mono_violations = 0
    max_mono_violation = 0.0
    for _ in range(trials):
        s = int(rng.integers(n))
        others = [v for v in range(n) if v != s]
        y_size = int(rng.integers(0, len(others) + 1))
        y = sorted(rng.choice(len(others), size=y_size, replace=False).tolist())
        y = [others[i] for i in y]
        x_size = int(rng.integers(0, y_size + 1)) if y_size else 0
        x = sorted(rng.choice(y_size, size=x_size, replace=False).tolist()) if x_size else []
        x = [y[i] for i in x]
        f_x = objective_value(objective, x)
        f_y = objective_value(objective, y)
        f_xs = objective_value(objective, x + [s])
        f_ys = objective_value(objective, y + [s])
        mono_gap = f_x - f_y
        if mono_gap > slack:
            mono_violations += 1
            max_mono_violation = max(max_mono_violation, mono_gap)
        dr_gap = (f_ys - f_y) - (f_xs - f_x)
        if dr_gap > slack:
            dr_violations += 1
            max_violation = max(max_violation, dr_gap)
    return SubmodularityReport(
        trials=trials,
        normalization_ok=normalization_ok,
        monotonicity_violations=mono_violations,
        max_monotonicity_violation=max_mono_violation,
        diminishing_returns_violations=dr_violations,
        max_violation=max_violation,
    )
