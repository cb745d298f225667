"""Greedy design of the sampling pattern via a regularized log-det objective.

Selecting vertex set X keeps the model-matrix rows indexed by all ordered
pairs in X x X, so each new vertex contributes 2|X|+1 rank-one terms to the
Gram matrix.  The covariance is symmetric, so rows ``(s, j)`` and ``(j, s)``
are the same row and their two terms equal one term of ``sqrt(2)`` times the
row: greedy works with the |X|+1 rows ``(s, s)`` and ``sqrt(2) (s, j)``
of :meth:`DesignObjective.candidate_rows`, which carry the same Gram
matrix, to score a candidate, to commit the chosen vertex and in its
oracles.  Symmetry is checked once, where a tensor enters: an explicit
``pair_rows`` tensor is checked when the objective is built; spectral rows
``u_i * u_j`` are symmetric bit for bit, and vertex rows ``(S^q)_ij`` are
as symmetric as the shift, which :class:`graphs.ShiftOperator` checks.
The objective

    f(X) = logdet( sum_{(i,j) in XxX} psi_ij psi_ij^T + eps I ) - M log(eps)

is normalized (f of the empty set is exactly zero) and monotone; greedy
maximization with a fixed lowest-index tie-break gives a deterministic,
near-optimal pattern in practice.

Marginal gains are evaluated through the Cholesky factor of the regularized
Gram matrix as block updates via the matrix determinant lemma: each greedy
round inverts the m x m factor once, whitens the |X|+1 new rows ``W`` of the
remaining candidates in place by GEMMs against that inverse, and factors the
smaller of their systems ``I + W W^T`` and ``I + W^T W``, which share a
determinant, with one batched Cholesky, in blocks of about 1 MB.  GEMM, not
a triangular solve, whitens the rows because a threaded triangular solve
costs several milliseconds per call at these shapes and a GEMM does not; the
inverse is computed with numpy, as every other BLAS call of a round is.  The
rank-one algebra stays as the oracle: :func:`greedy_gain` applies the same
|X|+1 rows of a candidate as successive rank-one factor updates
(:func:`cholesky_rank1_update`), and ``validate_gains=True`` checks every
gain of a greedy run against it and against from-scratch recomputation,
which sums all ordered rows.

Greedy scores only the candidates whose gain can still win a round.  It
carries an upper bound on every candidate's gain from round to round:
when vertex t is chosen, candidate s gets one new row
``v = sqrt(2) psi_st``, and its bound grows by ``log(1 + v A^-1 v^T)``,
with A the grown regularized Gram matrix, whose inverse factor the next
round's whitening already holds.  This needs no submodularity (the
objective is not submodular, so an old gain alone bounds nothing): A only
grows, so the log-det term of s's old rows can only shrink, and Fischer's
inequality bounds the log-det of all of s's rows by that term plus the new
row's.  A round takes the candidates in descending bound order, in blocks:
the first holds 8 candidates and each next one twice as many, up to a
block of about 1 MB, so the best gain of a few top-bound candidates filters
the rest, as in Minoux's accelerated greedy (1978), with these bounds in
place of submodularity.  Each block keeps the candidates whose bound is
within 1e-6 of the best gain found so far (a slack for rounding), and the
round stops at the first block that keeps none; a scored candidate's bound
becomes its gain.  Every candidate that could tie the best is scored, so
the choices and gains are those of scoring them all, bit for bit.
Vertex-domain gains spread (the median candidate's gain is 17-55% of the
best on an N=800, Q=13 sensor graph), and a K=20 run scores 18-29% of the
candidates it considers; spectral gains are flat (74-97% on the reference
run), and the reference run (N=100, K=50) scores 48% of them, 1802 gains.

No objective on the pipeline path stores the N x N x M tensor of all pair
rows (N^3 floats in the spectral domain).  Each objective reads its rows
from a row source with two accessors, the diagonal rows ``(s, s)`` of some
candidates and the block of rows ``(i, j)`` for ``i`` and ``j`` in two index
lists: the spectral source multiplies rows of the Fourier basis, the vertex
source keeps the diagonals of the powers ``S^q`` and builds the columns
``S^q e_j`` of the vertices greedy chooses, both from the shift's one power
routine, ``ShiftOperator.powers``, and an explicit tensor is indexed.  The
vertex diagonals take half a power sweep, up to ``S^(Q//2)``:
``(S^(a+b))_cc = <S^a e_c, S^b e_c>`` for a symmetric shift, the moment
identity of Lin, Saad and Yang (2016).  Its
regularizer needs ``sum_q |S^q|_F^2``, which is ``sum_q sum_n lam_n^(2q)``
over the shift's eigenvalues, so no power is swept for it; the eigenvalues
come from :func:`spectral.eigendecompose`, the package's one eigensolver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation, NonFinite
from .sampling import SamplingPattern, _upper_inverse
from .spectral import _count, _seed, eigendecompose

LOGDET_EPS = "logdet_eps"


# Bytes of one block of work: the candidates of a batched greedy round (their
# rows, never smaller than their small systems), or one chunk of an
# objective's set-up, so a round's working set stays small.
_BLOCK_BYTES = 1 << 20

# A candidate whose gain bound is below the round's best gain by more than this
# share of that gain is not scored.  Bounds and gains each carry rounding; an
# unscored candidate's gain came no closer to its bound than 5.2e-8 of the best
# gain on the reference run and 3.0e-9 on 24 N=800 vertex graphs.
_BOUND_SLACK = 1e-6

# Candidates in a round's first block.  Each later block is twice as large, up
# to a block of work, so the best gain of a few top-bound candidates filters
# the rest.  On the reference design (N = M = 100, K = 50; 2-vCPU Xeon VM, 45
# calls each) a first block of 1, 4, 8, 16 and 32 candidates took a median
# 87, 81, 80, 77 and 85 ms and scored 1802, 1804, 1802, 1859 and 2113 gains.
_PROBE_CANDIDATES = 8

# Bytes of the rows one whitening GEMM reads (at least m rows): a block is
# whitened chunk by chunk in place, so it is never copied whole.
_WHITEN_BYTES = 1 << 16


class _RowSource:
    """The pair rows of an objective, read a few at a time.

    ``diagonal(cands)`` gives the rows ``(s, s)`` of the candidates as a
    (len(cands), m) array; ``block(rows, cols)`` the rows ``(i, j)`` for
    ``i`` in ``rows`` and ``j`` in ``cols`` as a (len(rows), len(cols), m)
    array; ``default_epsilon()`` 1e-8 times the mean squared row norm, which
    is :func:`default_epsilon` of the whole tensor up to rounding: the
    spectral and vertex sources read it from identities, and never form the
    tensor's N^2 row norms.  ``n`` and ``m`` are the
    vertex and unknown counts.  ``reserve(count)`` makes room for the rows
    of ``count`` vertices where a source keeps rows per vertex.
    """

    def reserve(self, count):
        pass


class _TensorRows(_RowSource):
    """Rows indexed from a read-only copy of an explicit (n, n, m) tensor.

    The tensor is the one row source given from outside the package, so its
    symmetry is checked here, once: rows ``(i, j)`` and ``(j, i)`` that
    differ by more than 1e-10 of the largest entry of some unknown are an
    :class:`InvariantViolation` naming the first such pair.
    """

    def __init__(self, pair_rows):
        rows = np.array(pair_rows, dtype=float)
        if rows.ndim != 3 or rows.shape[0] != rows.shape[1]:
            raise InvariantViolation("pair_rows must have shape (n, n, m)")
        if not np.all(np.isfinite(rows)):
            raise InvariantViolation("pair_rows must be finite")
        scale = np.abs(rows).max(axis=(0, 1), initial=0.0)
        asymmetric = np.abs(rows - rows.transpose(1, 0, 2)) > 1e-10 * scale
        if np.any(asymmetric):
            i, j = np.argwhere(asymmetric.any(axis=2))[0]
            raise InvariantViolation(
                f"pair rows ({i}, {j}) and ({j}, {i}) differ; "
                "the design objective needs symmetric pair rows"
            )
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
    """Row ``(i, j)`` is ``u_i * u_j`` for the rows ``u_i`` of the Fourier basis.

    The mean squared row norm is ``sum_p c_p^2 / N^2`` with the column sums
    ``c_p = sum_i u_ip^2``, exact for any rows, so the default epsilon
    takes O(N^2) work where the N^2 row norms take O(N^3).
    """

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
        # sum_ij |u_i * u_j|^2 = sum_p c_p^2 with the column sums c_p = sum_i u_ip^2
        c = np.sum(self.u * self.u, axis=0)
        return 1e-8 * float(c @ c) / self.n**2


class _VertexRows(_RowSource):
    """Row ``(i, j)`` holds ``(S^q)_ij`` for q < Q, from the shift's powers.

    The diagonals (n x Q) come from one sweep over column chunks of the
    powers up to ``S^(Q//2)`` only, consecutive pairs of the blocks
    :meth:`ShiftOperator.powers` yields: ``(S^2a)_cc = |S^a e_c|^2`` and
    ``(S^(2a+1))_cc = <S^a e_c, S^(a+1) e_c>`` for a symmetric S.  The
    regularizer's ``sum_q |S^q|_F^2`` is ``sum_q sum_n lam_n^(2q)``, from the
    eigenvalues of S (given, or computed once when epsilon is asked for).
    The columns ``S^q e_j`` are computed, by the same routine, for the ``j``
    a block asks for only, and kept in one (n, cap, Q) array in the order
    they were first asked for: greedy asks for those of its chosen vertices,
    in turn, so its blocks are one slice of that array.  Greedy reserves
    room for its K vertices first, so the array never grows during a
    design; otherwise it doubles when full.  The Q powers of new vertices
    are computed into one contiguous block, checked, and stored at once.
    """

    def __init__(self, shift, q_order, eigenvalues=None):
        self.n, self.m = shift.n, q_order
        self.shift = shift
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
            for a, power in enumerate(shift.powers(cols, q_order // 2 + 1)):
                if a:
                    self.diag[cols, 2 * a - 1] = np.einsum("ij,ij->j", previous, power)
                if 2 * a < q_order:
                    self.diag[cols, 2 * a] = np.einsum("ij,ij->j", power, power)
                previous = power
        if not np.all(np.isfinite(self.diag)):
            raise InvariantViolation("pair_rows must be finite")
        self._columns = np.empty((self.n, 0, q_order))
        self._slots = {}

    def diagonal(self, cands):
        return self.diag[cands]

    def reserve(self, count):
        if count > self._columns.shape[1]:
            used = len(self._slots)
            grown = np.empty((self.n, count, self.m))
            grown[:, :used] = self._columns[:, :used]
            self._columns = grown

    def _slots_of(self, cols):
        """Slots of the columns ``cols`` in the column array, computing the new ones."""
        new = [j for j in dict.fromkeys(int(j) for j in cols) if j not in self._slots]
        if new:
            used = len(self._slots)
            if used + len(new) > self._columns.shape[1]:
                self.reserve(max(used + len(new), 2 * used))
            powers = np.empty((self.m, self.n, len(new)))
            for q, power in enumerate(self.shift.powers(new, self.m)):
                powers[q] = power
            if not np.all(np.isfinite(powers)):
                raise InvariantViolation("pair_rows must be finite")
            self._columns[:, used : used + len(new)] = powers.transpose(1, 2, 0)
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
            lam = eigendecompose(self.shift, eigenvectors=False).eigenvalues
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
    model of a symmetric covariance): greedy design uses one
    ``sqrt(2)``-weighted row per unordered pair.

    ``pair_rows`` is an explicit (n, n, m) tensor, read by indexing.  The
    objective keeps a read-only copy of it, so later edits to the caller's
    array do not reach it, and rejects a tensor whose rows ``(i, j)`` and
    ``(j, i)`` differ by more than 1e-10 of the largest entry of an unknown
    with an :class:`InvariantViolation` naming the pair.  :meth:`spectral` and
    :meth:`vertex` instead generate the rows they are asked for, from the
    Fourier basis or from powers of the shift, and never hold the
    tensor; their :attr:`pair_rows` builds it on demand.  ``kind`` must be
    :data:`LOGDET_EPS`, the only objective.
    """

    kind: str
    epsilon: float
    _rows: _RowSource = field(repr=False)

    def __init__(self, kind, pair_rows, epsilon=None):
        if kind != LOGDET_EPS:
            raise InvariantViolation(f"unknown objective kind {kind!r}")
        rows = pair_rows if isinstance(pair_rows, _RowSource) else _TensorRows(pair_rows)
        eps = rows.default_epsilon() if epsilon is None else epsilon
        if not (eps > 0.0 and np.isfinite(eps)):
            raise InvariantViolation("epsilon must be positive and finite")
        eps = float(eps)
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
        from them, and without them ``eigendecompose(shift,
        eigenvectors=False)`` computes them when that epsilon is needed.
        """
        n, q_order = shift.n, _count(q_order, "the order Q")
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

        Ordered ``(s, s)``, then ``(s, j)`` and ``(j, s)`` for ``j`` in
        ``selected``.  Greedy design does not read these rows: it uses the
        |X|+1 rows of :meth:`candidate_rows`, which carry the same Gram matrix.
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
        that of the 2|X|+1 rows of :meth:`rows_for_candidate`.  These are the
        rows greedy design scores, commits and checks.
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

    ``objective_kind`` and ``epsilon`` are those of the objective greedy
    maximized, so the trace alone says what its gains measure.  ``scored``
    is the number of exact gains computed in each round (greedy skips
    candidates whose gain bound cannot win the round).
    ``max_gain_check_error`` is set by ``validate_gains=True``: the worst
    relative deviation of a gain, or of its rank-one-update oracle (the
    candidate's |X|+1 rows applied one at a time, as :func:`greedy_gain`
    does), from its from-scratch recomputation.  At
    the default epsilon that reference is a difference of two
    log-determinants of about 1e3, so it is itself off by up to about 1e-8
    relative (measured 4.1e-9 spectral, N=60, K=12; 1.0e-8 vertex, N=40,
    Q=5); below that level the check cannot tell a wrong gain from the
    reference's own rounding.
    """

    chosen: tuple
    gains: tuple
    final_value: float
    objective_kind: str
    epsilon: float
    max_gain_check_error: float | None = None
    scored: tuple = ()


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

    The empty set evaluates to exactly 0.
    """
    idx = _selection_indices(selection)
    if len(idx) == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        gram = objective.gram(idx)
    if not np.all(np.isfinite(gram)):
        raise NonFinite("Gram matrix overflowed")
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
    small.reshape(b, -1)[:, :: size + 1] += 1.0  # the diagonals, as a strided view
    try:
        small_factor = np.linalg.cholesky(small)
    except np.linalg.LinAlgError as exc:
        raise NonFinite(f"Gram matrix lost positive definiteness: {exc}") from exc
    return 2.0 * np.sum(np.log(np.diagonal(small_factor, axis1=1, axis2=2)), axis=1)


def _candidate_gains(objective, factor, chosen, candidates, bounds):
    """Marginal gains of adding each of ``candidates`` to ``chosen``, and the number scored.

    ``factor`` is the Cholesky factor of the regularized Gram matrix of
    ``chosen``.  ``bounds`` is the length-n array of gain bounds that
    :func:`greedy_design` carries from round to round, updated here in
    place: the last chosen vertex's term is added to each candidate's bound,
    and a scored candidate's bound becomes its gain.  Then the candidates
    are scored in descending bound order, in blocks of
    ``_PROBE_CANDIDATES``, then twice as many as the block before, up to
    the candidates whose rows fill ``_BLOCK_BYTES``.  Each block keeps only
    the candidates whose bound reaches the best gain scored so far, less
    ``_BOUND_SLACK`` of it, and the first block that keeps none ends the
    round (see the module docstring).  NaN and infinite bounds are always
    scored, so bounds that are all ``+inf`` score every candidate.  An
    unscored candidate's entry is its bound, which is below the best gain,
    so the first maximum of the returned gains is that of the exact ones.
    """
    whitening = _upper_inverse(factor.T)
    m = objective.n_unknowns
    block = max(1, _BLOCK_BYTES // (8 * (len(chosen) + 1) * m))

    def score(cands):
        return _gain_by_block(whitening, objective.candidate_rows(chosen, cands))

    if chosen:
        # the new row sqrt(2) psi_st of each candidate s against the last chosen t
        step = max(1, _BLOCK_BYTES // (8 * m))
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(0, len(candidates), step):
                part = candidates[i : i + step]
                w = objective._rows.block(part, chosen[-1:])[:, 0] @ whitening
                bounds[part] += np.log1p(2.0 * np.einsum("ij,ij->i", w, w))
    gains = bounds[candidates]
    key = np.where(np.isnan(gains), np.inf, gains)
    order = np.argsort(-key, kind="stable")
    best, scored = -np.inf, 0
    start, size = 0, min(_PROBE_CANDIDATES, block)
    while start < len(order):
        part = order[start : start + size]
        floor = best - _BOUND_SLACK * abs(best) if np.isfinite(best) else -np.inf
        part = part[key[part] >= floor]
        if not part.size:
            break
        gains[part] = exact = score(candidates[part])
        best = np.maximum(best, exact.max())
        scored += part.size
        start, size = start + size, min(2 * size, block)
    bounds[candidates] = gains
    return gains, scored


def greedy_gain(objective, selected, candidate):
    """Marginal gain of adding one vertex to the current selection.

    The gain is computed by |X|+1 Cholesky rank-one updates, with the rows
    of :meth:`DesignObjective.candidate_rows`, on the factor of the
    regularized Gram matrix, built from scratch.
    """
    idx = _selection_indices(selected)
    if candidate in idx:
        raise InvariantViolation(f"candidate {candidate} already selected")
    m = objective.n_unknowns
    factor = np.linalg.cholesky(objective.gram(idx) + objective.epsilon * np.eye(m))
    return _gain_by_updates(factor, objective.candidate_rows(idx, [candidate])[0])


def greedy_design(objective, k, validate_gains=False):
    """Greedy maximization of the design objective under a cardinality budget.

    Each round adds the first maximizer of the unselected vertices' gains,
    so ties go to the lowest index and the result is deterministic.  A
    round whitens the |X|+1 rows ``(s, s)`` and ``sqrt(2) (s, j)``
    of candidates by GEMMs against the inverse of the round's Cholesky
    factor and factors their small systems with one batched Cholesky.  It
    scores only the candidates whose gain bound can reach the round's best
    gain: in descending bound order, first 8 candidates, then blocks twice
    as large as the one before, up to about 1 MB, each filtered by the best
    gain found so far, until a block keeps none.  The bound is the
    candidate's last exact gain plus ``log(1 + v A^-1 v^T)`` for each row
    ``v = sqrt(2) psi_st`` it gained since, A being the regularized Gram
    matrix after t was added; it holds without submodularity because A
    only grows (see the module docstring).  Candidates within 1e-6 of the
    best gain are scored, so rounding in a bound cannot skip a winner, and
    NaN or infinite bounds always are.  The running Gram matrix adds the
    chosen vertex's |X|+1 rows, the rows that round scored; no round checks
    the symmetry of the pair rows, which the objective's row source
    guarantees (see :class:`DesignObjective`).  A gain that is not finite
    raises :class:`NonFinite` in the round where it appears.
    ``trace.scored`` counts the exact gains of each round.

    With ``validate_gains=True`` every candidate is scored and its gain
    recomputed from scratch, and the worst relative deviation from that
    reference of both the selecting gain and the rank-one-update gain (the
    oracle of :func:`greedy_gain`, which applies the same |X|+1 rows one at
    a time) is recorded on the trace (slow; meant for small
    instances).  At the default epsilon the from-scratch reference is a
    difference of two log-determinants of about 1e3, so it carries an
    error of its own near 1e-8 relative (measured 4.1e-9 on a spectral
    objective, N=60, K=12, and 1.0e-8 on a vertex one, N=40, Q=5): a
    recorded error below about 1e-8 cannot tell a wrong gain from that
    rounding.

    Returns ``(pattern, trace)`` where the pattern is the sorted vertex set
    and the trace records the selection order, the per-step gains and the
    objective's kind and epsilon.  A budget that is not an integer is an
    :class:`InvariantViolation`.
    """
    n = objective.n_vertices
    k = _count(k, "the budget k")
    if not (1 <= k <= n):
        raise InvariantViolation(f"need 1 <= k <= {n}, got {k}")
    gram = objective.epsilon * np.eye(objective.n_unknowns)
    factor = np.linalg.cholesky(gram)
    chosen = []
    remaining = np.arange(n)
    gains = []
    scored = []
    value = 0.0
    max_check_error = 0.0
    bounds = np.full(n, np.inf)
    objective._rows.reserve(k)
    for _ in range(k):
        if validate_gains:
            bounds = np.full(n, np.inf)  # every candidate is checked, so score them all
        round_gains, round_scored = _candidate_gains(objective, factor, chosen, remaining, bounds)
        scored.append(round_scored)
        bad = np.flatnonzero(~np.isfinite(round_gains))
        if bad.size:
            raise NonFinite(f"gain of vertex {remaining[bad[0]]} is not finite")
        if validate_gains:
            for s, gain in zip(remaining, round_gains):
                reference = objective_value(objective, chosen + [s]) - value
                oracle = _gain_by_updates(factor, objective.candidate_rows(chosen, [s])[0])
                for g in (gain, oracle):
                    scale = max(abs(reference), abs(g), 1e-300)
                    max_check_error = max(max_check_error, abs(g - reference) / scale)
        best = int(np.argmax(round_gains))
        best_vertex = int(remaining[best])
        best_gain = round_gains[best]
        best_rows = objective.candidate_rows(chosen, [best_vertex])[0]
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
        objective_kind=objective.kind,
        epsilon=objective.epsilon,
        max_gain_check_error=max_check_error if validate_gains else None,
        scored=tuple(scored),
    )
    return pattern, trace


def brute_force_design(objective, k):
    """Exact maximizer over all k-subsets; the oracle for greedy quality.

    Guarded to instances with at most 1e6 candidate subsets.  Ties go to the
    lexicographically smallest subset.
    """
    n, k = objective.n_vertices, _count(k, "the budget k")
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
    """Uniform k-subset without replacement; the baseline sampler.

    ``n`` and ``k`` must be integers (numpy integers too), and the seed a
    nonnegative one.
    """
    n, k = _count(n, "the vertex count n"), _count(k, "the budget k")
    if not (1 <= k <= n):
        raise InvariantViolation(f"need 1 <= k <= {n}, got {k}")
    rng = np.random.default_rng(_seed(seed))
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
    ``trials`` must be an integer and the seed a nonnegative one.
    """
    n, trials = objective.n_vertices, _count(trials, "trials")
    rng = np.random.default_rng(_seed(seed))
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
