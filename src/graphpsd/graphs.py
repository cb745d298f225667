"""Undirected weighted graphs, shift operators, and sensor-graph generation.

A shift operator keeps only its nonzeros, as the three arrays of a CSR
matrix, built straight from the graph's edges.  Its dense N x N matrix is
built afresh when read, which the eigensolver does once.  Every product
with the shift is the operator's own: ``shift @ block`` for one step, and
``shift.powers(columns, count)`` for the blocks ``S^q E`` of unit columns
``E`` that the vertex domain's objective and model read.  Both multiply by
the CSR arrays wrapped as a ``scipy.sparse`` matrix, the package's only use
of scipy, which is imported there, on first use, so a spectral-domain
process never loads scipy at all.

Edge lists are checked and canonicalized as arrays, and a graph keeps
those arrays beside its edge tuple for every later reader.  The
k-nearest-neighbor sensor graph finds each point's neighbors in a grid of
square cells of about 3 points each: a point is scored against the 3 x 3
block of cells around it, and against a wider block only when its k-th
distance does not lie inside that one, so the search computes about 30
distances per point where a full sweep computes N (Bentley, Stanat and
Williams, 1977).  Every distance comes from one expression, in
:func:`_distances`, and a block of points holds about 1 MB of candidates
at a time.  The kernel width and the edge weights come from the (N, k)
neighbor distances.  A weight squares its distance by libm ``pow`` (``math.pow(d, 2.0)``, which an
``np.float64``'s ``** 2`` also calls), so it is bit for bit the scalar
``np.exp(-d ** 2 / (2.0 * sigma**2))`` of its np.float64 distance.  The
Laplacian's degrees are summed over each vertex's edges alone, with no
dense row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FailedToConnect, InvariantViolation, ParseError
from .spectral import _count, _seed, _vertices, is_symmetric

LAPLACIAN = "laplacian"
ADJACENCY = "adjacency"

# Bytes of the candidate keys (distance and index) a block of the k-nearest-neighbor
# search holds.
_KNN_BYTES = 1 << 20

# Points per cell of the k-nearest-neighbor search's grid, on average (k/2 if more).
_CELL_POINTS = 3

# How much closer than the searched block's nearest inner side a k-th neighbor
# distance must lie to stand; it covers the rounding of cells and distances,
# which is below 1e-15 on the unit square.
_GAP_MARGIN = 1e-12

# Draws random_sensor_graph tries, at seeds seed, seed + 1, ..., for a connected graph.
_CONNECT_ATTEMPTS = 100


def _canonical_edges(n, edges):
    """Edges as sorted ``i``, ``j`` and weight columns with ``i < j``, checked on arrays.

    ``edges`` holds ``(i, j, weight)`` triples, as a sequence or an (E, 3)
    array.  An edge is faulty if it is a self-loop, leaves ``range(n)``,
    repeats an earlier pair or has a weight that is not strictly positive
    and finite; indices are truncated to integers, as ``int`` does.  The
    first faulty edge raises the error of the first of these checks it
    fails.
    """
    if not len(edges):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
    table = np.array(edges, dtype=float)
    if table.ndim != 2 or table.shape[1] != 3:
        raise InvariantViolation("edges must be (i, j, weight) triples")
    ends = np.trunc(table[:, :2])
    weights = table[:, 2]
    outside = ~np.all((ends >= 0) & (ends < n), axis=1)
    ends[outside] = 0
    lo, hi = np.sort(ends, axis=1).astype(np.int64).T
    order = np.lexsort((hi, lo))
    repeat = np.zeros(len(edges), dtype=bool)
    repeat[order[1:]] = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
    faulty = (lo == hi) | outside | repeat | ~(np.isfinite(weights) & (weights > 0.0))
    if faulty.any():
        # the sequential checks, on the first faulty edge
        t = int(np.argmax(faulty))
        i, j, w = edges[t]
        i, j, w = int(i), int(j), float(w)
        if i == j:
            raise InvariantViolation(f"self-loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise InvariantViolation(f"edge ({i},{j}) out of range for n={n}")
        i, j = min(i, j), max(i, j)
        if repeat[t]:
            raise InvariantViolation(f"duplicate edge ({i},{j})")
        raise InvariantViolation(f"edge ({i},{j}) has invalid weight {w}")
    return lo[order], hi[order], weights[order]


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph with optional 2-D vertex coordinates.

    Edges are canonicalized to ``(i, j, weight)`` triples with ``i < j``,
    sorted lexicographically; they may be given as an (E, 3) array too.
    Construction rejects self-loops, duplicate edges, and weights that are
    not strictly positive and finite.  The graph keeps the ``i``, ``j`` and
    weight columns of its edges as read-only arrays beside the tuple, and
    the shift operators are built from those.  Graphs compare and hash on
    ``n_vertices`` and ``edges``; their coordinates are left out.
    """

    n_vertices: int
    edges: tuple
    coordinates: np.ndarray | None = field(default=None, compare=False)
    _columns: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = _count(self.n_vertices, "the vertex count")
        if n < 1:
            raise InvariantViolation("graph needs at least one vertex")
        columns = _canonical_edges(n, self.edges)
        object.__setattr__(self, "n_vertices", n)
        for column in columns:
            column.flags.writeable = False
        object.__setattr__(self, "edges", tuple(zip(*(c.tolist() for c in columns))))
        object.__setattr__(self, "_columns", columns)
        if self.coordinates is not None:
            coords = np.asarray(self.coordinates, dtype=float)
            if coords.shape != (n, 2):
                raise InvariantViolation(
                    f"coordinates must be ({n}, 2), got {coords.shape}"
                )
            coords.flags.writeable = False
            object.__setattr__(self, "coordinates", coords)

    @property
    def n_edges(self):
        return len(self.edges)


@dataclass(frozen=True, init=False, eq=False)
class ShiftOperator:
    """Symmetric matrix sharing the graph's sparsity pattern, kept as its nonzeros.

    ``kind`` is either :data:`LAPLACIAN` or :data:`ADJACENCY`.  The operator
    holds its size ``n`` and the three read-only arrays of its CSR form:
    ``data``, ``indices`` and ``indptr``, the indices of scipy's index
    type.  Nothing of size N x N is kept.  :attr:`matrix` builds the dense
    matrix afresh on each read.  ``shift @ block`` and :meth:`powers` are
    the package's products with the shift; both multiply by :attr:`sparse`,
    the three arrays wrapped as a ``scipy.sparse.csr_array`` on first use.

    ``ShiftOperator(kind, matrix)`` keeps the nonzeros of a dense matrix,
    which must be square and symmetric (to 1e-12 of its largest entry): one
    that is not is an :class:`InvariantViolation`.  The builders
    (:func:`build_laplacian`, :func:`build_shift_operator`) make the
    nonzeros from the graph's edges, symmetric by construction, and never
    an N x N array.
    """

    kind: str
    n: int
    data: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    indptr: np.ndarray = field(repr=False)

    def __init__(self, kind, matrix):
        if kind not in (LAPLACIAN, ADJACENCY):
            raise InvariantViolation(f"unknown shift kind {kind!r}")
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvariantViolation("shift operator must be square")
        if not is_symmetric(m):  # eigh would read one triangle only
            raise InvariantViolation("shift operator is not symmetric")
        n = m.shape[0]
        # the nonzeros in row-major order; nonzero of a flat mask is the fast one
        rows, cols = np.divmod(np.flatnonzero(m != 0.0), n)
        self._keep(kind, n, rows, cols, m[rows, cols])

    @classmethod
    def _from_entries(cls, kind, n, rows, cols, values):
        """The operator of these nonzeros, given in row-major order; unchecked."""
        shift = object.__new__(cls)
        shift._keep(kind, n, rows, cols, values)
        return shift

    def _keep(self, kind, n, rows, cols, values):
        # scipy's index type: 32-bit while the counts fit
        index = np.int32 if max(len(cols), n) <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        indices = cols.astype(index)
        for array in (values, indices, indptr):
            array.flags.writeable = False
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "data", values)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "indptr", indptr)

    @property
    def matrix(self):
        """The dense N x N matrix, built afresh (and read-only) on each read."""
        m = np.zeros((self.n, self.n))
        m[np.repeat(np.arange(self.n), np.diff(self.indptr)), self.indices] = self.data
        m.flags.writeable = False
        return m

    @functools.cached_property
    def sparse(self):
        """The shift as a ``scipy.sparse.csr_array`` over its own arrays, built on first use.

        scipy.sparse is imported here, the package's one import of scipy.
        """
        import scipy.sparse

        return scipy.sparse.csr_array(
            (self.data, self.indices, self.indptr), shape=(self.n, self.n)
        )

    def __matmul__(self, block):
        """The product ``S @ block`` of an (n, ...) array, by the sparse shift."""
        return self.sparse @ block

    def powers(self, columns, count):
        """Yield the (n, len(columns)) blocks ``S^q E`` for q < ``count``.

        ``E`` holds the unit columns ``e_j`` for ``j`` in ``columns``, which
        must be integers in ``[0, n)``; each block is the shift times the one
        before it, and none is computed beyond the last one asked for.
        """
        columns = _vertices(columns, self.n)
        power = np.zeros((self.n, len(columns)))
        power[columns, np.arange(len(columns))] = 1.0
        for q in range(count):
            yield power
            if q + 1 < count:
                power = self @ power


def build_adjacency(graph):
    """Dense symmetric adjacency matrix of a graph."""
    a = np.zeros((graph.n_vertices, graph.n_vertices))
    i, j, w = graph._columns
    a[i, j] = w
    a[j, i] = w
    return a


def _adjacency_entries(graph):
    """Rows, columns and weights of the adjacency's nonzeros, in row-major order."""
    i, j, w = graph._columns
    rows = np.concatenate([i, j])
    cols = np.concatenate([j, i])
    order = np.argsort(rows * graph.n_vertices + cols)
    return rows[order], cols[order], np.concatenate([w, w])[order]


def build_laplacian(graph):
    """Combinatorial Laplacian ``L = D - A`` as a shift operator.

    ``D`` is the diagonal matrix of weighted degrees, so every row of the
    result sums to zero, to rounding.  Built as nonzeros, from the edges:
    a degree is the sum of its row's weights in ascending column order, in
    O(E) work, and a vertex without edges has no diagonal entry.
    """
    n = graph.n_vertices
    rows, cols, weights = _adjacency_entries(graph)
    degrees = np.bincount(rows, weights=weights, minlength=n)
    diagonal = np.flatnonzero(degrees)
    rows = np.concatenate([rows, diagonal])
    cols = np.concatenate([cols, diagonal])
    values = np.concatenate([-weights, degrees[diagonal]])
    order = np.argsort(rows * n + cols)
    return ShiftOperator._from_entries(LAPLACIAN, n, rows[order], cols[order], values[order])


def build_shift_operator(graph, kind=LAPLACIAN):
    """Build the requested shift operator (Laplacian or adjacency)."""
    if kind == LAPLACIAN:
        return build_laplacian(graph)
    if kind == ADJACENCY:
        return ShiftOperator._from_entries(ADJACENCY, graph.n_vertices, *_adjacency_entries(graph))
    raise InvariantViolation(f"unknown shift kind {kind!r}")


def _is_connected(n, edges):
    """Whether the edges join all n vertices, by label propagation.

    ``edges`` holds ``(i, j, weight)`` triples, as a sequence or an (E, 3)
    array.  Each vertex's label falls to the smallest label across its
    edges, then to its label's label, until nothing changes: the graph is
    connected when every label is 0.
    """
    if n == 1:
        return True
    table = np.asarray(edges, dtype=float).reshape(-1, 3)
    i, j = table[:, 0].astype(np.int64), table[:, 1].astype(np.int64)
    ends = np.concatenate([i, j])
    others = np.concatenate([j, i])
    labels = np.arange(n)
    while True:
        lowered = labels.copy()
        np.minimum.at(lowered, ends, labels[others])
        lowered = lowered[lowered]
        if np.array_equal(lowered, labels):
            return not labels.any()
        labels = lowered


def _distances(x, y, i, j):
    """Distances from the points ``i`` to the points ``j``, elementwise.

    ``dx = x_i - x_j`` squared in place, plus ``dy`` squared, then ``sqrt``:
    the package's one distance expression, so every distance of a sensor
    graph, and every weight read from one, has the same bits.
    """
    dist = x[i] - x[j]
    dist *= dist
    dy = y[i] - y[j]
    dy *= dy
    dist += dy
    return np.sqrt(dist, out=dist)


def _nearest(x, y, k):
    """The k nearest other points of each point and their distances, as (n, k) arrays.

    Neighbors are ranked by (distance, index), as a stable sort of each
    point's whole row of distances would rank them.  The points, which lie
    in the unit square, are bucketed into a grid of square cells holding
    about ``_CELL_POINTS`` (or k/2, if more) points each.  A point is
    scored against the cells within ``reach`` cells of its own, first the
    3 x 3 block around it.  Its k-th distance stands when it lies inside the
    searched block, closer than the block's nearest side that is not an
    edge of the square (by ``_GAP_MARGIN``, which covers rounding), so no
    point outside the block can rank among its k.  Otherwise its reach
    grows past its k-th distance and it is scored again.  A candidate's key
    is the complex number (distance + 1j * index), which numpy orders by
    real part, then imaginary part, so a partition and a sort of each row
    of keys rank by (distance, index) exactly.  Each block of points holds
    at most about ``_KNN_BYTES`` of keys.
    """
    n = len(x)
    side = max(1, math.isqrt(int(n / max(_CELL_POINTS, k / 2))))
    cx = np.minimum((x * side).astype(np.int64), side - 1)
    cy = np.minimum((y * side).astype(np.int64), side - 1)
    cell = cy * side + cx
    by_cell = np.argsort(cell, kind="stable")
    starts = np.zeros(side * side + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell, minlength=side * side), out=starts[1:])
    order = np.empty((n, k), dtype=np.int64)
    knn_dist = np.empty((n, k))
    pending, reach = np.arange(n), np.ones(n, dtype=np.int64)
    while pending.size:
        r = reach[pending]
        x0, x1 = np.maximum(cx[pending] - r, 0), np.minimum(cx[pending] + r, side - 1)
        y0, y1 = np.maximum(cy[pending] - r, 0), np.minimum(cy[pending] + r, side - 1)
        # each row of searched cells is one run of by_cell: lo, and its count
        rows = y0[:, None] + np.arange(int((y1 - y0).max()) + 1)
        searched = rows <= y1[:, None]
        rows = np.minimum(rows, y1[:, None]) * side
        lo = starts[rows + x0[:, None]]
        counts = np.where(searched, starts[rows + x1[:, None] + 1] - lo, 0)
        # a k-th distance below the block's nearest side inside the square stands
        px, py = x[pending], y[pending]
        sides = (
            np.where(x0 > 0, px - x0 / side, np.inf),
            np.where(y0 > 0, py - y0 / side, np.inf),
            np.where(x1 < side - 1, (x1 + 1) / side - px, np.inf),
            np.where(y1 < side - 1, (y1 + 1) / side - py, np.inf),
        )
        limit = np.minimum.reduce(sides) - _GAP_MARGIN
        width = max(k, int(counts.sum(axis=1).max()))
        chunk = max(1, _KNN_BYTES // (16 * width))
        kth = np.empty(len(pending))
        for start in range(0, len(pending), chunk):
            part = slice(start, start + chunk)
            points, runs = pending[part], counts[part].ravel()
            per_point = counts[part].sum(axis=1)
            total = int(per_point.sum())
            take = np.repeat(lo[part].ravel() - (np.cumsum(runs) - runs), runs)
            take = by_cell[take + np.arange(total)]
            owner = np.repeat(np.arange(len(points)), per_point)
            slot = np.arange(total) - np.repeat(np.cumsum(per_point) - per_point, per_point)
            found = _distances(x, y, points[owner], take)
            found[take == points[owner]] = np.inf
            keys = np.full((len(points), width), np.inf, dtype=complex)
            keys.real[owner, slot] = found
            keys.imag[owner, slot] = take
            nearest = np.sort(np.partition(keys, k - 1, axis=1)[:, :k], axis=1)
            kth[part] = nearest[:, -1].real
            done = kth[part] < limit[part]
            order[points[done]] = nearest[done].imag
            knn_dist[points[done]] = nearest[done].real
        left = ~(kth < limit)
        # a reach of more than kth * side cells puts the k-th distance inside the block
        beyond = np.where(np.isfinite(kth[left]), kth[left] * side, 0.0).astype(np.int64) + 1
        reach[pending[left]] = np.maximum(r[left] + 1, beyond)
        pending = pending[left]
    return order, knn_dist


def _knn_graph(n, k_neighbors, rng):
    coords = rng.random((n, 2))
    order, knn_dist = _nearest(coords[:, 0], coords[:, 1], k_neighbors)
    sigma = float(knn_dist.mean())
    # each undirected pair once, as the key min * n + max, in (i, j) order; the
    # distance of (i, j) equals that of (j, i) bit for bit, as (-d)^2 == d^2
    a = np.repeat(np.arange(n), k_neighbors)
    b = order.ravel()
    keys, first = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_index=True)
    rows, cols = np.divmod(keys, n)
    # squares by libm pow, never d * d or np.power, which round some of them otherwise
    squares = np.array([math.pow(d, 2.0) for d in knn_dist.ravel()[first].tolist()])
    weights = np.exp(-squares / (2.0 * sigma**2))
    return coords, np.column_stack((rows, cols, weights))


def random_sensor_graph(n, k_neighbors=6, seed=0):
    """Random geometric sensor graph on the unit square.

    Vertices are placed uniformly at random; each vertex is joined to its
    ``k_neighbors`` nearest neighbors (edge set symmetrized by union) with
    Gaussian kernel weights ``exp(-d^2 / (2 sigma^2))``, where ``sigma`` is
    the mean of all directed nearest-neighbor distances.  Disconnected draws
    are rejected and regenerated with the seed incremented, up to
    ``_CONNECT_ATTEMPTS`` (100) times.  The neighbors come from a cell-grid
    search that holds no N x N distance array and computes about 30
    distances per vertex at k = 6; they are those of a stable sort of each vertex's
    whole row of distances, so ties go to the lowest index.

    Deterministic in ``(n, k_neighbors, seed)``.  The counts must be
    integers (numpy integers too), and the seed a nonnegative one.
    """
    n, k_neighbors = _count(n, "the vertex count n"), _count(k_neighbors, "k_neighbors")
    seed = _seed(seed)
    if n < 2:
        raise InvariantViolation("sensor graph needs n >= 2")
    if not (1 <= k_neighbors < n):
        raise InvariantViolation("need 1 <= k_neighbors < n")
    for attempt in range(_CONNECT_ATTEMPTS):
        rng = np.random.default_rng(seed + attempt)
        coords, edges = _knn_graph(n, k_neighbors, rng)
        if _is_connected(n, edges):
            return Graph(n_vertices=n, edges=edges, coordinates=coords)
    raise FailedToConnect(
        f"no connected graph in {_CONNECT_ATTEMPTS} attempts (n={n}, k={k_neighbors}, seed={seed})"
    )


def save_graph(graph, path):
    """Write a graph to an edge-list text file.

    Format: a ``N <n>`` header, optional ``V <idx> <x> <y>`` coordinate
    lines, and ``E <i> <j> <weight>`` edge lines; ``#`` starts a comment.
    Floats are written with enough digits to round-trip exactly.
    """
    lines = [f"N {graph.n_vertices}"]
    if graph.coordinates is not None:
        for idx, (x, y) in enumerate(graph.coordinates):
            lines.append(f"V {idx} {x:.17g} {y:.17g}")
    for i, j, w in graph.edges:
        lines.append(f"E {i} {j} {w:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path):
    """Read a graph from the edge-list text format written by :func:`save_graph`."""
    n = None
    coords = {}
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            tag = tokens[0]
            try:
                if tag == "N":
                    if n is not None:
                        raise ParseError("repeated N header", lineno)
                    n = int(tokens[1])
                elif tag == "V":
                    if n is None:
                        raise ParseError("V line before N header", lineno)
                    idx = int(tokens[1])
                    if idx in coords:
                        raise ParseError(f"repeated coordinates for vertex {idx}", lineno)
                    coords[idx] = (float(tokens[2]), float(tokens[3]))
                elif tag == "E":
                    if n is None:
                        raise ParseError("E line before N header", lineno)
                    edges.append((int(tokens[1]), int(tokens[2]), float(tokens[3])))
                else:
                    raise ParseError(f"unknown record type {tag!r}", lineno)
            except (IndexError, ValueError) as exc:
                raise ParseError(f"malformed {tag} record: {exc}", lineno) from exc
    if n is None:
        raise ParseError("missing N header")
    coordinates = None
    if coords:
        if sorted(coords) != list(range(n)):
            raise ParseError("coordinate lines must cover all vertices exactly once")
        coordinates = np.array([coords[i] for i in range(n)])
    return Graph(n_vertices=n, edges=tuple(edges), coordinates=coordinates)
