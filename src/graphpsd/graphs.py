"""Undirected weighted graphs, shift operators, and sensor-graph generation.

Graphs are small (desk scale), so the adjacency and Laplacian are plain
NxN arrays; a shift operator also keeps one CSR view of itself for the
sparse products of the vertex domain.  That view is the package's only use
of ``scipy.sparse``, which is imported on first use (scipy loads its
submodules lazily), so a spectral-domain process never pays for it.

Edge lists are checked, canonicalized and scattered into matrices as
arrays.  The k-nearest-neighbor sensor graph is built in row chunks of
about 1 MB of distances, so no N x N distance array is held; the kernel
width and the edge weights come from the (N, k) neighbor distances.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import FailedToConnect, InvariantViolation, ParseError

LAPLACIAN = "laplacian"
ADJACENCY = "adjacency"

# Bytes of the distance rows a k-nearest-neighbor chunk holds at a time.
_KNN_BYTES = 1 << 20


def _canonical_edges(n, edges):
    """Edges as sorted ``(i, j, weight)`` triples with ``i < j``, checked on arrays.

    An edge is faulty if it is a self-loop, leaves ``range(n)``, repeats an
    earlier pair or has a weight that is not strictly positive and finite;
    indices are truncated to integers, as ``int`` does.  The first faulty
    edge raises the error of the first of these checks it fails.
    """
    if not len(edges):
        return ()
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
    return tuple(zip(lo[order].tolist(), hi[order].tolist(), weights[order].tolist()))


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph with optional 2-D vertex coordinates.

    Edges are canonicalized to ``(i, j, weight)`` triples with ``i < j``,
    sorted lexicographically.  Construction rejects self-loops, duplicate
    edges, and weights that are not strictly positive and finite.
    """

    n_vertices: int
    edges: tuple
    coordinates: np.ndarray | None = None

    def __post_init__(self):
        n = self.n_vertices
        if n < 1:
            raise InvariantViolation("graph needs at least one vertex")
        object.__setattr__(self, "edges", _canonical_edges(n, self.edges))
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


@dataclass(frozen=True)
class ShiftOperator:
    """Symmetric matrix sharing the graph's sparsity pattern.

    ``kind`` is either :data:`LAPLACIAN` or :data:`ADJACENCY`.  The matrix
    is built symmetrically by construction, never symmetrized after the
    fact.  :attr:`sparse` is the same matrix in CSR form, built once on
    first use and shared by every sparse product with the shift;
    scipy.sparse is imported on first use.
    """

    kind: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.kind not in (LAPLACIAN, ADJACENCY):
            raise InvariantViolation(f"unknown shift kind {self.kind!r}")
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvariantViolation("shift operator must be square")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n(self):
        return self.matrix.shape[0]

    @functools.cached_property
    def sparse(self):
        """The shift as a ``scipy.sparse.csr_array``, built on first use.

        Its ``data``, ``indices`` and ``indptr`` are those scipy builds from
        the dense matrix, read from its nonzeros here.  scipy.sparse is
        imported on first use too: ``scipy`` resolves the submodule on first
        attribute access.
        """
        n = self.n
        # the nonzeros in row-major order; nonzero of a flat mask is the fast one
        rows, cols = np.divmod(np.flatnonzero(self.matrix != 0.0), n)
        # scipy's index type: 32-bit while the counts fit
        index = np.int32 if max(len(cols), n) <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return scipy.sparse.csr_array(
            (self.matrix[rows, cols], cols.astype(index), indptr), shape=(n, n)
        )


def _edge_arrays(edges):
    """The ``i``, ``j`` and weight columns of an edge list, as three arrays."""
    if not edges:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
    i, j, w = zip(*edges)
    return np.array(i, dtype=np.int64), np.array(j, dtype=np.int64), np.array(w, dtype=float)


def build_adjacency(graph):
    """Dense symmetric adjacency matrix of a graph."""
    a = np.zeros((graph.n_vertices, graph.n_vertices))
    i, j, w = _edge_arrays(graph.edges)
    a[i, j] = w
    a[j, i] = w
    return a


def build_laplacian(graph):
    """Combinatorial Laplacian ``L = D - A`` as a shift operator.

    ``D`` is the diagonal matrix of weighted degrees, so every row of the
    result sums to zero.  Built in place on the adjacency matrix.
    """
    lap = build_adjacency(graph)
    degrees = lap.sum(axis=1)
    np.subtract(0.0, lap, out=lap)  # 0 - a, not -a: no negative zeros
    np.fill_diagonal(lap, degrees)
    return ShiftOperator(LAPLACIAN, lap)


def build_shift_operator(graph, kind=LAPLACIAN):
    """Build the requested shift operator (Laplacian or adjacency)."""
    if kind == LAPLACIAN:
        return build_laplacian(graph)
    if kind == ADJACENCY:
        return ShiftOperator(ADJACENCY, build_adjacency(graph))
    raise InvariantViolation(f"unknown shift kind {kind!r}")


def _is_connected(n, edges):
    """Whether the edges join all n vertices, by label propagation.

    Each vertex's label falls to the smallest label across its edges, then
    to its label's label, until nothing changes: the graph is connected
    when every label is 0.
    """
    if n == 1:
        return True
    i, j, _ = _edge_arrays(edges)
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


def _nearest(dist, k):
    """The k nearest columns of each row, as ``argsort(kind="stable")[:, :k]``.

    Only the candidates at or below each row's k-th smallest distance are
    sorted, by (distance, index), so ties keep the lowest index first, as
    the stable sort of the whole row does.
    """
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
    # row-major, as np.nonzero gives them; nonzero of a flat mask is the fast one
    rows, cols = np.divmod(np.flatnonzero(dist <= kth[:, None]), dist.shape[1])
    ranked = np.lexsort((cols, dist[rows, cols], rows))
    starts = np.searchsorted(rows, np.arange(dist.shape[0]))
    return cols[ranked[starts[:, None] + np.arange(k)]]


def _knn_graph(n, k_neighbors, rng):
    coords = rng.random((n, 2))
    x, y = coords[:, 0], coords[:, 1]
    order = np.empty((n, k_neighbors), dtype=np.int64)
    knn_dist = np.empty((n, k_neighbors))
    chunk = max(1, _KNN_BYTES // (8 * n))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        # sqrt(dx^2 + dy^2) in place, the same values as summing an (N, N, 2) difference
        dist = np.subtract.outer(x[start:stop], x)
        dist *= dist
        dy = np.subtract.outer(y[start:stop], y)
        dy *= dy
        dist += dy
        np.sqrt(dist, out=dist)
        dist[np.arange(stop - start), np.arange(start, stop)] = np.inf
        order[start:stop] = _nearest(dist, k_neighbors)
        knn_dist[start:stop] = np.take_along_axis(dist, order[start:stop], axis=1)
    sigma = float(knn_dist.mean())
    # each undirected pair once, as the key min * n + max, in (i, j) order; the
    # distance of (i, j) equals that of (j, i) bit for bit, as (-d)^2 == d^2
    a = np.repeat(np.arange(n), k_neighbors)
    b = order.ravel()
    keys, first = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_index=True)
    rows, cols = np.divmod(keys, n)
    # one scalar expression per edge: an np.float64's ** 2 calls pow(), an
    # array's ** 2 is x * x, and the two differ by an ulp on some edges
    edges = tuple(
        (i, j, float(np.exp(-d ** 2 / (2.0 * sigma**2))))
        for i, j, d in zip(rows.tolist(), cols.tolist(), knn_dist.ravel()[first])
    )
    return coords, edges


def random_sensor_graph(n, k_neighbors=6, seed=0, max_attempts=100):
    """Random geometric sensor graph on the unit square.

    Vertices are placed uniformly at random; each vertex is joined to its
    ``k_neighbors`` nearest neighbors (edge set symmetrized by union) with
    Gaussian kernel weights ``exp(-d^2 / (2 sigma^2))``, where ``sigma`` is
    the mean of all directed nearest-neighbor distances.  Disconnected draws
    are rejected and regenerated with the seed incremented, up to
    ``max_attempts`` times.

    Deterministic in ``(n, k_neighbors, seed)``.
    """
    if n < 2:
        raise InvariantViolation("sensor graph needs n >= 2")
    if not (1 <= k_neighbors < n):
        raise InvariantViolation("need 1 <= k_neighbors < n")
    for attempt in range(max_attempts):
        rng = np.random.default_rng(seed + attempt)
        coords, edges = _knn_graph(n, k_neighbors, rng)
        if _is_connected(n, edges):
            return Graph(n_vertices=n, edges=edges, coordinates=coords)
    raise FailedToConnect(
        f"no connected graph in {max_attempts} attempts (n={n}, k={k_neighbors}, seed={seed})"
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
