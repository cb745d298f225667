"""Undirected weighted graphs, shift operators, and sensor-graph generation.

Graphs are small (desk scale), so the adjacency and Laplacian are plain
NxN arrays; a shift operator also keeps one CSR view of itself for the
sparse products of the vertex domain.  That view is the package's only use
of ``scipy.sparse``, which is imported on first use (scipy loads its
submodules lazily), so a spectral-domain process never pays for it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import FailedToConnect, InvariantViolation, ParseError

LAPLACIAN = "laplacian"
ADJACENCY = "adjacency"


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
        seen = set()
        canonical = []
        for i, j, w in self.edges:
            i, j = int(i), int(j)
            w = float(w)
            if i == j:
                raise InvariantViolation(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise InvariantViolation(f"edge ({i},{j}) out of range for n={n}")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise InvariantViolation(f"duplicate edge ({i},{j})")
            if not np.isfinite(w) or w <= 0.0:
                raise InvariantViolation(f"edge ({i},{j}) has invalid weight {w}")
            seen.add((i, j))
            canonical.append((i, j, w))
        canonical.sort()
        object.__setattr__(self, "edges", tuple(canonical))
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
        """The shift as a ``scipy.sparse.csr_array``, converted on first use.

        scipy.sparse is imported on first use too: ``scipy`` resolves the
        submodule on first attribute access.
        """
        return scipy.sparse.csr_array(self.matrix)


def build_adjacency(graph):
    """Dense symmetric adjacency matrix of a graph."""
    a = np.zeros((graph.n_vertices, graph.n_vertices))
    for i, j, w in graph.edges:
        a[i, j] = w
        a[j, i] = w
    return a


def build_laplacian(graph):
    """Combinatorial Laplacian ``L = D - A`` as a shift operator.

    ``D`` is the diagonal matrix of weighted degrees, so every row of the
    result sums to zero.
    """
    a = build_adjacency(graph)
    lap = np.diag(a.sum(axis=1)) - a
    return ShiftOperator(LAPLACIAN, lap)


def build_shift_operator(graph, kind=LAPLACIAN):
    """Build the requested shift operator (Laplacian or adjacency)."""
    if kind == LAPLACIAN:
        return build_laplacian(graph)
    if kind == ADJACENCY:
        return ShiftOperator(ADJACENCY, build_adjacency(graph))
    raise InvariantViolation(f"unknown shift kind {kind!r}")


def _is_connected(n, edges):
    if n == 1:
        return True
    neighbors = [[] for _ in range(n)]
    for i, j, _ in edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for u in neighbors[v]:
            if not seen[u]:
                seen[u] = True
                stack.append(u)
    return bool(seen.all())


def _nearest(dist, k):
    """The k nearest columns of each row, as ``argsort(kind="stable")[:, :k]``.

    Only the candidates at or below each row's k-th smallest distance are
    sorted, by (distance, index), so ties keep the lowest index first, as
    the stable sort of the whole row does.
    """
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
    rows, cols = np.nonzero(dist <= kth[:, None])
    ranked = np.lexsort((cols, dist[rows, cols], rows))
    starts = np.searchsorted(rows, np.arange(dist.shape[0]))
    return cols[ranked[starts[:, None] + np.arange(k)]]


def _knn_graph(n, k_neighbors, rng):
    coords = rng.random((n, 2))
    # sqrt(dx^2 + dy^2) in place, the same values as summing an (N, N, 2) difference
    dist = np.subtract.outer(coords[:, 0], coords[:, 0])
    dist *= dist
    dy = np.subtract.outer(coords[:, 1], coords[:, 1])
    dy *= dy
    dist += dy
    del dy
    np.sqrt(dist, out=dist)
    np.fill_diagonal(dist, np.inf)
    order = _nearest(dist, k_neighbors)
    knn_dist = np.take_along_axis(dist, order, axis=1)
    sigma = float(knn_dist.mean())
    # each undirected pair once, as the key min * n + max, in (i, j) order
    a = np.repeat(np.arange(n), k_neighbors)
    b = order.ravel()
    rows, cols = np.divmod(np.unique(np.minimum(a, b) * n + np.maximum(a, b)), n)
    edges = tuple(
        (i, j, float(np.exp(-dist[i, j] ** 2 / (2.0 * sigma**2))))
        for i, j in zip(rows.tolist(), cols.tolist())
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
