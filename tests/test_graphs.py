"""Graph construction, shift operators, sensor-graph generation, file format."""

import ast
import importlib.machinery
import importlib.util
import json
import math
import pathlib
import re
import sys
import tracemalloc

import numpy as np
import pytest
import scipy
import scipy.sparse

import graphpsd
from graphpsd import (
    ConvergenceFailure,
    Graph,
    InvariantViolation,
    ParseError,
    ShiftOperator,
    build_laplacian,
    build_shift_operator,
    eigendecompose,
    load_graph,
    random_sensor_graph,
    save_graph,
)
from graphpsd import graphs
from graphpsd.graphs import ADJACENCY, LAPLACIAN

from conftest import random_weighted_graph

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def dense_adjacency(graph):
    """The dense symmetric adjacency matrix, written entry by entry from the edge list."""
    a = np.zeros((graph.n_vertices, graph.n_vertices))
    for i, j, w in graph.edges:
        a[i, j] = a[j, i] = w
    return a


def chunked_knn(coords, k, chunk_bytes=1 << 20):
    """The k-nearest-neighbor search of the package's first version, the oracle
    of the cell-grid search: every distance of a chunk of rows, about 1 MB of
    them at a time, then the k smallest of each row by (distance, index).

    Returns the (n, k) neighbors and distances, the kernel width and the
    (E, 3) edge table of the sensor graph on ``coords``.
    """
    n = len(coords)
    x, y = coords[:, 0], coords[:, 1]
    order = np.empty((n, k), dtype=np.int64)
    knn_dist = np.empty((n, k))
    chunk = max(1, chunk_bytes // (8 * n))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        dist = np.subtract.outer(x[start:stop], x)
        dist *= dist
        dy = np.subtract.outer(y[start:stop], y)
        dy *= dy
        dist += dy
        np.sqrt(dist, out=dist)
        dist[np.arange(stop - start), np.arange(start, stop)] = np.inf
        # the candidates at or below each row's k-th distance, by (distance, index)
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
        rows, cols = np.divmod(np.flatnonzero(dist <= kth[:, None]), n)
        ranked = np.lexsort((cols, dist[rows, cols], rows))
        starts = np.searchsorted(rows, np.arange(stop - start))
        order[start:stop] = cols[ranked[starts[:, None] + np.arange(k)]]
        knn_dist[start:stop] = np.take_along_axis(dist, order[start:stop], axis=1)
    sigma = float(knn_dist.mean())
    a = np.repeat(np.arange(n), k)
    b = order.ravel()
    keys, first = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_index=True)
    rows, cols = np.divmod(keys, n)
    squares = np.array([math.pow(d, 2.0) for d in knn_dist.ravel()[first].tolist()])
    weights = np.exp(-squares / (2.0 * sigma**2))
    return order, knn_dist, sigma, np.column_stack((rows, cols, weights))


class FixedRng:
    """Stands in for a generator whose ``random((n, 2))`` gives these points."""

    def __init__(self, points):
        self.points = points

    def random(self, shape):
        assert shape == self.points.shape
        return self.points.copy()


def assert_matches_chunked_search(coords, k):
    """The grid search's neighbors, distances, kernel width, coordinates and
    edge table equal the chunked search's, bit for bit."""
    want_order, want_dist, want_sigma, want_edges = chunked_knn(coords, k)
    order, knn_dist = graphs._nearest(coords[:, 0], coords[:, 1], k)
    assert order.tobytes() == want_order.tobytes()
    assert knn_dist.tobytes() == want_dist.tobytes()
    assert float(knn_dist.mean()).hex() == want_sigma.hex()
    got_coords, edges = graphs._knn_graph(len(coords), k, FixedRng(coords))
    assert got_coords.tobytes() == coords.tobytes()
    assert edges.tobytes() == want_edges.tobytes()


class TestGraphInvariants:
    def test_self_loop_rejected(self):
        with pytest.raises(InvariantViolation, match="self-loop"):
            Graph(n_vertices=2, edges=((0, 0, 1.0),))

    def test_duplicate_edge_rejected(self):
        """The same unordered pair may appear at most once."""
        with pytest.raises(InvariantViolation, match="duplicate"):
            Graph(n_vertices=2, edges=((0, 1, 1.0), (1, 0, 2.0)))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InvariantViolation, match="weight"):
            Graph(n_vertices=2, edges=((0, 1, -1.0),))
        with pytest.raises(InvariantViolation, match="weight"):
            Graph(n_vertices=2, edges=((0, 1, 0.0),))
        with pytest.raises(InvariantViolation, match="weight"):
            Graph(n_vertices=2, edges=((0, 1, np.inf),))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvariantViolation, match="out of range"):
            Graph(n_vertices=2, edges=((0, 2, 1.0),))

    @pytest.mark.parametrize("n", [True, 3.0, 2.5, "3"], ids=["bool", "float", "fraction", "str"])
    def test_vertex_count_must_be_an_integer(self, n):
        """A bool is not a one-vertex graph and 3.0 is not three vertices: each
        is an InvariantViolation here, not a count kept until a later TypeError."""
        with pytest.raises(InvariantViolation, match="the vertex count must be an integer, got"):
            Graph(n_vertices=n, edges=())

    def test_numpy_integer_vertex_count_accepted(self):
        g = Graph(n_vertices=np.int64(3), edges=((0, 1, 1.0),))
        assert type(g.n_vertices) is int and g == Graph(n_vertices=3, edges=((0, 1, 1.0),))

    def test_edges_canonicalized(self):
        """Edges are stored as (min, max, weight), sorted."""
        g = Graph(n_vertices=3, edges=((2, 1, 0.5), (1, 0, 0.25)))
        assert g.edges == ((0, 1, 0.25), (1, 2, 0.5))

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            # duplicate before a self-loop: the duplicate is reported
            (4, ((0, 1, 1.0), (2, 3, 1.0), (1, 0, 2.0), (2, 2, 1.0)), "duplicate edge (0,1)"),
            # self-loop before a duplicate
            (4, ((0, 1, 1.0), (3, 3, 1.0), (1, 0, 1.0)), "self-loop at vertex 3"),
            # out-of-range before a bad weight, named as given
            (4, ((0, 1, 1.0), (9, 0, 1.0), (1, 2, -1.0)), "edge (9,0) out of range for n=4"),
            # bad weight before an out-of-range edge, named in canonical order
            (4, ((2, 1, np.nan), (0, 9, 1.0)), "edge (1,2) has invalid weight nan"),
            # an edge that repeats a pair and has a bad weight is a duplicate
            (4, ((2, 1, 1.0), (1, 2, -1.0)), "duplicate edge (1,2)"),
            # indices are truncated as int() does: (0, 1.7) repeats (1, 0)
            (4, ((1, 0, 1.0), (0, 1.7, 1.0), (3, 3, 1.0)), "duplicate edge (0,1)"),
            # a self-loop out of range is a self-loop
            (4, ((0, 1, 1.0), (7, 7, 1.0)), "self-loop at vertex 7"),
        ],
    )
    def test_first_faulty_edge_raises(self, n, edges, message):
        """With several faulty edges, the first one raises the error of the
        first check it fails: self-loop, range, duplicate, weight."""
        with pytest.raises(InvariantViolation, match="^" + re.escape(message) + "$"):
            Graph(n_vertices=n, edges=edges)

    def test_edges_must_be_triples(self):
        with pytest.raises(InvariantViolation, match="triples"):
            Graph(n_vertices=3, edges=((0, 1, 1.0, 5.0),))

    def test_coordinates_shape_checked(self):
        with pytest.raises(InvariantViolation, match="coordinates"):
            Graph(n_vertices=3, edges=((0, 1, 1.0),), coordinates=np.zeros((2, 2)))


class TestAdjacencyAndLaplacian:
    def test_single_edge_adjacency(self):
        g = Graph(n_vertices=2, edges=((0, 1, 1.0),))
        np.testing.assert_array_equal(build_shift_operator(g, ADJACENCY).matrix, [[0, 1], [1, 0]])

    def test_edgeless_adjacency(self):
        g = Graph(n_vertices=3, edges=())
        np.testing.assert_array_equal(build_shift_operator(g, ADJACENCY).matrix, np.zeros((3, 3)))

    def test_path_adjacency(self, path3):
        a = build_shift_operator(path3, ADJACENCY).matrix
        assert a[0, 1] == a[1, 2] == 1.0
        assert a[0, 2] == 0.0
        np.testing.assert_array_equal(a, a.T)

    def test_single_edge_laplacian(self):
        g = Graph(n_vertices=2, edges=((0, 1, 1.0),))
        np.testing.assert_array_equal(build_laplacian(g).matrix, [[1, -1], [-1, 1]])

    def test_edgeless_laplacian(self):
        g = Graph(n_vertices=3, edges=())
        np.testing.assert_array_equal(build_laplacian(g).matrix, np.zeros((3, 3)))

    def test_path_laplacian_by_hand(self, path3):
        lap = build_laplacian(path3).matrix
        np.testing.assert_array_equal(np.diag(lap), [1, 2, 1])
        assert lap[0, 1] == lap[1, 2] == -1.0
        assert lap[0, 2] == 0.0

    def test_laplacian_rows_sum_to_zero(self, sensor100):
        lap = build_laplacian(sensor100).matrix
        scale = np.abs(lap).max()
        assert np.abs(lap @ np.ones(100)).max() <= 1e-12 * scale

    def test_laplacian_is_psd(self, sensor100):
        lam = eigendecompose(build_laplacian(sensor100)).eigenvalues
        assert lam.min() >= -1e-10 * lam.max()

    def test_shift_kind_dispatch(self, path3):
        assert build_shift_operator(path3, "laplacian").kind == "laplacian"
        adj = build_shift_operator(path3, "adjacency")
        np.testing.assert_array_equal(adj.matrix, dense_adjacency(path3))
        with pytest.raises(InvariantViolation):
            build_shift_operator(path3, "normalized")

    def test_asymmetric_shift_rejected(self):
        """The eigensolvers read one triangle only: on this matrix they
        report the eigenvalues [0.314, 0.5, 3.186] of its lower triangle,
        where its own are about [0.237, 0.685, 3.078]."""
        def with_corner(value):
            return np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [value, -1.0, 1.0]])

        with pytest.raises(InvariantViolation, match="not symmetric"):
            ShiftOperator("laplacian", with_corner(0.5))
        # the largest entry is 2, so 2e-12 is within the rule and 3e-12 is not
        assert ShiftOperator("laplacian", with_corner(2e-12)).n == 3
        with pytest.raises(InvariantViolation, match="not symmetric"):
            ShiftOperator("laplacian", with_corner(3e-12))

    @pytest.mark.parametrize(
        "m",
        [
            np.full((2, 2), np.nan),
            np.full((2, 2), np.inf),
            [[np.inf, 1.0], [2.0, 0.0]],
            [[np.nan, 1.0], [1.0, 0.0]],
            [[0.0, np.inf], [1.0, 0.0]],
        ],
        ids=["nan", "inf", "inf_diagonal", "nan_diagonal", "inf_pair"],
    )
    def test_non_finite_shift_reaches_the_eigensolver(self, m):
        """Non-finite entries pass the symmetry check, so the eigensolver's
        own check reports them, also where LAPACK would pass over them: a
        NaN diagonal gave finite eigenvalues without eigenvectors, and the
        upper-triangle infinity was never read."""
        shift = ShiftOperator("adjacency", np.array(m))
        for eigenvectors in (True, False):
            with pytest.raises(ConvergenceFailure, match="non-finite"):
                eigendecompose(shift, eigenvectors=eigenvectors)

    def test_shift_sparsity_pattern(self, sensor100):
        """Off-diagonal entries appear only on edges."""
        lap = build_laplacian(sensor100).matrix
        mask = np.zeros_like(lap, dtype=bool)
        for i, j, _ in sensor100.edges:
            mask[i, j] = mask[j, i] = True
        off = lap.copy()
        np.fill_diagonal(off, 0.0)
        assert np.all(off[~mask] == 0.0)


    def test_laplacian_keeps_only_its_nonzeros(self):
        """N=300: the operator keeps its CSR arrays (about 30 KB), not the
        720 KB dense matrix."""
        graph = random_sensor_graph(300, 6, seed=3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            shift = build_laplacian(graph)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert shift.n == 300
        assert kept < 300 * 300 * 8 / 10

    @pytest.mark.parametrize("name", ["sensor", "dense_random", "hub_and_isolated"])
    @pytest.mark.parametrize("kind", [LAPLACIAN, ADJACENCY])
    def test_shift_equals_the_dense_build(self, kind, name):
        """The operator built from the edges equals the one built from
        :func:`dense_adjacency`: ``0 - A`` with the numpy row sums of A on its
        diagonal, and the CSR arrays scipy makes of that.  The off-diagonal
        entries and the CSR indices, pointers and dtypes agree bit for bit.
        A degree sums its row's d weights alone, and numpy sums the whole
        dense row pairwise, so the two round differently (the hub has 298
        random weights).  Each sum lies within ``(d - 1) u sum|w|`` of the
        exact one, u the unit roundoff, so they differ by at most
        ``(d - 1) eps sum|w|``."""
        n = 300
        if name == "sensor":
            graph = random_sensor_graph(n, 6, seed=3)
        elif name == "dense_random":
            graph = random_weighted_graph(n, 0.3, seed=1)
        else:  # vertex n-1 has no edge, so no diagonal entry either
            weights = np.random.default_rng(1).uniform(0.1, 3.0, n - 2)
            graph = Graph(n, tuple((0, i, float(w)) for i, w in enumerate(weights, start=1)))
        adjacency = dense_adjacency(graph)
        dense = adjacency.copy()
        if kind == LAPLACIAN:
            dense = 0.0 - dense
            np.fill_diagonal(dense, adjacency.sum(axis=1))
        shift = build_shift_operator(graph, kind)
        got = shift.matrix
        off = ~np.eye(n, dtype=bool)
        assert got[off].tobytes() == dense[off].tobytes()
        d = np.count_nonzero(adjacency, axis=1)
        bound = np.maximum(d - 1, 0) * np.finfo(float).eps * adjacency.sum(axis=1)
        assert np.all(np.abs(np.diagonal(got) - np.diagonal(dense)) <= bound)
        expected = scipy.sparse.csr_array(dense)
        for part in ("data", "indices", "indptr"):
            assert getattr(shift, part).dtype == getattr(expected, part).dtype
        for part in ("indices", "indptr"):
            assert getattr(shift, part).tobytes() == getattr(expected, part).tobytes()
        rows = np.repeat(np.arange(n), np.diff(expected.indptr))
        beside = rows != expected.indices
        assert shift.data[beside].tobytes() == expected.data[beside].tobytes()


class TestShiftProduct:
    @pytest.fixture(scope="class")
    def blocks(self):
        rng = np.random.default_rng(7)
        wide = rng.standard_normal((300, 80))
        return {
            "vector": rng.standard_normal(300),
            "column": rng.standard_normal((300, 1)),
            "c_block": rng.standard_normal((300, 40)),
            "f_block": np.asfortranarray(rng.standard_normal((300, 40))),
            "sliced": wide[:, ::2],
        }

    @pytest.mark.parametrize("name", ["vector", "column", "c_block", "f_block", "sliced"])
    @pytest.mark.parametrize("kind", [LAPLACIAN, ADJACENCY])
    def test_product_has_the_bits_of_scipy_sparse(self, blocks, kind, name):
        """``shift @ block`` calls the kernel scipy's CSR product calls, on the
        same zeroed output, so the two agree bit for bit."""
        shift = build_shift_operator(random_sensor_graph(300, 6, seed=3), kind)
        block = blocks[name]
        view = scipy.sparse.csr_array((shift.data, shift.indices, shift.indptr), shape=(300, 300))
        got, want = shift @ block, view @ block
        assert got.shape == want.shape == block.shape
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(299,), (300, 2, 2), ()], ids=["short", "3d", "scalar"])
    def test_block_must_have_n_rows(self, shape):
        shift = build_laplacian(random_sensor_graph(300, 6, seed=3))
        with pytest.raises(InvariantViolation, match="cannot multiply the 300 x 300 shift"):
            shift @ np.ones(shape)

    def test_loader_reuses_scipys_kernel_module(self):
        """Once scipy.sparse is imported, its own kernel module is the one used."""
        import scipy.sparse._compressed

        graphs._sparsetools.cache_clear()
        assert graphs._sparsetools() is scipy.sparse._compressed._sparsetools

    def test_missing_kernel_names_it_and_the_scipy_version(self, monkeypatch, tmp_path):
        find_spec = importlib.util.find_spec

        def empty_scipy(name, package=None):
            if name == "scipy":
                return importlib.machinery.ModuleSpec(name, None, origin=str(tmp_path / "__init__.py"))
            return find_spec(name, package)

        monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
        monkeypatch.setattr(importlib.util, "find_spec", empty_scipy)
        graphs._sparsetools.cache_clear()
        try:
            message = rf"scipy\.sparse\._sparsetools.* scipy {re.escape(scipy.__version__)}$"
            with pytest.raises(ImportError, match=message):
                build_laplacian(random_sensor_graph(20, 4, seed=1)) @ np.ones(20)
        finally:
            graphs._sparsetools.cache_clear()


class TestShiftPowers:
    @pytest.mark.parametrize("columns", [[True], [0, False], [1.0], [0, 2.5]],
                             ids=["bool", "int-and-bool", "float", "fraction"])
    def test_columns_must_be_integers(self, path3, columns):
        """A bool is not vertex 0 or 1 (numpy read ``[True]`` as a mask)."""
        with pytest.raises(InvariantViolation, match="a vertex must be an integer, got"):
            list(build_laplacian(path3).powers(columns, 2))

    @pytest.mark.parametrize("columns", [[3], [-1]], ids=["past-end", "negative"])
    def test_columns_must_be_vertices(self, path3, columns):
        with pytest.raises(InvariantViolation, match=r"vertices must lie in \[0, 3\)"):
            list(build_laplacian(path3).powers(columns, 2))

    def test_numpy_integer_columns_accepted(self, path3):
        shift = build_laplacian(path3)
        want = [p.copy() for p in shift.powers([2, 0], 3)]
        for columns in (np.array([2, 0]), (np.int64(2), np.int32(0))):
            for got, power in zip(shift.powers(columns, 3), want):
                np.testing.assert_array_equal(got, power)
        np.testing.assert_array_equal(want[1], shift.matrix[:, [2, 0]])


class TestOneShiftOwner:
    def test_only_graphs_names_scipy_or_the_sparse_shift(self):
        """Every product with the shift goes through ``ShiftOperator``
        (``shift @ block`` and ``shift.powers``): no other module of the
        package imports scipy or reads a ``.sparse`` attribute."""
        package = pathlib.Path(graphpsd.__file__).resolve().parent
        offenders = []
        for path in sorted(package.glob("*.py")):
            if path.name == "graphs.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    modules = []
                if any(m.split(".")[0] == "scipy" for m in modules):
                    offenders.append(f"{path.name}:{node.lineno} imports scipy")
                if isinstance(node, ast.Attribute) and node.attr == "sparse":
                    offenders.append(f"{path.name}:{node.lineno} reads .sparse")
        assert not offenders, offenders


class TestRandomSensorGraph:
    def test_structural_properties(self, sensor100):
        g = sensor100
        assert g.n_vertices == 100
        assert g.coordinates.shape == (100, 2)
        degree = np.zeros(100, dtype=int)
        for i, j, _ in g.edges:
            degree[i] += 1
            degree[j] += 1
        # union symmetrization can only add neighbors beyond the k requested
        assert degree.min() >= 6

    def test_connected(self, sensor100):
        lam = eigendecompose(build_laplacian(sensor100)).eigenvalues
        # algebraic connectivity strictly positive for a connected graph
        assert lam[1] > 1e-8

    def test_two_vertex_weight_forced_by_formula(self):
        """With n=2, k=1 the kernel width equals the distance: weight e^-1/2."""
        g = random_sensor_graph(2, 1, seed=7)
        assert g.n_edges == 1
        _, _, w = g.edges[0]
        np.testing.assert_allclose(w, np.exp(-0.5), rtol=1e-15)

    def test_deterministic_in_seed(self):
        a = random_sensor_graph(40, 4, seed=11)
        b = random_sensor_graph(40, 4, seed=11)
        assert a.edges == b.edges
        np.testing.assert_array_equal(a.coordinates, b.coordinates)
        c = random_sensor_graph(40, 4, seed=12)
        assert a.edges != c.edges

    @pytest.mark.parametrize(
        "k, chunk_rows",
        [pytest.param(k, None, id=str(k)) for k in (1, 3, 4, 7, 35)]
        + [pytest.param(k, 7, id=f"{k}-rows7") for k in (1, 4, 35)],
    )
    def test_neighbors_match_full_stable_sort_under_ties(self, monkeypatch, k, chunk_rows):
        """Lattice coordinates (exact binary fractions) tie many distances in
        every row; the neighbors and weights equal those of a stable sort of
        each whole row, which keeps the lowest index first.  With a budget of
        7 rows of 36 distances the 36 points are searched in ragged blocks."""
        side = 6
        lattice = np.array([(x, y) for y in range(side) for x in range(side)], float) / 8.0
        lattice = lattice[np.random.default_rng(0).permutation(side * side)]
        n = len(lattice)
        if chunk_rows is not None:
            monkeypatch.setattr(graphs, "_KNN_BYTES", chunk_rows * 8 * n)

        coords, edges = graphs._knn_graph(n, k, FixedRng(lattice))
        diff = lattice[:, None, :] - lattice[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1))
        np.fill_diagonal(dist, np.inf)
        order = np.argsort(dist, axis=1, kind="stable")[:, :k]
        sigma = float(np.take_along_axis(dist, order, axis=1).mean())
        pairs = sorted({(min(i, int(j)), max(i, int(j))) for i in range(n) for j in order[i]})
        expected = tuple(
            (i, j, float(np.exp(-dist[i, j] ** 2 / (2.0 * sigma**2)))) for i, j in pairs
        )
        np.testing.assert_array_equal(coords, lattice)
        np.testing.assert_array_equal(edges, expected)  # an (E, 3) table of the triples

    @pytest.mark.parametrize("n, seed", [(100, 1), (600, 2000), (800, 1000)])
    def test_weights_are_the_scalar_expression_bit_for_bit(self, n, seed):
        """Every weight equals ``np.exp(-d ** 2 / (2.0 * sigma**2))`` on the
        np.float64 distance ``d``, whose ``** 2`` is libm ``pow``; squaring
        by ``d * d`` or ``np.power`` rounds a few of these graphs' weights
        otherwise."""
        g = random_sensor_graph(n, 6, seed=seed)
        x, y = g.coordinates.T
        dx, dy = np.subtract.outer(x, x), np.subtract.outer(y, y)
        dist = np.sqrt(dx * dx + dy * dy)
        np.fill_diagonal(dist, np.inf)
        sigma = float(np.sort(dist, axis=1)[:, :6].mean())
        weights = [w for _, _, w in g.edges]
        expected = [float(np.exp(-dist[i, j] ** 2 / (2.0 * sigma**2))) for i, j, _ in g.edges]
        assert weights == expected

    def test_argument_validation(self):
        with pytest.raises(InvariantViolation):
            random_sensor_graph(1, 1, seed=0)
        with pytest.raises(InvariantViolation):
            random_sensor_graph(5, 5, seed=0)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((10.0, 3), "the vertex count n must be an integer"),
            ((10, 3.0), "k_neighbors must be an integer"),
            ((10, 3, -1), "the seed must be nonnegative"),
            ((10, 3, 2.5), "the seed must be an integer"),
            ((10, True), "k_neighbors must be an integer"),
            ((10, 3, True), "the seed must be an integer"),
        ],
        ids=["float_n", "float_k", "negative_seed", "float_seed", "bool_k", "bool_seed"],
    )
    def test_counts_and_seed_must_be_nonnegative_integers(self, args, message):
        """A float or bool count or a negative, float or bool seed is an
        InvariantViolation, not numpy's TypeError or ValueError, nor a
        graph built for 1."""
        with pytest.raises(InvariantViolation, match=message):
            random_sensor_graph(*args)

    def test_numpy_integer_arguments_build_the_same_graph(self):
        want = random_sensor_graph(30, 4, seed=5)
        got = random_sensor_graph(np.int64(30), np.int32(4), seed=np.uint8(5))
        assert got.edges == want.edges
        assert got.coordinates.tobytes() == want.coordinates.tobytes()

    @pytest.mark.parametrize(
        "n, edges, connected",
        [
            (1, (), True),
            (2, (), False),
            (5, ((3, 4, 1.0), (2, 3, 1.0), (1, 2, 1.0), (0, 1, 1.0)), True),
            (5, ((0, 4, 1.0), (1, 2, 1.0), (2, 3, 1.0)), False),
            (4, ((0, 1, 1.0), (2, 3, 1.0)), False),
        ],
    )
    def test_is_connected(self, n, edges, connected):
        assert graphs._is_connected(n, edges) is connected

    def test_exhausted_attempts_raise(self, monkeypatch):
        """If every draw comes out disconnected the generator gives up."""
        from graphpsd import FailedToConnect

        monkeypatch.setattr(graphs, "_is_connected", lambda n, edges: False)
        with pytest.raises(FailedToConnect, match="100 attempts"):
            random_sensor_graph(10, 2, seed=0)


class TestGridSearch:
    """The cell-grid k-nearest-neighbor search against the chunked search of
    every distance, its oracle, bit for bit."""

    @pytest.mark.parametrize(
        "n, k",
        [(n, k) for n in (2, 3, 10, 100, 600, 800, 3200) for k in (1, 6) if k < n]
        + [(n, n - 1) for n in (3, 10, 100)],
    )
    def test_matches_chunked_search(self, n, k):
        for seed in (0, 1):
            assert_matches_chunked_search(np.random.default_rng(seed).random((n, 2)), k)

    @pytest.mark.parametrize("workload, n", [("vertex_large", 800), ("estimate_large", 600)])
    def test_benchmark_pool_graphs_match_chunked_search(self, workload, n):
        pool = json.loads(GOLDEN.read_text())[workload]["pool"]
        for seed in (pool[0], pool[len(pool) // 2], pool[-1]):
            coords = np.random.default_rng(seed).random((n, 2))
            assert_matches_chunked_search(coords, 6)
            assert random_sensor_graph(n, 6, seed=seed).coordinates.tobytes() == coords.tobytes()

    @pytest.mark.parametrize("k", [1, 4, 8, 20, 63])
    @pytest.mark.parametrize("budget_rows", [None, 3])
    def test_ties_on_cell_edges(self, monkeypatch, k, budget_rows):
        """An 8 x 8 lattice at multiples of 1/8 puts points on the edges of
        the 4 x 4 grid's cells, and ties distances in every row; a second
        copy of four of the points ties them at distance 0."""
        side = 8
        lattice = np.array([(x, y) for y in range(side) for x in range(side)], float) / side
        lattice[[5, 17, 40, 63]] = lattice[[6, 16, 41, 62]]
        lattice = lattice[np.random.default_rng(3).permutation(side * side)]
        if budget_rows is not None:
            monkeypatch.setattr(graphs, "_KNN_BYTES", budget_rows * 8 * len(lattice))
        assert_matches_chunked_search(lattice, k)

    def test_computes_few_distances(self, monkeypatch):
        """At N=3200 the search computes fewer than 200 distances per point
        (about 30), where the chunked search computes N**2."""
        n, counted = 3200, []
        distances = graphs._distances

        def counting(x, y, i, j):
            counted.append(len(i))
            return distances(x, y, i, j)

        monkeypatch.setattr(graphs, "_distances", counting)
        graphs._knn_graph(n, 6, np.random.default_rng(0))
        assert 6 * n < sum(counted) < 200 * n


class TestOneDistanceExpression:
    def test_only_one_helper_computes_distances(self):
        """The weights are pinned to the bits of one distance expression, so
        ``_distances`` is the only function of graphs.py that calls ``sqrt``
        or ``subtract.outer``: no second expression can drift from it."""
        tree = ast.parse(pathlib.Path(graphs.__file__).read_text(encoding="utf-8"))
        computing = set()
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
                outer = (
                    name == "outer"
                    and isinstance(callee.value, ast.Attribute)
                    and callee.value.attr == "subtract"
                )
                if name == "sqrt" or outer:
                    computing.add(function.name)
        assert computing == {"_distances"}


class TestEdgeListFile:
    def test_round_trip_with_coordinates(self, tmp_path, sensor100):
        path = tmp_path / "g.txt"
        save_graph(sensor100, path)
        loaded = load_graph(path)
        assert loaded.n_vertices == sensor100.n_vertices
        assert loaded.edges == sensor100.edges
        np.testing.assert_array_equal(loaded.coordinates, sensor100.coordinates)

    def test_round_trip_without_coordinates(self, tmp_path, path3):
        path = tmp_path / "g.txt"
        save_graph(path3, path)
        loaded = load_graph(path)
        assert loaded == path3

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a comment\nN 2\n\nE 0 1 1.5  # trailing comment\n")
        g = load_graph(path)
        assert g.edges == ((0, 1, 1.5),)

    def test_duplicate_edge_is_invariant_violation(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("N 3\nE 0 1 1.0\nE 1 0 2.0\n")
        with pytest.raises(InvariantViolation, match="duplicate"):
            load_graph(path)

    def test_negative_weight_is_invariant_violation(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("N 3\nE 0 1 -1.0\n")
        with pytest.raises(InvariantViolation, match="weight"):
            load_graph(path)

    def test_unknown_record_reports_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("N 3\nE 0 1 1.0\nX 1 2\n")
        with pytest.raises(ParseError, match="line 3"):
            load_graph(path)

    def test_edge_before_header_reports_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("E 0 1 1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_graph(path)

    def test_malformed_edge_reports_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("N 2\nE 0 one 1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_graph(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ParseError, match="missing N"):
            load_graph(path)

    def test_partial_coordinates_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("N 3\nV 0 0.1 0.2\nE 0 1 1.0\n")
        with pytest.raises(ParseError, match="coordinate"):
            load_graph(path)
