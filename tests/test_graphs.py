"""Graph construction, shift operators, sensor-graph generation, file format."""

import re

import numpy as np
import pytest

from graphpsd import (
    Graph,
    InvariantViolation,
    ParseError,
    build_adjacency,
    build_laplacian,
    build_shift_operator,
    eigendecompose,
    load_graph,
    random_sensor_graph,
    save_graph,
)


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
        np.testing.assert_array_equal(build_adjacency(g), [[0, 1], [1, 0]])

    def test_edgeless_adjacency(self):
        g = Graph(n_vertices=3, edges=())
        np.testing.assert_array_equal(build_adjacency(g), np.zeros((3, 3)))

    def test_path_adjacency(self, path3):
        a = build_adjacency(path3)
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
        np.testing.assert_array_equal(adj.matrix, build_adjacency(path3))
        with pytest.raises(InvariantViolation):
            build_shift_operator(path3, "normalized")

    def test_shift_sparsity_pattern(self, sensor100):
        """Off-diagonal entries appear only on edges."""
        lap = build_laplacian(sensor100).matrix
        mask = np.zeros_like(lap, dtype=bool)
        for i, j, _ in sensor100.edges:
            mask[i, j] = mask[j, i] = True
        off = lap.copy()
        np.fill_diagonal(off, 0.0)
        assert np.all(off[~mask] == 0.0)


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
        each whole row, which keeps the lowest index first.  With a row budget
        of 7 rows the 36 rows come in ragged chunks (5 of 7, one of 1)."""
        from graphpsd import graphs

        side = 6
        lattice = np.array([(x, y) for y in range(side) for x in range(side)], float) / 8.0
        lattice = lattice[np.random.default_rng(0).permutation(side * side)]
        n = len(lattice)
        if chunk_rows is not None:
            monkeypatch.setattr(graphs, "_KNN_BYTES", chunk_rows * 8 * n)

        class LatticeRng:
            def random(self, shape):
                assert shape == (n, 2)
                return lattice.copy()

        coords, edges = graphs._knn_graph(n, k, LatticeRng())
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
        assert edges == expected

    def test_argument_validation(self):
        with pytest.raises(InvariantViolation):
            random_sensor_graph(1, 1, seed=0)
        with pytest.raises(InvariantViolation):
            random_sensor_graph(5, 5, seed=0)

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
        from graphpsd import graphs

        assert graphs._is_connected(n, edges) is connected

    def test_exhausted_attempts_raise(self, monkeypatch):
        """If every draw comes out disconnected the generator gives up."""
        from graphpsd import FailedToConnect, graphs

        monkeypatch.setattr(graphs, "_is_connected", lambda n, edges: False)
        with pytest.raises(FailedToConnect, match="100 attempts"):
            random_sensor_graph(10, 2, seed=0)


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
