"""Fourier basis, filters, synthesis, covariance, and the ground-truth spectrum."""

import ast
import pathlib

import numpy as np
import pytest

import graphpsd
from graphpsd import (
    ConvergenceFailure,
    CovarianceEstimate,
    Graph,
    GraphFilter,
    InvariantViolation,
    DesignObjective,
    SamplingPattern,
    ShiftOperator,
    basis_filter_rows,
    build_laplacian,
    build_spectral_model,
    eigendecompose,
    filter_matrix,
    filter_rows,
    fit_lowpass_filter,
    frequency_response,
    is_stationary,
    load_matrix_csv,
    random_sensor_graph,
    sample_covariance,
    save_matrix_csv,
    synthesize,
    true_covariance,
    true_power_spectrum,
    vandermonde,
    white_noise,
    wishart_covariance,
)


def polynomial_filter_oracle(coefficients, shift_matrix):
    """Direct evaluation of sum_l h_l S^l by repeated multiplication."""
    n = shift_matrix.shape[0]
    acc = np.zeros((n, n))
    power = np.eye(n)
    for h in coefficients:
        acc += h * power
        power = shift_matrix @ power
    return acc


class TestEigendecompose:
    def test_two_vertex_laplacian_textbook(self):
        g = Graph(n_vertices=2, edges=((0, 1, 1.0),))
        basis = eigendecompose(build_laplacian(g))
        np.testing.assert_allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(basis.eigenvectors), [[s, s], [s, s]], atol=1e-14)

    def test_identity_matrix(self):
        basis = eigendecompose(ShiftOperator("adjacency", np.eye(3)))
        np.testing.assert_allclose(basis.eigenvalues, np.ones(3))
        np.testing.assert_allclose(
            basis.eigenvectors @ basis.eigenvectors.T, np.eye(3), atol=1e-12
        )

    def test_path3_eigenvalues_by_characteristic_polynomial(self, path3_basis):
        """P3 Laplacian spectrum is {0, 1, 3} (hand computation)."""
        np.testing.assert_allclose(path3_basis.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)

    def test_orthogonality(self, sensor100_basis):
        u = sensor100_basis.eigenvectors
        assert np.abs(u.T @ u - np.eye(100)).max() <= 1e-10

    def test_reconstruction(self, sensor100, sensor100_basis):
        lap = build_laplacian(sensor100).matrix
        b = sensor100_basis
        rebuilt = (b.eigenvectors * b.eigenvalues) @ b.eigenvectors.T
        assert np.abs(rebuilt - lap).max() <= 1e-8 * np.abs(b.eigenvalues).max()

    def test_sign_convention(self, sensor100_basis):
        """The largest-magnitude entry of every column is positive."""
        u = sensor100_basis.eigenvectors
        pivot = np.argmax(np.abs(u), axis=0)
        assert np.all(u[pivot, np.arange(u.shape[1])] > 0)

    def test_deterministic(self, sensor100):
        shift = build_laplacian(sensor100)
        a = eigendecompose(shift)
        b = eigendecompose(shift)
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)

    def test_solver_failure_surfaces(self):
        bad = ShiftOperator("adjacency", np.full((2, 2), np.nan))
        with pytest.raises(ConvergenceFailure):
            eigendecompose(bad)


class TestEigenvaluesOnly:
    def test_eigenvalues_agree_with_eigh(self, sensor100, sensor100_basis):
        basis = eigendecompose(build_laplacian(sensor100), eigenvectors=False)
        lam = sensor100_basis.eigenvalues
        assert np.abs(basis.eigenvalues - lam).max() <= 1e-13 * lam.max()
        assert not basis.eigenvalues.flags.writeable

    def test_solver_failure_surfaces(self, monkeypatch):
        bad = ShiftOperator("adjacency", np.full((2, 2), np.nan))
        with pytest.raises(ConvergenceFailure):
            eigendecompose(bad, eigenvectors=False)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceFailure, match="no convergence"):
            eigendecompose(ShiftOperator("adjacency", np.eye(2)), eigenvectors=False)

    @pytest.mark.parametrize(
        "read",
        [
            lambda b, f: b.eigenvectors,
            lambda b, f: synthesize(f, b, 10, seed=0),
            lambda b, f: synthesize(f, b, 10, seed=0, vertices=(0, 1)),
            lambda b, f: true_covariance(f, b),
            lambda b, f: build_spectral_model(b, SamplingPattern(3, (0, 2))),
            lambda b, f: DesignObjective.spectral(b),
        ],
        ids=["eigenvectors", "synthesize", "synthesize_at_vertices", "true_covariance",
             "build_spectral_model", "spectral_objective"],
    )
    def test_reading_eigenvectors_is_an_invariant_violation(self, path3, read):
        basis = eigendecompose(build_laplacian(path3), eigenvectors=False)
        with pytest.raises(InvariantViolation, match="eigenvalues only"):
            read(basis, GraphFilter([1.0, 0.5]))


class TestOneEigensolver:
    def test_only_eigendecompose_names_an_eigensolver(self):
        """Every eigenvalue of the package comes from ``spectral.eigendecompose``:
        no other code of ``src/graphpsd`` names ``eigh`` or ``eigvalsh``, as an
        attribute, a name or an import."""
        package = pathlib.Path(graphpsd.__file__).resolve().parent
        offenders = []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            allowed = set()
            if path.name == "spectral.py":
                (solver,) = [node for node in tree.body
                             if isinstance(node, ast.FunctionDef) and node.name == "eigendecompose"]
                allowed = {id(node) for node in ast.walk(solver)}
            for node in ast.walk(tree):
                name = (node.attr if isinstance(node, ast.Attribute)
                        else node.id if isinstance(node, ast.Name)
                        else node.name if isinstance(node, ast.alias) else None)
                if name is not None and name.split(".")[-1] in ("eigh", "eigvalsh") \
                        and id(node) not in allowed:
                    offenders.append(f"{path.name}:{node.lineno} names {name}")
        assert not offenders, offenders


class TestVandermonde:
    def test_entries_are_eigenvalue_powers(self):
        v = vandermonde(np.array([2.0, 3.0]), 3)
        np.testing.assert_array_equal(v, [[1, 2, 4], [1, 3, 9]])

    def test_order_validated(self):
        with pytest.raises(InvariantViolation):
            vandermonde(np.array([1.0]), 0)


class TestGraphFilters:
    def test_degree_zero_filter_is_identity(self, path3_basis):
        h = GraphFilter([1.0])
        np.testing.assert_allclose(filter_matrix(h, path3_basis), np.eye(3), atol=1e-12)

    def test_pure_shift(self, path3, path3_basis):
        h = GraphFilter([0.0, 1.0])
        lap = build_laplacian(path3).matrix
        np.testing.assert_allclose(filter_matrix(h, path3_basis), lap, atol=1e-12)

    def test_identity_plus_laplacian(self, path3, path3_basis):
        """h=[1,1] equals I + L, checked against the direct polynomial oracle."""
        h = GraphFilter([1.0, 1.0])
        lap = build_laplacian(path3).matrix
        oracle = polynomial_filter_oracle([1.0, 1.0], lap)
        np.testing.assert_allclose(filter_matrix(h, path3_basis), oracle, atol=1e-12)
        np.testing.assert_allclose(oracle, np.eye(3) + lap)

    def test_random_filters_match_polynomial_oracle(self, sensor100, sensor100_basis):
        lap = build_laplacian(sensor100).matrix
        rng = np.random.default_rng(5)
        for length in (1, 2, 4):
            coeffs = rng.standard_normal(length)
            direct = polynomial_filter_oracle(coeffs, lap)
            viabasis = filter_matrix(GraphFilter(coeffs), sensor100_basis)
            scale = max(np.abs(direct).max(), 1.0)
            assert np.abs(viabasis - direct).max() <= 1e-8 * scale

    def test_filter_commutes_with_shift(self, sensor100, sensor100_basis):
        lap = build_laplacian(sensor100).matrix
        h = filter_matrix(GraphFilter([0.3, -0.2, 0.05]), sensor100_basis)
        scale = np.abs(h @ lap).max()
        assert np.abs(h @ lap - lap @ h).max() <= 1e-8 * scale

    def test_frequency_response_trivial(self, path3_basis):
        np.testing.assert_allclose(
            frequency_response(GraphFilter([1.0]), path3_basis), np.ones(3)
        )
        np.testing.assert_allclose(
            frequency_response(GraphFilter([0.0, 1.0]), path3_basis),
            path3_basis.eigenvalues,
        )

    def test_frequency_response_quadratic(self, path3_basis):
        """h=[1,2,1] evaluates to 1 + 2*lam + lam^2 at each eigenvalue."""
        lam = path3_basis.eigenvalues
        resp = frequency_response(GraphFilter([1.0, 2.0, 1.0]), path3_basis)
        np.testing.assert_allclose(resp, 1.0 + 2.0 * lam + lam * lam, atol=1e-12)

    def test_filter_coefficients_validated(self):
        with pytest.raises(InvariantViolation):
            GraphFilter([])
        with pytest.raises(InvariantViolation):
            GraphFilter([1.0, np.nan])


class TestPowerSpectrumAndCovariance:
    def test_white_noise_spectrum_is_exactly_one(self, sensor100_basis):
        p = true_power_spectrum(GraphFilter([1.0]), sensor100_basis)
        np.testing.assert_array_equal(p, np.ones(100))

    def test_pure_shift_spectrum_is_lambda_squared(self, path3_basis):
        p = true_power_spectrum(GraphFilter([0.0, 1.0]), path3_basis)
        np.testing.assert_allclose(p, path3_basis.eigenvalues**2, atol=1e-12)

    def test_spectrum_matches_rotated_covariance_diagonal(self, sensor100_basis):
        """The spectrum equals diag(U^T H H^T U) for random filters."""
        rng = np.random.default_rng(9)
        for _ in range(5):
            filt = GraphFilter(rng.standard_normal(4))
            p = true_power_spectrum(filt, sensor100_basis)
            h = filter_matrix(filt, sensor100_basis)
            u = sensor100_basis.eigenvectors
            rotated = np.diag(u.T @ (h @ h.T) @ u)
            scale = max(p.max(), 1.0)
            assert np.abs(rotated - p).max() <= 1e-8 * scale

    def test_white_noise_covariance_is_identity(self, path3_basis):
        r = true_covariance(GraphFilter([1.0]), path3_basis)
        np.testing.assert_allclose(r.matrix, np.eye(3), atol=1e-12)
        assert r.n_snapshots == 0

    def test_pure_shift_covariance_is_shift_squared(self, path3, path3_basis):
        lap = build_laplacian(path3).matrix
        r = true_covariance(GraphFilter([0.0, 1.0]), path3_basis)
        np.testing.assert_allclose(r.matrix, lap @ lap, atol=1e-12)

    def test_path3_covariance_oracle(self, path3, path3_basis):
        lap = build_laplacian(path3).matrix
        r = true_covariance(GraphFilter([1.0, 1.0]), path3_basis)
        oracle = (np.eye(3) + lap) @ (np.eye(3) + lap)
        np.testing.assert_allclose(r.matrix, oracle, atol=1e-12)

    def test_covariance_equals_basis_form(self, sensor100_basis, sensor100_filter):
        r = true_covariance(sensor100_filter, sensor100_basis)
        u = sensor100_basis.eigenvectors
        p = true_power_spectrum(sensor100_filter, sensor100_basis)
        viabasis = (u * p) @ u.T
        assert np.abs(r.matrix - viabasis).max() <= 1e-8 * p.max()

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(InvariantViolation):
            CovarianceEstimate(matrix=np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestSynthesize:
    def test_zero_filter_gives_zero_signals(self, path3_basis):
        x = synthesize(GraphFilter([0.0, 0.0]), path3_basis, 5, seed=3)
        np.testing.assert_array_equal(x, np.zeros((3, 5)))

    def test_deterministic_in_seed(self, path3_basis):
        f = GraphFilter([1.0, 0.5])
        a = synthesize(f, path3_basis, 8, seed=42)
        b = synthesize(f, path3_basis, 8, seed=42)
        np.testing.assert_array_equal(a, b)
        c = synthesize(f, path3_basis, 8, seed=43)
        assert np.abs(a - c).max() > 0

    def test_sample_covariance_converges_to_population(
        self, sensor100_basis, sensor100_filter
    ):
        """Frobenius error shrinks as the snapshot count grows 1e2 -> 1e4."""
        r_true = true_covariance(sensor100_filter, sensor100_basis).matrix
        errors = {}
        for n_snapshots in (100, 10000):
            x = synthesize(sensor100_filter, sensor100_basis, n_snapshots, seed=0)
            r_hat = sample_covariance(x).matrix
            errors[n_snapshots] = np.linalg.norm(r_hat - r_true)
        assert errors[10000] < errors[100]

    def test_snapshot_count_validated(self, path3_basis):
        with pytest.raises(InvariantViolation):
            synthesize(GraphFilter([1.0]), path3_basis, 0)

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "the seed must be nonnegative"), (2.5, "the seed must be an integer")],
        ids=["negative", "float"],
    )
    def test_noise_seed_must_be_a_nonnegative_integer(self, seed, message):
        """Not numpy's ValueError or TypeError."""
        with pytest.raises(InvariantViolation, match=message):
            white_noise(4, 5, seed=seed)
        assert white_noise(4, 5, seed=np.int64(7)).tobytes() == white_noise(4, 5, seed=7).tobytes()

    def test_observed_rows_match_the_full_draw(self, sensor100_basis, sensor100_filter):
        """Rows X of a synthesis at X equal rows X of the all-vertex draw to
        rounding (the products run at another shape, so not bitwise), and two
        identical calls are byte-identical."""
        vertices = (71, 3, 40, 99, 0, 56, 12)
        full = synthesize(sensor100_filter, sensor100_basis, 300, seed=5)
        part = synthesize(sensor100_filter, sensor100_basis, 300, seed=5, vertices=vertices)
        assert part.shape == (len(vertices), 300)
        assert np.abs(part - full[list(vertices)]).max() <= 1e-13 * np.abs(full).max()
        again = synthesize(sensor100_filter, sensor100_basis, 300, seed=5, vertices=vertices)
        assert part.tobytes() == again.tobytes()

    def test_vertices_validated(self, path3_basis):
        f = GraphFilter([1.0])
        with pytest.raises(InvariantViolation):
            synthesize(f, path3_basis, 4, vertices=(0, 3))
        with pytest.raises(InvariantViolation):
            synthesize(f, path3_basis, 4, vertices=(-1,))


class TestFilterRows:
    @staticmethod
    def relative_error(rows, reference):
        return np.abs(rows - reference).max() / np.abs(reference).max()

    def test_rows_of_the_filter_matrix(self, sensor100, sensor100_basis, sensor100_filter):
        vertices = (71, 3, 40, 99, 0, 56, 12)
        rows = filter_rows(sensor100_filter, build_laplacian(sensor100), vertices)
        full = filter_matrix(sensor100_filter, sensor100_basis)
        assert rows.shape == (len(vertices), 100)
        assert self.relative_error(rows, full[list(vertices)]) <= 1e-13

    def test_rows_at_n300(self):
        shift = build_laplacian(random_sensor_graph(300, 6, seed=1))
        basis = eigendecompose(shift)
        filt = fit_lowpass_filter(basis)
        vertices = tuple(range(0, 300, 13))
        rows = filter_rows(filt, shift, vertices)
        assert self.relative_error(rows, filter_matrix(filt, basis)[list(vertices)]) <= 1e-13

    def test_random_filters_match_polynomial_oracle(self, sensor100):
        shift = build_laplacian(sensor100)
        rng = np.random.default_rng(3)
        for length in (1, 2, 5):
            h = rng.standard_normal(length)
            oracle = polynomial_filter_oracle(h, shift.matrix)
            rows = filter_rows(GraphFilter(h), shift, (5, 60))
            assert self.relative_error(rows, oracle[[5, 60]]) <= 1e-12

    def test_vertices_validated(self, path3):
        shift = build_laplacian(path3)
        with pytest.raises(InvariantViolation):
            filter_rows(GraphFilter([1.0]), shift, (0, 3))
        with pytest.raises(InvariantViolation):
            filter_rows(GraphFilter([1.0]), shift, (-1,))

    @pytest.mark.parametrize("vertices", [[True], [0, False], [1.0], [0, 2.5]],
                             ids=["bool", "int-and-bool", "float", "fraction"])
    def test_filter_rows_vertices_must_be_integers(self, path3, vertices):
        """A bool is not vertex 0 or 1 and 1.0 is not vertex 1."""
        with pytest.raises(InvariantViolation, match="a vertex must be an integer, got"):
            filter_rows(GraphFilter([1.0, 0.5]), build_laplacian(path3), vertices)

    @pytest.mark.parametrize("vertices", [[True], [0, False], [1.0], [0, 2.5]],
                             ids=["bool", "int-and-bool", "float", "fraction"])
    def test_basis_filter_rows_vertices_must_be_integers(self, path3_basis, vertices):
        with pytest.raises(InvariantViolation, match="a vertex must be an integer, got"):
            basis_filter_rows(GraphFilter([1.0, 0.5]), path3_basis, vertices)

    def test_numpy_integer_vertices_accepted(self, path3, path3_basis):
        filt = GraphFilter([1.0, 0.5])
        shift = build_laplacian(path3)
        for vertices in (np.array([2, 0]), (np.int64(2), np.int32(0))):
            np.testing.assert_array_equal(filter_rows(filt, shift, vertices),
                                          filter_rows(filt, shift, [2, 0]))
            np.testing.assert_array_equal(basis_filter_rows(filt, path3_basis, vertices),
                                          basis_filter_rows(filt, path3_basis, [2, 0]))


class TestSampleCovariance:
    def test_single_snapshot_outer_product(self):
        x = np.array([3.0, 1.0, 4.0])
        r = sample_covariance(x)
        np.testing.assert_allclose(r.matrix, np.outer(x, x))
        assert r.n_snapshots == 1

    def test_scaled_identity_snapshots(self):
        """Columns of sqrt(N_s) I average to the identity covariance."""
        n = 4
        snapshots = np.sqrt(n) * np.eye(n)
        r = sample_covariance(snapshots)
        np.testing.assert_allclose(r.matrix, np.eye(n))

    def test_mean_subtraction_option(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 500)) + 10.0
        centered = sample_covariance(x, subtract_mean=True).matrix
        raw = sample_covariance(x).matrix
        assert np.abs(np.diag(raw)).min() > 50.0
        assert np.abs(np.diag(centered)).max() < 5.0


class TestWishartCovariance:
    """``wishart_covariance`` draws ``T C_hat ~ Wishart(F F^T, T)``."""

    VERTICES = (71, 3, 40, 99, 0, 56)
    SEEDS = range(400)

    @pytest.fixture(scope="class")
    def factor(self, sensor100, sensor100_filter):
        return filter_rows(sensor100_filter, build_laplacian(sensor100), self.VERTICES)

    def draws(self, factor, n_snapshots):
        return np.stack([wishart_covariance(factor, n_snapshots, seed=seed).matrix
                         for seed in self.SEEDS])

    @staticmethod
    def entry_variance(c, n_snapshots):
        """Variance of each entry of a sample covariance: ``(C_ii C_jj + C_ij^2) / T``."""
        d = np.diag(c)
        return (np.outer(d, d) + c * c) / n_snapshots

    def assert_mean(self, draws, c, n_snapshots):
        """The mean of the draws lies within 5 standard errors of ``c``."""
        error = np.sqrt(self.entry_variance(c, n_snapshots) / len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - c) <= 5 * error)

    def test_mean_and_entry_variances(self, factor):
        """K=6, T=50, 400 seeds: the mean is C and each entry's variance is
        ``(C_ii C_jj + C_ij^2) / T``, each within 5 standard errors (that of
        a sample variance from its fourth central moment)."""
        n_snapshots = 50
        c = factor @ factor.T
        draws = self.draws(factor, n_snapshots)
        self.assert_mean(draws, c, n_snapshots)
        centered = draws - draws.mean(axis=0)
        variance = np.mean(centered**2, axis=0)
        error = np.sqrt((np.mean(centered**4, axis=0) - variance**2) / len(draws))
        assert np.all(np.abs(variance - self.entry_variance(c, n_snapshots)) <= 5 * error)

    @pytest.mark.parametrize("n_snapshots", [1, 3])
    def test_fewer_snapshots_than_vertices_give_rank_t(self, factor, n_snapshots):
        c = factor @ factor.T
        draws = self.draws(factor, n_snapshots)
        assert [np.linalg.matrix_rank(d) for d in draws[:20]] == [n_snapshots] * 20
        self.assert_mean(draws, c, n_snapshots)

    def test_snapshot_count_beyond_memory(self, factor):
        """T = 1e11 needs no snapshot array; each draw lies within 5 standard
        errors of C."""
        n_snapshots = 10**11
        c = factor @ factor.T
        error = np.sqrt(self.entry_variance(c, n_snapshots))
        for seed in range(5):
            draw = wishart_covariance(factor, n_snapshots, seed=seed)
            assert draw.n_snapshots == n_snapshots
            assert np.all(np.abs(draw.matrix - c) <= 5 * error)

    def test_singular_covariance_takes_the_qr_factor(self, monkeypatch):
        """On the complete graph of 4 vertices ``L = 4I - J``, so the filter
        ``-4 + S`` is ``-J``: its response is 0 at the three frequencies 4,
        and the covariance at 3 vertices has rank 1.  Its Cholesky factor
        does not exist, so the draw factors by QR, and the mean stays C."""
        complete = Graph(n_vertices=4, edges=tuple((i, j, 1.0) for i in range(4) for j in range(i)))
        factor = filter_rows(GraphFilter([-4.0, 1.0]), build_laplacian(complete), (0, 1, 2))
        c = factor @ factor.T
        np.testing.assert_array_equal(c, np.full((3, 3), 4.0))
        original, calls = np.linalg.qr, []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        draws = self.draws(factor, 20)
        assert len(calls) == len(self.SEEDS)
        assert all(np.linalg.matrix_rank(d) == 1 for d in draws[:20])
        self.assert_mean(draws, c, 20)

    def test_same_seed_same_bytes(self, factor):
        a, b, other = (wishart_covariance(factor, 50, seed=seed).matrix for seed in (7, 7, 8))
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != other.tobytes()
        assert wishart_covariance(factor, np.int64(50), seed=np.int64(7)).matrix.tobytes() == a.tobytes()

    @pytest.mark.parametrize(
        "factor, n_snapshots, seed",
        [([[1.0, np.nan]], 5, 0), ([[np.inf, 0.0]], 5, 0), ([1.0, 2.0], 5, 0),
         ([[1.0, 2.0]], 0, 0), ([[1.0, 2.0]], 2.5, 0), ([[1.0, 2.0]], 5, -1)],
        ids=["nan", "inf", "one-dimensional", "no-snapshots", "float-count", "negative-seed"],
    )
    def test_bad_input_is_an_invariant_violation(self, factor, n_snapshots, seed):
        with pytest.raises(InvariantViolation):
            wishart_covariance(factor, n_snapshots, seed=seed)


class TestStationarity:
    def test_identity_is_stationary(self, sensor100_basis):
        ok, ratio = is_stationary(CovarianceEstimate(np.eye(100)), sensor100_basis)
        assert ok
        assert ratio <= 1e-15  # roundoff of U^T U only

    def test_true_covariance_is_stationary_by_construction(
        self, sensor100_basis, sensor100_filter
    ):
        r = true_covariance(sensor100_filter, sensor100_basis)
        ok, ratio = is_stationary(r, sensor100_basis, tol=1e-16)
        assert ok
        assert ratio <= 1e-16

    def test_sample_covariance_ratio_reported(self, sensor100_basis, sensor100_filter):
        """Finite-sample covariance is only approximately diagonalized."""
        x = synthesize(sensor100_filter, sensor100_basis, 1000, seed=1)
        ok, ratio = is_stationary(sample_covariance(x), sensor100_basis, tol=1e-12)
        assert not ok
        assert 0.0 < ratio < 1.0


class TestLowpassFilter:
    def test_length_and_shape(self, sensor100_basis):
        f = fit_lowpass_filter(sensor100_basis, length=7, rate=3.0)
        assert f.length == 7

    def test_response_tracks_exponential_profile(self, sensor100_basis):
        f = fit_lowpass_filter(sensor100_basis, length=7, rate=3.0)
        lam = sensor100_basis.eigenvalues
        target = np.exp(-3.0 * lam / lam.max())
        resp = frequency_response(f, sensor100_basis)
        assert np.abs(resp - target).max() < 0.01

    def test_spectrum_is_lowpass(self, sensor100_basis):
        f = fit_lowpass_filter(sensor100_basis, length=7, rate=3.0)
        p = true_power_spectrum(f, sensor100_basis)
        assert p[0] > 10 * p[-1]

    def test_scaled_fit_is_the_monomial_fit(self, sensor100_basis):
        """Fitting on lam / lam_max gives the filter that a fit on the
        powers of lam itself gives, in better-conditioned arithmetic."""
        lam = sensor100_basis.eigenvalues
        target = np.exp(-3.0 * lam / lam.max())
        coeffs, *_ = np.linalg.lstsq(vandermonde(lam, 7), target, rcond=None)
        monomial = vandermonde(lam, 7) @ coeffs
        scaled = frequency_response(fit_lowpass_filter(sensor100_basis), sensor100_basis)
        assert np.abs(scaled - monomial).max() <= 1e-10 * np.abs(monomial).max()


class TestMatrixCsv:
    def test_round_trip(self, tmp_path):
        m = np.random.default_rng(1).standard_normal((3, 5))
        path = tmp_path / "m.csv"
        save_matrix_csv(path, m)
        np.testing.assert_array_equal(load_matrix_csv(path), m)

    def test_header_present(self, tmp_path):
        path = tmp_path / "m.csv"
        save_matrix_csv(path, np.eye(2))
        assert path.read_text().startswith("# 2 2\n")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n")
        from graphpsd import ParseError

        with pytest.raises(ParseError):
            load_matrix_csv(path)

    def test_non_numeric_entry_names_its_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# 1 2\n1.0,abc\n")
        from graphpsd import ParseError

        with pytest.raises(ParseError, match="line 2") as info:
            load_matrix_csv(path)
        assert info.value.line_number == 2
