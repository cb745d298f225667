"""Subsampling, the two covariance models, and least-squares recovery."""

import ast
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from graphpsd import (
    CovarianceEstimate,
    CovarianceModelMatrix,
    ExperimentConfig,
    Graph,
    GraphFilter,
    InvalidSupport,
    InvariantViolation,
    NonFinite,
    SPECTRAL,
    SamplingPattern,
    build_laplacian,
    build_shift_operator,
    build_spectral_model,
    build_vertex_model,
    eigendecompose,
    estimate_spectrum_spectral,
    estimate_spectrum_spectral_reduced,
    estimate_spectrum_vertex,
    greedy_design,
    model_rank,
    nonnegative_projection,
    prepare,
    random_sensor_graph,
    required_q,
    sample_covariance,
    subsample,
    subsampled_covariance,
    synthesize,
    true_covariance,
    true_power_spectrum,
    vandermonde,
)
from graphpsd import sampling
from graphpsd.design import DesignObjective

from conftest import star_graph


GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


def vec(matrix):
    """Column-major vectorization, the convention used throughout."""
    return np.asarray(matrix).reshape(-1, order="F")


def dense_svd_rank(matrix):
    """Rank decision on every row of ``matrix``: SVD of the column-equilibrated
    matrix, tolerance ``max(rows, cols) * eps * (largest equilibrated norm)``.
    It has no rule for negligible columns; the cases compared have none.
    Returns ``(u, s, vt, scale, rank, tolerance)``."""
    rows, cols = matrix.shape
    norms = np.linalg.norm(matrix, axis=0)
    scale = np.where(norms > 0.0, norms, 1.0)
    scaled = matrix / scale
    u, s, vt = np.linalg.svd(scaled, full_matrices=False)
    tol = max(rows, cols) * np.finfo(float).eps * np.linalg.norm(scaled, axis=0).max()
    return u, s, vt, scale, int(np.sum(s > tol)), tol


def factor_must_not_run(*args, **kwargs):
    raise AssertionError("a QR or an SVD ran where nothing is to be factored")


def count_calls(monkeypatch, name):
    """Count the calls of ``np.linalg.<name>``; returns the list of the
    shapes of their first arguments."""
    func = getattr(np.linalg, name)
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return func(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return shapes


def dense_spectral_model(basis, pattern):
    """The spectral model of ``pattern`` built from its K^2 x N matrix alone,
    without the basis rows, so the estimator factors its pair rows by QR."""
    matrix = build_spectral_model(basis, pattern).matrix
    return CovarianceModelMatrix(SPECTRAL, pattern=pattern, matrix=matrix)


def dense_svd_solve(matrix, rhs):
    """Minimum-norm least squares on every row of ``matrix``:
    ``(solution, rank, tolerance, residual norm)``."""
    u, s, vt, scale, rank, tol = dense_svd_rank(matrix)
    x = (vt[:rank].T @ ((u[:, :rank].T @ rhs) / s[:rank])) / scale
    return x, rank, tol, np.linalg.norm(matrix @ x - rhs)


class TestSamplingPattern:
    def test_canonical_sorted_order(self):
        p = SamplingPattern(5, (3, 0, 2))
        assert p.selected == (0, 2, 3)
        assert p.k == 3

    def test_duplicates_rejected(self):
        with pytest.raises(InvariantViolation, match="duplicate"):
            SamplingPattern(5, (1, 1))

    def test_empty_rejected(self):
        with pytest.raises(InvariantViolation):
            SamplingPattern(5, ())

    def test_out_of_range_rejected(self):
        with pytest.raises(InvariantViolation):
            SamplingPattern(5, (5,))
        with pytest.raises(InvariantViolation):
            SamplingPattern(5, (-1,))

    def test_non_integer_vertices_rejected(self):
        """Entries and the vertex count are not truncated: (1.5, 2.9) is not
        vertices 1 and 2.  numpy integers are integers."""
        for n, selected in ((5, (1.5, 2.9)), (5, (1, 2.0)), (5.0, (1, 2)), (5, ("1",))):
            with pytest.raises(InvariantViolation, match="must be integers"):
                SamplingPattern(n, selected)
        p = SamplingPattern(np.int64(5), (np.int64(3), np.int32(1)))
        assert p == SamplingPattern(5, (1, 3))
        assert type(p.n_vertices) is int and all(type(i) is int for i in p.selected)

    @pytest.mark.parametrize(
        "n, selected",
        [(True, (0,)), (5, (True, 3)), (5, (np.True_, 3)), (np.int64(5), (0, False))],
        ids=["bool-count", "bool-vertex", "numpy-bool-vertex", "int-and-bool"],
    )
    def test_bools_are_not_counts_or_vertices(self, n, selected):
        """``True`` is not a one-vertex graph or vertex 1."""
        with pytest.raises(InvariantViolation, match="must be integers"):
            SamplingPattern(n, selected)

    def test_mask_round_trip(self):
        p = SamplingPattern(6, (1, 4))
        np.testing.assert_array_equal(p.mask, [0, 1, 0, 0, 1, 0])
        assert SamplingPattern.from_mask(p.mask) == p
        assert SamplingPattern.from_mask([0, 1, 1, 0, 1]) == SamplingPattern(5, (1, 2, 4))
        with pytest.raises(InvariantViolation):
            SamplingPattern.from_mask([False, False, False])
        with pytest.raises(InvariantViolation, match="1-D"):
            SamplingPattern.from_mask([[0, 1, 0], [1, 0, 0]])


class TestSubsample:
    def test_full_pattern_is_identity(self):
        x = np.array([3.0, 1.0, 4.0])
        p = SamplingPattern(3, (0, 1, 2))
        np.testing.assert_array_equal(subsample(x, p), x)

    def test_singleton(self):
        x = np.array([3.0, 1.0, 4.0])
        np.testing.assert_array_equal(subsample(x, SamplingPattern(3, (0,))), [3.0])

    def test_pair(self):
        x = np.array([3.0, 1.0, 4.0])
        np.testing.assert_array_equal(subsample(x, SamplingPattern(3, (0, 2))), [3.0, 4.0])

    def test_matrix_rows(self):
        x = np.arange(12.0).reshape(3, 4)
        got = subsample(x, SamplingPattern(3, (2, 0)))
        np.testing.assert_array_equal(got, x[[0, 2]])

    def test_shape_mismatch(self):
        with pytest.raises(InvariantViolation):
            subsample(np.zeros(4), SamplingPattern(3, (0,)))


class TestSubsampledCovariance:
    def test_full_pattern_returns_same_matrix(self, path3_basis):
        r = true_covariance(GraphFilter([1.0, 0.5]), path3_basis)
        sub = subsampled_covariance(r, SamplingPattern(3, (0, 1, 2)))
        np.testing.assert_array_equal(sub.matrix, r.matrix)

    def test_singleton_diagonal_entry(self, path3_basis):
        r = true_covariance(GraphFilter([1.0, 0.5]), path3_basis)
        sub = subsampled_covariance(r, SamplingPattern(3, (1,)))
        np.testing.assert_array_equal(sub.matrix, [[r.matrix[1, 1]]])

    def test_commutes_with_snapshot_subsampling(self, sensor100_basis, sensor100_filter):
        """Subsampling then estimating equals estimating then subsampling."""
        x = synthesize(sensor100_filter, sensor100_basis, 50, seed=2)
        pattern = SamplingPattern(100, tuple(range(0, 100, 7)))
        a = subsampled_covariance(sample_covariance(x), pattern).matrix
        b = sample_covariance(subsample(x, pattern)).matrix
        assert np.abs(a - b).max() <= 1e-12 * max(np.abs(a).max(), 1.0)


class TestSpectralModel:
    def test_full_pattern_identity_basis_structure(self):
        """With U = I the model places the spectrum on the diagonal of the vec."""
        from graphpsd import ShiftOperator

        basis = eigendecompose(ShiftOperator("adjacency", np.diag([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(basis.eigenvectors, np.eye(3), atol=1e-14)
        model = build_spectral_model(basis, SamplingPattern(3, (0, 1, 2)))
        assert model.matrix.shape == (9, 3)
        p = np.array([5.0, 7.0, 11.0])
        np.testing.assert_allclose(model.matrix @ p, vec(np.diag(p)), atol=1e-12)

    def test_singleton_row_is_squared_eigenvector_entries(self, sensor100_basis):
        i = 17
        model = build_spectral_model(sensor100_basis, SamplingPattern(100, (i,)))
        assert model.matrix.shape == (1, 100)
        np.testing.assert_allclose(
            model.matrix[0], sensor100_basis.eigenvectors[i] ** 2, atol=1e-14
        )

    def test_columns_are_vectorized_eigenvector_outer_products(self, sensor100_basis):
        pattern = SamplingPattern(100, (3, 10, 42, 80))
        model = build_spectral_model(sensor100_basis, pattern)
        u_sub = sensor100_basis.eigenvectors[list(pattern.selected)]
        for n in (0, 13, 99):
            np.testing.assert_allclose(
                model.matrix[:, n], vec(np.outer(u_sub[:, n], u_sub[:, n])), atol=1e-14
            )

    def test_model_times_spectrum_matches_subsampled_covariance(
        self, sensor100_basis, sensor100_filter
    ):
        """Applying the model to the true spectrum gives the true subsampled covariance."""
        p = true_power_spectrum(sensor100_filter, sensor100_basis)
        r = true_covariance(sensor100_filter, sensor100_basis)
        pattern = SamplingPattern(100, tuple(range(0, 100, 9)))
        model = build_spectral_model(sensor100_basis, pattern)
        lhs = model.matrix @ p
        rhs = vec(subsampled_covariance(r, pattern).matrix)
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(np.abs(rhs).max(), 1.0)

    def test_row_count_law(self, sensor100_basis):
        pattern = SamplingPattern(100, tuple(range(12)))
        model = build_spectral_model(sensor100_basis, pattern)
        assert model.matrix.shape[0] == 12 * 12
        rank, rank_ok = model_rank(model)
        assert rank <= min(12 * 12, 100)
        # full column rank needs K^2 >= N
        if rank_ok:
            assert 12 * 12 >= 100


class TestVertexModel:
    def test_column_zero_is_vec_identity(self, sensor100):
        shift = build_laplacian(sensor100)
        pattern = SamplingPattern(100, (2, 30, 60))
        model = build_vertex_model(shift, pattern, 3)
        np.testing.assert_array_equal(model.matrix[:, 0], vec(np.eye(3)))

    def test_column_one_is_subsampled_shift(self, sensor100):
        shift = build_laplacian(sensor100)
        idx = (5, 9, 77)
        model = build_vertex_model(shift, SamplingPattern(100, idx), 2)
        sub = shift.matrix[np.ix_(list(idx), list(idx))]
        np.testing.assert_array_equal(model.matrix[:, 1], vec(sub))

    def test_equals_spectral_model_times_vandermonde(self, sensor100, sensor100_basis):
        """The two model constructions agree through the eigenvalue powers."""
        shift = build_laplacian(sensor100)
        pattern = SamplingPattern(100, tuple(range(0, 100, 11)))
        q = 5
        direct = build_vertex_model(shift, pattern, q).matrix
        viabasis = build_spectral_model(sensor100_basis, pattern).matrix @ vandermonde(
            sensor100_basis.eigenvalues, q
        )
        scale = max(np.abs(direct).max(), 1.0)
        assert np.abs(direct - viabasis).max() <= 1e-8 * scale

    @pytest.mark.parametrize("sampler", ["greedy", "random"])
    def test_equals_the_objective_rows_and_dense_powers(self, sampler):
        """N=200, Q=13: the model's columns, one N x K block per power, equal
        bit for bit the design objective's rows of the same pairs, computed
        a column at a time in the order greedy or a random draw asked for
        them; both match the dense powers ``S^q`` to 1e-12 of the largest
        observed entry of each power."""
        n, q, k = 200, 13, 15
        shift = build_laplacian(random_sensor_graph(n, seed=7))
        objective = DesignObjective.vertex(shift, q)
        if sampler == "greedy":
            pattern, _ = greedy_design(objective, k)
        else:
            drawn = np.random.default_rng(8).choice(n, size=k, replace=False)
            for j in drawn:  # computes column j alone
                objective.rows_for_set([int(j)])
            pattern = SamplingPattern(n, tuple(drawn))
        x = list(pattern.selected)
        model = build_vertex_model(shift, pattern, q).matrix
        # row a * K + b of rows_for_set is the pair (x_a, x_b), row a + b * K of the model
        rows = objective.rows_for_set(x).reshape(k, k, q).transpose(1, 0, 2).reshape(k * k, q)
        np.testing.assert_array_equal(model, rows)
        dense = shift.matrix
        for p in range(q):
            power = np.linalg.matrix_power(dense, p)[np.ix_(x, x)]
            np.testing.assert_allclose(
                model[:, p], vec(power), rtol=0, atol=1e-12 * np.abs(power).max()
            )

    def test_order_validated(self, sensor100):
        shift = build_laplacian(sensor100)
        pattern = SamplingPattern(100, (0, 1))
        with pytest.raises(InvariantViolation):
            build_vertex_model(shift, pattern, 0)
        with pytest.raises(InvariantViolation):
            build_vertex_model(shift, pattern, 101)


class TestSpectralEstimation:
    def test_exact_recovery_from_population_covariance(
        self, sensor100_basis, sensor100_filter
    ):
        """A consistent full-rank system recovers the spectrum to roundoff."""
        p_true = true_power_spectrum(sensor100_filter, sensor100_basis)
        r = true_covariance(sensor100_filter, sensor100_basis)
        obj = DesignObjective.spectral(sensor100_basis)
        pattern, _ = greedy_design(obj, 15)
        model = build_spectral_model(sensor100_basis, pattern)
        est = estimate_spectrum_spectral(subsampled_covariance(r, pattern), model)
        assert est.rank_ok
        assert np.abs(est.p_hat - p_true).max() <= 1e-8 * np.abs(p_true).max()
        assert est.residual_norm <= 1e-10

    def test_white_noise_full_pattern(self, sensor100_basis):
        """R = I with every vertex observed gives the all-ones spectrum."""
        pattern = SamplingPattern(100, tuple(range(100)))
        model = build_spectral_model(sensor100_basis, pattern)
        est = estimate_spectrum_spectral(CovarianceEstimate(np.eye(100)), model)
        assert est.rank_ok
        np.testing.assert_allclose(est.p_hat, np.ones(100), atol=1e-10)

    def test_single_vertex_is_rank_deficient(self, sensor100_basis):
        pattern = SamplingPattern(100, (4,))
        model = build_spectral_model(sensor100_basis, pattern)
        est = estimate_spectrum_spectral(
            CovarianceEstimate(np.eye(1), n_snapshots=1), model
        )
        assert not est.rank_ok
        assert est.rank == 1

    def test_domain_checked(self, sensor100, sensor100_basis):
        shift = build_laplacian(sensor100)
        pattern = SamplingPattern(100, (0, 1, 2, 3))
        vmodel = build_vertex_model(shift, pattern, 3)
        cov = CovarianceEstimate(np.eye(4))
        with pytest.raises(InvariantViolation):
            estimate_spectrum_spectral(cov, vmodel)

    @pytest.mark.parametrize("size", [3, 5])
    @pytest.mark.parametrize("estimator", ["spectral", "reduced", "vertex"])
    def test_covariance_must_be_k_by_k(self, sensor100, sensor100_basis, estimator, size):
        """A K=4 pattern's estimators refuse a covariance that is not 4 x 4."""
        pattern = SamplingPattern(100, (0, 1, 2, 3))
        cov = CovarianceEstimate(np.eye(size))
        with pytest.raises(InvariantViolation, match="expected a 4 x 4 covariance"):
            if estimator == "vertex":
                model = build_vertex_model(build_laplacian(sensor100), pattern, 3)
                estimate_spectrum_vertex(cov, model, sensor100_basis)
            elif estimator == "reduced":
                model = build_spectral_model(sensor100_basis, pattern)
                estimate_spectrum_spectral_reduced(cov, model, range(5))
            else:
                estimate_spectrum_spectral(cov, build_spectral_model(sensor100_basis, pattern))

    def test_pattern_order_does_not_change_estimate(
        self, sensor100_basis, sensor100_filter
    ):
        """Patterns given in any order canonicalize to the same estimate."""
        r = true_covariance(sensor100_filter, sensor100_basis)
        fwd = SamplingPattern(100, (0, 7, 20, 33, 41, 55, 60, 66, 72, 81, 90, 95))
        rev = SamplingPattern(100, tuple(reversed(fwd.selected)))
        m1 = build_spectral_model(sensor100_basis, fwd)
        m2 = build_spectral_model(sensor100_basis, rev)
        e1 = estimate_spectrum_spectral(subsampled_covariance(r, fwd), m1)
        e2 = estimate_spectrum_spectral(subsampled_covariance(r, rev), m2)
        np.testing.assert_array_equal(e1.p_hat, e2.p_hat)


class TestReducedEstimation:
    def test_full_support_equals_plain_least_squares(
        self, sensor100_basis, sensor100_filter
    ):
        r = true_covariance(sensor100_filter, sensor100_basis)
        obj = DesignObjective.spectral(sensor100_basis)
        pattern, _ = greedy_design(obj, 15)
        cov_sub = subsampled_covariance(r, pattern)
        model = build_spectral_model(sensor100_basis, pattern)
        full = estimate_spectrum_spectral(cov_sub, model)
        reduced = estimate_spectrum_spectral_reduced(cov_sub, model, range(100))
        np.testing.assert_allclose(reduced.p_hat, full.p_hat, atol=1e-12)

    def test_known_support_recovery_below_sqrt_n(self, sensor100_basis):
        """With a known small support, K^2 below N still recovers exactly."""
        support = [0, 1, 2, 3, 4, 5]
        p_true = np.zeros(100)
        p_true[support] = [4.0, 3.0, 2.0, 1.5, 1.0, 0.5]
        u = sensor100_basis.eigenvectors
        r = CovarianceEstimate((u * p_true) @ u.T)
        pattern = SamplingPattern(100, (3, 25, 47, 61, 88))  # K=5, K^2=25 < 100
        model = build_spectral_model(sensor100_basis, pattern)
        est = estimate_spectrum_spectral_reduced(
            subsampled_covariance(r, pattern), model, support
        )
        assert est.rank_ok
        assert np.abs(est.p_hat - p_true).max() <= 1e-8 * p_true.max()
        assert np.all(est.p_hat[6:] == 0.0)

    def test_empty_support_rejected(self, sensor100_basis):
        pattern = SamplingPattern(100, (0, 1))
        model = build_spectral_model(sensor100_basis, pattern)
        cov = CovarianceEstimate(np.eye(2))
        with pytest.raises(InvalidSupport):
            estimate_spectrum_spectral_reduced(cov, model, [])

    def test_out_of_range_support_rejected(self, sensor100_basis):
        pattern = SamplingPattern(100, (0, 1))
        model = build_spectral_model(sensor100_basis, pattern)
        cov = CovarianceEstimate(np.eye(2))
        with pytest.raises(InvalidSupport):
            estimate_spectrum_spectral_reduced(cov, model, [100])

    def test_non_integer_support_rejected(self, sensor100_basis):
        pattern = SamplingPattern(100, (0, 1))
        model = build_spectral_model(sensor100_basis, pattern)
        cov = CovarianceEstimate(np.eye(2))
        with pytest.raises(InvalidSupport, match="integers"):
            estimate_spectrum_spectral_reduced(cov, model, [0.5, 1.9, 3])


class TestVertexEstimation:
    def test_exact_recovery_with_polynomial_coefficients_oracle(
        self, sensor100, sensor100_basis, sensor100_filter
    ):
        """Population covariance gives back exactly the filter's squared
        polynomial coefficients (independently computed by convolution)."""
        shift = build_laplacian(sensor100)
        p_true = true_power_spectrum(sensor100_filter, sensor100_basis)
        r = true_covariance(sensor100_filter, sensor100_basis)
        q = required_q(sensor100_filter.length, 100)
        obj = DesignObjective.vertex(shift, q)
        pattern, _ = greedy_design(obj, 10)
        model = build_vertex_model(shift, pattern, q)
        est = estimate_spectrum_vertex(subsampled_covariance(r, pattern), model, sensor100_basis)
        assert est.rank_ok
        alpha_oracle = np.convolve(
            sensor100_filter.coefficients, sensor100_filter.coefficients
        )
        assert np.abs(est.alpha_hat - alpha_oracle).max() <= 1e-6 * np.abs(alpha_oracle).max()
        assert np.abs(est.p_hat - p_true).max() <= 1e-6 * np.abs(p_true).max()

    def test_white_noise_order_one(self, sensor100, sensor100_basis):
        """R = I with Q = 1 gives coefficient exactly one and a flat spectrum."""
        shift = build_laplacian(sensor100)
        pattern = SamplingPattern(100, (1, 13, 55))
        model = build_vertex_model(shift, pattern, 1)
        est = estimate_spectrum_vertex(
            CovarianceEstimate(np.eye(3), n_snapshots=1), model, sensor100_basis
        )
        np.testing.assert_allclose(est.alpha_hat, [1.0], atol=1e-12)
        np.testing.assert_allclose(est.p_hat, np.ones(100), atol=1e-12)

    def test_repeated_eigenvalues_make_model_rank_deficient(self):
        """A star graph's repeated Laplacian eigenvalue defeats Q = N."""
        g = star_graph(6)
        shift = build_laplacian(g)
        basis = eigendecompose(shift)
        # eigenvalue 1 has multiplicity n-2: fewer distinct powers than N
        pattern = SamplingPattern(6, tuple(range(6)))
        model = build_vertex_model(shift, pattern, 6)
        est = estimate_spectrum_vertex(
            subsampled_covariance(true_covariance(GraphFilter([1.0, 1.0]), basis), pattern),
            model,
            basis,
        )
        assert not est.rank_ok

    def test_basis_of_another_size_rejected(self):
        shift = build_laplacian(random_sensor_graph(20, 4, seed=3))
        model = build_vertex_model(shift, SamplingPattern(20, (1, 7, 12)), 3)
        other = eigendecompose(build_laplacian(random_sensor_graph(25, 4, seed=3)))
        with pytest.raises(InvariantViolation, match="25 eigenvalues"):
            estimate_spectrum_vertex(CovarianceEstimate(np.eye(3)), model, other)

    def test_p_hat_is_vandermonde_times_alpha(self, sensor100, sensor100_basis):
        shift = build_laplacian(sensor100)
        pattern = SamplingPattern(100, tuple(range(0, 100, 10)))
        model = build_vertex_model(shift, pattern, 4)
        cov = CovarianceEstimate(np.eye(10) * 2.0, n_snapshots=5)
        est = estimate_spectrum_vertex(cov, model, sensor100_basis)
        np.testing.assert_allclose(
            est.p_hat,
            vandermonde(sensor100_basis.eigenvalues, 4) @ est.alpha_hat,
            atol=1e-12,
        )


class TestRequiredQ:
    def test_reference_filter_length(self):
        assert required_q(7, 100) == 13

    def test_degree_zero(self):
        assert required_q(1, 50) == 1

    def test_capped_by_n(self):
        assert required_q(100, 10) == 10

    def test_validation(self):
        with pytest.raises(InvariantViolation):
            required_q(0, 5)


class TestEstimatorAgreement:
    def test_spectral_and_vertex_estimates_agree(self, sensor100, sensor100_basis, sensor100_filter):
        """Both domains recover the same spectrum on full-rank population data."""
        shift = build_laplacian(sensor100)
        r = true_covariance(sensor100_filter, sensor100_basis)
        p_true = true_power_spectrum(sensor100_filter, sensor100_basis)
        obj = DesignObjective.spectral(sensor100_basis)
        pattern, _ = greedy_design(obj, 15)
        cov_sub = subsampled_covariance(r, pattern)
        s_model = build_spectral_model(sensor100_basis, pattern)
        q = required_q(sensor100_filter.length, 100)
        v_model = build_vertex_model(shift, pattern, q)
        e_s = estimate_spectrum_spectral(cov_sub, s_model)
        e_v = estimate_spectrum_vertex(cov_sub, v_model, sensor100_basis)
        assert e_s.rank_ok and e_v.rank_ok
        scale = np.abs(p_true).max()
        assert np.abs(e_s.p_hat - e_v.p_hat).max() <= 1e-6 * scale


def check_against_dense_svd(est, model_matrix, rhs, p_of=lambda c: c):
    """``est`` has the rank, tolerance, solution and residual norm that a
    dense SVD of every row of ``model_matrix`` gives."""
    x, rank, tol, residual = dense_svd_solve(model_matrix, rhs)
    assert est.rank == rank
    # the largest equilibrated norm is 1 up to the rounding of its sum of squares
    assert est.rank_tolerance == pytest.approx(tol, rel=1e-14)
    p_ref = p_of(x)
    assert np.abs(est.p_hat - p_ref).max() <= 1e-10 * np.abs(p_ref).max()
    assert est.residual_norm == pytest.approx(residual, rel=1e-12)


class TestSolverMatchesDenseSvd:
    """The estimator factors K(K+1)/2 sqrt(2)-weighted pair rows by QR, or
    solves a spectral system from its Gram matrix; it must give what a
    dense SVD of all K^2 rows gives.  The systems are well
    conditioned, so the tolerances test the algebra, not the conditioning."""

    @pytest.fixture(scope="class")
    def case(self, sensor100, sensor100_basis, sensor100_filter):
        pattern, _ = greedy_design(DesignObjective.spectral(sensor100_basis), 15)
        x = synthesize(sensor100_filter, sensor100_basis, 200, seed=3)
        cov_sub = subsampled_covariance(sample_covariance(x), pattern)
        return build_laplacian(sensor100), pattern, cov_sub

    def test_spectral(self, sensor100_basis, case):
        _, pattern, cov_sub = case
        model = build_spectral_model(sensor100_basis, pattern)
        est = estimate_spectrum_spectral(cov_sub, model)
        assert est.residual_norm > 0.0
        check_against_dense_svd(est, model.matrix, vec(cov_sub.matrix))

    def test_reduced(self, sensor100_basis, case):
        _, pattern, cov_sub = case
        model = build_spectral_model(sensor100_basis, pattern)
        support = list(range(0, 100, 3))
        est = estimate_spectrum_spectral_reduced(cov_sub, model, support)

        def zero_filled(coef):
            p = np.zeros(100)
            p[support] = coef
            return p

        check_against_dense_svd(est, model.matrix[:, support], vec(cov_sub.matrix), zero_filled)

    def test_vertex(self, sensor100_basis, case):
        shift, pattern, cov_sub = case
        model = build_vertex_model(shift, pattern, 5)
        est = estimate_spectrum_vertex(cov_sub, model, sensor100_basis)
        check_against_dense_svd(
            est,
            model.matrix,
            vec(cov_sub.matrix),
            lambda alpha: vandermonde(sensor100_basis.eigenvalues, 5) @ alpha,
        )

    @pytest.mark.parametrize("k", range(1, 14))
    def test_model_rank_on_deficient_prefixes(self, sensor100_basis, case, k):
        """K^2 < N up to K = 9; K(K+1)/2 < N up to K = 13."""
        _, pattern, _ = case
        prefix = SamplingPattern(100, pattern.selected[:k])
        model = build_spectral_model(sensor100_basis, prefix)
        rank = dense_svd_rank(model.matrix)[4]
        assert model_rank(model) == (rank, False)
        assert rank <= k * (k + 1) // 2

    @pytest.mark.parametrize("k", [14, 15])
    def test_model_rank_certified_on_full_rank_prefixes(self, sensor100_basis, case, k):
        """From K = 14 the prefixes are full rank, and the SVD of R says so."""
        _, pattern, _ = case
        model = dense_spectral_model(sensor100_basis, SamplingPattern(100, pattern.selected[:k]))
        rank = dense_svd_rank(model.matrix)[4]
        assert model_rank(model) == (rank, True)

    def test_dense_full_rank_solve_matches_dense_svd(self):
        """N=300, K=60 given as its dense matrix: one QR of the 1,830 pair
        rows and the SVD of the 300 x 300 R give the full rank and the
        least-squares solution that the dense SVD of all 3,600 rows gives."""
        basis = eigendecompose(build_laplacian(random_sensor_graph(300, 6, seed=1)))
        pattern = SamplingPattern(300, tuple(range(0, 300, 5)))
        model = dense_spectral_model(basis, pattern)
        x = synthesize(GraphFilter([1.0, 0.5]), basis, 200, seed=3)
        cov_sub = subsampled_covariance(sample_covariance(x), pattern)
        est = estimate_spectrum_spectral(cov_sub, model)
        assert est.rank_ok
        check_against_dense_svd(est, model.matrix, vec(cov_sub.matrix))

    @pytest.mark.parametrize("system", ["vertex", "dense_spectral"])
    def test_qr_path_factors_once(self, monkeypatch, sensor100_basis, case, system):
        """An estimate, and a rank, off the Gram path make one QR of the
        K(K+1)/2 pair rows with the right-hand side column, and one SVD
        of the small R."""
        shift, pattern, cov_sub = case
        if system == "vertex":
            model = build_vertex_model(shift, pattern, 5)
        else:
            model = dense_spectral_model(sensor100_basis, pattern)
        rows, cols = pattern.k * (pattern.k + 1) // 2, model.n_unknowns
        qr_shapes = count_calls(monkeypatch, "qr")
        svd_shapes = count_calls(monkeypatch, "svd")
        sampling._solve_least_squares(model, cov_sub.matrix)
        assert qr_shapes == [(rows, cols + 1)]
        assert svd_shapes == [(min(rows, cols), cols)]
        assert model_rank(model)[1]
        assert len(qr_shapes) == len(svd_shapes) == 2

    def test_bound_inside_the_margin_takes_the_svd(self, monkeypatch):
        """A smallest equilibrated singular value between tol and cols * tol
        is above the rank rule's tolerance: the SVD of R, one per call,
        counts it and gives the dense SVD's rank."""
        k, cols = 8, 20
        rng = np.random.default_rng(5)

        def symmetric_column():
            a = rng.standard_normal((k, k))
            return vec(a + a.T)

        base = np.column_stack([symmetric_column() for _ in range(cols - 1)])
        direction = base.mean(axis=1)
        noise = symmetric_column()

        def model_with(delta):
            matrix = np.column_stack([base, direction + delta * noise])
            return CovarianceModelMatrix(
                domain=SPECTRAL, matrix=matrix, pattern=SamplingPattern(k, tuple(range(k)))
            )

        _, s, _, _, _, tol = dense_svd_rank(model_with(1e-6).matrix)
        # sigma_min grows linearly in delta; aim at the geometric middle of the window
        model = model_with(1e-6 * tol * np.sqrt(cols) / s[-1])
        _, s, _, _, rank, tol = dense_svd_rank(model.matrix)
        assert tol < s[-1] < cols * tol
        assert rank == cols
        svd = np.linalg.svd
        calls = []

        def counted_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        assert model_rank(model) == (rank, True)
        assert len(calls) == 1
        _, solved_rank, _, _ = sampling._solve_least_squares(model, np.zeros((k, k)))
        assert solved_rank == rank
        assert len(calls) == 2


class TestSolverMemory:
    def test_estimate_peaks_below_twice_the_model(self):
        """The K(K+1)/2 solve rows are gathered without a scaled copy of the
        model and factored in place, and U of the K^2 x N system is never
        formed (a dense SVD of the whole model peaks at about 3x its bytes)."""
        basis = eigendecompose(build_laplacian(random_sensor_graph(300, 6, seed=1)))
        pattern = SamplingPattern(300, tuple(range(0, 300, 5)))
        model = dense_spectral_model(basis, pattern)
        cov_sub = subsampled_covariance(
            true_covariance(GraphFilter([1.0, 0.5]), basis), pattern
        )
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            est = estimate_spectrum_spectral(cov_sub, model)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert est.rank_ok
        assert peak < 2 * model.matrix.nbytes


class TestGramPath:
    """A spectral model that carries ``U_X`` is solved from its Gram matrix
    ``(U_X^T U_X)**2`` by Cholesky and one corrected semi-normal step: no
    QR, no SVD, and the K^2 x N model is never formed."""

    @pytest.mark.parametrize("system", ["reference", "n300_k60"])
    def test_matches_dense_svd_without_qr_or_svd(
        self, monkeypatch, system, sensor100_basis, sensor100_filter
    ):
        """The reference system (N=100, greedy K=50, 1000 snapshots) and
        N=300, K=60 on sample covariances."""
        if system == "reference":
            basis, filt, snapshots = sensor100_basis, sensor100_filter, 1000
            pattern, _ = greedy_design(DesignObjective.spectral(basis), 50)
        else:
            basis = eigendecompose(build_laplacian(random_sensor_graph(300, 6, seed=1)))
            filt, snapshots = GraphFilter([1.0, 0.5]), 200
            pattern = SamplingPattern(300, tuple(range(0, 300, 5)))
        model = build_spectral_model(basis, pattern)
        cov_sub = subsampled_covariance(
            sample_covariance(synthesize(filt, basis, snapshots, seed=4)), pattern
        )
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "qr", factor_must_not_run)
            patch.setattr(np.linalg, "svd", factor_must_not_run)
            est = estimate_spectrum_spectral(cov_sub, model)
            assert model_rank(model) == (basis.n, True)
        assert "matrix" not in vars(model), "the K^2 x N model was built"
        assert est.rank_ok and est.residual_norm > 0.0
        check_against_dense_svd(est, model.matrix, vec(cov_sub.matrix))

    def test_bound_inside_the_margin_takes_qr(self, monkeypatch):
        """Two nearly equal eigenvector columns make the equilibrated model's
        sigma_min about 1e-8: far above the rank tolerance, so the system has
        full rank, but below the Gram margin 2 max(K, N) sqrt(u).  Cholesky
        succeeds, the bound does not certify, and the QR path gives the
        answer that a model built from the dense matrix gets."""
        k, cols = 8, 20
        rng = np.random.default_rng(7)
        u_x = rng.standard_normal((k, cols))
        u_x[:, -1] = u_x[:, -2] + 1e-8 * rng.standard_normal(k)
        pattern = SamplingPattern(k, tuple(range(k)))
        model = CovarianceModelMatrix(SPECTRAL, pattern=pattern, basis_rows=u_x)
        dense = CovarianceModelMatrix(SPECTRAL, pattern=pattern, matrix=model.matrix)
        _, s, _, _, rank, tol = dense_svd_rank(dense.matrix)
        margin = 2 * max(k, cols) * np.sqrt(np.finfo(float).eps / 2)
        assert cols * tol < s[-1] < margin / 10
        assert rank == cols
        cov = rng.standard_normal((k, k))
        cov = CovarianceEstimate(cov + cov.T)
        expected = estimate_spectrum_spectral(cov, dense)

        cholesky = np.linalg.cholesky
        factored = []

        def counted_cholesky(a, *args, **kwargs):
            lower = cholesky(a, *args, **kwargs)
            factored.append(a.shape)
            return lower

        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        qr_shapes = count_calls(monkeypatch, "qr")
        est = estimate_spectrum_spectral(cov, model)
        assert factored == [(cols, cols)]
        assert qr_shapes == [(k * (k + 1) // 2, cols + 1)], "the QR path must factor the pair rows"
        assert est.rank == expected.rank == cols and est.rank_ok
        np.testing.assert_array_equal(est.p_hat, expected.p_hat)
        assert est.rank_tolerance == expected.rank_tolerance
        assert est.residual_norm == expected.residual_norm

    def test_model_factors_once(self, monkeypatch, sensor100_basis):
        """A model forms its Gram factor on first read and keeps it: a rank
        query and two estimates share one factorization."""
        pattern = SamplingPattern(100, tuple(range(0, 100, 5)))
        model = build_spectral_model(sensor100_basis, pattern)
        factor = sampling._gram_factor
        calls = []

        def counted(m):
            calls.append(1)
            return factor(m)

        monkeypatch.setattr(sampling, "_gram_factor", counted)
        assert model_rank(model) == (100, True)
        cov = CovarianceEstimate(np.eye(pattern.k))
        first = estimate_spectrum_spectral(cov, model)
        again = estimate_spectrum_spectral(cov, model)
        assert len(calls) == 1
        np.testing.assert_array_equal(first.p_hat, again.p_hat)

    def test_only_the_model_forms_its_gram_factor(self):
        """``_gram_factor`` is called only by ``CovarianceModelMatrix.gram_factor``,
        and no module but ``sampling.py`` names it."""
        package = pathlib.Path(sampling.__file__).resolve().parent
        offenders = []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if path.name == "sampling.py":
                owner = next(
                    node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "gram_factor"
                )
                allowed = {id(node) for node in ast.walk(owner)}
            else:
                allowed = set()
            for node in ast.walk(tree):
                named = (isinstance(node, ast.Name) and node.id == "_gram_factor") or (
                    isinstance(node, ast.Attribute) and node.attr == "_gram_factor"
                )
                if named and id(node) not in allowed:
                    offenders.append(f"{path.name}:{node.lineno}")
        assert not offenders, offenders

    def test_nan_covariance(self, monkeypatch, sensor100_basis):
        pattern = SamplingPattern(100, tuple(range(0, 100, 5)))
        model = build_spectral_model(sensor100_basis, pattern)
        cov = np.eye(pattern.k)
        cov[18, 19] = cov[19, 18] = np.nan
        monkeypatch.setattr(np.linalg, "qr", factor_must_not_run)
        with pytest.raises(NonFinite, match="covariance"):
            estimate_spectrum_spectral(CovarianceEstimate(cov), model)

    def test_non_finite_basis_rows(self, sensor100_basis):
        pattern = SamplingPattern(100, tuple(range(0, 100, 5)))
        u_x = sensor100_basis.eigenvectors[list(pattern.selected)]
        u_x[3, 40] = np.inf
        model = CovarianceModelMatrix(SPECTRAL, pattern=pattern, basis_rows=u_x)
        with pytest.raises(NonFinite, match="model"):
            estimate_spectrum_spectral(CovarianceEstimate(np.eye(pattern.k)), model)
        with pytest.raises(NonFinite, match="model"):
            model_rank(model)

    @staticmethod
    def first_estimate_large_system():
        """The setting, pattern and covariance of the first ``estimate_large`` call."""
        seed = json.loads(GOLDEN.read_text())["estimate_large"]["pool"][0]
        setting = prepare(
            ExperimentConfig.from_dict(
                {"graph": {"n": 600, "k_neighbors": 6, "seed": seed}, "domain": "spectral",
                 "k": 100, "sampler": "random", "seed": seed}
            )
        )
        pattern, _ = setting.design()
        return setting, pattern, setting.covariances(seed, [pattern])[0]

    def test_model_and_estimate_peak_below_half_the_khatri_rao_model(self):
        """N=600, K=100 (the first ``estimate_large`` graph): the K^2 x N
        model would take 48 MB; building the model and estimating from it
        stays below half of that."""
        setting, pattern, cov_sub = self.first_estimate_large_system()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = setting.model(pattern)
            est = estimate_spectrum_spectral(cov_sub, model)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert est.rank_ok
        assert "matrix" not in vars(model)
        assert peak < 0.5 * 100 * 100 * 600 * 8

    def test_estimate_peak_below_three_n_by_n_arrays(self):
        """The same system: the Gram path holds the N x N Gram matrix and its
        Cholesky factor, drops the first once the second exists and inverts
        the factor in place, so the estimate's peak stays below three N x N
        arrays (about 2.00 measured; 4.00 with all kept)."""
        setting, pattern, cov_sub = self.first_estimate_large_system()
        model = setting.model(pattern)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            est = estimate_spectrum_spectral(cov_sub, model)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert est.rank_ok
        assert peak < 3 * 600 * 600 * 8

    def test_gram_factor_inverts_in_place(self):
        """The same system: ``L^-T`` overwrites ``L^T``, so the factor's peak
        is the Gram matrix and ``L`` during the Cholesky, two N x N arrays
        (2.25 while ``L^-T`` had an array of its own)."""
        setting, pattern, _ = self.first_estimate_large_system()
        model = setting.model(pattern)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            inverse, _, _ = model.gram_factor
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert inverse.shape == (600, 600)
        assert peak < 2.1 * 600 * 600 * 8


class TestNegligibleColumns:
    def test_unobserved_localized_eigenvector_is_rank_deficient(self):
        """A vertex tied to a path by a 1e-9 edge carries an adjacency
        eigenvector that is ~1e-9 elsewhere.  Unsampled, its model column has
        norm ~1e-18: equilibrating it to unit norm would count it toward the
        rank (recovery error ~40 with ``rank_ok=True``)."""
        g = Graph(n_vertices=7, edges=tuple((i, i + 1, 1.0) for i in range(5)) + ((5, 6, 1e-9),))
        basis = eigendecompose(build_shift_operator(g, "adjacency"))
        pattern = SamplingPattern(7, tuple(range(6)))
        model = build_spectral_model(basis, pattern)
        assert np.linalg.norm(model.matrix, axis=0).min() < 1e-16
        assert model_rank(model) == (6, False)
        cov_sub = subsampled_covariance(true_covariance(GraphFilter([1.0, 0.5]), basis), pattern)
        est = estimate_spectrum_spectral(cov_sub, model)
        assert not est.rank_ok
        assert est.rank == 6
        assert np.count_nonzero(est.p_hat == 0.0) == 1


class TestVertexColumnScale:
    @pytest.mark.parametrize("c", [1.0, 1e8])
    def test_scaling_the_shift_keeps_rank_and_recovery(self, c):
        """Column q of a vertex model scales as c**q when the shift is
        scaled by c, so at c = 1e8 the identity column is ~1e-16 of the
        S^2 column.  It is still a full column: the rank and the recovered
        coefficients must not depend on c."""
        shift = build_laplacian(Graph(n_vertices=3, edges=((0, 1, c), (1, 2, c))))
        model = build_vertex_model(shift, SamplingPattern(3, (0, 1, 2)), 3)
        assert model_rank(model) == (3, True)
        alpha = np.array([1.0, 0.5, 0.25]) / c ** np.arange(3)
        cov = sum(a * np.linalg.matrix_power(shift.matrix, q) for q, a in enumerate(alpha))
        est = estimate_spectrum_vertex(CovarianceEstimate(cov), model, eigendecompose(shift))
        assert est.rank_ok and est.rank == 3
        np.testing.assert_allclose(est.alpha_hat, alpha, rtol=1e-10)


class TestNonFiniteSystems:
    def test_non_finite_covariance(self, sensor100_basis):
        pattern = SamplingPattern(100, tuple(range(0, 100, 7)))
        model = build_spectral_model(sensor100_basis, pattern)
        cov = np.eye(pattern.k)
        cov[2, 2] = np.nan
        with pytest.raises(NonFinite, match="covariance"):
            estimate_spectrum_spectral(CovarianceEstimate(cov), model)

    def test_overflowing_vertex_model(self):
        """Powers of a Laplacian with weight 1e200 overflow from S^2 on."""
        shift = build_laplacian(Graph(n_vertices=3, edges=((0, 1, 1e200), (1, 2, 1.0))))
        with np.errstate(over="ignore"):
            model = build_vertex_model(shift, SamplingPattern(3, (0, 1, 2)), 3)
            with pytest.raises(NonFinite, match="model"):
                model_rank(model)

    def test_overflowing_model_checked_before_nan_covariance(self, monkeypatch):
        """A path whose last edge weighs 1e200: S^2 overflows only in the
        rows of the last two vertices.  The model is checked before the
        right-hand sides, so a NaN covariance entry does not mask the
        overflow, and nothing is factored."""
        edges = tuple((i, i + 1, 1.0) for i in range(8)) + ((8, 9, 1e200),)
        shift = build_laplacian(Graph(n_vertices=10, edges=edges))
        with np.errstate(over="ignore"):
            model = build_vertex_model(shift, SamplingPattern(10, tuple(range(10))), 3)
        assert not np.all(np.isfinite(model.matrix))
        cov = np.eye(10)
        cov[9, 9] = np.nan
        monkeypatch.setattr(np.linalg, "qr", factor_must_not_run)
        with pytest.raises(NonFinite, match="model"):
            sampling._solve_least_squares(model, cov)

    def test_nan_covariance_of_a_dense_model(self, sensor100_basis):
        """K=20 given as its dense matrix, so the pair rows take the QR
        path: the pair (18, 19) is among the last of the 210 solve rows."""
        pattern = SamplingPattern(100, tuple(range(0, 100, 5)))
        model = dense_spectral_model(sensor100_basis, pattern)
        cov = np.eye(pattern.k)
        cov[18, 19] = cov[19, 18] = np.nan
        with pytest.raises(NonFinite, match="covariance"):
            estimate_spectrum_spectral(CovarianceEstimate(cov), model)


class TestBenchmarkPoolRecovery:
    @pytest.mark.parametrize("graph_seed", ["first", 2102, 2024, 2115])
    def test_population_re_estimate(self, graph_seed):
        """The benchmark's ``estimate_large`` check: spectral, N=600, a random
        K=100 pattern; the population covariance recovers the spectrum to
        1e-8 relative.  Graph 2024 is the pool's worst case for the solve
        through the Gram matrix, graph 2102 for the solve through the SVD
        of R, and graph 2115 has the pool's smallest Gram bound, about
        twice the margin."""
        pool = json.loads(GOLDEN.read_text())["estimate_large"]["pool"]
        seed = pool[0] if graph_seed == "first" else graph_seed
        assert seed in pool
        setting = prepare(
            ExperimentConfig.from_dict(
                {
                    "graph": {"n": 600, "k_neighbors": 6, "seed": seed},
                    "domain": "spectral",
                    "k": 100,
                    "sampler": "random",
                    "seed": seed,
                }
            )
        )
        pattern, _ = setting.design()
        cov = true_covariance(setting.filter, setting.basis)
        est = estimate_spectrum_spectral(
            subsampled_covariance(cov, pattern), setting.model(pattern)
        )
        assert est.rank_ok
        p_true = setting.p_true
        assert np.abs(est.p_hat - p_true).max() <= 1e-8 * np.abs(p_true).max()

    @pytest.mark.parametrize("graph_seed", ["first", 1095])
    def test_vertex_population_re_estimate(self, graph_seed):
        """The benchmark's ``vertex_large`` check: vertex domain, N=800,
        Q=13, on the K=20 greedy pattern that ``golden.json`` records for
        the graph; the population covariance recovers the spectrum to 1e-6
        relative.  Its solve is one QR of the 210 pair rows and the SVD of
        the 13 x 13 R.  Graph 1095 is the pool's worst case (about 2.5e-13)."""
        golden = json.loads(GOLDEN.read_text())["vertex_large"]
        seed = golden["pool"][0] if graph_seed == "first" else graph_seed
        assert seed in golden["pool"]
        setting = prepare(
            ExperimentConfig.from_dict(
                {
                    "graph": {"n": 800, "k_neighbors": 6, "seed": seed},
                    "domain": "vertex",
                    "k": 20,
                    "q": 13,
                    "use_population_covariance": True,
                    "seed": seed,
                }
            )
        )
        pattern = SamplingPattern(800, tuple(golden["chosen"][str(seed)]))
        est, _ = setting.estimate(setting.covariances(seed, [pattern])[0], setting.model(pattern))
        assert est.rank_ok
        p_true = setting.p_true
        assert np.abs(est.p_hat - p_true).max() <= 1e-6 * np.abs(p_true).max()


class TestNonnegativeProjection:
    def test_clamps_negative_entries(self):
        p = np.array([0.5, -1e-3, 2.0, -0.2])
        np.testing.assert_array_equal(nonnegative_projection(p), [0.5, 0.0, 2.0, 0.0])
