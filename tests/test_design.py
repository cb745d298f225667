"""Greedy sampler design: objective, gains, baselines, and set-function checks."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from graphpsd import (
    DesignObjective,
    Graph,
    InvariantViolation,
    NonFinite,
    SamplingPattern,
    brute_force_design,
    build_laplacian,
    build_shift_operator,
    check_submodularity,
    cholesky_rank1_update,
    eigendecompose,
    greedy_design,
    greedy_gain,
    objective_value,
    random_design,
    random_sensor_graph,
)
from graphpsd import design as design_mod
from graphpsd.design import FRAME_POTENTIAL, LOGDET_EPS, default_epsilon
from graphpsd.graphs import ADJACENCY, LAPLACIAN, ShiftOperator
from graphpsd.spectral import SpectralBasis

from conftest import random_weighted_graph

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def dense_objective_oracle(objective, selected):
    """From-scratch recomputation using a different factorization path."""
    idx = list(selected)
    if not idx:
        return 0.0
    rows = objective.pair_rows[np.ix_(idx, idx)].reshape(
        len(idx) ** 2, objective.n_unknowns
    )
    gram = rows.T @ rows
    if objective.kind == FRAME_POTENTIAL:
        return float(np.sum(gram * gram))
    m = objective.n_unknowns
    sign, logdet = np.linalg.slogdet(gram + objective.epsilon * np.eye(m))
    assert sign > 0
    return float(logdet - m * math.log(objective.epsilon))


def spectral_objective(n, seed, epsilon=None):
    g = random_weighted_graph(n, 0.4, seed)
    basis = eigendecompose(build_laplacian(g))
    return DesignObjective.spectral(basis, epsilon=epsilon)


class TestObjectiveValue:
    def test_empty_set_is_exactly_zero(self):
        obj = spectral_objective(5, seed=1)
        assert objective_value(obj, ()) == 0.0
        fp = DesignObjective(kind=FRAME_POTENTIAL, pair_rows=obj.pair_rows)
        assert objective_value(fp, ()) == 0.0

    def test_orthonormal_full_set_closed_form(self):
        """Orthonormal model columns give M * log((1+eps)/eps) on the full set."""
        eps = 1e-8
        # pair rows of any orthogonal basis: the full Gram is the identity
        obj = spectral_objective(6, seed=2, epsilon=eps)
        got = objective_value(obj, range(6))
        want = 6 * (np.log1p(eps) - np.log(eps))
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_matches_dense_oracle_on_subsets(self):
        obj = spectral_objective(5, seed=3)
        for subset in [(0, 2), (1, 3, 4), (0, 1, 2, 3, 4), (2,)]:
            got = objective_value(obj, subset)
            want = dense_objective_oracle(obj, subset)
            np.testing.assert_allclose(got, want, rtol=1e-7)

    def test_accepts_patterns_and_iterables(self):
        obj = spectral_objective(5, seed=4)
        pattern = SamplingPattern(5, (1, 3))
        assert objective_value(obj, pattern) == objective_value(obj, (3, 1))

    def test_monotone_on_random_chains(self):
        obj = spectral_objective(7, seed=5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            size = rng.integers(0, 7)
            y = sorted(rng.choice(7, size=size, replace=False).tolist())
            x = [v for v in y if rng.random() < 0.5]
            assert objective_value(obj, x) <= objective_value(obj, y) + 1e-9

    def test_frame_potential_is_squared_frobenius_of_gram(self):
        obj = spectral_objective(5, seed=6)
        fp = DesignObjective(kind=FRAME_POTENTIAL, pair_rows=obj.pair_rows)
        subset = (0, 2, 4)
        gram = obj.gram(subset)
        np.testing.assert_allclose(
            objective_value(fp, subset), np.sum(gram * gram), rtol=1e-12
        )

    def test_epsilon_must_be_positive(self):
        obj = spectral_objective(4, seed=7)
        with pytest.raises(InvariantViolation):
            DesignObjective(kind=LOGDET_EPS, pair_rows=obj.pair_rows, epsilon=0.0)

    def test_overflowing_gram_raises_nonfinite(self):
        """Rows large enough to overflow the Gram matrix surface as an error
        instead of a garbage determinant."""
        from graphpsd import NonFinite

        rows = np.full((3, 3, 2), 1e200)
        obj = DesignObjective(kind=LOGDET_EPS, pair_rows=rows, epsilon=1.0)
        with pytest.raises(NonFinite):
            objective_value(obj, (0, 1))

    def test_default_epsilon_scales_with_rows(self):
        obj = spectral_objective(5, seed=8)
        assert obj.epsilon == default_epsilon(obj.pair_rows)
        scaled = DesignObjective(kind=LOGDET_EPS, pair_rows=obj.pair_rows * 10.0)
        np.testing.assert_allclose(scaled.epsilon, obj.epsilon * 100.0, rtol=1e-12)


class TestCholeskyRank1Update:
    def test_matches_full_refactorization(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 6))
        a = a @ a.T + 6 * np.eye(6)
        v = rng.standard_normal(6)
        factor = np.linalg.cholesky(a)
        increment = cholesky_rank1_update(factor, v)
        np.testing.assert_allclose(
            factor, np.linalg.cholesky(a + np.outer(v, v)), rtol=1e-10, atol=1e-12
        )
        want = np.linalg.slogdet(a + np.outer(v, v))[1] - np.linalg.slogdet(a)[1]
        np.testing.assert_allclose(increment, want, rtol=1e-10)

    def test_accumulated_updates_equal_block_logdet(self):
        rng = np.random.default_rng(12)
        a = np.eye(5) * 0.5
        factor = np.linalg.cholesky(a)
        rows = rng.standard_normal((7, 5))
        total = sum(cholesky_rank1_update(factor, row) for row in rows)
        want = np.linalg.slogdet(a + rows.T @ rows)[1] - np.linalg.slogdet(a)[1]
        np.testing.assert_allclose(total, want, rtol=1e-10)


class TestGreedyGain:
    def test_single_row_closed_form_on_empty_set(self):
        """Adding s to the empty set contributes just the (s, s) row."""
        obj = spectral_objective(6, seed=13)
        eps = obj.epsilon
        m = obj.n_unknowns
        for s in range(6):
            row = obj.pair_rows[s, s]
            want = (
                np.linalg.slogdet(np.outer(row, row) + eps * np.eye(m))[1]
                - m * math.log(eps)
            )
            got = greedy_gain(obj, (), s)
            np.testing.assert_allclose(got, want, rtol=1e-7)

    def test_gain_matches_from_scratch_difference(self):
        obj = spectral_objective(8, seed=14, epsilon=1e-6)
        rng = np.random.default_rng(1)
        for _ in range(20):
            size = int(rng.integers(0, 7))
            selected = sorted(rng.choice(8, size=size, replace=False).tolist())
            candidates = [s for s in range(8) if s not in selected]
            s = int(rng.choice(candidates))
            got = greedy_gain(obj, selected, s)
            want = dense_objective_oracle(obj, selected + [s]) - dense_objective_oracle(
                obj, selected
            )
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-9)

    def test_gain_nonnegative(self):
        obj = spectral_objective(7, seed=15)
        rng = np.random.default_rng(2)
        for _ in range(30):
            size = int(rng.integers(0, 6))
            selected = sorted(rng.choice(7, size=size, replace=False).tolist())
            s = int(rng.choice([v for v in range(7) if v not in selected]))
            assert greedy_gain(obj, selected, s) >= -1e-10

    def test_candidate_already_selected_rejected(self):
        obj = spectral_objective(5, seed=16)
        with pytest.raises(InvariantViolation):
            greedy_gain(obj, (0, 1), 1)


class TestGreedyDesign:
    def test_budget_equal_to_n_selects_everything(self):
        obj = spectral_objective(6, seed=17)
        pattern, trace = greedy_design(obj, 6)
        assert pattern.selected == tuple(range(6))
        assert len(trace.chosen) == 6
        fp = DesignObjective(kind=FRAME_POTENTIAL, pair_rows=obj.pair_rows)
        pattern_fp, _ = greedy_design(fp, 6)
        assert pattern_fp.selected == tuple(range(6))

    def test_k_one_picks_dominant_vertex(self):
        """Scaling one vertex's rows makes it the unique best singleton."""
        obj = spectral_objective(6, seed=18)
        rows = np.array(obj.pair_rows)
        rows[3, :, :] *= 10.0
        rows[:, 3, :] *= 10.0
        boosted = DesignObjective(kind=LOGDET_EPS, pair_rows=rows, epsilon=obj.epsilon)
        singles = [objective_value(boosted, (s,)) for s in range(6)]
        assert int(np.argmax(singles)) == 3  # oracle argmax over singletons
        pattern, _ = greedy_design(boosted, 1)
        assert pattern.selected == (3,)

    def test_deterministic(self):
        obj = spectral_objective(9, seed=19)
        a = greedy_design(obj, 4)
        b = greedy_design(obj, 4)
        assert a[0] == b[0]
        assert a[1].chosen == b[1].chosen

    def test_block_and_update_gain_paths_agree(self):
        obj = spectral_objective(9, seed=20)
        p_block, t_block = greedy_design(obj, 5, gain_method="block")
        p_upd, t_upd = greedy_design(obj, 5, gain_method="updates")
        assert t_block.chosen == t_upd.chosen
        np.testing.assert_allclose(t_block.gains, t_upd.gains, rtol=1e-7)

    def test_gains_nonnegative_and_sum_to_final_value(self):
        obj = spectral_objective(10, seed=21)
        _, trace = greedy_design(obj, 6)
        assert min(trace.gains) >= -1e-10
        np.testing.assert_allclose(
            sum(trace.gains), trace.final_value, rtol=1e-9
        )

    def test_validated_gains_record_error(self):
        obj = spectral_objective(8, seed=22, epsilon=1e-6)
        _, trace = greedy_design(obj, 4, validate_gains=True)
        assert trace.max_gain_check_error is not None
        assert trace.max_gain_check_error <= 1e-8

    def test_validated_gains_cover_the_selecting_gain(self, monkeypatch):
        """A wrong batched gain shows in the recorded check error, even
        though the rank-one-update oracle is right (one round, so the
        from-scratch reference does not inherit the wrong gain)."""
        obj = spectral_objective(7, seed=22, epsilon=1e-6)
        original = design_mod._gain_by_block
        monkeypatch.setattr(
            design_mod, "_gain_by_block", lambda f, rows: original(f, rows) * (1.0 + 1e-3)
        )
        _, trace = greedy_design(obj, 1, validate_gains=True)
        assert trace.max_gain_check_error >= 0.9e-3

    def test_nonfinite_gain_raises_in_its_round(self):
        rows = np.full((3, 3, 2), 1e200)
        obj = DesignObjective(kind=LOGDET_EPS, pair_rows=rows, epsilon=1.0)
        with pytest.raises(NonFinite):
            greedy_design(obj, 2)

    @pytest.mark.parametrize(
        "make, k",
        [
            (lambda: DesignObjective.vertex(
                build_laplacian(random_weighted_graph(12, 0.4, seed=26)), 5), 7),
            (lambda: spectral_objective(8, seed=27), 8),
        ],
        ids=["vertex-q5", "spectral-k-equals-n"],
    )
    def test_batched_gains_match_updates_oracle(self, make, k):
        obj = make()
        _, t_block = greedy_design(obj, k)
        _, t_upd = greedy_design(obj, k, gain_method="updates")
        assert t_block.chosen == t_upd.chosen
        np.testing.assert_allclose(t_block.gains, t_upd.gains, rtol=1e-7)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DesignObjective.vertex(
                build_laplacian(random_weighted_graph(12, 0.4, seed=26)), 5),
            lambda: spectral_objective(8, seed=27),
        ],
        ids=["vertex-q5", "spectral"],
    )
    def test_candidate_rows_carry_the_ordered_gram(self, make):
        """|X|+1 rows, sqrt(2) on the cross rows, give the Gram of the 2|X|+1 ordered rows."""
        obj = make()
        selected = [6, 1, 3]
        for s in (0, 2, 7):
            halved = obj.candidate_rows(selected, [s])
            assert halved.shape == (1, len(selected) + 1, obj.n_unknowns)
            ordered = obj.rows_for_candidate(selected, s)
            np.testing.assert_allclose(
                halved[0].T @ halved[0], ordered.T @ ordered, rtol=1e-13
            )

    def test_asymmetric_pair_rows_rejected(self):
        """Halved gains rely on rows (i, j) and (j, i) being equal; greedy
        checks every pair it selects."""
        rows = np.array(spectral_objective(6, seed=29).pair_rows)
        rows[1, 4] += 1e-3 * np.abs(rows[1, 4]).max()
        obj = DesignObjective(kind=LOGDET_EPS, pair_rows=rows.copy())
        with pytest.raises(InvariantViolation, match=r"\(1, 4\) and \(4, 1\) differ"):
            greedy_design(obj, 6)
        rows[1, 4] = rows[4, 1]
        greedy_design(DesignObjective(kind=LOGDET_EPS, pair_rows=rows), 6)

    def test_interchangeable_vertices_lowest_index_first(self):
        rows = np.zeros((7, 7, 2))
        rows[2, 2] = rows[5, 5] = (1.0, 0.5)
        obj = DesignObjective(kind=LOGDET_EPS, pair_rows=rows, epsilon=1.0)
        _, trace = greedy_design(obj, 2)
        assert trace.chosen == (2, 5)

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_candidate_gain_count(self, monkeypatch, k):
        """Round r scores the N - r unselected vertices: K*N - K(K-1)/2 in all."""
        counted = []
        original = design_mod._candidate_gains

        def counting(objective, factor, chosen, value, candidates, gain_method):
            counted.append(len(candidates))
            return original(objective, factor, chosen, value, candidates, gain_method)

        monkeypatch.setattr(design_mod, "_candidate_gains", counting)
        obj = spectral_objective(9, seed=28)
        greedy_design(obj, k)
        assert sum(counted) == k * 9 - k * (k - 1) // 2

    @pytest.mark.parametrize(
        "make, k, block_bytes",
        [
            (lambda: spectral_objective(60, seed=30, epsilon=1e-6), 12, 8 * 60 * 150),
            (lambda: DesignObjective.vertex(
                build_laplacian(random_weighted_graph(40, 0.3, seed=31)), 5, epsilon=1e3),
             10, 4096),
        ],
        ids=["spectral-n60", "vertex-q5"],
    )
    def test_gains_across_blocks_and_whitening_chunks(self, monkeypatch, make, k, block_bytes):
        """Small block and chunk budgets split each round into several blocks
        and each block into several whitening GEMMs (of m rows, the smallest
        chunk), some ragged; the gains still match the rank-one-update oracle.
        The regularizers are raised (vertex about 500 times its default) so
        that the from-scratch check, a difference of two log-determinants,
        resolves 1e-9."""
        monkeypatch.setattr(design_mod, "_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(design_mod, "_WHITEN_BYTES", 1)
        obj = make()
        m = obj.n_unknowns
        block_rows = []
        original = design_mod._gain_by_block

        def recording(whitening, rows):
            block_rows.append(rows.shape[0] * rows.shape[1])
            return original(whitening, rows)

        monkeypatch.setattr(design_mod, "_gain_by_block", recording)
        _, t_block = greedy_design(obj, k)
        assert len(block_rows) >= 2 * k
        assert max(block_rows) > 2 * m
        assert any(rows % m for rows in block_rows)
        _, t_upd = greedy_design(obj, k, gain_method="updates")
        assert t_block.chosen == t_upd.chosen
        np.testing.assert_allclose(t_block.gains, t_upd.gains, rtol=1e-7)
        _, t_checked = greedy_design(obj, k, validate_gains=True)
        assert t_checked.chosen == t_block.chosen
        assert t_checked.max_gain_check_error <= 1e-9

    def test_block_gains_use_no_triangular_solve(self, monkeypatch):
        """Each round whitens by GEMM against the inverse factor: inside the
        greedy loop a threaded triangular solve per block took milliseconds."""

        def forbidden(*args, **kwargs):
            raise AssertionError("solve_triangular called in the gain path")

        monkeypatch.setattr(scipy.linalg, "solve_triangular", forbidden)
        obj = spectral_objective(10, seed=32)
        _, trace = greedy_design(obj, 6, gain_method="block")
        _, oracle = greedy_design(obj, 6, gain_method="updates")
        assert trace.chosen == oracle.chosen

    @pytest.mark.parametrize("m", [1, 32, 33, 100, 257])
    def test_upper_inverse_matches_dense_inverse(self, m):
        rng = np.random.default_rng(m)
        a = rng.standard_normal((m, m))
        upper = np.linalg.cholesky(a @ a.T + m * np.eye(m)).T
        inverse = design_mod._upper_inverse(upper)
        assert np.array_equal(np.tril(inverse, -1), np.zeros((m, m)))
        np.testing.assert_allclose(inverse @ upper, np.eye(m), atol=1e-12)

    def test_budget_validation(self):
        obj = spectral_objective(5, seed=23)
        with pytest.raises(InvariantViolation):
            greedy_design(obj, 0)
        with pytest.raises(InvariantViolation):
            greedy_design(obj, 6)


class TestGeneratedRows:
    """The spectral and vertex objectives generate the rows an explicit tensor holds."""

    @staticmethod
    def spectral_pair(n=9, seed=50):
        basis = eigendecompose(build_laplacian(random_weighted_graph(n, 0.4, seed)))
        u = basis.eigenvectors
        tensor = u[:, None, :] * u[None, :, :]
        return DesignObjective.spectral(basis), DesignObjective(kind=LOGDET_EPS, pair_rows=tensor)

    @staticmethod
    def vertex_pair(n=12, q=5, seed=51, kind=LAPLACIAN, eigenvalues=False):
        """The vertex objective of a shift and the one over its explicit powers.

        With ``eigenvalues`` the objective is given the shift's eigenvalues,
        as a vertex-domain setting gives them; without, it computes them.
        """
        shift = build_shift_operator(random_weighted_graph(n, 0.4, seed), kind)
        tensor = np.empty((n, n, q))
        power = np.eye(n)
        for i in range(q):
            tensor[:, :, i] = power
            power = shift.matrix @ power
        lam = eigendecompose(shift, eigenvectors=False).eigenvalues if eigenvalues else None
        return (
            DesignObjective.vertex(shift, q, eigenvalues=lam),
            DesignObjective(kind=LOGDET_EPS, pair_rows=tensor),
        )

    @staticmethod
    def row_methods(obj, selected=(6, 1, 3), candidates=(0, 2, 7, 8)):
        yield "candidate_rows", obj.candidate_rows(list(selected), list(candidates))
        yield "candidate_rows, empty set", obj.candidate_rows([], list(candidates))
        for s in candidates:
            yield f"rows_for_candidate {s}", obj.rows_for_candidate(list(selected), s)
        yield "rows_for_set", obj.rows_for_set(list(selected) + [candidates[0]])

    def test_explicit_rows_stay_writeable(self):
        rows = np.ones((3, 3, 2))
        obj = DesignObjective(kind=LOGDET_EPS, pair_rows=rows)
        assert rows.flags.writeable
        assert not obj.pair_rows.flags.writeable
        rows[0, 0] = 5.0  # the caller's array stays theirs to edit

    def test_spectral_rows_match_tensor_bit_for_bit(self):
        generated, explicit = self.spectral_pair()
        for (name, got), (_, want) in zip(self.row_methods(generated), self.row_methods(explicit)):
            assert np.array_equal(got, want), name
        assert generated.epsilon == explicit.epsilon
        assert np.array_equal(generated.pair_rows, explicit.pair_rows)

    def test_vertex_rows_match_tensor(self):
        """Odd and even Q (an even Q ends the half sweep on an odd power),
        a Laplacian and an adjacency shift (whose negative eigenvalues enter
        epsilon), with and without the shift's eigenvalues given."""
        cases = [
            (LAPLACIAN, 5, False),
            (LAPLACIAN, 5, True),
            (LAPLACIAN, 6, True),
            (ADJACENCY, 5, True),
            (ADJACENCY, 6, False),
            (ADJACENCY, 1, True),
        ]
        for kind, q, eigenvalues in cases:
            case = f"{kind}, Q={q}, eigenvalues given: {eigenvalues}"
            generated, explicit = self.vertex_pair(q=q, kind=kind, eigenvalues=eigenvalues)
            scale = np.abs(explicit.pair_rows).max(axis=(0, 1))
            pairs = zip(self.row_methods(generated), self.row_methods(explicit))
            for (name, got), (_, want) in pairs:
                assert got.shape == want.shape, (case, name)
                assert np.all(np.abs(got - want) <= 1e-12 * scale), (case, name)
            np.testing.assert_allclose(
                generated.epsilon, explicit.epsilon, rtol=1e-12, err_msg=case
            )
            assert np.all(np.abs(generated.pair_rows - explicit.pair_rows) <= 1e-12 * scale), case

    def test_vertex_eigenvalues_checked(self):
        shift = build_laplacian(random_weighted_graph(6, 0.5, 52))
        with pytest.raises(InvariantViolation, match="need 6 eigenvalues"):
            DesignObjective.vertex(shift, 3, eigenvalues=np.zeros(5))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DesignObjective.spectral(
                SpectralBasis(np.zeros(3), np.full((3, 3), 1e200))),
            lambda: DesignObjective.vertex(ShiftOperator(LAPLACIAN, np.full((4, 4), 1e200)), 3),
        ],
        ids=["spectral", "vertex"],
    )
    def test_overflowing_rows_rejected(self, make):
        """Rows that are not finite are refused when built, as for a tensor."""
        with pytest.raises(InvariantViolation, match="must be finite"):
            make()

    @pytest.mark.parametrize("pair, k", [("spectral_pair", 9), ("vertex_pair", 7)])
    def test_greedy_order_matches_tensor(self, pair, k):
        generated, explicit = getattr(self, pair)()
        assert greedy_design(generated, k)[1].chosen == greedy_design(explicit, k)[1].chosen


class TestBenchmarkOrders:
    """The greedy orders the benchmark checks every call against."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    def test_reference_order(self, golden):
        shift = build_laplacian(random_sensor_graph(100, 6, seed=1))
        objective = DesignObjective.spectral(eigendecompose(shift))
        _, trace = greedy_design(objective, 50)
        assert list(trace.chosen) == golden["reference"]["chosen"]

    @pytest.mark.parametrize("which", [0, -1])
    def test_vertex_large_order(self, golden, which):
        graph_seed = golden["vertex_large"]["pool"][which]
        shift = build_laplacian(random_sensor_graph(800, 6, seed=graph_seed))
        objective = DesignObjective.vertex(shift, 13)
        _, trace = greedy_design(objective, 20)
        assert list(trace.chosen) == golden["vertex_large"]["chosen"][str(graph_seed)]


class TestBruteForce:
    def test_k_equals_n(self):
        obj = spectral_objective(5, seed=24)
        assert brute_force_design(obj, 5).selected == tuple(range(5))

    def test_k_one_is_argmax_over_singletons(self):
        obj = spectral_objective(6, seed=25)
        singles = [objective_value(obj, (s,)) for s in range(6)]
        best = brute_force_design(obj, 1)
        assert best.selected == (int(np.argmax(singles)),)

    def test_guard_against_huge_enumerations(self):
        rows = np.zeros((60, 60, 2))
        rows[np.arange(60), np.arange(60), 0] = 1.0
        obj = DesignObjective(kind=LOGDET_EPS, pair_rows=rows, epsilon=1.0)
        with pytest.raises(InvariantViolation, match="guard"):
            brute_force_design(obj, 20)

    def test_greedy_achieves_constant_factor_of_optimum(self):
        """Greedy lands within (1 - 1/e) of the exhaustive optimum."""
        bound = 1.0 - 1.0 / math.e
        for seed in range(5):
            obj = spectral_objective(8, seed=30 + seed)
            _, trace = greedy_design(obj, 3)
            best = brute_force_design(obj, 3)
            f_opt = objective_value(obj, best)
            assert trace.final_value >= bound * f_opt - 1e-9


class TestRandomDesign:
    def test_k_equals_n(self):
        assert random_design(5, 5, seed=0).selected == tuple(range(5))

    def test_deterministic_in_seed(self):
        assert random_design(50, 10, seed=3) == random_design(50, 10, seed=3)
        assert random_design(50, 10, seed=3) != random_design(50, 10, seed=4)

    def test_validation(self):
        with pytest.raises(InvariantViolation):
            random_design(5, 0)


class TestCheckSubmodularity:
    def test_normalization_and_monotonicity_hold(self):
        obj = spectral_objective(7, seed=40)
        report = check_submodularity(obj, trials=200, seed=0)
        assert report.normalization_ok
        assert report.monotonicity_violations == 0

    def test_equal_sets_give_equal_gains(self):
        """With X = Y the diminishing-returns inequality is an equality."""
        obj = spectral_objective(6, seed=41)
        for x in [(), (0,), (1, 4)]:
            s = 5
            lhs = objective_value(obj, list(x) + [s]) - objective_value(obj, x)
            rhs = lhs
            assert lhs - rhs == 0.0

    def test_two_vertex_counterexample_detected(self):
        """The pairwise cross rows create increasing returns: the hand-worked
        two-vertex instance violates diminishing returns by about 2 log 2,
        and the checker must report it rather than mask it."""
        g = Graph(n_vertices=2, edges=((0, 1, 1.0),))
        basis = eigendecompose(build_laplacian(g))
        eps = 1e-8
        obj = DesignObjective.spectral(basis, epsilon=eps)
        # frozen closed forms for the three set values
        f_single = np.log((0.5 + eps) / eps)
        f_pair = 2.0 * (np.log1p(eps) - np.log(eps))
        np.testing.assert_allclose(objective_value(obj, (0,)), f_single, rtol=1e-6)
        np.testing.assert_allclose(objective_value(obj, (0, 1)), f_pair, rtol=1e-6)
        expected_violation = (f_pair - f_single) - f_single  # about 2 log 2
        np.testing.assert_allclose(expected_violation, 2.0 * np.log(2.0), rtol=1e-6)
        report = check_submodularity(obj, trials=100, seed=0)
        assert report.diminishing_returns_violations > 0
        np.testing.assert_allclose(report.max_violation, expected_violation, rtol=1e-6)

    def test_exhaustive_two_vertex_chains(self):
        """Full enumeration of n=2 chains matches direct evaluation."""
        g = Graph(n_vertices=2, edges=((0, 1, 1.0),))
        basis = eigendecompose(build_laplacian(g))
        obj = DesignObjective.spectral(basis, epsilon=1e-8)
        worst = 0.0
        for s in (0, 1):
            other = 1 - s
            for x, y in [((), ()), ((), (other,)), ((other,), (other,))]:
                gain_x = objective_value(obj, list(x) + [s]) - objective_value(obj, x)
                gain_y = objective_value(obj, list(y) + [s]) - objective_value(obj, y)
                worst = max(worst, gain_y - gain_x)
        report = check_submodularity(obj, trials=400, seed=1)
        np.testing.assert_allclose(report.max_violation, worst, rtol=1e-6)
