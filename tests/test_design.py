"""Greedy sampler design: objective, gains, baselines, and set-function checks."""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from graphpsd import (
    ConvergenceFailure,
    DesignObjective,
    Graph,
    GreedyTrace,
    InvariantViolation,
    NonFinite,
    SamplingPattern,
    brute_force_design,
    build_laplacian,
    build_shift_operator,
    build_vertex_model,
    check_submodularity,
    cholesky_rank1_update,
    eigendecompose,
    greedy_design,
    greedy_gain,
    objective_value,
    random_design,
    random_sensor_graph,
    white_noise,
)
from graphpsd import design as design_mod
from graphpsd.design import LOGDET_EPS, default_epsilon
from graphpsd.experiments import ExperimentConfig, prepare
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
    m = objective.n_unknowns
    sign, logdet = np.linalg.slogdet(gram + objective.epsilon * np.eye(m))
    assert sign > 0
    return float(logdet - m * math.log(objective.epsilon))


def greedy_by_gain_oracle(objective, k):
    """Greedy over the public rank-one-update gain :func:`greedy_gain`, taking
    the lowest-index maximizer each round: the reference for the orders and
    gains of :func:`greedy_design`.  It scores every candidate."""
    chosen, gains, scored = [], [], []
    for _ in range(k):
        candidates = [s for s in range(objective.n_vertices) if s not in chosen]
        round_gains = [greedy_gain(objective, chosen, s) for s in candidates]
        best = int(np.argmax(round_gains))
        chosen.append(candidates[best])
        gains.append(round_gains[best])
        scored.append(len(candidates))
    return GreedyTrace(
        chosen=tuple(chosen), gains=tuple(gains),
        final_value=objective_value(objective, chosen),
        objective_kind=objective.kind, epsilon=objective.epsilon, scored=tuple(scored),
    )


def spectral_objective(n, seed, epsilon=None):
    g = random_weighted_graph(n, 0.4, seed)
    basis = eigendecompose(build_laplacian(g))
    return DesignObjective.spectral(basis, epsilon=epsilon)


class TestObjectiveValue:
    def test_empty_set_is_exactly_zero(self):
        obj = spectral_objective(5, seed=1)
        assert objective_value(obj, ()) == 0.0

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

    def test_epsilon_must_be_positive(self):
        obj = spectral_objective(4, seed=7)
        with pytest.raises(InvariantViolation):
            DesignObjective(kind=LOGDET_EPS, pair_rows=obj.pair_rows, epsilon=0.0)

    def test_only_the_logdet_kind_is_accepted(self):
        obj = spectral_objective(4, seed=7)
        with pytest.raises(InvariantViolation, match="unknown objective kind 'frame_potential'"):
            DesignObjective(kind="frame_potential", pair_rows=obj.pair_rows)

    def test_overflowing_gram_raises_nonfinite(self):
        """Rows large enough to overflow the Gram matrix surface as an error
        instead of a garbage determinant."""
        from graphpsd import NonFinite

        rows = np.full((3, 3, 2), 1e200)
        obj = DesignObjective(kind=LOGDET_EPS, pair_rows=rows, epsilon=1.0)
        with pytest.raises(NonFinite):
            objective_value(obj, (0, 1))

    def test_default_epsilon_scales_with_rows(self):
        """The spectral objective reads epsilon from its column sums, which
        equals the tensor's mean squared row norm up to rounding."""
        obj = spectral_objective(5, seed=8)
        np.testing.assert_allclose(obj.epsilon, default_epsilon(obj.pair_rows), rtol=1e-12)
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
        _, t_block = greedy_design(obj, 5)
        t_upd = greedy_by_gain_oracle(obj, 5)
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
        t_upd = greedy_by_gain_oracle(obj, k)
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
        """Halved gains rely on rows (i, j) and (j, i) being equal; an explicit
        tensor is checked once, when the objective is built, to 1e-10 of the
        largest entry of each unknown."""
        rows = np.array(spectral_objective(6, seed=29).pair_rows)
        scale = np.abs(rows).max(axis=(0, 1))
        for size in (1e-3, 1e-9):
            rows[1, 4] = rows[4, 1] + size * scale
            with pytest.raises(InvariantViolation, match=r"\(1, 4\) and \(4, 1\) differ"):
                DesignObjective(kind=LOGDET_EPS, pair_rows=rows)
        rows[1, 4] = rows[4, 1] + 1e-11 * scale
        greedy_design(DesignObjective(kind=LOGDET_EPS, pair_rows=rows), 6)

    def test_caller_edits_do_not_reach_the_objective(self):
        """The objective copies an explicit tensor: editing the caller's array
        afterwards changes neither ``pair_rows`` nor a greedy run."""
        rows = np.array(spectral_objective(8, seed=34).pair_rows)
        obj = DesignObjective(kind=LOGDET_EPS, pair_rows=rows)
        kept = obj.pair_rows.copy()
        _, before = greedy_design(obj, 5)
        rows[:] = 0.0
        rows[3, 3] = 1e3
        np.testing.assert_array_equal(obj.pair_rows, kept)
        assert not obj.pair_rows.flags.writeable
        assert greedy_design(obj, 5)[1] == before

    def test_vertex_rows_of_a_nearly_symmetric_shift(self):
        """A dense shift asymmetric by 1e-13, which the shift's own 1e-12
        check accepts, designs and passes the gain check: no round checks
        the symmetry of the vertex rows."""
        lap = np.array(build_laplacian(random_weighted_graph(20, 0.4, seed=35)).matrix)
        lap[2, 7] += 1e-13 * np.abs(lap).max()
        shift = ShiftOperator(LAPLACIAN, lap)
        obj = DesignObjective.vertex(shift, 4, epsilon=1e2)
        _, trace = greedy_design(obj, 8)
        _, checked = greedy_design(obj, 8, validate_gains=True)
        assert checked.chosen == trace.chosen
        assert checked.max_gain_check_error <= 1e-9

    def test_greedy_reads_no_ordered_rows(self, monkeypatch):
        """Greedy scores, commits and checks each candidate through
        ``candidate_rows`` only, with and without the gain check."""

        def forbidden(*args, **kwargs):
            raise AssertionError("rows_for_candidate called by greedy design")

        monkeypatch.setattr(DesignObjective, "rows_for_candidate", forbidden)
        for obj in (spectral_objective(8, seed=36),
                    DesignObjective.vertex(build_laplacian(random_weighted_graph(10, 0.4, 36)), 3),
                    weighted_tensor_objective(n=9)):
            for validate in (False, True):
                greedy_design(obj, 5, validate_gains=validate)
            greedy_gain(obj, [0, 2], 4)

    def test_interchangeable_vertices_lowest_index_first(self):
        rows = np.zeros((7, 7, 2))
        rows[2, 2] = rows[5, 5] = (1.0, 0.5)
        obj = DesignObjective(kind=LOGDET_EPS, pair_rows=rows, epsilon=1.0)
        _, trace = greedy_design(obj, 2)
        assert trace.chosen == (2, 5)

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_candidate_gain_count(self, monkeypatch, k):
        """Round r considers the N - r unselected vertices as candidates:
        K*N - K(K-1)/2 in all.  ``trace.scored`` counts the gains scored,
        which the gain bounds make fewer."""
        counted = []
        original = design_mod._candidate_gains

        def counting(objective, factor, chosen, candidates, bounds=None):
            counted.append(len(candidates))
            return original(objective, factor, chosen, candidates, bounds)

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
        resolves 1e-9.

        The oracle's per-entry loop runs once: ``validate_gains=True``
        applies it to every candidate of every round, and the same gains
        make the oracle's own greedy (lowest-index argmax each round), which
        must choose the block path's vertices with its gains."""
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
        # oracle gains by round (a candidate of round r has r+1 rows), in candidate order
        oracle = [[] for _ in range(k)]
        original_updates = design_mod._gain_by_updates

        def recording_updates(factor, new_rows):
            gain = original_updates(factor, new_rows)
            oracle[len(new_rows) - 1].append(gain)
            return gain

        monkeypatch.setattr(design_mod, "_gain_by_updates", recording_updates)
        _, t_checked = greedy_design(obj, k, validate_gains=True)
        assert t_checked.chosen == t_block.chosen
        assert t_checked.max_gain_check_error <= 1e-9
        for r, (vertex, gain) in enumerate(zip(t_block.chosen, t_block.gains)):
            candidates = [s for s in range(obj.n_vertices) if s not in t_block.chosen[:r]]
            assert len(oracle[r]) == len(candidates)
            best = int(np.argmax(oracle[r]))
            assert candidates[best] == vertex
            np.testing.assert_allclose(gain, oracle[r][best], rtol=1e-7)

    def test_block_gains_use_no_triangular_solve(self, monkeypatch):
        """Each round whitens by GEMM against the inverse factor: inside the
        greedy loop a threaded triangular solve per block took milliseconds."""

        def forbidden(*args, **kwargs):
            raise AssertionError("solve_triangular called in the gain path")

        monkeypatch.setattr(scipy.linalg, "solve_triangular", forbidden)
        obj = spectral_objective(10, seed=32)
        _, trace = greedy_design(obj, 6)
        oracle = greedy_by_gain_oracle(obj, 6)
        assert trace.chosen == oracle.chosen

    @pytest.mark.parametrize("m", [1, 32, 33, 100, 257])
    def test_upper_inverse_matches_dense_inverse(self, m):
        """Into a new array, and in place over ``L^T`` as the estimator's
        Gram path inverts it."""
        rng = np.random.default_rng(m)
        a = rng.standard_normal((m, m))
        lower = np.linalg.cholesky(a @ a.T + m * np.eye(m))
        upper = lower.T.copy()
        inverses = [design_mod._upper_inverse(lower.T)]
        inverses.append(design_mod._upper_inverse(lower.T, out=lower.T))
        assert np.shares_memory(inverses[1], lower)
        for inverse in inverses:
            assert np.array_equal(np.tril(inverse, -1), np.zeros((m, m)))
            np.testing.assert_allclose(inverse @ upper, np.eye(m), atol=1e-12)

    def test_budget_validation(self):
        obj = spectral_objective(5, seed=23)
        with pytest.raises(InvariantViolation):
            greedy_design(obj, 0)
        with pytest.raises(InvariantViolation):
            greedy_design(obj, 6)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: spectral_objective(8, seed=19),
            lambda: spectral_objective(8, seed=19, epsilon=1e-3),
            lambda: DesignObjective.vertex(
                build_laplacian(random_weighted_graph(12, 0.4, seed=26)), 5),
        ],
        ids=["spectral-default", "spectral-given", "vertex-default"],
    )
    def test_trace_records_its_objective(self, make):
        """The trace carries the kind and epsilon of the objective greedy
        maximized, so no caller passes them beside it."""
        obj = make()
        _, trace = greedy_design(obj, 3)
        assert trace.objective_kind == obj.kind == LOGDET_EPS
        assert trace.epsilon == obj.epsilon
        assert type(trace.epsilon) is float


@pytest.mark.parametrize(
    "call",
    [
        lambda: greedy_design(spectral_objective(5, seed=23), 3.0),
        lambda: greedy_design(spectral_objective(5, seed=23), True),
        lambda: random_design(10, 3.0),
        lambda: random_design(10, True),
        lambda: white_noise(3, 2.5),
        lambda: brute_force_design(spectral_objective(5, seed=23), 2.0),
        lambda: DesignObjective.vertex(build_laplacian(random_weighted_graph(6, 0.4, 23)), 3.0),
        lambda: build_vertex_model(
            build_laplacian(random_weighted_graph(6, 0.4, 23)), SamplingPattern(6, (1, 4)), 3.0
        ),
    ],
    ids=["greedy_design", "greedy_design_bool", "random_design", "random_design_bool",
         "white_noise", "brute_force_design",
         "DesignObjective.vertex", "build_vertex_model"],
)
def test_non_integer_count_rejected(call):
    """A float count is a typed error, not a bare TypeError from ``range``,
    ``rng.choice``, ``standard_normal`` or ``math.comb``; a bool, which
    ``operator.index`` reads as 0 or 1, is one too."""
    with pytest.raises(InvariantViolation, match="must be an integer, got"):
        call()


def test_numpy_integer_counts_accepted():
    obj = spectral_objective(6, seed=23)
    assert greedy_design(obj, np.int64(3)) == greedy_design(obj, 3)
    assert random_design(np.int32(10), np.int64(3), seed=1) == random_design(10, 3, seed=1)
    assert np.array_equal(white_noise(np.int64(3), np.int32(4), seed=2), white_noise(3, 4, seed=2))


def weighted_tensor_objective(n=30, m=4, seed=33):
    """Explicit symmetric pair rows whose vertices differ in scale, so gains spread."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, n, m))
    rows = rows + rows.transpose(1, 0, 2)
    weight = rng.uniform(0.2, 3.0, n)
    rows *= weight[:, None, None] * weight[None, :, None]
    return DesignObjective(kind=LOGDET_EPS, pair_rows=rows, epsilon=1.0)


class TestGainBounds:
    """The block path scores only the candidates whose gain bound can win a round."""

    @staticmethod
    def vertex_objective():
        return DesignObjective.vertex(build_laplacian(random_weighted_graph(40, 0.3, seed=31)), 5)

    @staticmethod
    def reference_objective():
        return DesignObjective.spectral(prepare(ExperimentConfig(k=50)).basis)

    @pytest.mark.parametrize(
        "make, k, most_scored",
        [
            (lambda: spectral_objective(60, seed=30), 12, None),
            (vertex_objective, 10, None),
            (weighted_tensor_objective, 8, None),
            # scoring the top-bound candidate alone, then the rest filtered by its gain: 2500
            (reference_objective, 50, 2000),
        ],
        ids=["spectral-n60", "vertex-q5", "tensor", "reference"],
    )
    def test_bounds_hold_and_orders_match_full_scoring(self, monkeypatch, make, k, most_scored):
        """Every round scores all candidates as well: no exact gain exceeds the
        bound carried for it by more than 1e-12 of the round's best gain, and
        the bounded run's order and gains are those of full scoring, bit for
        bit.  The bounded run scores fewer than ``most_scored`` gains, or
        fewer than the candidates it considers."""
        obj = make()
        original = design_mod._candidate_gains
        excess = []

        def checking(objective, factor, chosen, candidates, bounds=None):
            gains, scored = original(objective, factor, chosen, candidates, bounds)
            everything = np.full(len(bounds), np.inf)
            exact, _ = original(objective, factor, chosen, candidates, everything)
            scale = abs(exact.max())
            excess.append(float(np.max(exact - bounds[candidates])) / scale)
            best = int(np.argmax(exact))
            assert int(np.argmax(gains)) == best
            assert gains[best] == exact[best]
            return gains, scored

        monkeypatch.setattr(design_mod, "_candidate_gains", checking)
        _, bounded = greedy_design(obj, k)
        assert len(excess) == k
        assert max(excess) <= 1e-12
        assert sum(bounded.scored) < (most_scored or k * obj.n_vertices - k * (k - 1) // 2)

        def scoring_all(objective, factor, chosen, candidates, bounds=None):
            everything = np.full(len(bounds), np.inf)
            return original(objective, factor, chosen, candidates, everything)

        monkeypatch.setattr(design_mod, "_candidate_gains", scoring_all)
        _, full = greedy_design(obj, k)
        assert bounded.chosen == full.chosen
        assert bounded.gains == full.gains
        assert bounded.final_value == full.final_value

    def test_nonfinite_gain_in_a_later_round(self):
        """An overflowing pair row (4, 2) enters the gains only once 2 is chosen."""
        rows = np.array(weighted_tensor_objective(n=6, m=3).pair_rows)
        rows[2, 2] *= 100.0
        rows[4, 2] = rows[2, 4] = 1e200
        obj = DesignObjective(kind=LOGDET_EPS, pair_rows=rows, epsilon=1.0)
        _, trace = greedy_design(obj, 1)
        assert trace.chosen == (2,)
        with pytest.raises(NonFinite):
            greedy_design(obj, 2)

    def test_scored_counts(self):
        """Fewer exact gains than candidates considered; the oracles score them all."""
        obj = self.vertex_objective()
        n, k = obj.n_vertices, 8
        considered = k * n - k * (k - 1) // 2
        _, trace = greedy_design(obj, k)
        assert len(trace.scored) == k
        assert trace.scored[0] == n
        assert sum(trace.scored) < considered
        _, validated = greedy_design(obj, k, validate_gains=True)
        assert sum(validated.scored) == considered
        updated = greedy_by_gain_oracle(obj, k)
        assert sum(updated.scored) == considered
        assert validated.chosen == updated.chosen == trace.chosen

    @pytest.mark.parametrize(
        "make, k, block_bytes",
        [
            (lambda: spectral_objective(60, seed=30), 12, 8 * 60 * 150),
            (vertex_objective, 10, 8 * 5 * 40),
        ],
        ids=["spectral-n60", "vertex-q5"],
    )
    def test_blocks_grow_from_a_probe(self, monkeypatch, make, k, block_bytes):
        """A round scores its first ``_PROBE_CANDIDATES`` top-bound candidates,
        then blocks twice as large as the one before, up to the candidates of
        ``_BLOCK_BYTES``; only a round's last block may be smaller, as it
        keeps the candidates whose bound reaches the best gain."""
        obj = make()
        monkeypatch.setattr(design_mod, "_BLOCK_BYTES", block_bytes)
        probe = design_mod._PROBE_CANDIDATES
        rounds = [[] for _ in range(k)]
        original = design_mod._gain_by_block

        def recording(whitening, rows):
            rounds[rows.shape[1] - 1].append(rows.shape[0])  # a round-r candidate has r+1 rows
            return original(whitening, rows)

        monkeypatch.setattr(design_mod, "_gain_by_block", recording)
        _, trace = greedy_design(obj, k)
        assert [sum(sizes) for sizes in rounds] == list(trace.scored)
        capped = 0
        for r, sizes in enumerate(rounds):
            cap = max(1, block_bytes // (8 * (r + 1) * obj.n_unknowns))
            planned = [min(probe << j, cap) for j in range(len(sizes))]
            assert sizes[:-1] == planned[:-1]
            assert 1 <= sizes[-1] <= planned[-1]
            capped += any(size == cap < probe << j for j, size in enumerate(sizes[:-1]))
        assert capped  # in some round the cap stops a block from doubling
        assert max(len(sizes) for sizes in rounds[1:]) >= 3


class TestOneGainPath:
    def test_only_the_greedy_scores_gains(self):
        """The greedy keeps one gain path: in ``src/graphpsd`` only
        ``_candidate_gains`` names ``_gain_by_block``, and only
        ``greedy_design`` names ``_candidate_gains``."""
        allowed = {"_gain_by_block": "_candidate_gains", "_candidate_gains": "greedy_design"}
        package = Path(design_mod.__file__).resolve().parent
        offenders = []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            owner = {}
            for top in tree.body:
                owner.update({id(node): getattr(top, "name", "<module>") for node in ast.walk(top)})
            for node in ast.walk(tree):
                named = (node.id if isinstance(node, ast.Name)
                         else node.attr if isinstance(node, ast.Attribute)
                         else node.name if isinstance(node, ast.alias) else None)
                if named in allowed and owner[id(node)] != allowed[named]:
                    offenders.append(f"{path.name}:{node.lineno} {owner[id(node)]} names {named}")
        assert not offenders, offenders


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
        """Every row accessor bit for bit; epsilon, an identity on the column
        sums against the tensor's reduction, to rounding."""
        generated, explicit = self.spectral_pair()
        for (name, got), (_, want) in zip(self.row_methods(generated), self.row_methods(explicit)):
            assert np.array_equal(got, want), name
        np.testing.assert_allclose(generated.epsilon, explicit.epsilon, rtol=1e-12)
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

    def test_vertex_default_epsilon_reads_eigendecompose(self):
        """Without eigenvalues, the vertex objective takes them from the
        package's one eigensolver, bit for bit."""
        shift = build_laplacian(random_weighted_graph(12, 0.4, seed=26))
        lam = eigendecompose(shift, eigenvectors=False).eigenvalues
        assert DesignObjective.vertex(shift, 5).epsilon == DesignObjective.vertex(
            shift, 5, eigenvalues=lam).epsilon

    def test_vertex_default_epsilon_of_a_nonfinite_shift(self):
        """At Q=1 the rows are unit diagonals, finite whatever the shift, so
        the eigensolve for the default epsilon is what meets the NaN."""
        matrix = np.zeros((4, 4))
        matrix[0, 1] = matrix[1, 0] = np.nan
        shift = ShiftOperator(LAPLACIAN, matrix)
        with pytest.raises(ConvergenceFailure, match="non-finite"):
            DesignObjective.vertex(shift, 1)
        assert DesignObjective.vertex(shift, 1, epsilon=1.0).epsilon == 1.0

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


class TestVertexColumns:
    """The vertex objective's column array serves every caller, not only
    greedy: every block it gives equals a fresh ``shift.powers`` of its
    columns, bit for bit."""

    @staticmethod
    def checked_objective(monkeypatch, n=60, q=5):
        shift = build_laplacian(random_sensor_graph(n, 6, seed=7))
        objective = DesignObjective.vertex(shift, q)
        blocks = []
        block = design_mod._VertexRows.block

        def checking(self, rows, cols):
            got = block(self, rows, cols)
            fresh = np.stack(list(shift.powers(list(cols), q)), axis=-1)[list(rows)]
            assert got.shape == fresh.shape
            assert got.tobytes() == fresh.tobytes()
            blocks.append(len(cols))
            return got

        monkeypatch.setattr(design_mod._VertexRows, "block", checking)
        return objective, blocks

    @staticmethod
    def capacity(objective):
        return objective._rows._columns.shape[1]

    def test_sorted_sets(self, monkeypatch):
        objective, blocks = self.checked_objective(monkeypatch)
        rng = np.random.default_rng(0)
        for size in (1, 5, 12, 5):
            value = objective_value(objective, rng.choice(60, size, replace=False))
            assert np.isfinite(value)
        assert blocks == [1, 5, 12, 5]

    def test_arbitrary_sets_of_check_submodularity(self, monkeypatch):
        objective, blocks = self.checked_objective(monkeypatch)
        report = check_submodularity(objective, trials=5, seed=1)
        assert report.normalization_ok
        assert len(blocks) > 10

    def test_repeated_vertices(self, monkeypatch):
        objective, blocks = self.checked_objective(monkeypatch)
        rows = objective._rows
        rows.block([3, 3, 5], [5, 3, 5, 3])
        rows.block([9, 0], [7, 5, 7])
        assert rows._slots == {5: 0, 3: 1, 7: 2}
        objective.candidate_rows([5, 3], [3, 9, 9])
        assert blocks == [4, 3, 2]

    def test_greedy_reserves_its_budget(self, monkeypatch):
        """A K=40 design fills the room it reserved and never grows it."""
        objective, _ = self.checked_objective(monkeypatch)
        _, trace = greedy_design(objective, 40)
        assert self.capacity(objective) == 40
        assert objective._rows._slots == {v: t for t, v in enumerate(trace.chosen)}

    def test_growth_past_the_capacity(self, monkeypatch):
        """After a K=8 design, the vertices 0-39 grow the array to fit them,
        past 32 slots, and all 60 double it; the blocks stay exact across
        the copies."""
        objective, _ = self.checked_objective(monkeypatch)
        greedy_design(objective, 8)
        assert self.capacity(objective) == 8
        assert np.isfinite(objective_value(objective, range(40)))
        fitted = len(objective._rows._slots)
        assert self.capacity(objective) == fitted > 32
        assert np.isfinite(objective_value(objective, range(60)))
        assert self.capacity(objective) == 2 * fitted
        assert len(objective._rows._slots) == 60


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

    @pytest.mark.parametrize("which", [0, 18, 36, 54, 73, 91, 109, -1])
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

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "the seed must be nonnegative"), (2.5, "the seed must be an integer")],
        ids=["negative", "float"],
    )
    def test_seed_must_be_a_nonnegative_integer(self, seed, message):
        """Not numpy's ValueError or TypeError."""
        with pytest.raises(InvariantViolation, match=message):
            random_design(10, 3, seed=seed)


class TestCheckSubmodularity:
    def test_trials_must_be_an_integer(self):
        """Not a bare TypeError from ``range``."""
        obj = spectral_objective(5, seed=40)
        with pytest.raises(InvariantViolation, match="trials must be an integer"):
            check_submodularity(obj, trials=2.5)

    def test_normalization_and_monotonicity_hold(self):
        obj = spectral_objective(7, seed=40)
        report = check_submodularity(obj, trials=200, seed=0)
        assert report.normalization_ok
        assert report.monotonicity_violations == 0

    def test_equal_sets_give_equal_gains(self):
        """``objective_value`` sorts its selection, so the gain of s at X is the
        same float however X is given, and the diminishing-returns gap at
        X = Y is exactly 0.0."""
        obj = spectral_objective(6, seed=41)
        s = 5
        gains = [
            objective_value(obj, x_with_s) - objective_value(obj, x)
            for x, x_with_s in [
                ((1, 4), (1, 4, s)),
                ((4, 1), (4, 1, s)),
                (SamplingPattern(6, (1, 4)), SamplingPattern(6, (1, 4, s))),
            ]
        ]
        for gain in gains:
            assert gain.hex() == gains[0].hex()
            assert gain - gains[0] == 0.0

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
