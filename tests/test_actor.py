"""Tests for candidate scoring, the softmax policy, and policy gradients.

Gradients are verified against central finite differences computed through
an independent loss evaluation that re-embeds candidates from the perturbed
table, so every parameter path is exercised end to end.
"""

import numpy as np
import pytest

from qforage import qrep
from qforage.actor import (
    ActorParams,
    act,
    actor_forward,
    actor_gradients,
    descend,
    first_argmax,
    policy_probabilities,
    select_action,
)
from qforage.errors import (
    IndexOutOfRange,
    NoCandidates,
    NonFiniteScore,
    ShapeMismatch,
)

VOCAB = ("w0", "w1", "w2", "w3")


def make_params(rng, basis_dim=3, order=2, rank=2, temperature=1.0):
    table = qrep.AmplitudeTable.from_vocab(VOCAB, basis_dim, rng)
    global_rep = qrep.GlobalRepresentation.from_random(order, basis_dim, rank, rng)
    return ActorParams(table=table, global_rep=global_rep, temperature=temperature)


def make_candidates(table, order, token_lists):
    return [qrep.embed_query(tokens, table, order) for tokens in token_lists]


def rows_of(candidates):
    """The (C, n, k) amplitude rows act scores."""
    return np.stack([q.rows for q in candidates])


def ids_of(candidates):
    """The (C, n) table rows actor_gradients takes."""
    return np.stack([q.word_ids for q in candidates])


def dense_table(params, table_ids, table_rows):
    """The (V, k) view of actor_gradients' table rows: zero on every other row."""
    dense = np.zeros_like(params.table.amplitudes)
    dense[table_ids] = table_rows
    return dense


class TestActorForward:
    def test_scores_equal_projection(self):
        rng = np.random.default_rng(3)
        params = make_params(rng)
        candidates = make_candidates(params.table, 2, [["w0", "w1"], ["w2"], ["w3", "w0"]])
        scores, _, _ = actor_forward(params, candidates)
        for score, q in zip(scores, candidates):
            assert score == qrep.project(params.global_rep, q)

    def test_identical_candidates_identical_scores(self):
        rng = np.random.default_rng(5)
        params = make_params(rng)
        candidates = make_candidates(params.table, 2, [["w0", "w1"], ["w0", "w1"]])
        scores, pooled, _ = actor_forward(params, candidates)
        assert scores[0] == scores[1]
        np.testing.assert_array_equal(pooled[0], pooled[1])

    def test_pooled_shape(self):
        rng = np.random.default_rng(7)
        params = make_params(rng, rank=4)
        candidates = make_candidates(params.table, 2, [["w0"], ["w1"], ["w2"]])
        _, pooled, _ = actor_forward(params, candidates)
        assert pooled.shape == (3, 4)

    def test_empty_candidate_list_rejected(self):
        rng = np.random.default_rng(11)
        params = make_params(rng)
        with pytest.raises(NoCandidates):
            actor_forward(params, [])

    def test_repeat_evaluation_is_bitwise_stable(self):
        rng = np.random.default_rng(13)
        params = make_params(rng)
        candidates = make_candidates(params.table, 2, [["w0", "w2"], ["w1", "w3"]])
        a, _, _ = actor_forward(params, candidates)
        b, _, _ = actor_forward(params, candidates)
        assert a.tobytes() == b.tobytes()

    def test_table_global_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(17)
        table = qrep.AmplitudeTable.from_vocab(VOCAB, 3, rng)
        global_rep = qrep.GlobalRepresentation.from_random(2, 4, 2, rng)
        with pytest.raises(ShapeMismatch):
            ActorParams(table=table, global_rep=global_rep)


class TestPolicyProbabilities:
    def test_sums_to_one(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            scores = rng.standard_normal(int(rng.integers(1, 8))) * 10
            probs = policy_probabilities(scores, 1.0)
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert np.all(probs >= 0.0)

    def test_equal_scores_uniform(self):
        probs = policy_probabilities(np.full(4, 2.5), 1.0)
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_temperature_sharpens(self):
        scores = np.array([0.0, 1.0])
        cold = policy_probabilities(scores, 0.1)
        hot = policy_probabilities(scores, 10.0)
        assert cold[1] > hot[1]

    def test_non_finite_scores_rejected(self):
        with pytest.raises(NonFiniteScore):
            policy_probabilities(np.array([0.0, np.nan]), 1.0)

    def test_temperature_bounds(self):
        with pytest.raises(ValueError):
            policy_probabilities(np.array([0.0, 1.0]), 0.0)


class TestFirstArgmax:
    def test_greedy_tie_break_lowest_index(self):
        (index,) = first_argmax(np.array([0.2, 0.9, 0.9]), [0])
        assert index == 1

    def test_greedy_invariant_under_shift_and_scale(self):
        rng = np.random.default_rng(23)
        scores = rng.standard_normal(5)
        (base,) = first_argmax(scores, [0])
        (shifted,) = first_argmax(scores + 7.5, [0])
        (scaled,) = first_argmax(scores * 3.0, [0])
        assert base == shifted == scaled

    def test_each_document_counts_from_its_first_candidate(self):
        scores = np.array([0.1, 0.4, 0.4, 0.3, -1.0, -1.0, 2.0, 2.0, 5.0, 1.0])
        offsets = np.array([0, 2, 4, 6, 8])
        assert first_argmax(scores, offsets).tolist() == [1, 0, 0, 0, 0]

    def test_non_finite_scores_rejected(self):
        with pytest.raises(NonFiniteScore):
            first_argmax(np.array([0.0, 1.0, np.nan, 0.5]), [0, 2])

    def test_empty_document_rejected(self):
        with pytest.raises(NoCandidates):
            first_argmax(np.array([0.0, 1.0]), [0, 2])


class TestScoreRows:
    def test_batch_scores_equal_per_candidate_scores(self):
        rng = np.random.default_rng(47)
        params = make_params(rng, order=3, rank=5)
        token_lists = [["w0", "w1", "w2"], ["w3"], ["w2", "w2"], ["w1", "w0", "w3"]]
        candidates = make_candidates(params.table, 3, token_lists)
        scores, _, dots = qrep.project_rows(params.global_rep, np.stack([q.rows for q in candidates]))
        for i, q in enumerate(candidates):
            single_scores, _, single_dots = actor_forward(params, [q])
            assert scores[i] == single_scores[0] == qrep.project(params.global_rep, q)
            assert dots[i].tobytes() == single_dots[0].tobytes()

    def test_row_shape_must_match_the_global_space(self):
        rng = np.random.default_rng(53)
        params = make_params(rng, order=2)
        with pytest.raises(ShapeMismatch):
            act(params, np.ones((4, 3, 3)), np.random.default_rng(1))


class TestSelectAction:
    def test_sampling_matches_softmax_rate(self):
        rng = np.random.default_rng(29)
        scores = np.array([0.0, 1.0])
        hits = sum(
            select_action(scores, 1.0, rng)[0] == 1 for _ in range(100_000)
        )
        expected = np.e / (1.0 + np.e)
        assert abs(hits / 100_000 - expected) <= 0.01

    def test_identical_seeds_identical_choices(self):
        scores = np.array([0.3, -0.2, 1.1])
        rng_a, rng_b = np.random.default_rng(31), np.random.default_rng(31)
        seq_a = [select_action(scores, 1.0, rng_a)[0] for _ in range(100)]
        seq_b = [select_action(scores, 1.0, rng_b)[0] for _ in range(100)]
        assert seq_a == seq_b

    def test_log_probability_matches_softmax(self):
        scores = np.array([0.5, 1.5, -0.5])
        rng = np.random.default_rng(37)
        index, log_prob = select_action(scores, 2.0, rng)
        probs = policy_probabilities(scores, 2.0)
        assert log_prob == pytest.approx(float(np.log(probs[index])), abs=1e-12)
        assert log_prob <= 0.0

    def test_non_finite_scores_rejected(self):
        with pytest.raises(NonFiniteScore):
            select_action(np.array([np.inf, 0.0]), 1.0, np.random.default_rng(0))

    def test_index_is_the_right_searchsorted_of_the_cdf(self):
        rng = np.random.default_rng(39)
        for seed in range(10_000):
            count = int(rng.integers(1, 9))
            scores = rng.standard_normal(count) * 3.0
            temperature = float(rng.uniform(0.1, 2.0))
            index = select_action(scores, temperature, np.random.default_rng(seed))[0]
            cdf = np.cumsum(policy_probabilities(scores, temperature))
            u = np.random.default_rng(seed).random() * cdf[-1]
            reference = min(int(np.searchsorted(cdf, u, side="right")), count - 1)
            assert index == reference

    @pytest.mark.parametrize(
        "scores, uniform, expected",
        [
            ([0.0, 0.0], 0.5, 1),  # u on a bin edge goes right
            ([0.0, -1e4, 0.0], 0.5, 2),  # past an empty bin
            ([0.0, 0.0, 0.0], 0.0, 0),
            ([0.0, 0.0, 0.0], 1.0, 2),  # u at the total stays in range
        ],
    )
    def test_edges_go_right(self, scores, uniform, expected):
        class FixedUniform:
            def random(self):
                return uniform

        assert select_action(np.array(scores), 1.0, FixedUniform())[0] == expected


class TestAct:
    def test_single_candidate_certain(self):
        rng = np.random.default_rng(41)
        params = make_params(rng)
        candidates = make_candidates(params.table, 2, [["w0", "w1"]])
        index, log_probability, probabilities, *_ = act(
            params, rows_of(candidates), np.random.default_rng(1)
        )
        assert index == 0
        assert probabilities[0] == pytest.approx(1.0, abs=1e-12)
        assert log_probability == 0.0

    def test_empty_batch_rejected(self):
        params = make_params(np.random.default_rng(42))
        with pytest.raises(NoCandidates):
            act(params, np.empty((0, 2, 3)), np.random.default_rng(1))

    def test_one_softmax_gives_the_standalone_draw_bitwise(self):
        rng = np.random.default_rng(43)
        params = make_params(rng, rank=3, temperature=0.7)
        candidates = make_candidates(params.table, 2, [["w0"], ["w1"], ["w2"]])
        for seed in range(20):
            out = act(params, rows_of(candidates), np.random.default_rng(seed))
            scores = actor_forward(params, candidates)[0]
            index, log_prob = select_action(scores, 0.7, np.random.default_rng(seed))
            assert out[:2] == (index, log_prob)
            probs = policy_probabilities(scores, 0.7)
            assert out[2].tobytes() == probs.tobytes()


def selection_loss(table_amps, weights, factors, token_lists, vocab, chosen, advantage, temperature):
    """Independent loss evaluation used as the finite-difference oracle."""
    table = qrep.AmplitudeTable(words=vocab, amplitudes=table_amps)
    g = qrep.GlobalRepresentation(weights=weights, factors=factors)
    order = factors.shape[1]
    scores = np.array(
        [
            qrep.project(g, qrep.embed_query(tokens, table, order))
            for tokens in token_lists
        ]
    )
    z = scores / temperature
    z = z - z.max()
    log_prob = z[chosen] - np.log(np.exp(z).sum())
    return -advantage * log_prob


class TestActorGradients:
    def test_zero_advantage_gives_zero_gradients(self):
        rng = np.random.default_rng(47)
        params = make_params(rng)
        candidates = make_candidates(params.table, 2, [["w0"], ["w1"]])
        table_ids, table_rows, weights, factors = actor_gradients(
            params, ids_of(candidates), chosen=0, advantage=0.0
        )
        assert not dense_table(params, table_ids, table_rows).any()
        assert not weights.any()
        assert not factors.any()

    def test_single_candidate_gives_zero_gradients(self):
        rng = np.random.default_rng(53)
        params = make_params(rng)
        candidates = make_candidates(params.table, 2, [["w0", "w1"]])
        table_ids, table_rows, weights, factors = actor_gradients(
            params, ids_of(candidates), chosen=0, advantage=1.0
        )
        np.testing.assert_allclose(dense_table(params, table_ids, table_rows), 0.0, atol=1e-15)
        np.testing.assert_allclose(weights, 0.0, atol=1e-15)
        np.testing.assert_allclose(factors, 0.0, atol=1e-15)

    def test_chosen_index_validated(self):
        rng = np.random.default_rng(59)
        params = make_params(rng)
        candidates = make_candidates(params.table, 2, [["w0"], ["w1"]])
        with pytest.raises(IndexOutOfRange):
            actor_gradients(params, ids_of(candidates), chosen=2, advantage=1.0)

    def test_candidate_ids_validated(self):
        params = make_params(np.random.default_rng(60))
        with pytest.raises(NoCandidates):
            actor_gradients(params, np.empty((0, 2), dtype=np.int64), chosen=0, advantage=1.0)
        with pytest.raises(ShapeMismatch):
            actor_gradients(params, np.zeros((2, 3), dtype=np.int64), chosen=0, advantage=1.0)

    def test_matches_central_finite_differences(self):
        h = 1e-5
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            order = int(rng.integers(1, 4))
            basis_dim = int(rng.integers(2, 4))
            rank = int(rng.integers(1, 4))
            params = make_params(rng, basis_dim=basis_dim, order=order, rank=rank)
            token_lists = [
                [VOCAB[int(rng.integers(len(VOCAB)))] for _ in range(int(rng.integers(1, order + 1)))]
                for _ in range(3)
            ]
            candidates = make_candidates(params.table, order, token_lists)
            chosen = int(rng.integers(3))
            advantage = float(rng.uniform(0.2, 1.0))
            table_ids, table_rows, weights_grad, factors_grad = actor_gradients(
                params, ids_of(candidates), chosen, advantage
            )

            def loss(amps, w, fac):
                return selection_loss(
                    amps, w, fac, token_lists, VOCAB, chosen, advantage, params.temperature
                )

            amps = params.table.amplitudes
            weights = params.global_rep.weights
            factors = params.global_rep.factors
            for arr, grad in (
                (amps, dense_table(params, table_ids, table_rows)),
                (weights, weights_grad),
                (factors, factors_grad),
            ):
                flat, gflat = arr.ravel(), grad.ravel()
                for j in range(flat.size):
                    original = flat[j]
                    flat[j] = original + h
                    up = loss(amps, weights, factors)
                    flat[j] = original - h
                    down = loss(amps, weights, factors)
                    flat[j] = original
                    numeric = (up - down) / (2 * h)
                    denom = max(abs(gflat[j]), abs(numeric), 1e-6)
                    assert abs(gflat[j] - numeric) / denom < 1e-4

    def test_positive_advantage_raises_chosen_score(self):
        rng = np.random.default_rng(61)
        params = make_params(rng)
        token_lists = [["w0", "w1"], ["w2", "w3"]]
        candidates = make_candidates(params.table, 2, token_lists)
        before = qrep.project_rows(params.global_rep, rows_of(candidates))[0]
        table_ids, table_rows, weights, factors = actor_gradients(
            params, ids_of(candidates), chosen=0, advantage=1.0
        )
        params.table.amplitudes -= 0.05 * dense_table(params, table_ids, table_rows)
        params.global_rep.weights -= 0.05 * weights
        params.global_rep.factors -= 0.05 * factors
        refreshed = make_candidates(params.table, 2, token_lists)
        after = qrep.project_rows(params.global_rep, rows_of(refreshed))[0]
        assert after[0] - after[1] > before[0] - before[1]


def descend_apart_reference(params, ids, lr, table_grad, weights_grad, factors_grad):
    """The actor update as two table updates: the stepped rows, then the global space.

    Returns the amplitudes, weights and factors it gives, each renormalized
    on its own; the padding row is re-pinned whenever it was stepped.
    """
    k = params.global_rep.basis_dim
    amplitudes = params.table.amplitudes.copy()
    block = amplitudes[ids] - lr * table_grad
    qrep.renormalize_rows(block)
    amplitudes[ids] = block
    if qrep.NULL_ID in ids:
        amplitudes[qrep.NULL_ID] = 0.0
        amplitudes[qrep.NULL_ID, 0] = 1.0
    factors = params.global_rep.factors - lr * factors_grad
    qrep.renormalize_rows(factors.reshape(-1, k))
    return amplitudes, params.global_rep.weights - lr * weights_grad, factors


class TestDescend:
    """One block update of the touched table rows and every factor row, bit for bit."""

    @pytest.mark.parametrize("basis_dim", [1, 3, 4])
    @pytest.mark.parametrize("ids", [[0, 2, 3, 5], [1, 3, 4]])
    def test_equals_the_table_and_global_updates_apart(self, basis_dim, ids):
        rng = np.random.default_rng(70 + basis_dim)
        params = make_params(rng, basis_dim=basis_dim, order=3, rank=4)
        ids = np.array(ids)
        table_grad = rng.standard_normal((len(ids), basis_dim))
        table_grad[1] = 0.0  # a unit row that is not stepped keeps its bits
        weights_grad = rng.standard_normal(4)
        factors_grad = rng.standard_normal((4, 3, basis_dim))
        expected = descend_apart_reference(
            params, ids, 0.2, table_grad, weights_grad, factors_grad
        )
        before = params.table.amplitudes.copy()
        descend(params, ids, 0.2, table_grad, weights_grad, factors_grad)
        g = params.global_rep
        assert params.table.amplitudes.tobytes() == expected[0].tobytes()
        assert g.weights.tobytes() == expected[1].tobytes()
        assert g.factors.tobytes() == expected[2].tobytes()
        assert params.table.amplitudes[ids[1]].tobytes() == before[ids[1]].tobytes()
        untouched = np.setdiff1d(np.arange(before.shape[0]), ids)
        assert params.table.amplitudes[untouched].tobytes() == before[untouched].tobytes()

    def test_padding_row_pinned_after_a_step_that_touched_it(self):
        rng = np.random.default_rng(75)
        params = make_params(rng, basis_dim=3)
        ids = np.array([qrep.NULL_ID, 2])
        descend(params, ids, 0.5, rng.standard_normal((2, 3)), np.zeros(2), np.zeros((2, 2, 3)))
        assert params.table.amplitudes[qrep.NULL_ID].tolist() == [1.0, 0.0, 0.0]
        assert params.table.amplitudes[2].tolist() != [1.0, 0.0, 0.0]

    def test_step_without_the_padding_row_leaves_it_bit_identical(self):
        rng = np.random.default_rng(76)
        params = make_params(rng, basis_dim=3)
        # An unpinned unit row, so that any write to it would show.
        params.table.amplitudes[qrep.NULL_ID] = [0.6, 0.8, 0.0]
        before = params.table.amplitudes[qrep.NULL_ID].tobytes()
        ids = np.array([1, 3])
        descend(params, ids, 0.5, rng.standard_normal((2, 3)), np.zeros(2), np.zeros((2, 2, 3)))
        assert params.table.amplitudes[qrep.NULL_ID].tobytes() == before
