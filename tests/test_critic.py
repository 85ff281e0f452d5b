"""Tests for the density-matrix judge over complex word embeddings.

Class probabilities are verified against diagonal partial sums of the
density matrix, and gradients against central finite differences through an
independent probability evaluation.
"""

import numpy as np
import pytest

from qforage import qcore
from qforage.critic import (
    CLASS_REWARDS,
    ClassMeasurement,
    ComplexEmbeddingTable,
    class_observable,
    class_of_reward,
    class_probabilities,
    critic_density,
    critic_loss_and_gradients,
    measure_classes,
    q_value,
)
from qforage.errors import (
    DimensionNotDivisible,
    EmptyInput,
    InvalidLabel,
    ShapeMismatch,
)

VOCAB = ("cats", "chase", "dogs", "not")


def make_table(rng, embed_dim=6, words=VOCAB):
    return ComplexEmbeddingTable.from_vocab(words, embed_dim, rng)


def block_supported_table(embed_dim=6):
    """Every word's amplitude mass sits entirely in one class block."""
    words = ("lo", "mid", "hi")
    rows = len(words) + 1
    block = embed_dim // 3
    amps = np.zeros((rows, embed_dim))
    amps[0, :block] = 1.0 / np.sqrt(block)
    for i in range(3):
        amps[i + 1, i * block : (i + 1) * block] = 1.0 / np.sqrt(block)
    return ComplexEmbeddingTable(
        words=words,
        amplitudes=amps,
        phases=np.zeros((rows, embed_dim)),
        salience=np.zeros(rows),
    )


class TestComplexEmbeddingTable:
    def test_random_init_rows_are_nonnegative_unit(self):
        table = make_table(np.random.default_rng(3))
        assert np.all(table.amplitudes >= 0.0)
        np.testing.assert_allclose(
            np.linalg.norm(table.amplitudes, axis=1), 1.0, atol=1e-9
        )

    def test_dimension_must_split_into_blocks(self):
        with pytest.raises(DimensionNotDivisible):
            make_table(np.random.default_rng(5), embed_dim=7)

    def test_unknown_word_maps_to_reserved_row(self):
        table = make_table(np.random.default_rng(7))
        assert table.word_id("zzzunseen") == 0
        assert table.word_id("cats") == 1

    def test_renormalize_clamps_negative_amplitudes(self):
        table = make_table(np.random.default_rng(11))
        table.amplitudes[1, 0] = -0.4
        table.renormalize()
        assert np.all(table.amplitudes >= 0.0)
        np.testing.assert_allclose(
            np.linalg.norm(table.amplitudes, axis=1), 1.0, atol=1e-9
        )

    def test_renormalize_resets_zeroed_row_to_uniform(self):
        table = make_table(np.random.default_rng(13))
        table.amplitudes[2] = 0.0
        table.renormalize()
        np.testing.assert_allclose(table.amplitudes[2], 1.0 / np.sqrt(6), atol=1e-15)

    def test_renormalize_is_noop_on_normalized_rows(self):
        table = make_table(np.random.default_rng(17))
        before = table.amplitudes.tobytes()
        table.renormalize()
        assert table.amplitudes.tobytes() == before

    def test_renormalize_with_ids_touches_only_those_rows(self):
        table = make_table(np.random.default_rng(18))
        table.amplitudes[1, 0] = -0.4
        table.amplitudes[2] = 0.0
        table.amplitudes[3] *= 2.0
        table.amplitudes[4, 1] = -0.2
        before = table.amplitudes.copy()
        ids = np.array([1, 2, 3])
        table.renormalize(ids)
        assert np.all(table.amplitudes[ids] >= 0.0)
        np.testing.assert_allclose(np.linalg.norm(table.amplitudes[ids], axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(table.amplitudes[2], 1.0 / np.sqrt(6), atol=1e-15)
        assert table.amplitudes[[0, 4]].tobytes() == before[[0, 4]].tobytes()

    def test_embedding_is_unit_complex(self):
        table = make_table(np.random.default_rng(19))
        vec = table.embedding(np.array([1]))[0]
        assert vec.dtype == np.complex128
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            ComplexEmbeddingTable(
                words=("a",),
                amplitudes=np.ones((3, 6)),
                phases=np.ones((2, 6)),
                salience=np.zeros(2),
            )


class TestCriticDensity:
    def test_single_token_is_pure(self):
        table = make_table(np.random.default_rng(23))
        rho = critic_density(["cats"], [], table)
        assert rho.purity_defect() <= 1e-12

    def test_uniform_salience_orthogonal_words(self):
        table = block_supported_table()
        rho = critic_density(["lo"], ["hi"], table)
        eigs = np.sort(rho.eigenvalues())[-2:]
        np.testing.assert_allclose(eigs, [0.5, 0.5], atol=1e-12)

    def test_negation_changes_the_state(self):
        table = make_table(np.random.default_rng(29))
        plain = critic_density(["dogs"], ["chase", "cats"], table)
        negated = critic_density(["dogs"], ["not", "chase", "cats"], table)
        assert np.linalg.norm(plain.matrix - negated.matrix) > 0.0

    def test_validity_over_random_sequences(self):
        rng = np.random.default_rng(31)
        table = make_table(rng, embed_dim=9)
        for _ in range(100):
            count = int(rng.integers(1, 8))
            tokens = [VOCAB[int(rng.integers(len(VOCAB)))] for _ in range(count)]
            rho = critic_density(tokens[: count // 2 + 1], tokens[count // 2 + 1 :], table)
            m = rho.matrix
            assert np.max(np.abs(m - m.conj().T)) <= 1e-10
            assert abs(complex(np.trace(m)) - 1.0) <= 1e-10
            assert float(np.linalg.eigvalsh(m)[0]) >= -1e-8

    def test_token_order_does_not_matter(self):
        table = make_table(np.random.default_rng(37))
        rho_a = critic_density(["dogs", "chase"], ["cats"], table)
        rho_b = critic_density(["cats", "dogs"], ["chase"], table)
        assert np.max(np.abs(rho_a.matrix - rho_b.matrix)) <= 1e-12

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(41)
        table = make_table(rng)
        rho_before = critic_density(["dogs"], ["chase", "cats"], table)
        p_before = measure_classes(rho_before).probabilities
        table.phases[table.word_id("chase")] += 1.2345
        rho_after = critic_density(["dogs"], ["chase", "cats"], table)
        p_after = measure_classes(rho_after).probabilities
        assert np.max(np.abs(rho_after.matrix - rho_before.matrix)) <= 1e-10
        np.testing.assert_allclose(p_after, p_before, atol=1e-10)

    def test_empty_sequence_rejected(self):
        table = make_table(np.random.default_rng(43))
        with pytest.raises(EmptyInput):
            critic_density([], [], table)


class TestMeasureClasses:
    def test_single_block_support(self):
        table = block_supported_table()
        rho = critic_density(["hi"], [], table)
        probs = measure_classes(rho).probabilities
        np.testing.assert_allclose(probs, [0.0, 0.0, 1.0], atol=1e-12)

    def test_maximally_mixed_state(self):
        dim = 6
        weights = np.full(dim, 1.0 / dim)
        vectors = [qcore.basis_vector(dim, i, dtype=np.complex128) for i in range(dim)]
        rho = qcore.build_density(weights, vectors)
        probs = measure_classes(rho).probabilities
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_probabilities_are_diagonal_partial_sums(self):
        rng = np.random.default_rng(47)
        table = make_table(rng)
        for _ in range(50):
            tokens = [VOCAB[int(rng.integers(len(VOCAB)))] for _ in range(3)]
            rho = critic_density(tokens, [], table)
            probs = measure_classes(rho).probabilities
            diag = np.real(np.diag(rho.matrix))
            expected = diag.reshape(3, 2).sum(axis=1)
            np.testing.assert_allclose(probs, expected, atol=1e-12)
            assert abs(probs.sum() - 1.0) <= 1e-10

    def test_indivisible_dimension_rejected(self):
        rho = qcore.DensityMatrix(np.eye(4) / 4)
        with pytest.raises(DimensionNotDivisible):
            measure_classes(rho)


class TestQValue:
    def test_certain_mismatch(self):
        m = ClassMeasurement(
            probabilities=np.array([1.0, 0.0, 0.0]), observable=class_observable(6)
        )
        assert q_value(m) == -1.0

    def test_uniform_distribution(self):
        m = ClassMeasurement(
            probabilities=np.full(3, 1.0 / 3.0), observable=class_observable(6)
        )
        assert q_value(m) == 0.0

    def test_weighted_distribution(self):
        m = ClassMeasurement(
            probabilities=np.array([0.2, 0.3, 0.5]), observable=class_observable(6)
        )
        assert q_value(m) == pytest.approx(0.3, abs=1e-15)

    def test_monotone_in_match_mass(self):
        low = ClassMeasurement(
            probabilities=np.array([0.2, 0.5, 0.3]), observable=class_observable(6)
        )
        high = ClassMeasurement(
            probabilities=np.array([0.2, 0.3, 0.5]), observable=class_observable(6)
        )
        assert q_value(high) > q_value(low)

    def test_class_of_reward_mapping(self):
        assert [class_of_reward(r) for r in CLASS_REWARDS] == [0, 1, 2]
        with pytest.raises(InvalidLabel):
            class_of_reward(2)


def label_probability(amplitudes, phases, salience, words, tokens, label):
    """Independent probability evaluation used as the finite-difference oracle."""
    table = ComplexEmbeddingTable(
        words=words, amplitudes=amplitudes, phases=phases, salience=salience
    )
    return -np.log(class_probabilities(tokens, table)[label])


def dense_reference_gradients(tokens, label, table):
    """Dense (V, d) and (V,) gradients, accumulated straight into full tables with np.add.at."""
    ids = np.asarray([table.word_id(t) for t in tokens])
    beta = np.exp(table.salience[ids] - table.salience[ids].max())
    beta = beta / beta.sum()
    block = table.embed_dim // 3
    s = (table.amplitudes[ids] ** 2).reshape(len(ids), 3, block).sum(axis=2)
    masses = beta @ s
    total = float(masses.sum())
    d_masses = np.ones(3) / total
    d_masses[label] -= 1.0 / float(masses[label])
    d_beta = s @ d_masses
    salience = np.zeros(table.num_rows)
    np.add.at(salience, ids, beta * (d_beta - float(np.dot(beta, d_beta))))
    word_coeff = np.zeros(table.num_rows)
    np.add.at(word_coeff, ids, beta)
    amplitudes = np.zeros_like(table.amplitudes)
    for c in range(3):
        cols = slice(c * block, (c + 1) * block)
        amplitudes[:, cols] = 2.0 * d_masses[c] * word_coeff[:, None] * table.amplitudes[:, cols]
    return amplitudes, salience


class TestSparseCriticGradients:
    def test_dense_views_equal_dense_reference_bitwise(self):
        for seed in range(20):
            rng = np.random.default_rng(400 + seed)
            table = make_table(rng, embed_dim=int(rng.choice([3, 6, 12])))
            table.salience[:] = 0.5 * rng.standard_normal(table.num_rows)
            tokens = [VOCAB[int(rng.integers(len(VOCAB)))] for _ in range(int(rng.integers(1, 8)))]
            tokens.append("zzzunseen")
            label = int(rng.integers(3))
            _, grads = critic_loss_and_gradients(tokens, label, table)
            amplitudes, salience = dense_reference_gradients(tokens, label, table)
            # Equal everywhere; bit for bit on the touched rows (the reference's
            # untouched rows may hold -0.0).
            np.testing.assert_array_equal(grads.amplitudes, amplitudes)
            np.testing.assert_array_equal(grads.salience, salience)
            assert grads.amplitude_rows.tobytes() == amplitudes[grads.ids].tobytes()
            assert grads.salience_rows.tobytes() == salience[grads.ids].tobytes()
            assert grads.phases.shape == table.phases.shape
            assert list(grads.ids) == sorted({table.word_id(t) for t in tokens})

    def test_row_count_follows_tokens_not_vocabulary(self):
        tokens = ["w3", "w7", "w3", "w12", "w40", "absent"]
        shapes = []
        for size in (60, 6000):
            words = tuple(f"w{i}" for i in range(size - 1))
            table = make_table(np.random.default_rng(5), embed_dim=12, words=words)
            _, grads = critic_loss_and_gradients(tokens, 2, table)
            assert grads.amplitude_rows.shape[0] <= len(tokens)
            assert grads.num_rows == size
            shapes.append((grads.ids.shape, grads.amplitude_rows.shape, grads.salience_rows.shape))
        assert shapes[0] == shapes[1] == ((5,), (5, 12), (5,))

    def test_probabilities_are_the_class_probabilities(self):
        rng = np.random.default_rng(71)
        table = make_table(rng)
        tokens = ["cats", "not", "dogs", "cats"]
        _, grads = critic_loss_and_gradients(tokens, 1, table)
        assert grads.probabilities.tobytes() == class_probabilities(tokens, table).tobytes()


class TestCriticLossAndGradients:
    def test_certain_label_zero_loss_zero_gradients(self):
        table = block_supported_table()
        loss, grads = critic_loss_and_gradients(["hi"], 2, table)
        assert loss == 0.0
        assert not grads.amplitudes.any()
        assert not grads.salience.any()

    def test_uniform_state_loss_is_log_three(self):
        rows = len(VOCAB) + 1
        table = ComplexEmbeddingTable(
            words=VOCAB,
            amplitudes=np.full((rows, 6), 1.0 / np.sqrt(6)),
            phases=np.zeros((rows, 6)),
            salience=np.zeros(rows),
        )
        loss, _ = critic_loss_and_gradients(["cats", "dogs"], 1, table)
        assert abs(loss - np.log(3.0)) <= 1e-10

    def test_invalid_label_rejected(self):
        table = make_table(np.random.default_rng(53))
        with pytest.raises(InvalidLabel):
            critic_loss_and_gradients(["cats"], 3, table)

    def test_phase_gradients_identically_zero(self):
        rng = np.random.default_rng(59)
        table = make_table(rng)
        _, grads = critic_loss_and_gradients(["dogs", "chase", "cats"], 0, table)
        assert not grads.phases.any()

    def test_matches_central_finite_differences(self):
        h = 1e-5
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            table = make_table(rng)
            count = int(rng.integers(1, 6))
            tokens = [VOCAB[int(rng.integers(len(VOCAB)))] for _ in range(count)]
            label = int(rng.integers(3))
            _, grads = critic_loss_and_gradients(tokens, label, table)

            for arr, grad in (
                (table.amplitudes, grads.amplitudes),
                (table.phases, grads.phases),
                (table.salience, grads.salience),
            ):
                flat, gflat = arr.ravel(), grad.ravel()
                for j in range(flat.size):
                    original = flat[j]
                    flat[j] = original + h
                    up = label_probability(
                        table.amplitudes, table.phases, table.salience, VOCAB, tokens, label
                    )
                    flat[j] = original - h
                    down = label_probability(
                        table.amplitudes, table.phases, table.salience, VOCAB, tokens, label
                    )
                    flat[j] = original
                    numeric = (up - down) / (2 * h)
                    denom = max(abs(gflat[j]), abs(numeric), 1e-6)
                    assert abs(gflat[j] - numeric) / denom < 1e-4

    def test_descent_step_reduces_loss(self):
        rng = np.random.default_rng(61)
        table = make_table(rng)
        tokens = ["dogs", "chase", "cats"]
        loss_before, grads = critic_loss_and_gradients(tokens, 2, table)
        table.amplitudes -= 0.1 * grads.amplitudes
        table.salience -= 0.1 * grads.salience
        loss_after, _ = critic_loss_and_gradients(tokens, 2, table)
        assert loss_after < loss_before

    def test_normalized_probabilities_match_measurement(self):
        rng = np.random.default_rng(67)
        table = make_table(rng)
        tokens = ["cats", "not", "dogs"]
        direct = class_probabilities(tokens, table)
        measured = measure_classes(critic_density(tokens[:1], tokens[1:], table)).probabilities
        np.testing.assert_allclose(direct, measured, atol=1e-10)
