"""Tests for the training loop: config handling, update rules, checkpoints.

The update-rule tests pin two algebraic identities rather than training
outcomes: a zero advantage or a zero learning rate leaves the touched side
bit-identical, and freezing the critic at the uniform table reduces the
actor update to plain reward-weighted score ascent reproducible by hand.
Evaluation metrics are re-derived from scratch over the corpus.
"""

import copy
import dataclasses
from unittest import mock

import numpy as np
import pytest

from qforage import actor, critic, env, qcore, qrep, trainer
from qforage.errors import (
    CheckpointInvalid,
    CheckpointMismatch,
    EmptyCorpus,
    NonFiniteScore,
    ParseError,
    ShapeMismatch,
    VersionMismatch,
)
from qforage.seeding import stream_rng

SMALL = dict(basis_dim=3, query_order=3, rank=4, embed_dim=6, keyword_count=3)


def small_corpus(seed=101, docs=6):
    spec = env.CorpusSpec(docs=docs, patches=2, vocab_size=40, keyword_count=3)
    return env.gen_corpus(spec, np.random.default_rng(seed))


def small_config(**overrides):
    kwargs = dict(SMALL, episodes=20, eval_interval=10, seed=5)
    kwargs.update(overrides)
    return trainer.TrainConfig(**kwargs)


def uniform_critic_table(vocabulary, embed_dim=6):
    """Every row identical and flat, so every class mass is the same float."""
    rows = len(vocabulary) + 1
    amps = np.full((rows, embed_dim), 1.0 / np.sqrt(embed_dim))
    return critic.ComplexEmbeddingTable(
        words=vocabulary,
        amplitudes=amps,
        phases=np.zeros((rows, embed_dim)),
        salience=np.zeros(rows),
    )


def actor_state_bytes(params):
    return (
        params.table.amplitudes.tobytes(),
        params.global_rep.weights.tobytes(),
        params.global_rep.factors.tobytes(),
    )


def critic_state_bytes(table):
    return (
        table.amplitudes.tobytes(),
        table.phases.tobytes(),
        table.salience.tobytes(),
    )


def observation_for(doc):
    return env.Observation(
        doc_id=doc.doc_id,
        patch_id=doc.patch_id,
        keywords=doc.keywords,
        candidates=doc.candidates,
    )


class TestTrainConfig:
    def test_defaults_validate(self):
        trainer.TrainConfig().validate()

    def test_echo_round_trip(self):
        config = small_config(actor_lr=0.05, mode="session", checkpoint_path="ck.txt")
        rebuilt = trainer.TrainConfig.from_echo(config.echo())
        assert rebuilt == config

    def test_echo_skips_unset_checkpoint_path(self):
        assert "checkpoint_path" not in trainer.TrainConfig().echo()

    def test_from_echo_ignores_unknown_keys(self):
        echo = trainer.TrainConfig().echo()
        echo["flavor"] = "lemon"
        assert trainer.TrainConfig.from_echo(echo) == trainer.TrainConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"episodes": 0},
            {"actor_lr": 0.0},
            {"critic_lr": -0.1},
            {"temperature": 1e-4},
            {"scent_smoothing": 0.0},
            {"mode": "batch"},
            {"eval_interval": -1},
            {"rank": 0},
            {"embed_dim": 7},
            {"keyword_count": 0},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            small_config(**kwargs).validate()


class TestInitParams:
    def test_shapes_follow_config(self):
        corpus = small_corpus()
        config = small_config()
        params, critic_table = trainer.init_params(corpus, config)
        vocab = len(corpus.vocabulary)
        assert params.table.amplitudes.shape == (vocab + 2, config.basis_dim)
        assert params.global_rep.weights.shape == (config.rank,)
        assert params.global_rep.factors.shape == (
            config.rank,
            config.query_order,
            config.basis_dim,
        )
        assert critic_table.amplitudes.shape == (vocab + 1, config.embed_dim)
        assert params.temperature == config.temperature

    def test_same_seed_bitwise_identical(self):
        corpus = small_corpus()
        a, ca = trainer.init_params(corpus, small_config())
        b, cb = trainer.init_params(corpus, small_config())
        assert actor_state_bytes(a) == actor_state_bytes(b)
        assert critic_state_bytes(ca) == critic_state_bytes(cb)

    def test_different_seeds_differ(self):
        corpus = small_corpus()
        a, _ = trainer.init_params(corpus, small_config(seed=1))
        b, _ = trainer.init_params(corpus, small_config(seed=2))
        assert actor_state_bytes(a) != actor_state_bytes(b)


class TestTrainStep:
    def test_zero_advantage_freezes_actor(self):
        corpus = small_corpus()
        config = small_config()
        params, _ = trainer.init_params(corpus, config)
        critic_table = uniform_critic_table(corpus.vocabulary, config.embed_dim)
        doc = corpus.documents[0]
        neutral = tuple(
            env.Candidate(c.tokens, 0) for c in doc.candidates
        )
        obs = env.Observation(
            doc_id=doc.doc_id,
            patch_id=doc.patch_id,
            keywords=doc.keywords,
            candidates=neutral,
        )
        before_actor = actor_state_bytes(params)
        before_critic = critic_state_bytes(critic_table)
        transition, metrics = trainer.train_step(
            params, critic_table, obs, config, np.random.default_rng(9)
        )
        assert metrics.reward == 0
        assert metrics.q_estimate == 0.0
        assert metrics.advantage == 0.0
        assert actor_state_bytes(params) == before_actor
        assert critic_state_bytes(critic_table) != before_critic

    def test_zero_actor_lr_freezes_actor(self):
        corpus = small_corpus()
        config = small_config(actor_lr=0.0)
        params, critic_table = trainer.init_params(corpus, small_config())
        obs = observation_for(corpus.documents[0])
        before = actor_state_bytes(params)
        trainer.train_step(params, critic_table, obs, config, np.random.default_rng(9))
        assert actor_state_bytes(params) == before

    def test_zero_critic_lr_freezes_critic(self):
        corpus = small_corpus()
        config = small_config(critic_lr=0.0)
        params, critic_table = trainer.init_params(corpus, small_config())
        obs = observation_for(corpus.documents[0])
        before = critic_state_bytes(critic_table)
        trainer.train_step(params, critic_table, obs, config, np.random.default_rng(9))
        assert critic_state_bytes(critic_table) == before

    def test_uniform_critic_reduces_to_reward_weighted_ascent(self):
        corpus = small_corpus()
        config = small_config(critic_lr=0.0)
        params_a, _ = trainer.init_params(corpus, config)
        params_b = copy.deepcopy(params_a)
        critic_table = uniform_critic_table(corpus.vocabulary, config.embed_dim)
        obs = observation_for(corpus.documents[0])

        transition, metrics = trainer.train_step(
            params_a, critic_table, obs, config, np.random.default_rng(21)
        )
        assert metrics.advantage == metrics.reward

        candidates = [
            qrep.embed_query(c.tokens, params_b.table, config.query_order)
            for c in obs.candidates
        ]
        out = actor.act(params_b, candidates, np.random.default_rng(21))
        assert out.index == transition.chosen_index
        reward = obs.candidates[out.index].label
        if reward != 0:
            grads = actor.actor_gradients(params_b, candidates, out.index, float(reward))
            params_b.table.amplitudes -= config.actor_lr * grads.table
            params_b.global_rep.weights -= config.actor_lr * grads.weights
            params_b.global_rep.factors -= config.actor_lr * grads.factors
            params_b.table.renormalize()
            params_b.global_rep.renormalize()
        assert actor_state_bytes(params_a) == actor_state_bytes(params_b)

    def test_metrics_fields_are_consistent(self):
        corpus = small_corpus()
        config = small_config()
        params, critic_table = trainer.init_params(corpus, config)
        obs = observation_for(corpus.documents[0])
        transition, metrics = trainer.train_step(
            params, critic_table, obs, config, np.random.default_rng(33)
        )
        assert metrics.reward == transition.reward
        assert metrics.advantage == metrics.reward - metrics.q_estimate
        assert metrics.log_probability == transition.log_probability
        assert metrics.log_probability <= 0.0
        assert metrics.critic_loss >= 0.0

    def test_ten_steps_deterministic(self):
        corpus = small_corpus()
        config = small_config()
        states = []
        for _ in range(2):
            params, critic_table = trainer.init_params(corpus, config)
            rng = np.random.default_rng(77)
            environment = env.Environment(corpus, np.random.default_rng(78))
            for _ in range(10):
                trainer.train_step(params, critic_table, environment.reset(), config, rng)
            states.append(actor_state_bytes(params) + critic_state_bytes(critic_table))
        assert states[0] == states[1]

    def test_invariants_hold_after_updates(self):
        corpus = small_corpus()
        config = small_config()
        params, critic_table = trainer.init_params(corpus, config)
        rng = np.random.default_rng(55)
        environment = env.Environment(corpus, np.random.default_rng(56))
        for _ in range(25):
            trainer.train_step(params, critic_table, environment.reset(), config, rng)
        np.testing.assert_allclose(
            np.linalg.norm(params.table.amplitudes, axis=1), 1.0, atol=1e-9
        )
        null_row = np.zeros(config.basis_dim)
        null_row[0] = 1.0
        np.testing.assert_array_equal(params.table.amplitudes[qrep.NULL_ID], null_row)
        flat = params.global_rep.factors.reshape(-1, config.basis_dim)
        np.testing.assert_allclose(np.linalg.norm(flat, axis=1), 1.0, atol=1e-9)
        assert np.all(critic_table.amplitudes >= 0.0)
        np.testing.assert_allclose(
            np.linalg.norm(critic_table.amplitudes, axis=1), 1.0, atol=1e-9
        )
        assert np.all(np.isfinite(critic_table.salience))


def dense_reference_table_gradient(params, candidates, chosen, advantage):
    """The (V, k) amplitude gradient accumulated straight into a full table with np.add.at."""
    forward = actor.actor_forward(params, candidates)
    probs = actor.policy_probabilities(forward.scores, params.temperature)
    one_hot = np.zeros_like(probs)
    one_hot[chosen] = 1.0
    g_scores = -advantage * (one_hot - probs) / params.temperature
    dots = forward.dots
    n = dots.shape[2]
    prefix = np.ones_like(dots)
    suffix = np.ones_like(dots)
    for i in range(1, n):
        prefix[:, :, i] = prefix[:, :, i - 1] * dots[:, :, i - 1]
        suffix[:, :, n - 1 - i] = suffix[:, :, n - i] * dots[:, :, n - i]
    w_loo = params.global_rep.weights[None, :, None] * (prefix * suffix)
    per_row = np.einsum("c,crn,rnk->cnk", g_scores, w_loo, params.global_rep.factors)
    dense = np.zeros_like(params.table.amplitudes)
    ids = np.concatenate([q.word_ids for q in candidates])
    np.add.at(dense, ids, per_row.reshape(-1, dense.shape[1]))
    return dense


def step_rows(params, critic_table, keywords, candidates, chosen, order):
    """Actor rows of every embedded candidate, critic rows of keywords + chosen query."""
    actor_rows = {
        int(i) for c in candidates for i in qrep.embed_query(c.tokens, params.table, order).word_ids
    }
    critic_rows = {
        critic_table.word_id(t) for t in list(keywords) + list(candidates[chosen].tokens)
    }
    return actor_rows, critic_rows


def assert_only_rows_changed(before, after, rows):
    untouched = np.setdiff1d(np.arange(before.shape[0]), sorted(rows))
    assert after[untouched].tobytes() == before[untouched].tobytes()
    return int(np.count_nonzero((after != before).any(axis=1)))


class TestSparseStep:
    """A step reads and writes only its tokens' rows; every other row keeps its bits."""

    @pytest.mark.parametrize("mode", ["bandit", "session"])
    def test_bandit_step_changes_only_its_rows(self, mode):
        corpus = small_corpus()
        config = small_config(mode=mode)
        params, critic_table = trainer.init_params(corpus, config)
        environment = env.Environment(corpus, np.random.default_rng(61), mode=mode)
        rng = np.random.default_rng(62)
        moved = 0
        for _ in range(15):
            obs = environment.reset()
            before = (
                params.table.amplitudes.copy(),
                critic_table.amplitudes.copy(),
                critic_table.salience.copy()[:, None],
            )
            transition, _ = trainer.train_step(params, critic_table, obs, config, rng)
            actor_rows, critic_rows = step_rows(
                params, critic_table, obs.keywords, obs.candidates,
                transition.chosen_index, config.query_order,
            )
            moved += assert_only_rows_changed(before[0], params.table.amplitudes, actor_rows)
            moved += assert_only_rows_changed(before[1], critic_table.amplitudes, critic_rows)
            moved += assert_only_rows_changed(before[2], critic_table.salience[:, None], critic_rows)
        assert moved > 0

    def test_gradient_rows_follow_candidates_not_vocabulary(self):
        token_lists = [["w3", "w7", "w3"], ["w12"], ["w7", "absent", "w40", "w41"]]
        order = 4
        shapes = []
        for size in (60, 6000):
            words = tuple(f"w{i}" for i in range(size - 2))
            rng = np.random.default_rng(7)
            table = qrep.AmplitudeTable.from_vocab(words, 4, rng)
            global_rep = qrep.GlobalRepresentation.from_random(order, 4, 10, rng)
            params = actor.ActorParams(table=table, global_rep=global_rep)
            candidates = [qrep.embed_query(t, table, order) for t in token_lists]
            grads = actor.actor_gradients(params, candidates, 2, 0.7)
            assert grads.rows.shape[0] <= len(candidates) * order
            assert grads.num_rows == size
            shapes.append((grads.ids.shape, grads.rows.shape))
        # null, unk, w3, w7, w12, w40, w41
        assert shapes[0] == shapes[1] == ((7,), (7, 4))

    def test_dense_view_equals_dense_reference_bitwise(self):
        corpus = small_corpus()
        for seed in range(10):
            params, _ = trainer.init_params(corpus, small_config(seed=seed))
            rng = np.random.default_rng(seed)
            doc = corpus.documents[seed % len(corpus.documents)]
            token_lists = [c.tokens for c in doc.candidates] + [doc.candidates[0].tokens[:1]]
            candidates = [qrep.embed_query(t, params.table, 3) for t in token_lists]
            chosen = int(rng.integers(len(candidates)))
            advantage = float(rng.uniform(-1.5, 1.5))
            grads = actor.actor_gradients(params, candidates, chosen, advantage)
            dense = dense_reference_table_gradient(params, candidates, chosen, advantage)
            assert grads.table.tobytes() == dense.tobytes()
            assert list(grads.ids) == sorted({int(i) for q in candidates for i in q.word_ids})


class TestEvaluate:
    def test_metrics_match_independent_recount(self):
        corpus = small_corpus()
        config = small_config()
        params, critic_table = trainer.init_params(corpus, config)
        ev = trainer.evaluate(params, critic_table, corpus)

        hits = 0
        rewards = []
        critic_hits = 0
        total = 0
        for doc in corpus.documents:
            states = [
                qrep.embed_query(c.tokens, params.table, config.query_order)
                for c in doc.candidates
            ]
            scores = actor.actor_forward(params, states).scores
            index = int(np.argmax(scores))
            rewards.append(doc.candidates[index].label)
            hits += int(doc.candidates[index].label == 1)
            for cand in doc.candidates:
                p = critic.class_probabilities(
                    list(doc.keywords) + list(cand.tokens), critic_table
                )
                critic_hits += int(
                    int(np.argmax(p)) == critic.class_of_reward(cand.label)
                )
                total += 1
        assert ev.greedy_accuracy == hits / len(corpus.documents)
        assert ev.mean_reward == float(np.mean(rewards))
        assert ev.critic_accuracy == critic_hits / total
        assert len(ev.choices) == len(corpus.documents)

    def test_evaluation_is_pure(self):
        corpus = small_corpus()
        params, critic_table = trainer.init_params(corpus, small_config())
        before = actor_state_bytes(params) + critic_state_bytes(critic_table)
        first = trainer.evaluate(params, critic_table, corpus)
        second = trainer.evaluate(params, critic_table, corpus)
        assert actor_state_bytes(params) + critic_state_bytes(critic_table) == before
        assert first.greedy_accuracy == second.greedy_accuracy
        assert first.mean_reward == second.mean_reward
        assert first.critic_accuracy == second.critic_accuracy

    def test_scent_frequencies_normalized(self):
        corpus = small_corpus()
        params, critic_table = trainer.init_params(corpus, small_config())
        ev = trainer.evaluate(params, critic_table, corpus, scent_smoothing=0.2)
        assert abs(ev.scent.frequencies.sum() - 1.0) <= 1e-12
        assert -1.0 <= ev.mean_reward <= 1.0

    def test_empty_corpus_rejected(self):
        empty = env.Corpus(documents=(), vocabulary=(), keyword_count=3)
        params, critic_table = trainer.init_params(small_corpus(), small_config())
        with pytest.raises(EmptyCorpus):
            trainer.evaluate(params, critic_table, empty)

    def test_non_finite_scores_rejected(self):
        corpus = env.gen_corpus(env.CorpusSpec(docs=10, patches=2), np.random.default_rng(3))
        params, critic_table = trainer.init_params(corpus, trainer.TrainConfig())
        params.table.amplitudes[:] = np.nan
        with pytest.raises(NonFiniteScore):
            trainer.evaluate(params, critic_table, corpus)


# Documents of 2 and 4 candidates; queries shorter (padded) and longer
# (truncated) than query_order 3; keyword lists of 1 to 3 words, so the
# judged pairs have several lengths. d2 and d3 hold one query twice and
# nothing else, so the tie goes to the lower index whatever the parameters.
HAND_CORPUS = [
    "d0\tpa\talpha beta gamma alpha\talpha\t1",
    "d0\tpa\talpha beta gamma alpha\tdelta eps zeta eta theta\t-1",
    "d1\tpa\tbeta beta\tbeta gamma\t0",
    "d1\tpa\tbeta beta\tbeta\t1",
    "d1\tpa\tbeta beta\tnot beta gamma delta\t-1",
    "d1\tpa\tbeta beta\teps zeta eta theta alpha\t0",
    "d2\tpb\tzeta eta theta iota\tzeta eta\t1",
    "d2\tpb\tzeta eta theta iota\tzeta eta\t0",
    "d3\tpb\tiota kappa\tiota kappa lambda\t0",
    "d3\tpb\tiota kappa\tiota kappa lambda\t1",
]


def hand_corpus():
    return env.parse_corpus_lines(HAND_CORPUS, keyword_count=3)


def interleaved_corpus():
    """The hand corpus with patches pb, pa, pb, pa: interleaved, first seen out of sorted order."""
    patches = {"d0": "pb", "d1": "pa", "d2": "pb", "d3": "pa"}
    lines = []
    for line in HAND_CORPUS:
        fields = line.split("\t")
        fields[1] = patches[fields[0]]
        lines.append("\t".join(fields))
    return env.parse_corpus_lines(lines, keyword_count=3)


def assert_same_scent(got, want):
    assert got.scalar == want.scalar
    assert got.frequencies.tobytes() == want.frequencies.tobytes()
    assert list(got.per_patch) == list(want.per_patch)
    for patch_id, patch in want.per_patch.items():
        assert (got.per_patch[patch_id].scalar, got.per_patch[patch_id].count) == (
            patch.scalar,
            patch.count,
        )
        assert got.per_patch[patch_id].frequencies.tobytes() == patch.frequencies.tobytes()


def per_document_recount(params, critic_table, corpus):
    """evaluate's metrics from one document and one pair at a time."""
    order = params.global_rep.order
    transitions, choices, probabilities = [], [], []
    for doc in corpus.documents:
        states = [qrep.embed_query(c.tokens, params.table, order) for c in doc.candidates]
        index = int(np.argmax(actor.actor_forward(params, states).scores))
        reward = doc.candidates[index].label
        transitions.append(env.Transition(doc.doc_id, doc.patch_id, doc.candidates, index, reward))
        choices.append((doc.doc_id, doc.candidates[index].tokens, reward))
        for cand in doc.candidates:
            p = critic.class_probabilities(list(doc.keywords) + list(cand.tokens), critic_table)
            probabilities.append((p, critic.class_of_reward(cand.label)))
    return transitions, choices, probabilities


class TestBatchedEvaluate:
    """The batched pass against a per-document recount on a hand-built corpus."""

    def trained(self, corpus, seed):
        result = trainer.train(small_config(seed=seed, episodes=30, eval_interval=0), corpus)
        return result.params, result.critic_table

    def test_hand_corpus_covers_its_cases(self):
        corpus = hand_corpus()
        compiled = corpus.compiled
        counts = np.diff(np.append(compiled.offsets, len(compiled.labels)))
        assert sorted(set(counts.tolist())) == [2, 4]
        assert compiled.query_lengths.min() < 3 < compiled.query_lengths.max()
        assert len(set(compiled.pair_lengths.tolist())) >= 4

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_metrics_equal_a_per_document_recount(self, seed):
        corpus = hand_corpus()
        params, critic_table = self.trained(corpus, seed)
        ev = trainer.evaluate(params, critic_table, corpus, scent_smoothing=0.3)
        transitions, choices, probabilities = per_document_recount(params, critic_table, corpus)
        rewards = [t.reward for t in transitions]
        assert ev.choices == choices
        assert ev.greedy_accuracy == rewards.count(1) / len(rewards)
        assert ev.mean_reward == float(np.mean(rewards))
        hits = sum(int(np.argmax(p)) == label for p, label in probabilities)
        assert ev.critic_accuracy == hits / len(probabilities)
        assert_same_scent(ev.scent, env.scent_stats(transitions, 0.3))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_interleaved_patches_keep_first_appearance_order(self, seed):
        corpus = interleaved_corpus()
        params, critic_table = self.trained(corpus, seed)
        ev = trainer.evaluate(params, critic_table, corpus, scent_smoothing=0.3)
        transitions, _, _ = per_document_recount(params, critic_table, corpus)
        assert list(ev.scent.per_patch) == ["pb", "pa"]
        assert [ev.scent.per_patch[p].count for p in ("pb", "pa")] == [2, 2]
        assert_same_scent(ev.scent, env.scent_stats(transitions, 0.3))

    def test_builds_no_transition(self, monkeypatch):
        corpus = interleaved_corpus()
        params, critic_table = self.trained(corpus, 0)

        def refuse(self):
            raise AssertionError("a Transition was built")

        monkeypatch.setattr(env.Transition, "__post_init__", refuse)
        ev = trainer.evaluate(params, critic_table, corpus)
        assert len(ev.choices) == len(corpus.documents)

    def test_duplicated_candidate_tie_goes_to_the_lower_index(self):
        corpus = hand_corpus()
        params, critic_table = self.trained(corpus, 0)
        ev = trainer.evaluate(params, critic_table, corpus)
        by_doc = {doc_id: reward for doc_id, _, reward in ev.choices}
        assert (by_doc["d2"], by_doc["d3"]) == (1, 0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_batched_probabilities_equal_per_pair_probabilities_bitwise(self, seed):
        corpus = hand_corpus()
        params, critic_table = self.trained(corpus, seed)
        compiled = corpus.compiled
        batch = critic.batch_class_probabilities(
            compiled.pair_tokens + critic.WORD_ROW_OFFSET, compiled.pair_lengths, critic_table
        )
        _, _, probabilities = per_document_recount(params, critic_table, corpus)
        assert len(probabilities) == len(batch)
        for row, (p, _) in zip(batch, probabilities):
            assert row.tobytes() == p.tobytes()

    def test_compiled_once_per_corpus(self, monkeypatch):
        spy = mock.Mock(wraps=env.compile_corpus)
        monkeypatch.setattr(env, "compile_corpus", spy)
        corpus = small_corpus()
        params, critic_table = trainer.init_params(corpus, small_config())
        trainer.evaluate(params, critic_table, corpus)
        trainer.evaluate(params, critic_table, corpus)
        result = trainer.train(small_config(episodes=20, eval_interval=5), corpus)
        assert len(result.metrics) == 4
        assert spy.call_count == 1

    def test_compiled_arrays_are_read_only(self):
        compiled = hand_corpus().compiled
        with pytest.raises(ValueError):
            compiled.labels[0] = 0

    def test_tables_over_another_vocabulary_rejected(self):
        corpus = hand_corpus()
        params, critic_table = trainer.init_params(corpus, small_config())
        other_params, other_critic = trainer.init_params(small_corpus(), small_config())
        with pytest.raises(ShapeMismatch):
            trainer.evaluate(other_params, critic_table, corpus)
        with pytest.raises(ShapeMismatch):
            trainer.evaluate(params, other_critic, corpus)

    @pytest.mark.parametrize("smoothing", [0.0, float("nan"), 1.5])
    def test_bad_scent_smoothing_rejected_before_the_pass(self, smoothing):
        corpus = hand_corpus()
        params, critic_table = trainer.init_params(corpus, small_config())
        with pytest.raises(ValueError, match="scent smoothing"):
            trainer.evaluate(params, critic_table, corpus, scent_smoothing=smoothing)
        assert "compiled" not in vars(corpus)


class TestNoDensityMatrixOnTrainingPaths:
    """Training and evaluation judge by block masses; building a density matrix fails here."""

    @pytest.fixture(autouse=True)
    def refuse_density(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a density matrix was built")

        monkeypatch.setattr(qcore, "build_density", refuse)
        monkeypatch.setattr(qcore.DensityMatrix, "__post_init__", refuse)

    def test_refusal_reaches_the_reference_judge(self):
        table = critic.ComplexEmbeddingTable.from_vocab(("a",), 6, np.random.default_rng(0))
        with pytest.raises(AssertionError):
            critic.critic_density(["a"], ["a"], table)
        with pytest.raises(AssertionError):
            qcore.DensityMatrix(np.eye(2) / 2)

    def test_bandit_training_and_evaluation(self):
        corpus = small_corpus()
        result = trainer.train(small_config(), corpus)
        assert result.metrics
        trainer.evaluate(result.params, result.critic_table, corpus)

    def test_session_training(self):
        config = small_config(mode="session", episodes=4, eval_interval=2)
        result = trainer.train(config, small_corpus())
        assert result.metrics

    def test_q_estimate_is_expected_reward_of_pre_update_table(self):
        corpus = small_corpus()
        config = small_config()
        params, critic_table = trainer.init_params(corpus, config)
        environment = env.Environment(corpus, np.random.default_rng(12))
        rng = np.random.default_rng(13)
        for _ in range(10):
            obs = environment.reset()
            before = copy.deepcopy(critic_table)
            transition, metrics = trainer.train_step(params, critic_table, obs, config, rng)
            tokens = list(obs.keywords) + list(obs.candidates[transition.chosen_index].tokens)
            p = critic.class_probabilities(tokens, before)
            assert metrics.q_estimate == float(np.dot(critic.CLASS_REWARDS, p))
            assert critic_state_bytes(critic_table) != critic_state_bytes(before)


class TestCheckpointFormat:
    def make(self, tmp_path, **overrides):
        corpus = small_corpus()
        config = small_config(**overrides)
        params, critic_table = trainer.init_params(corpus, config)
        checkpoint = trainer.make_checkpoint(params, critic_table, config)
        path = tmp_path / "checkpoint.txt"
        trainer.save_checkpoint(checkpoint, str(path))
        return corpus, config, params, critic_table, checkpoint, path

    def test_round_trip_is_bitwise(self, tmp_path):
        _, _, _, _, checkpoint, path = self.make(tmp_path)
        loaded = trainer.load_checkpoint(str(path))
        for name in (
            "actor_amplitudes",
            "global_weights",
            "global_factors",
            "critic_amplitudes",
            "critic_phases",
            "critic_salience",
        ):
            original = getattr(checkpoint, name)
            restored = getattr(loaded, name)
            assert restored.shape == original.shape
            assert restored.tobytes() == original.tobytes()
        assert loaded.config_echo == checkpoint.config_echo

    def test_restore_params_rebinds_bitwise(self, tmp_path):
        corpus, config, params, critic_table, _, path = self.make(tmp_path)
        loaded = trainer.load_checkpoint(str(path))
        re_params, re_critic, re_config = trainer.restore_params(loaded, corpus)
        assert actor_state_bytes(re_params) == actor_state_bytes(params)
        assert critic_state_bytes(re_critic) == critic_state_bytes(critic_table)
        assert re_config == config

    def test_stream_state_blocks_of_earlier_files_are_skipped(self, tmp_path):
        corpus, config, params, critic_table, _, path = self.make(tmp_path)
        # Earlier versions appended each PCG64 stream as a row of four integers:
        # state, increment, has_uint32, uinteger.
        with open(path, "a", encoding="utf-8") as fh:
            for name in ("env", "policy"):
                st = stream_rng(config.seed, name).bit_generator.state
                fields = (st["state"]["state"], st["state"]["inc"], st["has_uint32"], st["uinteger"])
                fh.write(f"[rng.{name} 1 4]\n{' '.join(str(int(v)) for v in fields)}\n")
        loaded = trainer.load_checkpoint(str(path))
        re_params, re_critic, _ = trainer.restore_params(loaded, corpus)
        assert actor_state_bytes(re_params) == actor_state_bytes(params)
        assert critic_state_bytes(re_critic) == critic_state_bytes(critic_table)

    def test_discount_echo_of_earlier_files_is_ignored(self, tmp_path):
        corpus, config, params, critic_table, _, path = self.make(tmp_path)
        # Earlier versions trained session mode on discounted returns and
        # echoed the discount factor with the other settings.
        lines = path.read_text().splitlines()
        lines.insert(1, "# discount=0.9")
        path.write_text("\n".join(lines) + "\n")
        loaded = trainer.load_checkpoint(str(path))
        assert loaded.config_echo["discount"] == "0.9"
        re_params, re_critic, re_config = trainer.restore_params(loaded, corpus)
        assert re_config == config
        assert actor_state_bytes(re_params) == actor_state_bytes(params)
        before = trainer.evaluate(params, critic_table, corpus)
        after = trainer.evaluate(re_params, re_critic, corpus)
        assert after.choices == before.choices
        assert after.critic_accuracy == before.critic_accuracy

    def test_failed_save_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        _, _, _, _, checkpoint, path = self.make(tmp_path)
        before = path.read_bytes()

        def fail(_checkpoint):
            raise RuntimeError("disk full")

        monkeypatch.setattr(trainer, "checkpoint_text", fail)
        with pytest.raises(RuntimeError):
            trainer.save_checkpoint(checkpoint, str(path))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.txt"]

    def test_empty_file_is_version_mismatch(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(VersionMismatch) as excinfo:
            trainer.load_checkpoint(str(path))
        assert "<empty file>" in str(excinfo.value)

    def test_wrong_header_is_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("qforage-checkpoint v999\n")
        with pytest.raises(VersionMismatch):
            trainer.load_checkpoint(str(path))

    def test_truncated_block_reports_line(self, tmp_path):
        _, _, _, _, _, path = self.make(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ParseError) as excinfo:
            trainer.load_checkpoint(str(path))
        assert isinstance(excinfo.value.line, int)

    def test_wrong_row_width_reports_line(self, tmp_path):
        _, _, _, _, _, path = self.make(tmp_path)
        lines = path.read_text().splitlines()
        header = next(i for i, l in enumerate(lines) if l.startswith("[actor.amplitudes"))
        lines[header + 1] = lines[header + 1] + " 0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as excinfo:
            trainer.load_checkpoint(str(path))
        assert excinfo.value.line == header + 2

    def test_non_numeric_value_rejected(self, tmp_path):
        _, _, _, _, _, path = self.make(tmp_path)
        lines = path.read_text().splitlines()
        header = next(i for i, l in enumerate(lines) if l.startswith("[critic.phases"))
        row = lines[header + 1].split()
        row[0] = "chewy"
        lines[header + 1] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            trainer.load_checkpoint(str(path))

    def test_unknown_block_rejected(self, tmp_path):
        _, _, _, _, _, path = self.make(tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("[mystery.block 1 1]\n0.0\n")
        with pytest.raises(ParseError) as excinfo:
            trainer.load_checkpoint(str(path))
        assert "mystery.block" in str(excinfo.value)

    def test_missing_blocks_rejected(self, tmp_path):
        path = tmp_path / "thin.txt"
        path.write_text(trainer.CHECKPOINT_HEADER + "\n")
        with pytest.raises(ParseError) as excinfo:
            trainer.load_checkpoint(str(path))
        assert "missing" in str(excinfo.value)

    def test_factor_rows_must_divide_by_rank(self, tmp_path):
        _, _, _, _, _, path = self.make(tmp_path)
        lines = path.read_text().splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("[global.weights"))
        rows = int(lines[start][1:-1].split()[1])
        replacement = ["[global.weights 5 1]"] + ["0.25"] * 5
        lines[start : start + 1 + rows] = replacement
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as excinfo:
            trainer.load_checkpoint(str(path))
        assert "divisible" in str(excinfo.value)

    def test_restore_against_wrong_corpus(self, tmp_path):
        _, _, _, _, checkpoint, _ = self.make(tmp_path)
        other = env.gen_corpus(
            env.CorpusSpec(docs=10, patches=2, vocab_size=80, keyword_count=3),
            np.random.default_rng(202),
        )
        with pytest.raises(CheckpointMismatch):
            trainer.restore_params(checkpoint, other)

    def test_restore_against_another_keyword_count(self, tmp_path):
        corpus, _, _, _, checkpoint, _ = self.make(tmp_path)
        other = env.parse_corpus_lines(env.corpus_lines(corpus), keyword_count=5)
        with pytest.raises(CheckpointMismatch, match="keyword_count=3, corpus has 5"):
            trainer.restore_params(checkpoint, other)


def reference_lines(checkpoint):
    """The checkpoint's lines, each value formatted on its own."""
    lines = [trainer.CHECKPOINT_HEADER]
    lines.extend(f"# {key}={value}" for key, value in checkpoint.config_echo.items())
    for name, block in checkpoint.blocks().items():
        lines.append(f"[{name} {block.shape[0]} {block.shape[1]}]")
        lines.extend(" ".join(f"{float(v):.17g}" for v in row) for row in block)
    return lines


def reference_block(lines, start, name, rows, cols):
    """A block's rows parsed token by token with float(), failing as the loader must."""
    data = np.empty((rows, cols), dtype=np.float64)
    for r in range(rows):
        j = start + r
        if j >= len(lines):
            raise ParseError(f"block {name!r} truncated at row {r}", line=len(lines))
        values = lines[j].split()
        if len(values) != cols:
            raise ParseError(
                f"block {name!r} row has {len(values)} values, expected {cols}", line=j + 1
            )
        try:
            data[r] = [float(v) for v in values]
        except ValueError:
            raise ParseError(f"non-numeric value in block {name!r}", line=j + 1) from None
    return data


SPECIAL_VALUES = [
    -0.0,
    0.0,
    5e-324,
    -5e-324,
    1e308,
    -1e308,
    np.nextafter(1.0, 0.0),
    np.nextafter(1.0, 2.0),
    1.0,
    np.nan,
    np.inf,
    -np.inf,
]


def random_block(rng, rows, cols):
    """Values of every magnitude, with the special values mixed in."""
    block = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300, (rows, cols))
    mask = rng.random((rows, cols)) < 0.2
    block[mask] = rng.choice(SPECIAL_VALUES, size=int(mask.sum()))
    return block


def random_checkpoint(rng, critic_rows):
    rank, order, k, d = 3, 2, 4, 6
    return trainer.Checkpoint(
        actor_amplitudes=random_block(rng, 7, k),
        global_weights=random_block(rng, rank, 1).ravel(),
        global_factors=random_block(rng, rank * order, k).reshape(rank, order, k),
        critic_amplitudes=random_block(rng, critic_rows, d),
        critic_phases=random_block(rng, critic_rows, d),
        critic_salience=random_block(rng, critic_rows, 1).ravel(),
        config_echo={"seed": "3", "temperature": "0.5"},
    )


class TestBlockTextMatchesPerValueReference:
    """Blocks are formatted and parsed whole; each must give what one value at a time gives."""

    @pytest.mark.parametrize("seed, critic_rows", [(1, 5), (2, 1), (3, 40), (4, 0)])
    def test_written_lines_and_parsed_bits(self, tmp_path, seed, critic_rows):
        checkpoint = random_checkpoint(np.random.default_rng(seed), critic_rows)
        lines = reference_lines(checkpoint)
        assert trainer.checkpoint_lines(checkpoint) == lines
        path = tmp_path / "random.txt"
        trainer.save_checkpoint(checkpoint, str(path))
        assert path.read_text() == "".join(line + "\n" for line in lines)

        loaded = trainer.load_checkpoint(str(path))
        for name, block in loaded.blocks().items():
            start = lines.index(f"[{name} {block.shape[0]} {block.shape[1]}]") + 1
            expected = reference_block(lines, start, name, *block.shape)
            assert block.shape == expected.shape
            assert block.tobytes() == expected.tobytes(), name

    def test_every_special_value_round_trips(self, tmp_path):
        block = np.array(SPECIAL_VALUES).reshape(3, 4)
        text = trainer.checkpoint_lines(
            trainer.Checkpoint(
                actor_amplitudes=block,
                global_weights=np.ones(1),
                global_factors=np.ones((1, 1, 1)),
                critic_amplitudes=np.empty((0, 3)),
                critic_phases=np.empty((0, 3)),
                critic_salience=np.empty(0),
                config_echo={},
            )
        )
        assert text[2:5] == [" ".join(f"{float(v):.17g}" for v in row) for row in block]
        parsed = trainer._parse_block(text, 2, "actor.amplitudes", 3, 4)
        assert parsed.tobytes() == reference_block(text, 2, "actor.amplitudes", 3, 4).tobytes()
        assert parsed.tobytes() == block.tobytes()

    # Each edit is applied to the first row of a 3 x 2 block on lines 2-4; the
    # block parser must return the reference's bits or raise its ParseError.
    @pytest.mark.parametrize(
        "rows",
        [
            ["0.5 -1.25", "", "3 4"],  # blank line inside the block
            ["0.5 -1.25", "# 4", "5 6"],  # comment mark as a value
            ["0.5 -1.25 #", "3 4", "5 6"],  # comment mark as an extra token
            ["0.5\t-1.25", "3   4", " \t5 \t 6"],  # tabs and runs of spaces
            ["0.5 -1.25 ", "3 4 ", "5 6  "],  # trailing spaces
            ["0.5 -1.25", "3 4"],  # short last block: the file ends early
            ["0.5 -1.25", "3", "5 6"],  # a short row
            ["0.5 -1.25", "3 4 7", "5 6"],  # a long row
            ["1 2", "3 4", "5 6", "7 8"],  # rows past the block are not read
            ["", "", ""],  # every row blank
            ["nan -inf", "+inf NaN", "Infinity -0"],  # spellings float() and the parser share
            ["0.5 chewy", "3 4", "5 6"],  # not a number
        ],
    )
    def test_edge_cases_match_the_reference(self, rows):
        lines = ["header", "[actor.amplitudes 3 2]"] + rows
        try:
            expected = reference_block(lines, 2, "actor.amplitudes", 3, 2)
        except ParseError as exc:
            with pytest.raises(ParseError) as excinfo:
                trainer._parse_block(lines, 2, "actor.amplitudes", 3, 2)
            assert str(excinfo.value) == str(exc)
            assert excinfo.value.line == exc.line
        else:
            parsed = trainer._parse_block(lines, 2, "actor.amplitudes", 3, 2)
            assert parsed.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows, cols", [(0, 3), (2, 0)])
    def test_blocks_without_values_match_the_reference(self, rows, cols):
        lines = ["header", f"[critic.phases {rows} {cols}]"] + [""] * rows + ["0.5 1"]
        parsed = trainer._parse_block(lines, 2, "critic.phases", rows, cols)
        assert parsed.shape == reference_block(lines, 2, "critic.phases", rows, cols).shape

    def test_underscore_numerals_are_rejected(self):
        # float() reads "1_0" as 10; the writer never emits one, and the
        # block parser rejects it on the line it sits on.
        lines = ["header", "[actor.amplitudes 2 2]", "0.5 1", "1_0 2"]
        assert reference_block(lines, 2, "actor.amplitudes", 2, 2)[1, 0] == 10.0
        with pytest.raises(ParseError) as excinfo:
            trainer._parse_block(lines, 2, "actor.amplitudes", 2, 2)
        assert excinfo.value.line == 4
        assert "non-numeric" in str(excinfo.value)

    def test_bad_row_is_named_in_a_saved_file(self, tmp_path):
        checkpoint = random_checkpoint(np.random.default_rng(5), 4)
        path = tmp_path / "bad.txt"
        trainer.save_checkpoint(checkpoint, str(path))
        lines = path.read_text().splitlines()
        header = lines.index("[critic.amplitudes 4 6]")
        lines[header + 3] = lines[header + 3].replace(" ", "\t", 2) + " #"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as excinfo:
            trainer.load_checkpoint(str(path))
        assert excinfo.value.line == header + 4
        assert "row has 7 values, expected 6" in str(excinfo.value)


def _scale_row(name, row, factor):
    def damage(checkpoint):
        getattr(checkpoint, name)[row] *= factor
    return damage


def _set_value(name, index, value):
    def damage(checkpoint):
        getattr(checkpoint, name)[index] = value
    return damage


def _unpin_padding(checkpoint):
    checkpoint.actor_amplitudes[qrep.NULL_ID] = np.roll(checkpoint.actor_amplitudes[qrep.NULL_ID], 1)


def _negate_critic_amplitude(checkpoint):
    checkpoint.critic_amplitudes[2, 1] *= -1.0


class TestRestoreRejectsBrokenInvariants:
    """restore_params refuses states training never produces, naming the block and row.

    SMALL has query order 3, so factor (r, i) is row 3 r + i of global.factors.
    """

    @pytest.mark.parametrize(
        "damage, block, row",
        [
            (_set_value("actor_amplitudes", (4, 1), np.nan), "actor.amplitudes", 4),
            (_set_value("global_weights", 1, np.inf), "global.weights", 1),
            (_set_value("global_factors", (1, 2, 0), np.nan), "global.factors", 5),
            (_set_value("critic_phases", (2, 0), np.nan), "critic.phases", 2),
            (_set_value("critic_salience", 3, -np.inf), "critic.salience", 3),
        ],
    )
    def test_non_finite_value(self, tmp_path, damage, block, row):
        self.assert_rejected(tmp_path, damage, block, row, "non-finite")

    def test_actor_row_not_unit(self, tmp_path):
        self.assert_rejected(
            tmp_path, _scale_row("actor_amplitudes", 5, 3.0), "actor.amplitudes", 5, "norm"
        )

    def test_factor_row_not_unit(self, tmp_path):
        self.assert_rejected(
            tmp_path, _scale_row("global_factors", (1, 2), 1.0 + 1e-6), "global.factors", 5, "norm"
        )

    def test_critic_row_not_unit(self, tmp_path):
        self.assert_rejected(
            tmp_path, _scale_row("critic_amplitudes", 4, 1.001), "critic.amplitudes", 4, "norm"
        )

    def test_padding_row_not_pinned(self, tmp_path):
        self.assert_rejected(tmp_path, _unpin_padding, "actor.amplitudes", 0, "padding")

    def test_negative_critic_amplitude(self, tmp_path):
        self.assert_rejected(
            tmp_path, _negate_critic_amplitude, "critic.amplitudes", 2, "negative"
        )

    def assert_rejected(self, tmp_path, damage, block, row, reason):
        corpus = small_corpus()
        result = trainer.train(small_config(), corpus)
        checkpoint = copy.deepcopy(result.checkpoint)
        damage(checkpoint)
        path = tmp_path / "damaged.txt"
        trainer.save_checkpoint(checkpoint, str(path))
        loaded = trainer.load_checkpoint(str(path))
        with pytest.raises(CheckpointInvalid) as excinfo:
            trainer.restore_params(loaded, corpus)
        message = str(excinfo.value)
        assert f"{block!r} row {row} " in message
        assert reason in message
        trainer.restore_params(result.checkpoint, corpus)


class TestTrain:
    def test_identical_runs_are_bitwise_identical(self, tmp_path):
        corpus = small_corpus()
        config_a = small_config(checkpoint_path=str(tmp_path / "a.txt"))
        config_b = small_config(checkpoint_path=str(tmp_path / "b.txt"))
        result_a = trainer.train(config_a, corpus)
        result_b = trainer.train(config_b, corpus)
        lines_a = trainer.checkpoint_lines(result_a.checkpoint)
        lines_b = trainer.checkpoint_lines(result_b.checkpoint)
        assert [l for l in lines_a if "checkpoint_path" not in l] == [
            l for l in lines_b if "checkpoint_path" not in l
        ]
        assert result_a.metric_lines() == result_b.metric_lines()
        assert result_a.rewards == result_b.rewards

    def test_saved_checkpoint_matches_result(self, tmp_path):
        corpus = small_corpus()
        path = tmp_path / "final.txt"
        result = trainer.train(small_config(checkpoint_path=str(path)), corpus)
        loaded = trainer.load_checkpoint(str(path))
        assert trainer.checkpoint_lines(loaded) == trainer.checkpoint_lines(result.checkpoint)

    def test_eval_interval_zero_records_nothing(self):
        result = trainer.train(small_config(eval_interval=0, episodes=5), small_corpus())
        assert result.metrics == []
        assert len(result.rewards) == 5

    def test_record_schedule_includes_final_episode(self):
        result = trainer.train(small_config(episodes=5, eval_interval=2), small_corpus())
        assert [row.episode for row in result.metrics] == [2, 4, 5]

    def test_records_fold_the_rewards_since_the_last_record(self):
        config = small_config(episodes=7, eval_interval=3, scent_smoothing=0.3)
        result = trainer.train(config, small_corpus())
        ends = [row.episode for row in result.metrics]
        assert ends == [3, 6, 7]
        for row, start in zip(result.metrics, [0] + ends[:-1]):
            assert row.scent_scalar == env.smoothed(result.rewards[: row.episode], 0.3)
            assert row.avg_reward == float(np.mean(result.rewards[start : row.episode]))

    def test_keyword_count_must_match_the_corpus(self):
        with pytest.raises(ValueError, match="keyword_count=5, but the corpus has 3"):
            trainer.train(small_config(keyword_count=5), small_corpus())
        exact = trainer.train(small_config(episodes=4, eval_interval=2), small_corpus())
        assert [row.episode for row in exact.metrics] == [2, 4]

    def test_window_mean_covers_each_interval(self):
        config = small_config(episodes=20, eval_interval=10)
        result = trainer.train(config, small_corpus())
        np.testing.assert_allclose(
            result.metrics[0].avg_reward, np.mean(result.rewards[:10])
        )
        np.testing.assert_allclose(
            result.metrics[1].avg_reward, np.mean(result.rewards[10:20])
        )

    def test_scent_scalar_matches_recurrence(self):
        config = small_config(episodes=15, eval_interval=5, scent_smoothing=0.3)
        result = trainer.train(config, small_corpus())
        scent = 0.0
        for r in result.rewards:
            scent = 0.3 * r + 0.7 * scent
        assert result.metrics[-1].scent_scalar == scent

    def test_metric_lines_parse_back(self):
        result = trainer.train(small_config(), small_corpus())
        for row, line in zip(result.metrics, result.metric_lines()):
            fields = line.split("\t")
            assert len(fields) == 5
            assert int(fields[0]) == row.episode
            assert float(fields[1]) == row.avg_reward
            assert float(fields[4]) == row.scent_scalar

    def test_session_mode_runs(self):
        config = small_config(mode="session", episodes=4, eval_interval=2)
        result = trainer.train(config, small_corpus())
        assert len(result.rewards) >= 4
        assert result.metrics
        assert all(r in (-1, 0, 1) for r in result.rewards)

    def test_session_mode_learns_toy_corpus_on_all_seeds(self):
        # Criterion 7's corpus and step count: two patches of 25 documents, so
        # 80 session episodes are 2000 steps.
        spec = env.CorpusSpec(docs=50, patches=2, candidates_per_doc=3, noise=0.0)
        accuracies = []
        for seed in (1, 2, 3, 4, 5):
            corpus = env.gen_corpus(spec, np.random.default_rng(seed))
            config = trainer.TrainConfig(episodes=80, seed=seed, mode="session")
            result = trainer.train(config, corpus)
            assert len(result.rewards) == 2000
            ev = trainer.evaluate(result.params, result.critic_table, corpus)
            accuracies.append(ev.greedy_accuracy)
        assert min(accuracies) >= 0.9, accuracies

    def test_empty_corpus_rejected(self):
        empty = env.Corpus(documents=(), vocabulary=(), keyword_count=3)
        with pytest.raises(EmptyCorpus):
            trainer.train(small_config(), empty)

    def test_invalid_config_rejected_before_running(self):
        with pytest.raises(ValueError):
            trainer.train(small_config(mode="batch"), small_corpus())
