"""Tests for the training loop: config handling, update rules, checkpoints.

The update-rule tests pin two algebraic identities rather than training
outcomes: a zero advantage or a zero learning rate leaves the touched side
bit-identical, and freezing the critic at the uniform table reduces the
actor update to plain reward-weighted score ascent reproducible by hand.
Evaluation metrics are re-derived from scratch over the corpus.
"""

import base64
import copy
import dataclasses
import errno
import itertools
import os
import stat
import string
from unittest import mock

import numpy as np
import pytest
from checkpoint_v1 import CRITERION9_V1, V1_HEADER, v1_lines, write_v1
from checkpoint_v2 import CRITERION9_V2, V2, V2_HEADER, v2_lines, write_v2
from checkpoint_v3 import V3, block_span, payload_lines, v3_block_lines, v3_lines
from scent_reference import reference_scent

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


def doc_rows(corpus, j):
    """Document j's candidates as compiled rows, in corpus order."""
    return corpus.compiled.offsets[j] + np.arange(len(corpus.documents[j].candidates))


def run_step(params, critic_table, corpus, rows, config, rng):
    plan = trainer.compile_step_plan(corpus.compiled, config.query_order)
    return trainer.train_step(params, critic_table, plan, rows, config, rng)


def drawn_candidates(corpus, j, rows):
    """The candidates behind an Environment.draw, in the drawn order."""
    doc = corpus.documents[j]
    return [doc.candidates[i] for i in (rows - corpus.compiled.offsets[j]).tolist()]


class TestTrainConfig:
    def test_defaults_validate(self):
        trainer.TrainConfig().validate()

    def test_echo_round_trip(self):
        config = small_config(actor_lr=0.05, mode="session")
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
            {"actor_lr": float("nan")},
            {"critic_lr": float("nan")},
            {"actor_lr": float("inf")},
            {"critic_lr": float("inf")},
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
        neutral_doc = dataclasses.replace(
            doc, candidates=tuple(env.Candidate(c.tokens, 0) for c in doc.candidates)
        )
        # Built directly: a loaded corpus needs a +1 candidate in every document.
        neutral = env.Corpus(
            documents=(neutral_doc,),
            vocabulary=corpus.vocabulary,
            keyword_count=corpus.keyword_count,
        )
        before_actor = actor_state_bytes(params)
        before_critic = critic_state_bytes(critic_table)
        metrics = run_step(
            params, critic_table, neutral, doc_rows(neutral, 0), config, np.random.default_rng(9)
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
        before = actor_state_bytes(params)
        rows = doc_rows(corpus, 0)
        run_step(params, critic_table, corpus, rows, config, np.random.default_rng(9))
        assert actor_state_bytes(params) == before

    def test_zero_critic_lr_freezes_critic(self):
        corpus = small_corpus()
        config = small_config(critic_lr=0.0)
        params, critic_table = trainer.init_params(corpus, small_config())
        before = critic_state_bytes(critic_table)
        rows = doc_rows(corpus, 0)
        run_step(params, critic_table, corpus, rows, config, np.random.default_rng(9))
        assert critic_state_bytes(critic_table) == before

    def test_uniform_critic_reduces_to_reward_weighted_ascent(self):
        corpus = small_corpus()
        config = small_config(critic_lr=0.0)
        params_a, _ = trainer.init_params(corpus, config)
        params_b = copy.deepcopy(params_a)
        critic_table = uniform_critic_table(corpus.vocabulary, config.embed_dim)
        doc = corpus.documents[0]

        metrics = run_step(
            params_a, critic_table, corpus, doc_rows(corpus, 0), config, np.random.default_rng(21)
        )
        assert metrics.advantage == metrics.reward

        candidates = [
            qrep.embed_query(c.tokens, params_b.table, config.query_order)
            for c in doc.candidates
        ]
        rows = np.stack([q.rows for q in candidates])
        index = actor.act(params_b, rows, np.random.default_rng(21))[0]
        assert index == metrics.chosen_index
        reward = doc.candidates[index].label
        if reward != 0:
            ids = np.stack([q.word_ids for q in candidates])
            table_ids, table_rows, weights, factors = actor.actor_gradients(
                params_b, ids, index, float(reward)
            )
            table_grad = np.zeros_like(params_b.table.amplitudes)
            table_grad[table_ids] = table_rows
            params_b.table.amplitudes -= config.actor_lr * table_grad
            params_b.global_rep.weights -= config.actor_lr * weights
            params_b.global_rep.factors -= config.actor_lr * factors
            params_b.table.renormalize()
            params_b.global_rep.renormalize()
        assert actor_state_bytes(params_a) == actor_state_bytes(params_b)

    def test_metrics_fields_are_consistent(self):
        corpus = small_corpus()
        config = small_config()
        params, critic_table = trainer.init_params(corpus, config)
        doc = corpus.documents[0]
        candidates = [
            qrep.embed_query(c.tokens, params.table, config.query_order) for c in doc.candidates
        ]
        index, log_probability, *_ = actor.act(
            params, np.stack([q.rows for q in candidates]), np.random.default_rng(33)
        )
        metrics = run_step(
            params, critic_table, corpus, doc_rows(corpus, 0), config, np.random.default_rng(33)
        )
        assert metrics.chosen_index == index
        assert metrics.reward == doc.candidates[metrics.chosen_index].label
        assert metrics.advantage == metrics.reward - metrics.q_estimate
        assert metrics.log_probability == log_probability
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
                _, rows = environment.draw()
                run_step(params, critic_table, corpus, rows, config, rng)
            states.append(actor_state_bytes(params) + critic_state_bytes(critic_table))
        assert states[0] == states[1]

    def test_invariants_hold_after_updates(self):
        corpus = small_corpus()
        config = small_config()
        params, critic_table = trainer.init_params(corpus, config)
        rng = np.random.default_rng(55)
        environment = env.Environment(corpus, np.random.default_rng(56))
        for _ in range(25):
            _, rows = environment.draw()
            run_step(params, critic_table, corpus, rows, config, rng)
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


def string_path_step(params, critic_table, keywords, drawn, config, rng):
    """A training step from token strings: embed_query rows and word_id lookups.

    `drawn` are the document's candidates in the drawn order. It takes
    train_step's arithmetic in train_step's order, so parameters must come
    out bit for bit the same. It renormalizes whole tables, which leaves
    the bits of every row the step did not touch: those rows are unit
    within the dead band.
    """
    candidates = [qrep.embed_query(c.tokens, params.table, config.query_order) for c in drawn]
    index = actor.act(params, np.stack([q.rows for q in candidates]), rng)[0]
    chosen = drawn[index]
    tokens = list(keywords) + list(chosen.tokens)
    ids = np.asarray([critic_table.word_id(t) for t in tokens], dtype=np.int64)
    _, probabilities, rows, amplitude_rows, salience_rows = critic.critic_loss_and_gradients(
        ids, critic.class_of_reward(chosen.label), critic_table
    )
    q_estimate = float(np.dot(critic.CLASS_REWARDS, probabilities))
    critic_table.amplitudes[rows] -= config.critic_lr * amplitude_rows
    critic_table.salience[rows] -= config.critic_lr * salience_rows
    critic_table.renormalize()
    advantage = chosen.label - q_estimate
    if advantage != 0.0:
        table_ids, table_rows, weights, factors = actor.actor_gradients(
            params, np.stack([q.word_ids for q in candidates]), index, advantage
        )
        params.table.amplitudes[table_ids] -= config.actor_lr * table_rows
        params.global_rep.weights -= config.actor_lr * weights
        params.global_rep.factors -= config.actor_lr * factors
        params.table.renormalize()
        params.global_rep.renormalize()
    return index, chosen.label


class TestCompiledStep:
    """train_step on compiled rows against a step from token strings, bit for bit."""

    @pytest.mark.parametrize("mode", ["bandit", "session"])
    def test_equals_the_string_path_after_every_step(self, mode):
        corpus = small_corpus(docs=8)
        config = small_config(mode=mode)
        params, critic_table = trainer.init_params(corpus, config)
        ref_params, ref_critic = copy.deepcopy(params), copy.deepcopy(critic_table)
        plan = trainer.compile_step_plan(corpus.compiled, config.query_order)
        # One draw feeds both sides: compiled rows here, the Documents' candidates there.
        environment = env.Environment(corpus, np.random.default_rng(90), mode=mode)
        rng, ref_rng = np.random.default_rng(91), np.random.default_rng(91)
        rewards = set()
        for _ in range(50):
            j, rows = environment.draw()
            metrics = trainer.train_step(params, critic_table, plan, rows, config, rng)
            index, reward = string_path_step(
                ref_params,
                ref_critic,
                corpus.documents[j].keywords,
                drawn_candidates(corpus, j, rows),
                config,
                ref_rng,
            )
            assert (metrics.chosen_index, metrics.reward) == (index, reward)
            assert actor_state_bytes(params) == actor_state_bytes(ref_params)
            assert critic_state_bytes(critic_table) == critic_state_bytes(ref_critic)
            rewards.add(reward)
        assert rewards == {-1, 0, 1}


class TestQueryRowIds:
    def test_pads_with_null_and_truncates_at_order(self):
        corpus = hand_corpus()
        word = {w: i + qrep.WORD_ROW_OFFSET for i, w in enumerate(corpus.vocabulary)}
        ids = trainer.query_row_ids(corpus.compiled, 3)
        assert ids.shape == (len(corpus.compiled.labels), 3)
        # d0's candidates: one word, then five.
        assert ids[0].tolist() == [word["alpha"], qrep.NULL_ID, qrep.NULL_ID]
        assert ids[1].tolist() == [word["delta"], word["eps"], word["zeta"]]
        wide = trainer.query_row_ids(corpus.compiled, 7)
        assert wide[1].tolist() == [word[t] for t in "delta eps zeta eta theta".split()] + [
            qrep.NULL_ID
        ] * 2

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 7])
    def test_rows_equal_embed_query_word_ids(self, order):
        corpus = hand_corpus()
        table = qrep.AmplitudeTable.from_vocab(corpus.vocabulary, 3, np.random.default_rng(0))
        ids = trainer.query_row_ids(corpus.compiled, order)
        expected = [
            qrep.embed_query(c.tokens, table, order).word_ids
            for doc in corpus.documents
            for c in doc.candidates
        ]
        assert ids.tolist() == np.stack(expected).tolist()

    def test_built_once_per_train_call(self, monkeypatch):
        spy = mock.Mock(wraps=trainer.query_row_ids)
        monkeypatch.setattr(trainer, "query_row_ids", spy)
        result = trainer.train(small_config(episodes=30, eval_interval=0), small_corpus())
        assert len(result.rewards) == 30
        assert spy.call_count == 1


class TestTrainingPathTouchesNoStrings:
    """Training and evaluation run on compiled rows: no Transition, no query or token lookups by string."""

    @pytest.fixture(autouse=True)
    def refuse_string_paths(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the string path was taken")

        monkeypatch.setattr(env.Transition, "__post_init__", refuse)
        monkeypatch.setattr(env.Environment, "reset", refuse)
        monkeypatch.setattr(env, "step", refuse)
        monkeypatch.setattr(qrep, "embed_query", refuse)
        monkeypatch.setattr(critic, "token_ids", refuse)

    @pytest.mark.parametrize("mode", ["bandit", "session"])
    def test_train_builds_no_transition(self, mode):
        corpus = small_corpus()
        result = trainer.train(small_config(mode=mode, episodes=6, eval_interval=3), corpus)
        assert len(result.metrics) == 2
        assert set(result.rewards) <= {-1, 0, 1}
        trainer.evaluate(result.params, result.critic_table, corpus)


class TestNoStepDataclassesOnTrainingPaths:
    """Training steps run on the array routines, not the checked actor and critic entry points.

    The checked entry points re-check what the compiled corpus settles; calling
    one from training or evaluation fails here.
    """

    @pytest.fixture(autouse=True)
    def refuse_checked_entry_points(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a checked entry point was called")

        for name in ("act", "actor_forward", "select_action", "actor_gradients"):
            monkeypatch.setattr(actor, name, refuse)
        monkeypatch.setattr(critic, "critic_loss_and_gradients", refuse)

    @pytest.mark.parametrize("mode", ["bandit", "session"])
    def test_training_and_evaluation(self, mode):
        corpus = small_corpus()
        result = trainer.train(small_config(mode=mode, episodes=10, eval_interval=5), corpus)
        assert len(result.metrics) == 2
        trainer.evaluate(result.params, result.critic_table, corpus)


class TestWordIndexIsBuiltOnFirstLookup:
    """A table builds its word -> row map on the first word_id call, so training never pays for it."""

    @pytest.mark.parametrize("mode", ["bandit", "session"])
    def test_training_and_evaluation_build_no_word_index(self, mode):
        corpus = small_corpus()
        result = trainer.train(small_config(mode=mode, episodes=6, eval_interval=3), corpus)
        trainer.evaluate(result.params, result.critic_table, corpus)
        assert "_index" not in vars(result.params.table)
        assert "_index" not in vars(result.critic_table)

    @pytest.mark.parametrize("source", ["init_params", "restore_params"])
    def test_word_id_gives_every_words_row(self, tmp_path, source):
        corpus = small_corpus()
        config = small_config()
        params, critic_table = trainer.init_params(corpus, config)
        if source == "restore_params":
            path = tmp_path / "checkpoint.txt"
            trainer.save_checkpoint(trainer.make_checkpoint(params, critic_table, config), str(path))
            params, critic_table, _ = trainer.restore_params(trainer.load_checkpoint(str(path)), corpus)
        for table, module in ((params.table, qrep), (critic_table, critic)):
            assert "_index" not in vars(table)
            rows = [table.word_id(word) for word in corpus.vocabulary]
            assert rows == list(range(module.WORD_ROW_OFFSET, table.num_rows))
            assert table.word_id("not-a-vocabulary-word") == module.UNK_ID
            assert "_index" in vars(table)


def dense_reference_table_gradient(params, candidates, chosen, advantage):
    """The (V, k) amplitude gradient accumulated straight into a full table with np.add.at."""
    scores, _, dots = qrep.project_rows(params.global_rep, np.stack([q.rows for q in candidates]))
    probs = actor.policy_probabilities(scores, params.temperature)
    one_hot = np.zeros_like(probs)
    one_hot[chosen] = 1.0
    g_scores = -advantage * (one_hot - probs) / params.temperature
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
            j, rows = environment.draw()
            before = (
                params.table.amplitudes.copy(),
                critic_table.amplitudes.copy(),
                critic_table.salience.copy()[:, None],
            )
            metrics = run_step(params, critic_table, corpus, rows, config, rng)
            actor_rows, critic_rows = step_rows(
                params, critic_table, corpus.documents[j].keywords,
                drawn_candidates(corpus, j, rows), metrics.chosen_index, config.query_order,
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
            ids = np.stack([q.word_ids for q in candidates])
            table_ids, table_rows, _, _ = actor.actor_gradients(params, ids, 2, 0.7)
            assert table_rows.shape[0] <= len(candidates) * order
            assert table_ids.max() < table.num_rows == size
            shapes.append((table_ids.shape, table_rows.shape))
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
            ids = np.stack([q.word_ids for q in candidates])
            table_ids, table_rows, _, _ = actor.actor_gradients(params, ids, chosen, advantage)
            dense = dense_reference_table_gradient(params, candidates, chosen, advantage)
            table_grad = np.zeros_like(params.table.amplitudes)
            table_grad[table_ids] = table_rows
            assert table_grad.tobytes() == dense.tobytes()
            assert list(table_ids) == sorted({int(i) for q in candidates for i in q.word_ids})


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
            scores = qrep.project_rows(params.global_rep, np.stack([q.rows for q in states]))[0]
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


# The hand corpus plus documents of 1 and 3 candidates, with words repeated
# within a query (mu, xi) and across a document's candidates (nu). The parser
# wants two candidates per document, so d4's second is dropped after parsing.
PLAN_CORPUS = HAND_CORPUS + [
    "d4\tpc\tmu nu mu\tmu mu nu\t1",
    "d4\tpc\tmu nu mu\tnu\t0",
    "d5\tpc\tnu xi\tnu\t0",
    "d5\tpc\tnu xi\txi nu xi omicron\t1",
    "d5\tpc\tnu xi\tpi\t-1",
]


class TestStepPlan:
    """The plan's slices against np.unique(..., return_inverse=True) on each document and pair."""

    def plan_corpus(self):
        corpus = env.parse_corpus_lines(PLAN_CORPUS, keyword_count=3)
        documents = tuple(
            dataclasses.replace(doc, candidates=doc.candidates[:1]) if doc.doc_id == "d4" else doc
            for doc in corpus.documents
        )
        return dataclasses.replace(corpus, documents=documents)

    def test_plan_corpus_covers_its_cases(self):
        compiled = self.plan_corpus().compiled
        counts = np.diff(np.append(compiled.offsets, len(compiled.labels)))
        assert set(counts.tolist()) == {1, 2, 3, 4}
        assert compiled.query_lengths.min() < 3 < compiled.query_lengths.max()
        ids = trainer.query_row_ids(compiled, 3)
        # Short queries repeat NULL_ID; some query repeats a word; some document repeats one.
        assert any((row == qrep.NULL_ID).sum() >= 2 for row in ids)
        assert any(len(set(q[:n].tolist())) < n for q, n in zip(
            compiled.query_tokens, np.minimum(compiled.query_lengths, 3)))
        pairs = [p[:n].tolist() for p, n in zip(compiled.pair_tokens, compiled.pair_lengths)]
        assert any(len(set(p)) < len(p) for p in pairs)

    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_slices_equal_np_unique_per_document_and_pair(self, order):
        compiled = self.plan_corpus().compiled
        plan = trainer.compile_step_plan(compiled, order)
        query_ids = trainer.query_row_ids(compiled, order)
        assert plan.query_ids.tobytes() == query_ids.tobytes()
        assert plan.labels.tobytes() == compiled.labels.tobytes()
        rng = np.random.default_rng(order)
        counts = np.diff(np.append(compiled.offsets, len(compiled.labels)))
        for first, count in zip(compiled.offsets, counts):
            rows = first + rng.permutation(count)
            expected_rows, expected_positions = np.unique(
                query_ids[rows].ravel(), return_inverse=True
            )
            table_ids, positions = plan.actor_unique(rows)
            assert table_ids.tolist() == expected_rows.tolist()
            assert positions.tolist() == expected_positions.tolist()
        for row in range(len(compiled.labels)):
            pair = compiled.pair_tokens[row, : compiled.pair_lengths[row]] + critic.WORD_ROW_OFFSET
            ids, unique, occurrence = plan.critic_unique(row)
            assert ids.tolist() == pair.tolist()
            expected_rows, expected_occurrence = np.unique(pair, return_inverse=True)
            assert unique.tolist() == expected_rows.tolist()
            assert occurrence.tolist() == expected_occurrence.tolist()

    @pytest.mark.parametrize("mode", ["bandit", "session"])
    def test_train_calls_np_unique_on_no_step(self, monkeypatch, mode):
        calls = []
        real = np.unique

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting)
        result = trainer.train(small_config(mode=mode, episodes=30, eval_interval=0), small_corpus())
        assert len(result.rewards) >= 30
        assert calls == []


def assert_scent_equals_reference(got, rewards, patch_ids, smoothing):
    """Every scent field bit for bit against the per-reward reference_scent."""
    (scalar, frequencies, _), per_patch = reference_scent(rewards, patch_ids, smoothing)
    assert got.scalar == scalar
    assert got.frequencies.tobytes() == frequencies.tobytes()
    assert list(got.per_patch) == list(per_patch)
    for patch_id, (scalar, frequencies, count) in per_patch.items():
        patch = got.per_patch[patch_id]
        assert (patch.scalar, patch.count) == (scalar, count)
        assert patch.frequencies.tobytes() == frequencies.tobytes()


def per_document_recount(params, critic_table, corpus):
    """evaluate's metrics from one document and one pair at a time.

    Returns each document's greedy reward and patch id, its choice record,
    and every pair's class probabilities with the class of its label.
    """
    order = params.global_rep.order
    rewards, patch_ids, choices, probabilities = [], [], [], []
    for doc in corpus.documents:
        states = [qrep.embed_query(c.tokens, params.table, order) for c in doc.candidates]
        scores = qrep.project_rows(params.global_rep, np.stack([q.rows for q in states]))[0]
        index = int(np.argmax(scores))
        reward = doc.candidates[index].label
        rewards.append(reward)
        patch_ids.append(doc.patch_id)
        choices.append((doc.doc_id, doc.candidates[index].tokens, reward))
        for cand in doc.candidates:
            p = critic.class_probabilities(list(doc.keywords) + list(cand.tokens), critic_table)
            probabilities.append((p, critic.class_of_reward(cand.label)))
    return rewards, patch_ids, choices, probabilities


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
        rewards, patch_ids, choices, probabilities = per_document_recount(
            params, critic_table, corpus
        )
        assert ev.choices == choices
        assert ev.greedy_accuracy == rewards.count(1) / len(rewards)
        assert ev.mean_reward == float(np.mean(rewards))
        hits = sum(int(np.argmax(p)) == label for p, label in probabilities)
        assert ev.critic_accuracy == hits / len(probabilities)
        assert_scent_equals_reference(ev.scent, rewards, patch_ids, 0.3)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_interleaved_patches_keep_first_appearance_order(self, seed):
        corpus = interleaved_corpus()
        params, critic_table = self.trained(corpus, seed)
        ev = trainer.evaluate(params, critic_table, corpus, scent_smoothing=0.3)
        rewards, patch_ids, _, _ = per_document_recount(params, critic_table, corpus)
        assert list(ev.scent.per_patch) == ["pb", "pa"]
        assert [ev.scent.per_patch[p].count for p in ("pb", "pa")] == [2, 2]
        assert_scent_equals_reference(ev.scent, rewards, patch_ids, 0.3)

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
        *_, probabilities = per_document_recount(params, critic_table, corpus)
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
            j, rows = environment.draw()
            before = copy.deepcopy(critic_table)
            metrics = run_step(params, critic_table, corpus, rows, config, rng)
            chosen = drawn_candidates(corpus, j, rows)[metrics.chosen_index]
            tokens = list(corpus.documents[j].keywords) + list(chosen.tokens)
            p = critic.class_probabilities(tokens, before)
            assert metrics.q_estimate == float(np.dot(critic.CLASS_REWARDS, p))
            assert critic_state_bytes(critic_table) != critic_state_bytes(before)


def init_checkpoint_file(tmp_path, write=trainer.save_checkpoint, **overrides):
    """Init-time parameters over small_corpus(), written to tmp_path / "checkpoint.txt"."""
    corpus = small_corpus()
    config = small_config(**overrides)
    params, critic_table = trainer.init_params(corpus, config)
    checkpoint = trainer.make_checkpoint(params, critic_table, config)
    path = tmp_path / "checkpoint.txt"
    write(checkpoint, str(path))
    return corpus, config, params, critic_table, checkpoint, path


CHECKPOINT_FIELDS = (
    "actor_amplitudes",
    "global_weights",
    "global_factors",
    "critic_amplitudes",
    "critic_phases",
    "critic_salience",
)


def assert_same_checkpoint_bits(loaded, checkpoint):
    for name in CHECKPOINT_FIELDS:
        original = getattr(checkpoint, name)
        restored = getattr(loaded, name)
        assert restored.shape == original.shape, name
        assert restored.tobytes() == original.tobytes(), name


class CheckpointFileCases:
    """Round trips and damaged files, written once for either layout (`layout`)."""

    layout = V2

    def make(self, tmp_path, **overrides):
        return init_checkpoint_file(tmp_path, self.layout.write, **overrides)

    def test_round_trip_is_bitwise(self, tmp_path):
        _, _, _, _, checkpoint, path = self.make(tmp_path)
        loaded = trainer.load_checkpoint(str(path))
        assert loaded.header == self.layout.header
        assert_same_checkpoint_bits(loaded, checkpoint)
        assert loaded.config_echo == checkpoint.config_echo

    def test_restore_params_rebinds_bitwise(self, tmp_path):
        corpus, config, params, critic_table, _, path = self.make(tmp_path)
        loaded = trainer.load_checkpoint(str(path))
        re_params, re_critic, re_config = trainer.restore_params(loaded, corpus)
        assert actor_state_bytes(re_params) == actor_state_bytes(params)
        assert critic_state_bytes(re_critic) == critic_state_bytes(critic_table)
        assert re_config == config

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

    def test_unknown_block_rejected(self, tmp_path):
        _, _, _, _, _, path = self.make(tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("".join(l + "\n" for l in self.layout.block_lines("mystery.block", [[0.0]])))
        with pytest.raises(ParseError) as excinfo:
            trainer.load_checkpoint(str(path))
        assert "mystery.block" in str(excinfo.value)

    @pytest.mark.parametrize("shape", ["-1 1", "1 -1", "-1 -1"])
    def test_negative_block_shape_reports_the_header_line(self, tmp_path, shape):
        _, _, _, _, _, path = self.make(tmp_path)
        lines = path.read_text().splitlines()
        header = next(i for i, l in enumerate(lines) if l.startswith("[global.weights"))
        lines[header] = f"[global.weights {shape}]"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="negative block shape") as excinfo:
            trainer.load_checkpoint(str(path))
        assert excinfo.value.line == header + 1

    def test_repeated_block_reports_the_second_header(self, tmp_path):
        _, _, _, _, checkpoint, path = self.make(tmp_path)
        # A later copy with two rows swapped: still unit rows, a pinned padding
        # row and the right shape, so only the repetition gives it away.
        order = np.arange(len(checkpoint.actor_amplitudes))
        order[[2, 3]] = order[[3, 2]]
        swapped = checkpoint.actor_amplitudes[order]
        header = len(path.read_text().splitlines()) + 1
        with open(path, "a", encoding="utf-8") as fh:
            block = self.layout.block_lines("actor.amplitudes", swapped)
            fh.write("".join(l + "\n" for l in block))
        with pytest.raises(ParseError, match="twice") as excinfo:
            trainer.load_checkpoint(str(path))
        assert excinfo.value.line == header

    def test_missing_blocks_rejected(self, tmp_path):
        path = tmp_path / "thin.txt"
        path.write_text(self.layout.header + "\n")
        with pytest.raises(ParseError) as excinfo:
            trainer.load_checkpoint(str(path))
        assert "missing" in str(excinfo.value)

    def test_factor_rows_must_divide_by_rank(self, tmp_path):
        _, _, _, _, _, path = self.make(tmp_path)
        lines = path.read_text().splitlines()
        start, end = block_span(lines, "global.weights")
        lines[start:end] = self.layout.block_lines("global.weights", np.full((5, 1), 0.25))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as excinfo:
            trainer.load_checkpoint(str(path))
        assert "divisible" in str(excinfo.value)


class TestCheckpointFormat(CheckpointFileCases):
    """v2 files, the in-memory checks, and what files before v3 may hold."""

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
        # echoed the discount factor with the other settings; they also
        # echoed the path the file was written to.
        lines = path.read_text().splitlines()
        lines.insert(1, "# discount=0.9")
        lines.insert(10, "# checkpoint_path=out/checkpoint.txt")
        path.write_text("\n".join(lines) + "\n")
        loaded = trainer.load_checkpoint(str(path))
        assert loaded.config_echo["discount"] == "0.9"
        assert loaded.config_echo["checkpoint_path"] == "out/checkpoint.txt"
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

        monkeypatch.setattr(trainer, "checkpoint_bytes", fail)
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

    def test_non_numeric_value_rejected(self, tmp_path):
        # A v1 file, the only layout that stores critic.phases.
        _, _, _, _, checkpoint, path = self.make(tmp_path)
        lines = v1_lines(checkpoint)
        header = next(i for i, l in enumerate(lines) if l.startswith("[critic.phases"))
        row = lines[header + 1].split()
        row[0] = "chewy"
        lines[header + 1] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            trainer.load_checkpoint(str(path))

    def test_restore_against_wrong_corpus(self, tmp_path):
        _, _, _, _, checkpoint, _ = self.make(tmp_path)
        other = env.gen_corpus(
            env.CorpusSpec(docs=10, patches=2, vocab_size=80, keyword_count=3),
            np.random.default_rng(202),
        )
        with pytest.raises(CheckpointMismatch):
            trainer.restore_params(checkpoint, other)

    @pytest.mark.parametrize(
        "key, value, block",
        [
            ("rank", "5", "global.weights"),
            ("query_order", "2", "global.factors"),
            ("basis_dim", "4", "actor.amplitudes"),
            ("embed_dim", "9", "critic.amplitudes"),
        ],
    )
    def test_blocks_must_fit_the_echoed_sizes(self, tmp_path, key, value, block):
        corpus, _, _, _, checkpoint, _ = self.make(tmp_path)
        edited = dataclasses.replace(checkpoint, config_echo={**checkpoint.config_echo, key: value})
        with pytest.raises(CheckpointInvalid, match=f"block {block!r} has shape"):
            trainer.checkpoint_config(edited)
        with pytest.raises(CheckpointInvalid, match=f"{key}={value}"):
            trainer.restore_params(edited, corpus)

    @pytest.mark.parametrize(
        "field, shape, block",
        [
            ("global_factors", (4, 0, 3), "global.factors"),
            ("global_factors", (4, 0, 0), "global.factors"),
            ("actor_amplitudes", (0, 3), "actor.amplitudes"),
            ("actor_amplitudes", (1, 3), "actor.amplitudes"),
            ("critic_phases", (0, 0), "critic.phases"),
            ("critic_salience", (0,), "critic.salience"),
        ],
    )
    def test_empty_blocks_are_refused_before_any_is_indexed(self, tmp_path, field, shape, block):
        _, _, _, _, checkpoint, _ = self.make(tmp_path)
        edited = dataclasses.replace(checkpoint, **{field: np.zeros(shape)})
        with pytest.raises(CheckpointInvalid, match=f"block {block!r} has "):
            trainer.checkpoint_config(edited)

    def test_restore_against_another_keyword_count(self, tmp_path):
        corpus, _, _, _, checkpoint, _ = self.make(tmp_path)
        other = env.parse_corpus_lines(env.corpus_lines(corpus), keyword_count=5)
        with pytest.raises(CheckpointMismatch, match="keyword_count=3, corpus has 5"):
            trainer.restore_params(checkpoint, other)



#: The base64 alphabet in index order.
B64_ALPHABET = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"


# Edits of the full v3 payload line i that change its group or line widths.
def _moved_space(lines, i):
    lines[i] = lines[i][:76] + lines[i][77] + " " + lines[i][78:]


def _extra_space(lines, i):
    lines[i] = lines[i][:100] + " " + lines[i][101:]


def _unbroken(lines, i):
    lines[i] = lines[i].replace(" ", "")


def _tab_separators(lines, i):
    lines[i] = lines[i].replace(" ", "\t")


def _trailing_space(lines, i):
    lines[i] += " "


def _fifteen_groups(lines, i):
    """The line's last group moves to the start of the next line."""
    lines[i : i + 2] = [lines[i][:-77], lines[i][-76:] + " " + lines[i + 1]]


class TestCheckpointFormatV3(CheckpointFileCases):
    """v3 files: the same cases, and a payload loads only as the writer writes it.

    Every damaged payload raises a ParseError that names the block and the
    file line.
    """

    layout = V3

    def saved_lines(self, tmp_path):
        path = self.make(tmp_path)[-1]
        return path, path.read_text().splitlines()

    @staticmethod
    def load_error(path, lines):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            trainer.load_checkpoint(str(path))
        return excinfo.value

    def test_payload_truncated_at_the_end_of_the_file(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        assert lines[-2].startswith("[critic.salience ")
        error = self.load_error(path, lines[:-1])
        assert "block 'critic.salience' truncated at payload line 1 of 1" in str(error)
        assert error.line == len(lines) - 1

    def test_payload_truncated_before_the_next_block(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        start, end = block_span(lines, "actor.amplitudes")
        assert end - start == 3
        del lines[end - 1]
        error = self.load_error(path, lines)
        assert "block 'actor.amplitudes' truncated at payload line 2 of 2" in str(error)
        assert error.line == end and lines[end - 1].startswith("[global.weights ")

    def test_extra_payload_line(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        _, end = block_span(lines, "actor.amplitudes")
        lines.insert(end, lines[end - 1])
        error = self.load_error(path, lines)
        assert "after the lines of block 'actor.amplitudes'" in str(error)
        assert error.line == end + 1

    @pytest.mark.parametrize(
        "char, at",
        [("!", 100), ("-", 100), ("_", 100), ("\t", 100), ("é", 100), ("=", 100), ("=", -1)],
        ids=[
            "bang", "dash", "underscore", "tab", "non-ascii", "padding-inside", "padding-at-line-end"
        ],
    )
    def test_non_base64_character(self, tmp_path, char, at):
        path, lines = self.saved_lines(tmp_path)
        start, _ = block_span(lines, "critic.amplitudes")
        line = lines[start + 2]
        at %= len(line)
        assert line[at] != " "
        lines[start + 2] = line[:at] + char + line[at + 1 :]
        error = self.load_error(path, lines)
        assert "block 'critic.amplitudes' payload line is not base64" in str(error)
        assert error.line == start + 3

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_moved_space, "not groups"),
            (_extra_space, "not groups"),
            (_unbroken, "characters, expected 1231"),
            (_tab_separators, "not groups"),
            (_trailing_space, "characters, expected 1231"),
            (_fifteen_groups, "characters, expected 1231"),
        ],
        ids=["moved-space", "extra-space", "unbroken", "tabs", "trailing-space", "15-groups"],
    )
    def test_group_and_line_widths_must_be_the_writers(self, tmp_path, edit, message):
        path, lines = self.saved_lines(tmp_path)
        start, end = block_span(lines, "critic.amplitudes")
        assert end - start == 4  # 1 968 bytes: two full lines and one of 144 bytes
        edit(lines, start + 1)
        error = self.load_error(path, lines)
        assert "block 'critic.amplitudes' payload line" in str(error)
        assert message in str(error)
        assert error.line == start + 2

    @pytest.mark.parametrize("edit", ["padding-removed", "spare-bits-set"])
    def test_payload_must_decode_to_exactly_the_block(self, tmp_path, edit):
        path, lines = self.saved_lines(tmp_path)
        # critic.salience holds 41 values, 328 bytes: its last group ends in
        # one byte, encoded "xy==", where y's low four bits are spare.
        assert lines[-2] == "[critic.salience 41 1]" and lines[-1].endswith("==")
        if edit == "padding-removed":
            lines[-1] = lines[-1][:-2] + "AA"
        else:
            written, spare = lines[-1], lines[-1][-3]
            lines[-1] = written[:-3] + B64_ALPHABET[B64_ALPHABET.index(spare) ^ 1] + "=="
            # The same bytes, from text the writer never writes.
            decoded = base64.b64decode(lines[-1].replace(" ", ""))
            assert decoded == base64.b64decode(written.replace(" ", ""))
        error = self.load_error(path, lines)
        assert "block 'critic.salience' payload does not decode to its 328 bytes" in str(error)
        assert error.line == len(lines)

    def test_stream_state_blocks_are_unknown(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        error = self.load_error(path, lines + v3_block_lines("rng.env", np.zeros((1, 4))))
        assert "unknown block 'rng.env'" in str(error)
        assert error.line == len(lines) + 1

    def test_blocks_without_values_have_no_payload_lines(self, tmp_path):
        checkpoint = with_init_phases(random_checkpoint(np.random.default_rng(4), critic_rows=0))
        path = tmp_path / "empty-critic.txt"
        trainer.save_checkpoint(checkpoint, str(path))
        lines = path.read_text().splitlines()
        start = lines.index("[critic.amplitudes 0 6]")
        assert lines[start + 1 :] == ["[critic.salience 0 1]"]
        loaded = trainer.load_checkpoint(str(path))
        assert_same_checkpoint_bits(loaded, checkpoint)


class TestSaveIsDurable:
    """A save fsyncs the temporary file, renames it onto the target, then fsyncs the directory."""

    def test_fsync_file_then_rename_then_fsync_directory(self, tmp_path, monkeypatch):
        _, _, _, _, checkpoint, path = init_checkpoint_file(tmp_path)
        calls = []

        def fsync(fd, real=os.fsync):
            st = os.fstat(fd)
            calls.append(("fsync", st.st_ino, None if stat.S_ISDIR(st.st_mode) else st.st_size))
            real(fd)

        def replace(src, dst, real=os.replace):
            calls.append(("replace", os.path.basename(src), os.path.basename(dst)))
            real(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        trainer.save_checkpoint(checkpoint, str(path))
        assert calls == [
            ("fsync", path.stat().st_ino, len(trainer.checkpoint_bytes(checkpoint))),
            ("replace", "checkpoint.txt.tmp", "checkpoint.txt"),
            ("fsync", tmp_path.stat().st_ino, None),
        ]

    @pytest.mark.parametrize("failing", [1, 2], ids=["file", "directory"])
    def test_failed_fsync_leaves_a_whole_file_and_no_temporary(
        self, tmp_path, monkeypatch, failing
    ):
        corpus, config, _, _, _, path = init_checkpoint_file(tmp_path)
        before = path.read_bytes()
        later = trainer.train(config, corpus).checkpoint
        calls = []

        def fsync(fd, real=os.fsync):
            calls.append(fd)
            if len(calls) == failing:
                raise OSError(errno.EIO, "fsync failed")
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        with pytest.raises(OSError, match="fsync failed"):
            trainer.save_checkpoint(later, str(path))
        # Before the rename the earlier file stays; after it the new file is whole.
        expected = before if failing == 1 else trainer.checkpoint_bytes(later)
        assert path.read_bytes() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.txt"]


def phase_corpora():
    """Two corpora of different vocabulary sizes."""
    return [small_corpus(), small_corpus(seed=7, docs=20)]


class PhasesLeftOutCases:
    """v2 and v3 files leave critic.phases out; a load redraws them from the echoed seed."""

    layout = V2

    @pytest.mark.parametrize("seed", [0, 9, 2**40 + 3])
    def test_redraw_is_the_init_draw(self, tmp_path, seed):
        path = tmp_path / "checkpoint.txt"
        for corpus in phase_corpora():
            for k, n, rank, d in itertools.product((1, 4), (1, 5), (1, 10), (3, 12)):
                config = trainer.TrainConfig(
                    seed=seed, basis_dim=k, query_order=n, rank=rank, embed_dim=d,
                    keyword_count=corpus.keyword_count,
                )
                params, critic_table = trainer.init_params(corpus, config)
                self.layout.write(trainer.make_checkpoint(params, critic_table, config), str(path))
                assert "[critic.phases" not in path.read_text()
                loaded = trainer.load_checkpoint(str(path))
                assert loaded.critic_phases.shape == critic_table.phases.shape
                assert loaded.critic_phases.tobytes() == critic_table.phases.tobytes()

    @pytest.mark.parametrize("seed", [0, 9, 2**40 + 3])
    def test_cold_redraw_is_the_init_draw(self, tmp_path, seed):
        """As above, with no remembered init state: each load replays the whole stream."""
        path = tmp_path / "checkpoint.txt"
        for corpus in phase_corpora():
            for k, n, rank, d in itertools.product((1, 4), (1, 5), (1, 10), (3, 12)):
                config = trainer.TrainConfig(
                    seed=seed, basis_dim=k, query_order=n, rank=rank, embed_dim=d,
                    keyword_count=corpus.keyword_count,
                )
                params, critic_table = trainer.init_params(corpus, config)
                self.layout.write(trainer.make_checkpoint(params, critic_table, config), str(path))
                trainer._PHASE_STATES.clear()
                loaded = trainer.load_checkpoint(str(path))
                assert loaded.critic_phases.shape == critic_table.phases.shape
                assert loaded.critic_phases.tobytes() == critic_table.phases.tobytes()

    def test_trained_file_restores_every_parameter(self, tmp_path):
        corpus = small_corpus()
        path = tmp_path / "checkpoint.txt"
        result = trainer.train(small_config(), corpus)
        self.layout.write(result.checkpoint, str(path))
        assert path.read_text().splitlines()[0] == self.layout.header
        params, critic_table, _ = trainer.restore_params(trainer.load_checkpoint(str(path)), corpus)
        assert actor_state_bytes(params) == actor_state_bytes(result.params)
        assert critic_state_bytes(critic_table) == critic_state_bytes(result.critic_table)

    @pytest.mark.parametrize("seed_line", [None, "# seed=", "# seed=1.5", "# seed=five"])
    def test_seed_echo_must_be_an_integer(self, tmp_path, seed_line):
        _, _, _, _, _, path = init_checkpoint_file(tmp_path, self.layout.write)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("# seed=")]
        if seed_line is not None:
            lines.insert(1, seed_line)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointInvalid, match="redrawn from an integer seed"):
            trainer.load_checkpoint(str(path))

    def test_stored_phases_block_is_rejected(self, tmp_path):
        _, _, _, critic_table, _, path = init_checkpoint_file(tmp_path, self.layout.write)
        phases = self.layout.block_lines("critic.phases", critic_table.phases)
        lines = path.read_text().splitlines() + phases
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="does not store block 'critic.phases'") as excinfo:
            trainer.load_checkpoint(str(path))
        assert excinfo.value.line == len(lines) - len(phases) + 1


class TestCheckpointV2(PhasesLeftOutCases):
    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: c.critic_phases.__setitem__((1, 2), np.nextafter(c.critic_phases[1, 2], 9.0)),
            lambda c: c.config_echo.__setitem__("seed", "6"),
        ],
        ids=["phase-one-ulp-off", "other-seed"],
    )
    def test_save_refuses_phases_that_are_not_the_init_draw(self, tmp_path, edit):
        _, _, _, _, checkpoint, path = init_checkpoint_file(tmp_path)
        before = path.read_bytes()
        edit(checkpoint)
        with pytest.raises(CheckpointInvalid, match="block 'critic.phases' is not the init draw"):
            trainer.save_checkpoint(checkpoint, str(path))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.txt"]


class TestCheckpointV3(PhasesLeftOutCases):
    layout = V3


def replayed_phases(seed, actor_shape, factor_shape, critic_shape):
    """The init stream's phases, drawn after its four normals from a fresh generator."""
    rng = stream_rng(seed, "init")
    for shape in (actor_shape, factor_shape, factor_shape[0], critic_shape):
        rng.standard_normal(shape)
    return rng.uniform(-np.pi, np.pi, size=critic_shape)


def echoed_phases(seed, actor_shape, factor_shape, critic_shape):
    return trainer.echoed_init_phases(
        {"seed": str(seed)}, np.empty(actor_shape), np.empty(factor_shape), np.empty(critic_shape)
    )


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestRememberedInitState:
    """init_draws remembers the init stream's state after its normals, and
    echoed_init_phases draws only the phases from it: the same bits as a replay."""

    SHAPES = [
        ((3, 1), (1, 1, 1), (1, 1)),
        ((3, 4), (1, 5, 4), (1, 12)),
        ((42, 3), (4, 3, 3), (41, 6)),
        ((101, 4), (10, 5, 4), (100, 12)),
    ]

    @pytest.mark.parametrize("seed", [0, 9, 2**40 + 3])
    @pytest.mark.parametrize("shapes", SHAPES, ids=lambda s: f"critic{s[2]}")
    def test_warm_draw_is_the_full_replay(self, seed, shapes):
        trainer._PHASE_STATES.clear()
        full = trainer.init_draws(seed, *shapes)[-1]
        assert (seed, *shapes) in trainer._PHASE_STATES
        with mock.patch.object(trainer, "init_draws", wraps=trainer.init_draws) as draws:
            warm = echoed_phases(seed, *shapes)
        assert draws.call_count == 0
        assert same_bits(warm, full)
        assert same_bits(warm, replayed_phases(seed, *shapes))

    def test_save_and_load_after_init_params_draw_no_normals(self, tmp_path):
        corpus = small_corpus()
        config = small_config()
        params, critic_table = trainer.init_params(corpus, config)
        checkpoint = trainer.make_checkpoint(params, critic_table, config)
        path = tmp_path / "checkpoint.txt"
        with mock.patch.object(trainer, "init_draws", wraps=trainer.init_draws) as draws:
            trainer.save_checkpoint(checkpoint, str(path))
            loaded = trainer.load_checkpoint(str(path))
        assert draws.call_count == 0
        assert same_bits(loaded.critic_phases, critic_table.phases)

    def test_train_saves_draw_no_normals(self, tmp_path):
        corpus = small_corpus()
        config = small_config()
        with mock.patch.object(trainer, "init_draws", wraps=trainer.init_draws) as draws:
            trainer.train(config, corpus, checkpoint_path=str(tmp_path / "checkpoint.txt"))
        assert draws.call_count == 1  # init_params' own draw; the interval saves make none

    @pytest.mark.parametrize("forget", ["cleared", "evicted"])
    def test_fallback_replays_the_same_bits_and_remembers(self, forget):
        seed, shapes = 2**40 + 3, self.SHAPES[2]
        key = (seed, *shapes)
        full = trainer.init_draws(seed, *shapes)[-1]
        if forget == "cleared":
            trainer._PHASE_STATES.clear()
        else:
            for other in range(trainer._PHASE_STATES_BOUND):
                trainer.init_draws(other, *self.SHAPES[0])
        assert key not in trainer._PHASE_STATES
        with mock.patch.object(trainer, "init_draws", wraps=trainer.init_draws) as draws:
            cold = echoed_phases(seed, *shapes)
        assert draws.call_count == 1
        assert same_bits(cold, full)
        assert key in trainer._PHASE_STATES
        assert same_bits(echoed_phases(seed, *shapes), full)

    def test_warm_save_refuses_phases_one_bit_off(self, tmp_path):
        _, _, _, _, checkpoint, path = init_checkpoint_file(tmp_path)
        shapes = (
            checkpoint.actor_amplitudes.shape,
            checkpoint.global_factors.shape,
            checkpoint.critic_amplitudes.shape,
        )
        assert (int(checkpoint.config_echo["seed"]), *shapes) in trainer._PHASE_STATES
        before = path.read_bytes()
        checkpoint.critic_phases.view(np.uint64)[2, 1] ^= 1
        with pytest.raises(CheckpointInvalid, match="block 'critic.phases' is not the init draw"):
            trainer.save_checkpoint(checkpoint, str(path))
        assert path.read_bytes() == before

    def test_memo_is_bounded_and_holds_no_arrays(self):
        bound = trainer._PHASE_STATES_BOUND
        drawn = []
        for seed in range(3 * bound):
            trainer.init_draws(seed, *self.SHAPES[0])
            drawn.append((seed, *self.SHAPES[0]))
            assert len(trainer._PHASE_STATES) <= bound
        assert list(trainer._PHASE_STATES) == drawn[-bound:]  # the oldest are dropped

        def arrays(value):
            if isinstance(value, dict):
                return [a for v in value.values() for a in arrays(v)]
            return [value] if isinstance(value, np.ndarray) else []

        assert arrays(trainer._PHASE_STATES) == []


class TestCheckpointV1:
    """v1 files, which store critic.phases, still load with the phases they store."""

    @staticmethod
    def criterion9():
        corpus = env.gen_corpus(
            env.CorpusSpec(docs=20, patches=2, candidates_per_doc=3), np.random.default_rng(1009)
        )
        return corpus, trainer.TrainConfig(episodes=400, eval_interval=100, seed=9)

    def test_committed_file_restores_what_training_gives(self, tmp_path):
        corpus, config = self.criterion9()
        result = trainer.train(config, corpus)
        loaded = trainer.load_checkpoint(str(CRITERION9_V1))
        params, critic_table, restored_config = trainer.restore_params(loaded, corpus)
        assert restored_config == config
        assert actor_state_bytes(params) == actor_state_bytes(result.params)
        assert critic_state_bytes(critic_table) == critic_state_bytes(result.critic_table)
        # Saving what a v1 file loads to writes the v3 file training writes.
        ours, theirs = tmp_path / "ours.txt", tmp_path / "theirs.txt"
        trainer.save_checkpoint(loaded, str(ours))
        trainer.save_checkpoint(result.checkpoint, str(theirs))
        assert ours.read_bytes() == theirs.read_bytes()

    def test_stored_phases_that_are_not_the_init_draw_are_kept(self, tmp_path):
        corpus, _ = self.criterion9()
        checkpoint = trainer.load_checkpoint(str(CRITERION9_V1))
        checkpoint.critic_phases = np.random.default_rng(4).uniform(
            -np.pi, np.pi, checkpoint.critic_phases.shape
        )
        path = tmp_path / "edited-v1.txt"
        write_v1(checkpoint, path)
        loaded = trainer.load_checkpoint(str(path))
        assert loaded.critic_phases.tobytes() == checkpoint.critic_phases.tobytes()
        _, critic_table, _ = trainer.restore_params(loaded, corpus)
        assert critic_table.phases.tobytes() == checkpoint.critic_phases.tobytes()
        # No v3 file can hold them.
        with pytest.raises(CheckpointInvalid, match="critic.phases"):
            trainer.save_checkpoint(loaded, str(tmp_path / "v3.txt"))


def _after_first_echo_line(brk):
    def edit(data):
        end = data.index(b"\n", data.index(b"\n# ") + 1)
        return data[:end] + brk + data[end:]

    return edit


def _as_last_newline(brk):
    return lambda data: data[:-1] + brk


def _as_first_payload_newline(brk):
    """The edit that makes the newline after actor.amplitudes' first payload line `brk`."""

    def edit(data):
        end = data.index(b"\n", data.index(b"\n", data.index(b"[actor.amplitudes ")) + 1)
        return data[:end] + brk + data[end + 1 :]

    return edit


#: Edits of a saved v3 file after which it loads to the same state.
SAME_STATE_EDITS = {
    "no-final-newline": lambda d: d[:-1],
    "crlf": lambda d: d.replace(b"\n", b"\r\n"),
    "crlf-no-final-newline": lambda d: d.replace(b"\n", b"\r\n")[:-2],
    "lone-cr": lambda d: d.replace(b"\n", b"\r"),
    "trailing-blank-lines": lambda d: d + b"\n\n",
    "trailing-space-lines": lambda d: d + b"   \n \n  ",
    "blank-lines-between-blocks": lambda d: d.replace(b"\n[", b"\n\n  \n["),
    **{
        f"{ascii(brk)[1:-1]}-{where}": edit(brk.encode())
        for brk in ("\x0c", "\x85", "\u2028")
        for where, edit in (
            ("after-an-echo-line", _after_first_echo_line),
            ("as-the-last-newline", _as_last_newline),
            ("as-a-payload-newline", _as_first_payload_newline),
        )
    },
}


def refuse_line_walk(monkeypatch):
    """Make cutting a v3 payload into lines, or naming a bad payload line, fail the test."""

    def refuse(*args):
        raise AssertionError("a payload was cut into lines")

    monkeypatch.setattr(trainer, "_decode_block", refuse)
    monkeypatch.setattr(trainer, "_payload_error", refuse)


class TestCheckpointVersions:
    """The committed v1 and v2 Criterion 9 files and the v3 file training writes hold one state."""

    @pytest.fixture(scope="class")
    def v3_file(self, tmp_path_factory):
        corpus, config = TestCheckpointV1.criterion9()
        path = tmp_path_factory.mktemp("criterion9") / "checkpoint.txt"
        trainer.train(config, corpus, str(path))
        return path

    def test_every_version_loads_to_the_same_bits(self, v3_file):
        v3 = trainer.load_checkpoint(str(v3_file))
        assert v3.header == trainer.CHECKPOINT_HEADER
        for path, header in ((CRITERION9_V2, V2_HEADER), (CRITERION9_V1, V1_HEADER)):
            loaded = trainer.load_checkpoint(str(path))
            assert loaded.header == header
            assert_same_checkpoint_bits(loaded, v3)
            assert loaded.config_echo == v3.config_echo

    def test_saving_a_loaded_v2_file_writes_v3(self, v3_file, tmp_path):
        path = tmp_path / "resaved.txt"
        trainer.save_checkpoint(trainer.load_checkpoint(str(CRITERION9_V2)), str(path))
        assert path.read_bytes() == v3_file.read_bytes()

    def test_a_crlf_copy_loads_to_the_same_bits(self, v3_file, tmp_path):
        # A copy whose line ends became \r\n (a Windows checkout, say) holds
        # the same state; the loader makes \r\n a newline, as text mode does.
        data = v3_file.read_bytes()
        assert b"\r" not in data
        crlf = tmp_path / "crlf.txt"
        crlf.write_bytes(data.replace(b"\n", b"\r\n"))
        v3 = trainer.load_checkpoint(str(v3_file))
        loaded = trainer.load_checkpoint(str(crlf))
        assert loaded.header == v3.header
        assert loaded.config_echo == v3.config_echo
        assert_same_checkpoint_bits(loaded, v3)

    @pytest.mark.parametrize("edit", SAME_STATE_EDITS.values(), ids=SAME_STATE_EDITS.keys())
    def test_edited_line_breaks_load_to_the_same_bits(self, v3_file, tmp_path, edit):
        data = v3_file.read_bytes()
        edited = tmp_path / "edited.txt"
        edited.write_bytes(edit(data))
        assert edited.read_bytes() != data
        v3 = trainer.load_checkpoint(str(v3_file))
        loaded = trainer.load_checkpoint(str(edited))
        assert loaded.header == v3.header
        assert loaded.config_echo == v3.config_echo
        assert_same_checkpoint_bits(loaded, v3)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["saved", "crlf", "lone-cr"])
    def test_the_saved_file_is_decoded_without_cutting_lines(
        self, v3_file, tmp_path, monkeypatch, newline
    ):
        v2 = trainer.load_checkpoint(str(CRITERION9_V2))
        copy = tmp_path / "copy.txt"
        copy.write_bytes(v3_file.read_bytes().replace(b"\n", newline))
        refuse_line_walk(monkeypatch)
        assert_same_checkpoint_bits(trainer.load_checkpoint(str(copy)), v2)

    def test_a_line_cut_from_a_block_header_is_read_as_its_first_payload_line(
        self, v3_file, tmp_path
    ):
        # str.splitlines cuts "# x" from the header line, so it stands where
        # the payload starts, though the payload after it is whole.
        lines = v3_file.read_text().splitlines()
        header = next(i for i, l in enumerate(lines) if l.startswith("[actor.amplitudes "))
        lines[header] += "\x0c# x"
        edited = tmp_path / "edited.txt"
        edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = "'actor.amplitudes' payload line has 3 characters"
        with pytest.raises(ParseError, match=message) as excinfo:
            trainer.load_checkpoint(str(edited))
        assert excinfo.value.line == header + 2

    def test_header_echo_and_block_lines_equal_v2_but_for_the_version(self, v3_file):
        def frame(path):
            """Every line that is not a block's values."""
            lines = path.read_text().splitlines()
            return [lines[0].rpartition(" ")[0]] + [l for l in lines[1:] if l[:1] in "#["]

        v2 = CRITERION9_V2.read_text().splitlines()
        assert v2[0] == V2_HEADER
        assert v3_file.read_text().splitlines()[0] == trainer.CHECKPOINT_HEADER
        assert frame(v3_file) == frame(CRITERION9_V2)
        echo = [l for l in v2 if l.startswith("#")]
        assert v3_file.read_text().splitlines()[1 : 1 + len(echo)] == echo


#: Every line break str.splitlines splits at. A file object in text mode
#: splits only at \n, \r and \r\n.
LINE_BREAKS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineNumbersFollowSplitlines:
    """A ParseError names the bad line's str.splitlines index + 1, whatever breaks precede it."""

    layout = V2

    def saved_lines(self, tmp_path):
        path = init_checkpoint_file(tmp_path, self.layout.write)[-1]
        return path, path.read_text().splitlines()

    def assert_reported_at(self, path, lines, is_bad):
        text = "\n".join(lines) + "\n"
        path.write_bytes(text.encode("utf-8"))
        expected = next(i for i, l in enumerate(text.splitlines()) if is_bad(l)) + 1
        with pytest.raises(ParseError) as excinfo:
            trainer.load_checkpoint(str(path))
        assert excinfo.value.line == expected

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=ascii)
    def test_break_inside_a_row(self, tmp_path, brk):
        path, lines = self.saved_lines(tmp_path)
        start, end = block_span(lines, "actor.amplitudes")
        row = min(start + 3, end - 1)
        first, *rest = lines[row].split()
        lines[row] = f"{first}{brk}{' '.join(rest)}"
        self.assert_reported_at(path, lines, lambda l: l == first)

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=ascii)
    def test_breaks_before_a_later_bad_row(self, tmp_path, brk):
        path, lines = self.saved_lines(tmp_path)
        # One break splits an echo line in two comments, and one leaves a
        # blank line after the actor block's last row.
        lines[1] = f"{lines[1]}{brk}# a second comment"
        _, end = block_span(lines, "actor.amplitudes")
        lines[end - 1] = f"{lines[end - 1]}{brk} "
        bad = block_span(lines, "critic.amplitudes")[0] + 2
        lines[bad] = "chewy " + lines[bad].partition(" ")[2]
        self.assert_reported_at(path, lines, lambda l: l.startswith("chewy"))


class TestLineNumbersFollowSplitlinesV3(TestLineNumbersFollowSplitlines):
    layout = V3


class TestBytesThatAreNotUtf8:
    """A byte that is not UTF-8 raises ParseError at the str.splitlines line holding it."""

    @staticmethod
    def assert_named(path, data):
        path.write_bytes(data)
        lines = data.decode("utf-8", "surrogateescape").splitlines()
        expected = next(i for i, l in enumerate(lines) if "\udcff" in l) + 1
        with pytest.raises(ParseError, match="not UTF-8 text") as excinfo:
            trainer.load_checkpoint(str(path))
        assert excinfo.value.line == expected

    @pytest.mark.parametrize("layout", [V2, V3], ids=["v2", "v3"])
    @pytest.mark.parametrize(
        "where", ["header", "echo", "echo-after-breaks", "block-header", "block-line", "last-byte"]
    )
    def test_the_line_holding_it_is_named(self, tmp_path, layout, where):
        path = init_checkpoint_file(tmp_path, layout.write)[-1]
        lines = path.read_bytes().split(b"\n")
        start, _ = block_span([l.decode() for l in lines], "critic.amplitudes")
        if where == "header":
            lines[0] = lines[0].replace(b"checkpoint", b"check\xffpoint")
        elif where == "echo":
            lines[2] += b"\xff"
        elif where == "echo-after-breaks":
            lines[2] += "\x0c# a\u2028# b\x85\xe9".encode() + b"\xff"
        elif where == "block-header":
            lines[start] = lines[start][:-1] + b"\xff]"
        elif where == "block-line":
            lines[start + 2] = lines[start + 2][:9] + b"\xff" + lines[start + 2][10:]
        else:
            lines[-1] = b"\xff"
        self.assert_named(path, b"\n".join(lines))


def reference_lines(checkpoint):
    """The checkpoint's v2 lines, each value formatted on its own; critic.phases is not stored."""
    lines = [V2_HEADER]
    lines.extend(f"# {key}={value}" for key, value in checkpoint.config_echo.items())
    for name, block in checkpoint.blocks().items():
        if name == "critic.phases":
            continue
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


def with_init_phases(checkpoint):
    """The checkpoint with the phases its echoed seed and block shapes redraw, so it saves."""
    phases = trainer.echoed_init_phases(
        checkpoint.config_echo,
        checkpoint.actor_amplitudes,
        checkpoint.global_factors,
        checkpoint.critic_amplitudes,
    )
    return dataclasses.replace(checkpoint, critic_phases=phases)


class TestBlockTextMatchesPerValueReference:
    """Blocks are formatted and parsed whole; each must give what one value at a time gives."""

    @pytest.mark.parametrize("seed, critic_rows", [(1, 5), (2, 1), (3, 40), (4, 0)])
    def test_written_lines_and_parsed_bits(self, tmp_path, seed, critic_rows):
        checkpoint = random_checkpoint(np.random.default_rng(seed), critic_rows)
        lines = reference_lines(checkpoint)
        assert v2_lines(checkpoint) == lines
        path = tmp_path / "random.txt"
        saved = with_init_phases(checkpoint)
        write_v2(saved, path)
        assert path.read_text() == "".join(line + "\n" for line in lines)
        loaded = self.assert_parsed_bits(path, lines)
        assert loaded.critic_phases.tobytes() == saved.critic_phases.tobytes()

        # A v3 file holds each block's bytes, encoded one group at a time by
        # the reference, and loads to every bit of them.
        assert trainer.checkpoint_lines(checkpoint) == v3_lines(checkpoint)
        trainer.save_checkpoint(saved, str(path))
        assert path.read_text() == "".join(line + "\n" for line in v3_lines(checkpoint))
        assert_same_checkpoint_bits(trainer.load_checkpoint(str(path)), saved)

        # Random phases are not the init draw, so only a v1 file holds them.
        write_v1(checkpoint, path)
        self.assert_parsed_bits(path, v1_lines(checkpoint))

    @staticmethod
    def assert_parsed_bits(path, lines):
        """Every block the file stores parses to the reference's bits."""
        loaded = trainer.load_checkpoint(str(path))
        for name, block in loaded.blocks().items():
            header = f"[{name} {block.shape[0]} {block.shape[1]}]"
            if header not in lines:  # critic.phases, which a v2 file does not store
                continue
            start = lines.index(header) + 1
            expected = reference_block(lines, start, name, *block.shape)
            assert block.shape == expected.shape
            assert block.tobytes() == expected.tobytes(), name
        return loaded

    def test_every_special_value_round_trips(self, tmp_path):
        block = np.array(SPECIAL_VALUES).reshape(3, 4)
        text = v2_lines(
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
        parsed = trainer._parse_block(text[2:5], "actor.amplitudes", 3, 4, 2)
        assert parsed.tobytes() == reference_block(text, 2, "actor.amplitudes", 3, 4).tobytes()
        assert parsed.tobytes() == block.tobytes()
        decoded = trainer._decode_block(payload_lines(block), "actor.amplitudes", 3, 4, 2)
        assert decoded.tobytes() == block.tobytes()

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
                trainer._parse_block(lines[2:5], "actor.amplitudes", 3, 2, 2)
            assert str(excinfo.value) == str(exc)
            assert excinfo.value.line == exc.line
        else:
            parsed = trainer._parse_block(lines[2:5], "actor.amplitudes", 3, 2, 2)
            assert parsed.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows, cols", [(0, 3), (2, 0)])
    def test_blocks_without_values_match_the_reference(self, rows, cols):
        lines = ["header", f"[critic.phases {rows} {cols}]"] + [""] * rows + ["0.5 1"]
        parsed = trainer._parse_block(lines[2 : 2 + rows], "critic.phases", rows, cols, 2)
        assert parsed.shape == reference_block(lines, 2, "critic.phases", rows, cols).shape

    def test_underscore_numerals_are_rejected(self):
        # float() reads "1_0" as 10; the writer never emits one, and the
        # block parser rejects it on the line it sits on.
        lines = ["header", "[actor.amplitudes 2 2]", "0.5 1", "1_0 2"]
        assert reference_block(lines, 2, "actor.amplitudes", 2, 2)[1, 0] == 10.0
        with pytest.raises(ParseError) as excinfo:
            trainer._parse_block(lines[2:4], "actor.amplitudes", 2, 2, 2)
        assert excinfo.value.line == 4
        assert "non-numeric" in str(excinfo.value)

    def test_bad_row_is_named_in_a_saved_file(self, tmp_path):
        checkpoint = with_init_phases(random_checkpoint(np.random.default_rng(5), 4))
        path = tmp_path / "bad.txt"
        write_v2(checkpoint, path)
        lines = path.read_text().splitlines()
        header = lines.index("[critic.amplitudes 4 6]")
        lines[header + 3] = lines[header + 3].replace(" ", "\t", 2) + " #"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as excinfo:
            trainer.load_checkpoint(str(path))
        assert excinfo.value.line == header + 4
        assert "row has 7 values, expected 6" in str(excinfo.value)


class TestPayloadMatchesPerGroupReference:
    """The writer's reshaped payload is the per-group reference's at every wrap edge."""

    @staticmethod
    def assert_written_as_reference(tmp_path, block):
        """`block`, saved as actor.amplitudes, is written as the reference writes its
        C-ordered little-endian copy, and loads back to that copy's bits."""
        copy = np.ascontiguousarray(block, dtype="<f8")
        expected = "".join(line + "\n" for line in payload_lines(copy))
        assert bytes(trainer._payload(block)) == expected.encode("ascii")
        checkpoint = with_init_phases(
            dataclasses.replace(
                random_checkpoint(np.random.default_rng(0), 3), actor_amplitudes=block
            )
        )
        path = tmp_path / "wrapped.txt"
        trainer.save_checkpoint(checkpoint, str(path))
        reference = dataclasses.replace(checkpoint, actor_amplitudes=copy)
        assert path.read_bytes() == "".join(line + "\n" for line in v3_lines(reference)).encode()
        loaded = trainer.load_checkpoint(str(path))
        assert_same_checkpoint_bits(loaded, reference)

    # 0-3 values give every byte count mod 3; 57 values are 456 bytes, eight
    # whole groups; 114 values are 912 bytes, one whole line; 228 are two.
    @pytest.mark.parametrize("values", [0, 1, 2, 3, 56, 57, 58, 113, 114, 115, 228])
    def test_block_sizes_at_the_wrap_edges(self, tmp_path, values):
        block = random_block(np.random.default_rng(values), values, 1)
        self.assert_written_as_reference(tmp_path, block)

    @pytest.mark.parametrize("values", [0, 1, 2, 3, 56, 57, 58, 113, 114, 115, 228, 229])
    def test_saved_payloads_are_decoded_without_cutting_lines(self, tmp_path, monkeypatch, values):
        block = random_block(np.random.default_rng(values), values, 1)
        checkpoint = with_init_phases(
            dataclasses.replace(
                random_checkpoint(np.random.default_rng(0), 3), actor_amplitudes=block
            )
        )
        path = tmp_path / "saved.txt"
        trainer.save_checkpoint(checkpoint, str(path))
        refuse_line_walk(monkeypatch)
        assert_same_checkpoint_bits(trainer.load_checkpoint(str(path)), checkpoint)

    @pytest.mark.parametrize("layout", ["fortran", "big-endian", "strided"])
    def test_other_layouts_write_their_c_ordered_little_endian_copy(self, tmp_path, layout):
        values = random_block(np.random.default_rng(11), 40, 12)
        block = {
            "fortran": np.asfortranarray(values),
            "big-endian": values.astype(">f8"),
            "strided": values[::2, ::3],
        }[layout]
        assert not (block.flags.c_contiguous and block.dtype == np.dtype("<f8"))
        self.assert_written_as_reference(tmp_path, block)


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
    The damaged state is written as a v2 file here and as a v3 file in the
    subclass below.
    """

    layout = V2

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
        if block == "critic.phases":  # Only a v1 file stores phases that are not the init draw.
            write_v1(checkpoint, path)
        else:
            self.layout.write(checkpoint, str(path))
        loaded = trainer.load_checkpoint(str(path))
        assert loaded.header == (V1_HEADER if block == "critic.phases" else self.layout.header)
        with pytest.raises(CheckpointInvalid) as excinfo:
            trainer.restore_params(loaded, corpus)
        message = str(excinfo.value)
        assert f"{block!r} row {row} " in message
        assert reason in message
        trainer.restore_params(result.checkpoint, corpus)


class TestRestoreRejectsBrokenInvariantsV3(TestRestoreRejectsBrokenInvariants):
    layout = V3


class TestTrain:
    def test_identical_runs_are_bitwise_identical(self, tmp_path):
        corpus = small_corpus()
        result_a = trainer.train(small_config(), corpus, str(tmp_path / "a.txt"))
        result_b = trainer.train(small_config(), corpus, str(tmp_path / "b.txt"))
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        assert result_a.metric_lines() == result_b.metric_lines()
        assert result_a.rewards == result_b.rewards

    def test_saved_checkpoint_matches_result(self, tmp_path):
        corpus = small_corpus()
        path = tmp_path / "final.txt"
        result = trainer.train(small_config(), corpus, str(path))
        loaded = trainer.load_checkpoint(str(path))
        assert trainer.checkpoint_lines(loaded) == trainer.checkpoint_lines(result.checkpoint)

    @pytest.mark.parametrize("episodes, interval, records", [(20, 10, 2), (25, 10, 3), (5, 0, 0)])
    def test_each_checkpoint_is_made_and_saved_once(self, tmp_path, episodes, interval, records):
        path = tmp_path / "checkpoint.txt"
        config = small_config(episodes=episodes, eval_interval=interval)
        with mock.patch.object(
            trainer, "save_checkpoint", wraps=trainer.save_checkpoint
        ) as save, mock.patch.object(
            trainer, "make_checkpoint", wraps=trainer.make_checkpoint
        ) as make:
            result = trainer.train(config, small_corpus(), str(path))
        assert len(result.metrics) == records
        # Only the final checkpoint is made (copied); earlier saves read the live tables.
        assert save.call_count == max(records, 1)
        assert make.call_count == 1
        loaded = trainer.load_checkpoint(str(path))
        assert trainer.checkpoint_lines(loaded) == trainer.checkpoint_lines(result.checkpoint)

    def test_interval_saves_write_the_state_at_their_record(self, tmp_path):
        corpus = small_corpus()
        config = small_config(episodes=20, eval_interval=10)
        written = []

        def save(checkpoint, target, real=trainer.save_checkpoint):
            real(checkpoint, target)
            written.append(open(target, "rb").read())

        with mock.patch.object(trainer, "save_checkpoint", save):
            result = trainer.train(config, corpus, str(tmp_path / "checkpoint.txt"))
        # Evaluation draws nothing, so ten episodes of a shorter run reach the
        # state of the first record.
        early = trainer.train(small_config(episodes=10, eval_interval=0), corpus)
        assert written == [
            trainer.checkpoint_bytes(trainer.make_checkpoint(early.params, early.critic_table, config)),
            trainer.checkpoint_bytes(result.checkpoint),
        ]

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
