"""Tests for the training loop: config handling, update rules, checkpoints.

The update-rule tests pin two algebraic identities rather than training
outcomes: a zero advantage or a zero learning rate leaves the touched side
bit-identical, and freezing the critic at the uniform table reduces the
actor update to plain reward-weighted score ascent reproducible by hand.
Evaluation metrics are re-derived from scratch over the corpus.
"""

import copy
import dataclasses

import numpy as np
import pytest

from qforage import actor, critic, env, qcore, qrep, trainer
from qforage.errors import (
    CheckpointMismatch,
    EmptyCorpus,
    NonFiniteScore,
    ParseError,
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
            {"discount": 1.5},
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
        streams = {
            "env": stream_rng(config.seed, "env"),
            "policy": stream_rng(config.seed, "policy"),
        }
        streams["env"].random(7)
        checkpoint = trainer.make_checkpoint(params, critic_table, config, streams)
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
        assert loaded.rng_states == checkpoint.rng_states

    def test_restore_params_rebinds_bitwise(self, tmp_path):
        corpus, config, params, critic_table, _, path = self.make(tmp_path)
        loaded = trainer.load_checkpoint(str(path))
        re_params, re_critic, re_config = trainer.restore_params(loaded, corpus)
        assert actor_state_bytes(re_params) == actor_state_bytes(params)
        assert critic_state_bytes(re_critic) == critic_state_bytes(critic_table)
        assert re_config == config

    def test_restored_stream_continues_identically(self, tmp_path):
        _, config, _, _, checkpoint, _ = self.make(tmp_path)
        original = stream_rng(config.seed, "env")
        original.random(7)
        expected = original.random(5)
        resumed = trainer.restore_stream(checkpoint.rng_states["env"])
        np.testing.assert_array_equal(resumed.random(5), expected)

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

    def test_empty_corpus_rejected(self):
        empty = env.Corpus(documents=(), vocabulary=(), keyword_count=3)
        with pytest.raises(EmptyCorpus):
            trainer.train(small_config(), empty)

    def test_invalid_config_rejected_before_running(self):
        with pytest.raises(ValueError):
            trainer.train(small_config(mode="batch"), small_corpus())
