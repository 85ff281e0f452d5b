"""Acceptance gate: ten numbered end-to-end criteria with pinned tolerances.

Every criterion carries its own oracle built inside this file: dense tensor
materialization for the factored projection, diagonal partial sums for block
measurements, central finite differences for both gradient stacks, planted
factor sets for the CP fit, exhaustive sweeps for the environment contract,
and closed-form arithmetic for scent traces. Each test prints one PASS line
with the measured quantity and asserts the stated runtime budget.
"""

import time

import numpy as np
import pytest

from qforage import actor, critic, env, qcore, qrep, trainer
from qforage import checkpoint as ckpt


def report(number, name, detail):
    print(f"PASS criterion {number} ({name}): {detail}")


def rel_err(analytic, numeric):
    denom = max(abs(analytic), abs(numeric), 1e-6)
    return abs(analytic - numeric) / denom


def random_unit(rng, dim, complex_field=False):
    v = rng.standard_normal(dim)
    if complex_field:
        v = v + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density_matrix(rng, dim):
    weights = rng.random(rng.integers(1, 4))
    weights = weights / weights.sum()
    vectors = [random_unit(rng, dim, complex_field=True) for _ in weights]
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for w, v in zip(weights, vectors):
        rho += w * np.outer(v, v.conj())
    return rho


class TestCriterion1FactoredDenseEquivalence:
    def test_projection_matches_dense_inner_product(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        worst = 0.0
        for _ in range(500):
            order = int(rng.integers(1, 5))
            k = int(rng.integers(2, 5))
            rank = int(rng.integers(1, 6))
            factors = rng.standard_normal((rank, order, k))
            qrep.renormalize_rows(factors.reshape(rank * order, k))
            global_rep = qrep.GlobalRepresentation(
                weights=rng.standard_normal(rank), factors=factors
            )
            rows = 1.0 + 0.3 * rng.standard_normal((order, k))
            qrep.renormalize_rows(rows)
            query = qrep.QueryState(
                word_ids=np.arange(order, dtype=np.int64), rows=rows
            )
            factored = qrep.project(global_rep, query)
            dense = float(
                np.dot(
                    qrep.cp_reconstruct(global_rep).ravel(),
                    qrep.materialize_local(query).ravel(),
                )
            )
            worst = max(worst, abs(factored - dense))
        assert worst <= 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        report(1, "factored/dense equivalence", f"max |diff| = {worst:.3e} over 500 instances")


class TestCriterion2BornCompleteness:
    def test_block_probabilities_are_diagonal_partial_sums(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1002)
        dims = (3, 6, 9, 12)
        worst_sum = 0.0
        worst_block = 0.0
        for i in range(500):
            dim = dims[i % len(dims)]
            rho = random_density_matrix(rng, dim)
            observable = qcore.Observable.coordinate_blocks(dim, 3, (-1.0, 0.0, 1.0))
            probabilities = observable.probabilities(rho)
            assert np.all(probabilities >= 0.0)
            worst_sum = max(worst_sum, abs(probabilities.sum() - 1.0))
            diagonal = rho.diagonal().real
            block = dim // 3
            for c in range(3):
                partial = diagonal[c * block : (c + 1) * block].sum()
                worst_block = max(worst_block, abs(probabilities[c] - partial))
        assert worst_sum <= 1e-10
        assert worst_block <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        report(
            2,
            "Born completeness",
            f"max |sum-1| = {worst_sum:.3e}, max block error = {worst_block:.3e}",
        )


class TestCriterion3DensityValidity:
    def test_critic_densities_are_valid_states(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1003)
        words = tuple(f"w{i}" for i in range(12))
        tables = {
            dim: critic.ComplexEmbeddingTable.from_vocab(words, dim, rng)
            for dim in (6, 9, 12)
        }
        worst_herm = 0.0
        worst_trace = 0.0
        min_eig = np.inf
        for i in range(500):
            dim = (6, 9, 12)[i % 3]
            table = tables[dim]
            state = [words[j] for j in rng.integers(0, len(words), rng.integers(1, 4))]
            action = [words[j] for j in rng.integers(0, len(words), rng.integers(1, 4))]
            rho = critic.critic_density(state, action, table).matrix
            worst_herm = max(worst_herm, np.abs(rho - rho.conj().T).max())
            worst_trace = max(worst_trace, abs(np.trace(rho).real - 1.0))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(rho).min()))
        assert worst_herm <= 1e-10
        assert worst_trace <= 1e-10
        assert min_eig >= -1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        report(
            3,
            "density validity",
            f"hermiticity {worst_herm:.3e}, trace {worst_trace:.3e}, min eig {min_eig:.3e}",
        )


class TestCriterion4GradientFidelity:
    H = 1e-5

    def actor_loss(self, amplitudes, weights, factors, vocab, token_lists, chosen, advantage, temperature):
        table = qrep.AmplitudeTable(words=vocab, amplitudes=amplitudes)
        global_rep = qrep.GlobalRepresentation(weights=weights, factors=factors)
        order = factors.shape[1]
        scores = np.array(
            [
                qrep.project(global_rep, qrep.embed_query(tokens, table, order))
                for tokens in token_lists
            ]
        )
        z = scores / temperature
        z = z - z.max()
        return -advantage * (z[chosen] - np.log(np.exp(z).sum()))

    def critic_loss(self, amplitudes, phases, salience, vocab, tokens, label):
        table = critic.ComplexEmbeddingTable(
            words=vocab, amplitudes=amplitudes, phases=phases, salience=salience
        )
        p = critic.class_probabilities(tokens, table)
        return -np.log(max(p[label], 1e-12))

    def finite_difference(self, fun, arrays, index, entry):
        h = self.H
        bumped = [a.copy() for a in arrays]
        bumped[index][entry] += h
        hi = fun(*bumped)
        bumped[index][entry] -= 2 * h
        lo = fun(*bumped)
        return (hi - lo) / (2 * h)

    def test_actor_gradients_match_finite_differences(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1004)
        worst = 0.0
        for _ in range(100):
            vocab = tuple(f"t{i}" for i in range(int(rng.integers(2, 6))))
            order = int(rng.integers(2, 4))
            k = int(rng.integers(2, 4))
            rank = int(rng.integers(1, 4))
            table = qrep.AmplitudeTable.from_vocab(vocab, k, rng)
            global_rep = qrep.GlobalRepresentation.from_random(order, k, rank, rng)
            temperature = float(rng.uniform(0.5, 2.0))
            params = actor.ActorParams(
                table=table, global_rep=global_rep, temperature=temperature
            )
            n_cands = int(rng.integers(2, 4))
            token_lists = [
                [vocab[j] for j in rng.integers(0, len(vocab), int(rng.integers(1, order + 1)))]
                for _ in range(n_cands)
            ]
            chosen = int(rng.integers(0, n_cands))
            advantage = float(rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0]))
            ids = np.stack(
                [qrep.embed_query(tokens, table, order).word_ids for tokens in token_lists]
            )
            table_ids, table_rows, weights, factors = actor.actor_gradients(
                params, ids, chosen, advantage
            )

            def loss(amps, weights, factors):
                return self.actor_loss(
                    amps, weights, factors, vocab, token_lists, chosen, advantage, temperature
                )

            arrays = [
                table.amplitudes.copy(),
                global_rep.weights.copy(),
                global_rep.factors.copy(),
            ]
            table_grad = np.zeros_like(table.amplitudes)
            table_grad[table_ids] = table_rows
            analytic = [table_grad, weights, factors]
            for index in range(3):
                flat = arrays[index]
                for entry in np.ndindex(flat.shape):
                    numeric = self.finite_difference(loss, arrays, index, entry)
                    worst = max(worst, rel_err(analytic[index][entry], numeric))
        assert worst < 1e-4
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        report(4, "actor gradient fidelity", f"max relative error = {worst:.3e}")

    def test_critic_gradients_match_finite_differences(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1014)
        worst = 0.0
        for _ in range(100):
            vocab = tuple(f"t{i}" for i in range(int(rng.integers(2, 6))))
            table = critic.ComplexEmbeddingTable.from_vocab(vocab, 6, rng)
            table.phases[:] = 0.4 * rng.standard_normal(table.phases.shape)
            table.salience[:] = 0.3 * rng.standard_normal(table.salience.shape)
            tokens = [
                vocab[j] for j in rng.integers(0, len(vocab), int(rng.integers(1, 5)))
            ]
            label = int(rng.integers(0, 3))
            ids = critic.token_ids(tokens, table)
            _, _, rows, amplitude_rows, salience_rows = critic.critic_loss_and_gradients(
                ids, label, table
            )

            def loss(amps, phases, salience):
                return self.critic_loss(amps, phases, salience, vocab, tokens, label)

            arrays = [
                table.amplitudes.copy(),
                table.phases.copy(),
                table.salience.copy(),
            ]
            amplitude_grad = np.zeros_like(table.amplitudes)
            amplitude_grad[rows] = amplitude_rows
            salience_grad = np.zeros_like(table.salience)
            salience_grad[rows] = salience_rows
            analytic = [amplitude_grad, np.zeros_like(table.phases), salience_grad]
            for index in range(3):
                for entry in np.ndindex(arrays[index].shape):
                    numeric = self.finite_difference(loss, arrays, index, entry)
                    worst = max(worst, rel_err(analytic[index][entry], numeric))
        assert worst < 1e-4
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        report(4, "critic gradient fidelity", f"max relative error = {worst:.3e}")


class TestCriterion5CPOracle:
    def test_planted_low_rank_tensors_are_recovered(self):
        start = time.perf_counter()
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(2000 + seed)
            order = int(rng.integers(2, 4))
            k = int(rng.integers(2, 4))
            max_rank = min(3, k**order // k)
            rank = int(rng.integers(1, max_rank + 1))
            factors = rng.standard_normal((rank, order, k))
            qrep.renormalize_rows(factors.reshape(rank * order, k))
            truth = qrep.GlobalRepresentation(
                weights=rng.uniform(0.5, 1.5, rank) * rng.choice([-1.0, 1.0], rank),
                factors=factors,
            )
            tensor = qrep.cp_reconstruct(truth)
            fitted, _ = qrep.cp_decompose(tensor, rank, rng=np.random.default_rng(seed))
            residual = np.linalg.norm(qrep.cp_reconstruct(fitted) - tensor)
            worst = max(worst, residual / np.linalg.norm(tensor))
        assert worst < 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        report(5, "CP recovery", f"max relative residual = {worst:.3e} over 50 seeds")


class TestCriterion6CollapseStatistics:
    def test_measurement_frequency_follows_squared_amplitude(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1006)
        state = np.array([0.6, 0.8])
        draws = 100_000
        hits = sum(qcore.collapse_sample(state, rng)[0] == 0 for _ in range(draws))
        frequency = hits / draws
        assert abs(frequency - 0.36) <= 0.01
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        report(6, "collapse statistics", f"index-0 frequency = {frequency:.4f}")


class TestCriterion7EndToEndLearning:
    def test_bandit_training_separates_toy_corpus_on_all_seeds(self):
        spec = env.CorpusSpec(docs=50, patches=2, candidates_per_doc=3, noise=0.0)
        results = []
        for seed in (1, 2, 3, 4, 5):
            start = time.perf_counter()
            corpus = env.gen_corpus(spec, np.random.default_rng(seed))
            config = trainer.TrainConfig(episodes=2000, seed=seed, eval_interval=200)
            result = trainer.train(config, corpus)
            elapsed = time.perf_counter() - start
            assert elapsed < 120.0
            ev = trainer.evaluate(result.params, result.critic_table, corpus)
            first, last = result.metrics[0], result.metrics[-1]
            assert ev.greedy_accuracy >= 0.9, f"seed {seed}: {ev.greedy_accuracy}"
            assert last.avg_reward > first.avg_reward, f"seed {seed}"
            results.append((seed, ev.greedy_accuracy, first.avg_reward, last.avg_reward))
        detail = "; ".join(
            f"seed {s}: greedy {g:.2f}, reward {a:+.2f} -> {b:+.2f}"
            for s, g, a, b in results
        )
        report(7, "end-to-end learning", detail)


class TestCriterion8RewardMapping:
    def test_rewards_equal_labels_exhaustively(self):
        start = time.perf_counter()
        spec = env.CorpusSpec(docs=20, patches=2, candidates_per_doc=3)
        corpus = env.gen_corpus(spec, np.random.default_rng(1008))
        compiled = corpus.compiled
        checked = 0
        for j, doc in enumerate(corpus.documents):
            for index, candidate in enumerate(doc.candidates):
                reward = int(compiled.labels[compiled.offsets[j] + index])
                assert reward == candidate.label
                assert reward in (-1, 0, 1)
                checked += 1
        # One training step per document, on the rows the environment draws:
        # one session pass serves every document once.
        config = trainer.TrainConfig(seed=1008)
        params, critic_table = trainer.init_params(corpus, config)
        plan = trainer.compile_step_plan(compiled, config.query_order, config.basis_dim)
        environment = env.Environment(corpus, np.random.default_rng(1008), mode="session")
        rng = np.random.default_rng(1008)
        stepped = set()
        for _ in corpus.documents:
            j, rows = environment.draw()
            metrics = trainer.train_step(params, critic_table, plan, j, rows, config, rng)
            position = rows[metrics.chosen_index] - compiled.offsets[j]
            assert metrics.reward == corpus.documents[j].candidates[position].label
            stepped.add(j)
        assert stepped == set(range(len(corpus.documents)))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        report(
            8,
            "reward mapping",
            f"{checked} (document, candidate) pairs matched, "
            f"{len(stepped)} training steps paid the chosen label",
        )


class TestCriterion9Determinism:
    def test_identical_runs_and_round_trips_are_bitwise(self, tmp_path):
        start = time.perf_counter()
        spec = env.CorpusSpec(docs=20, patches=2, candidates_per_doc=3)
        corpus = env.gen_corpus(spec, np.random.default_rng(1009))
        path = tmp_path / "checkpoint.txt"
        config = trainer.TrainConfig(episodes=400, eval_interval=100, seed=9)
        result_a = trainer.train(config, corpus, str(path))
        bytes_a = path.read_bytes()
        result_b = trainer.train(config, corpus, str(path))
        bytes_b = path.read_bytes()
        assert bytes_a == bytes_b
        assert result_a.metric_lines() == result_b.metric_lines()
        loaded = ckpt.load_checkpoint(str(path))
        assert ckpt.checkpoint_lines(loaded) == ckpt.checkpoint_lines(result_b.checkpoint)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        report(
            9,
            "determinism",
            f"{len(bytes_a)} checkpoint bytes and {len(result_a.metrics)} metric rows identical",
        )


class TestCriterion10ScentStatistics:
    @staticmethod
    def scent(rewards, smoothing):
        """Scent of a trace of rewards from one patch."""
        patches = np.zeros(len(rewards), dtype=np.int64)
        return env.reward_scent(np.array(rewards), patches, ("p0",), smoothing)

    def test_closed_form_traces_match_exactly(self):
        start = time.perf_counter()
        stats = self.scent([1, 1, 0], smoothing=0.1)
        np.testing.assert_array_equal(stats.frequencies, [0.0, 1.0 / 3.0, 2.0 / 3.0])
        expected = 0.0
        for r in (1, 1, 0):
            expected = 0.1 * r + 0.9 * expected
        assert stats.scalar == expected

        assert self.scent([-1, -1, -1], smoothing=1.0).scalar == -1.0
        assert self.scent([1, -1], smoothing=0.5).scalar == -0.25
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        report(10, "scent statistics", "closed-form traces match exactly")
