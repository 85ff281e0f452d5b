"""Self-check diagnostics: verify core numerics against independent references.

Each check recomputes a result two ways that share no code path (factored vs
dense materialization, analytic vs finite-difference gradients, two complete
training runs) and reports pass or fail with a measured discrepancy. The
`perturb` flag injects one deliberate fault per check (a corrupted weight, a
scaled gradient, a different seed) so a caller can confirm the checks actually
have teeth: a perturbed run must fail.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import actor, critic, env, qcore, qrep, trainer
from .seeding import stream_rng

ORACLE_NAMES = ("projection", "born", "cp", "gradients", "determinism")


@dataclass(frozen=True)
class OracleReport:
    name: str
    passed: bool
    detail: str


def _random_query(order: int, k: int, rng: np.random.Generator) -> qrep.QueryState:
    rows = 1.0 + 0.3 * rng.standard_normal((order, k))
    qrep.renormalize_rows(rows)
    return qrep.QueryState(word_ids=np.arange(order, dtype=np.int64), rows=rows)


def check_projection(seed: int = 0, perturb: float = 0.0, instances: int = 50) -> OracleReport:
    """Factored projection vs dense inner product of materialized tensors."""
    rng = stream_rng(seed, "oracle:projection")
    worst = 0.0
    for _ in range(instances):
        k = int(rng.integers(2, 5))
        order = int(rng.integers(2, 5))
        rank = int(rng.integers(1, 6))
        g = qrep.GlobalRepresentation.from_random(order, k, rank, rng)
        q = _random_query(order, k, rng)
        fast = qrep.project(g, q)
        if perturb:
            g.weights[0] += perturb
        dense = float(np.vdot(qrep.cp_reconstruct(g), qrep.materialize_local(q)))
        worst = max(worst, abs(fast - dense))
    passed = worst <= 1e-10
    return OracleReport(
        name="projection",
        passed=passed,
        detail=f"max |factored - dense| = {worst:.3e} over {instances} instances (tol 1e-10)",
    )


def check_born(seed: int = 0, perturb: float = 0.0, instances: int = 50) -> OracleReport:
    """Class probabilities from a density matrix sum to 1 and match diagonal sums."""
    rng = stream_rng(seed, "oracle:born")
    worst_sum = 0.0
    worst_diag = 0.0
    for _ in range(instances):
        dim = int(rng.choice([3, 6, 9, 12]))
        count = int(rng.integers(1, 6))
        vectors = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        weights = rng.random(count)
        weights /= weights.sum()
        rho = qcore.build_density(weights, list(vectors))
        matrix = rho.matrix
        if perturb:
            matrix = matrix * (1.0 + perturb)
        obs = qcore.Observable.coordinate_blocks(dim, 3, (-1.0, 0.0, 1.0))
        probs = np.array([qcore.born_probability(p, matrix) for p in obs.projectors])
        worst_sum = max(worst_sum, abs(probs.sum() - 1.0))
        block = dim // 3
        diag = matrix.diagonal().real
        direct = np.array([diag[c * block : (c + 1) * block].sum() for c in range(3)])
        worst_diag = max(worst_diag, float(np.max(np.abs(probs - direct))))
    passed = worst_sum <= 1e-10 and worst_diag <= 1e-12
    return OracleReport(
        name="born",
        passed=passed,
        detail=(
            f"max |sum p - 1| = {worst_sum:.3e} (tol 1e-10), "
            f"max |p - diagonal sums| = {worst_diag:.3e} (tol 1e-12)"
        ),
    )


def check_cp(seed: int = 0, perturb: float = 0.0, instances: int = 5) -> OracleReport:
    """Alternating least squares recovers constructed low-rank tensors."""
    rng = stream_rng(seed, "oracle:cp")
    worst = 0.0
    for _ in range(instances):
        factors = rng.standard_normal((2, 3, 3))
        qrep.renormalize_rows(factors.reshape(-1, 3))
        truth = qrep.GlobalRepresentation(weights=0.5 + rng.random(2), factors=factors)
        tensor = qrep.cp_reconstruct(truth)
        fitted, report = qrep.cp_decompose(tensor, 2, rng)
        if perturb:
            fitted.weights[0] *= 1.0 + perturb
        rebuilt = qrep.cp_reconstruct(fitted)
        err = float(np.linalg.norm(rebuilt - tensor) / np.linalg.norm(tensor))
        worst = max(worst, err)
    passed = worst <= 1e-6
    return OracleReport(
        name="cp",
        passed=passed,
        detail=f"max relative reconstruction error = {worst:.3e} over {instances} tensors (tol 1e-6)",
    )


def _actor_loss(
    params: actor.ActorParams,
    token_lists: list[list[str]],
    chosen: int,
    advantage: float,
    order: int,
) -> float:
    candidates = [qrep.embed_query(toks, params.table, order) for toks in token_lists]
    forward = actor.actor_forward(params, candidates)
    probs = actor.policy_probabilities(forward.scores, params.temperature)
    return -advantage * float(np.log(probs[chosen]))


def _fd_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / scale))


def check_gradients(seed: int = 0, perturb: float = 0.0, instances: int = 10) -> OracleReport:
    """Analytic gradients vs central finite differences (h = 1e-5)."""
    rng = stream_rng(seed, "oracle:gradients")
    h = 1e-5
    worst = 0.0

    for _ in range(instances):
        vocab = [f"w{i}" for i in range(4)]
        order, k, rank = 2, 3, 2
        table = qrep.AmplitudeTable.from_vocab(vocab, k, rng)
        g = qrep.GlobalRepresentation.from_random(order, k, rank, rng)
        params = actor.ActorParams(table=table, global_rep=g, temperature=1.0)
        token_lists = [["w0", "w1"], ["w2", "w3"], ["w1", "w3"]]
        chosen = int(rng.integers(0, 3))
        advantage = float(rng.uniform(0.2, 1.0))
        candidates = [qrep.embed_query(t, table, order) for t in token_lists]
        grads = actor.actor_gradients(params, candidates, chosen, advantage)
        if perturb:
            grads = replace(grads, rows=grads.rows * (1.0 + perturb))

        def fd(array: np.ndarray, flat_index: int) -> float:
            orig = array.flat[flat_index]
            array.flat[flat_index] = orig + h
            hi = _actor_loss(params, token_lists, chosen, advantage, order)
            array.flat[flat_index] = orig - h
            lo = _actor_loss(params, token_lists, chosen, advantage, order)
            array.flat[flat_index] = orig
            return (hi - lo) / (2.0 * h)

        for array, analytic in (
            (table.amplitudes, grads.table),
            (g.weights, grads.weights),
            (g.factors, grads.factors),
        ):
            numeric = np.array([fd(array, i) for i in range(array.size)])
            worst = max(worst, _fd_relative_error(analytic.ravel(), numeric))

        ctable = critic.ComplexEmbeddingTable.from_vocab(vocab, 6, rng)
        tokens = ["w0", "w1", "w2"]
        label = int(rng.integers(0, 3))
        _, cgrads = critic.critic_loss_and_gradients(tokens, label, ctable)
        if perturb:
            cgrads = replace(cgrads, amplitude_rows=cgrads.amplitude_rows * (1.0 + perturb))

        def cfd(array: np.ndarray, flat_index: int) -> float:
            orig = array.flat[flat_index]
            array.flat[flat_index] = orig + h
            hi, _ = critic.critic_loss_and_gradients(tokens, label, ctable)
            array.flat[flat_index] = orig - h
            lo, _ = critic.critic_loss_and_gradients(tokens, label, ctable)
            array.flat[flat_index] = orig
            return (hi - lo) / (2.0 * h)

        for array, analytic in (
            (ctable.amplitudes, cgrads.amplitudes),
            (ctable.phases, cgrads.phases),
            (ctable.salience, cgrads.salience),
        ):
            numeric = np.array([cfd(array, i) for i in range(array.size)])
            worst = max(worst, _fd_relative_error(analytic.ravel(), numeric))

    passed = worst <= 1e-4
    return OracleReport(
        name="gradients",
        passed=passed,
        detail=f"max relative error vs central differences = {worst:.3e} (tol 1e-4)",
    )


def check_determinism(seed: int = 0, perturb: float = 0.0) -> OracleReport:
    """Two identical short trainings must match bitwise in checkpoints and metrics."""
    spec = env.CorpusSpec(docs=8, patches=2, vocab_size=24, candidates_per_doc=3, doc_len=6, query_len=3)
    corpus = env.gen_corpus(spec, stream_rng(seed, "oracle:determinism-corpus"))
    config = trainer.TrainConfig(episodes=20, eval_interval=10, seed=seed, basis_dim=3, query_order=3, rank=4, embed_dim=6)
    first = trainer.train(config, corpus)
    second_config = trainer.TrainConfig(
        episodes=20,
        eval_interval=10,
        seed=seed + 1 if perturb != 0.0 else seed,
        basis_dim=3,
        query_order=3,
        rank=4,
        embed_dim=6,
    )
    second = trainer.train(second_config, corpus)
    lines_a = trainer.checkpoint_lines(first.checkpoint)
    lines_b = trainer.checkpoint_lines(second.checkpoint)
    metrics_a = first.metric_lines()
    metrics_b = second.metric_lines()
    passed = lines_a == lines_b and metrics_a == metrics_b
    return OracleReport(
        name="determinism",
        passed=passed,
        detail=(
            "two runs match bitwise (checkpoint and metric lines)"
            if passed
            else "runs diverged: checkpoint or metric lines differ"
        ),
    )


_CHECKS = {
    "projection": check_projection,
    "born": check_born,
    "cp": check_cp,
    "gradients": check_gradients,
    "determinism": check_determinism,
}


def run_oracles(
    names: list[str] | None = None,
    seed: int = 0,
    perturb: float = 0.0,
) -> list[OracleReport]:
    """Run the named checks (all five by default) and return their reports."""
    selected = list(names) if names else list(ORACLE_NAMES)
    for name in selected:
        if name not in _CHECKS:
            raise ValueError(f"unknown oracle {name!r}; choose from {ORACLE_NAMES}")
    return [_CHECKS[name](seed=seed, perturb=perturb) for name in selected]
