"""Policy head: scores candidate queries against the global semantic space.

Each candidate's score is its projection onto the factored space; the policy
is a temperature softmax over scores. The per-rank product-pool vector of the
chosen candidate is kept as the action vector, a diagnostic view of which rank
components carried the decision.

Gradients are hand-derived reverse mode through the softmax, the weighted sum,
and the product pooling. Leave-one-out products use prefix/suffix
accumulation, never division, so exactly-zero inner products are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qrep
from .errors import (
    IndexOutOfRange,
    NoCandidates,
    NonFiniteScore,
    ShapeMismatch,
)

TEMPERATURE_MIN = 1e-3
TEMPERATURE_MAX = 1e3


@dataclass(eq=False)
class ActorParams:
    """Everything the policy needs: word amplitudes, global space, softmax temperature."""

    table: qrep.AmplitudeTable
    global_rep: qrep.GlobalRepresentation
    temperature: float = 1.0

    def __post_init__(self):
        if not (TEMPERATURE_MIN <= self.temperature <= TEMPERATURE_MAX):
            raise ValueError(
                f"temperature {self.temperature!r} outside [{TEMPERATURE_MIN}, {TEMPERATURE_MAX}]"
            )
        if self.table.basis_dim != self.global_rep.basis_dim:
            raise ShapeMismatch(
                f"table basis k={self.table.basis_dim} vs global k={self.global_rep.basis_dim}"
            )


@dataclass(frozen=True, eq=False)
class ActorForward:
    scores: np.ndarray   # (C,)
    pooled: np.ndarray   # (C, R) per-rank products per candidate
    dots: np.ndarray     # (C, R, n) per-position inner products <e_{r,i}, alpha_i>


@dataclass(frozen=True, eq=False)
class ActionOutput:
    """One selection: chosen index, the forward pass, and the chosen candidate's rank profile."""

    index: int
    forward: ActorForward
    probabilities: np.ndarray
    action_vector: np.ndarray
    log_probability: float


@dataclass(frozen=True, eq=False)
class ActorGradients:
    """Gradients of -advantage * log pi(chosen) in parameter layout."""

    table: np.ndarray     # (V, k)
    weights: np.ndarray   # (R,)
    factors: np.ndarray   # (R, n, k)


def actor_forward(params: ActorParams, candidates: Sequence[qrep.QueryState]) -> ActorForward:
    """Score every candidate. Deterministic: same inputs, bitwise-same outputs.

    One einsum takes every (candidate, rank, position) inner product, with
    the per-candidate arithmetic of qrep.product_pool; each score is the
    weighted sum qrep.project takes, so module-level and actor-level scoring
    agree bit for bit. The dots ride along for actor_gradients.
    """
    if len(candidates) == 0:
        raise NoCandidates("actor_forward needs at least one candidate")
    g = params.global_rep
    for q in candidates:
        qrep._check_compatible(g, q)
    dots = np.einsum("rik,cik->cri", g.factors, np.stack([q.rows for q in candidates]))
    pooled = np.prod(dots, axis=2)
    scores = np.array([float(np.dot(g.weights, p)) for p in pooled])
    return ActorForward(scores=scores, pooled=pooled, dots=dots)


def policy_probabilities(scores: np.ndarray, temperature: float) -> np.ndarray:
    """Max-shifted softmax over scores / temperature."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise NonFiniteScore(f"scores contain non-finite values: {scores!r}")
    if not (TEMPERATURE_MIN <= temperature <= TEMPERATURE_MAX):
        raise ValueError(f"temperature {temperature!r} outside [{TEMPERATURE_MIN}, {TEMPERATURE_MAX}]")
    z = scores / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def _log_probability(scores: np.ndarray, temperature: float, index: int) -> float:
    z = np.asarray(scores, dtype=np.float64) / temperature
    z = z - z.max()
    # log softmax: z_i - log(sum exp z); the shift makes the sum >= 1, so the
    # result can never round above 0.
    return float(z[index] - np.log(np.exp(z).sum()))


def select_action(
    scores: np.ndarray,
    temperature: float,
    rng: np.random.Generator | None,
    greedy: bool = False,
) -> tuple[int, float]:
    """Pick a candidate index and its log probability.

    Stochastic mode samples the softmax by inverse CDF on one uniform draw, so
    a fixed generator gives a fixed index sequence. Greedy mode takes the
    lowest-index argmax, draws nothing (rng may be None), and reports log
    probability 0 (the zero-temperature limit puts all mass there).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise NonFiniteScore(f"scores contain non-finite values: {scores!r}")
    if greedy:
        return int(np.argmax(scores)), 0.0
    probs = policy_probabilities(scores, temperature)
    cdf = np.cumsum(probs)
    u = rng.random() * cdf[-1]
    index = int(np.searchsorted(cdf, u, side="right"))
    index = min(index, scores.shape[0] - 1)
    return index, _log_probability(scores, temperature, index)


def act(
    params: ActorParams,
    candidates: Sequence[qrep.QueryState],
    rng: np.random.Generator,
    greedy: bool = False,
) -> ActionOutput:
    """Forward pass plus selection, bundled for the training loop."""
    forward = actor_forward(params, candidates)
    index, log_prob = select_action(forward.scores, params.temperature, rng, greedy=greedy)
    return ActionOutput(
        index=index,
        forward=forward,
        probabilities=policy_probabilities(forward.scores, params.temperature),
        action_vector=forward.pooled[index].copy(),
        log_probability=log_prob,
    )


def actor_gradients(
    params: ActorParams,
    candidates: Sequence[qrep.QueryState],
    chosen: int,
    advantage: float,
    forward: ActorForward | None = None,
) -> ActorGradients:
    """Gradients of loss = -advantage * log pi(chosen) for all actor parameters.

    `forward` is the pass the choice was sampled from (act's output); without
    it the pass is recomputed, with the same arithmetic. The padding row's
    gradient is computed like any other row; the trainer is the one that
    refuses to move it. Zero advantage short-circuits to exact zeros.
    """
    if len(candidates) == 0:
        raise NoCandidates("actor_gradients needs at least one candidate")
    if not (0 <= chosen < len(candidates)):
        raise IndexOutOfRange(f"chosen index {chosen} outside 0..{len(candidates) - 1}")
    g = params.global_rep
    table_shape = params.table.amplitudes.shape
    grads = ActorGradients(
        table=np.zeros(table_shape),
        weights=np.zeros(g.rank),
        factors=np.zeros_like(g.factors),
    )
    if advantage == 0.0:
        return grads

    if forward is None:
        forward = actor_forward(params, candidates)
    rows = np.stack([q.rows for q in candidates])          # (C, n, k)
    ids = np.stack([q.word_ids for q in candidates])       # (C, n)
    dots = forward.dots                                    # (C, R, n)

    probs = policy_probabilities(forward.scores, params.temperature)
    one_hot = np.zeros_like(probs)
    one_hot[chosen] = 1.0
    # d loss / d score_c; the 1/temperature comes from the softmax logits.
    g_scores = -advantage * (one_hot - probs) / params.temperature

    # Leave-one-out products along the position axis via prefix/suffix scans.
    c_count, r_count, n_count = dots.shape
    prefix = np.ones_like(dots)
    suffix = np.ones_like(dots)
    for i in range(1, n_count):
        prefix[:, :, i] = prefix[:, :, i - 1] * dots[:, :, i - 1]
        suffix[:, :, n_count - 1 - i] = suffix[:, :, n_count - i] * dots[:, :, n_count - i]
    loo = prefix * suffix                                   # (C, R, n)

    grads.weights[:] = g_scores @ forward.pooled
    w_loo = g.weights[None, :, None] * loo                  # (C, R, n)
    grads.factors[:] = np.einsum("c,crn,cnk->rnk", g_scores, w_loo, rows)
    per_row = np.einsum("c,crn,rnk->cnk", g_scores, w_loo, g.factors)
    np.add.at(grads.table, ids.reshape(-1), per_row.reshape(-1, table_shape[1]))
    return grads
