"""Policy head: scores candidate queries against the global semantic space.

Each candidate's score is its projection onto the factored space; the policy
is a temperature softmax over scores, taken once per step: the probabilities
and the chosen candidate's log probability come from the same logits.

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
    """One selection: chosen index, the forward pass, and the softmax it was drawn from."""

    index: int
    forward: ActorForward
    probabilities: np.ndarray
    log_probability: float


@dataclass(frozen=True, eq=False)
class ActorGradients:
    """Gradients of -advantage * log pi(chosen) in parameter layout.

    The amplitude table's gradient is kept on the rows the candidates touch;
    every other row's gradient is zero, and `table` builds the dense view on
    demand.
    """

    ids: np.ndarray       # (U,) sorted unique table rows of the candidates
    rows: np.ndarray      # (U, k)
    weights: np.ndarray   # (R,)
    factors: np.ndarray   # (R, n, k)
    num_rows: int

    @property
    def table(self) -> np.ndarray:
        """(V, k) dense view."""
        dense = np.zeros((self.num_rows, self.rows.shape[1]))
        dense[self.ids] = self.rows
        return dense


def score_rows(g: qrep.GlobalRepresentation, rows: np.ndarray) -> ActorForward:
    """Score an (N, n, k) batch of candidate amplitude rows against the global space.

    The one scoring path: training, inspect and evaluation all come here.
    One einsum takes every (candidate, rank, position) inner product, with
    the per-candidate arithmetic of qrep.product_pool, and each score is the
    weighted sum qrep.project takes, one dot product per candidate (a
    matrix-vector product would sum in another order). So module-level and
    actor-level scoring agree bit for bit, and a candidate's score does not
    depend on the batch around it. The dots ride along for actor_gradients.
    """
    if rows.ndim != 3 or rows.shape[1:] != (g.order, g.basis_dim):
        raise ShapeMismatch(
            f"global space is order {g.order} over k={g.basis_dim}, "
            f"candidate rows have shape {rows.shape}"
        )
    dots = np.einsum("rik,cik->cri", g.factors, rows)
    pooled = np.prod(dots, axis=2)
    scores = np.fromiter(map(g.weights.dot, pooled), dtype=np.float64, count=pooled.shape[0])
    return ActorForward(scores=scores, pooled=pooled, dots=dots)


def actor_forward(params: ActorParams, candidates: Sequence[qrep.QueryState]) -> ActorForward:
    """Score every candidate (score_rows). Deterministic: same inputs, bitwise-same outputs."""
    if len(candidates) == 0:
        raise NoCandidates("actor_forward needs at least one candidate")
    g = params.global_rep
    for q in candidates:
        qrep._check_compatible(g, q)
    return score_rows(g, np.stack([q.rows for q in candidates]))


def _check_finite(scores: np.ndarray) -> None:
    if not np.all(np.isfinite(scores)):
        raise NonFiniteScore(f"scores contain non-finite values: {scores!r}")


def _softmax(scores: np.ndarray, temperature: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Max-shifted logits z = scores / temperature - max, e = exp(z), and sum(e).

    The probabilities are e / sum(e) and log pi(i) is z_i - log(sum(e)); the
    shift makes the sum >= 1, so a log probability never rounds above 0.
    """
    scores = np.asarray(scores, dtype=np.float64)
    _check_finite(scores)
    if not (TEMPERATURE_MIN <= temperature <= TEMPERATURE_MAX):
        raise ValueError(f"temperature {temperature!r} outside [{TEMPERATURE_MIN}, {TEMPERATURE_MAX}]")
    z = scores / temperature
    z = z - z.max()
    e = np.exp(z)
    return z, e, e.sum()


def policy_probabilities(scores: np.ndarray, temperature: float) -> np.ndarray:
    """Max-shifted softmax over scores / temperature."""
    _, e, total = _softmax(scores, temperature)
    return e / total


def _sample(
    scores: np.ndarray, temperature: float, rng: np.random.Generator
) -> tuple[int, float, np.ndarray]:
    """Draw an index from one softmax; return it, its log probability and the probabilities.

    The draw is an inverse CDF on one uniform, so a fixed generator gives a
    fixed index sequence.
    """
    z, e, total = _softmax(scores, temperature)
    probabilities = e / total
    cdf = np.cumsum(probabilities)
    u = rng.random() * cdf[-1]
    index = min(int(np.searchsorted(cdf, u, side="right")), probabilities.shape[0] - 1)
    return index, float(z[index] - np.log(total)), probabilities


def select_action(
    scores: np.ndarray, temperature: float, rng: np.random.Generator
) -> tuple[int, float]:
    """Sample a candidate index from the softmax; return it with its log probability."""
    return _sample(scores, temperature, rng)[:2]


def first_argmax(scores: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The greedy choice of each document: the lowest index holding its top score.

    `scores` lists the documents' candidates back to back, document j's from
    row offsets[j] on; each index counts from its document's first row. A
    segment reduction over the offsets takes every document at once.
    """
    scores = np.asarray(scores, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    _check_finite(scores)
    counts = np.diff(offsets, append=scores.shape[0])
    if counts.size == 0 or counts.min() < 1:
        raise NoCandidates("every document needs at least one candidate")
    first_row = np.repeat(offsets, counts)
    at_top = scores == np.repeat(np.maximum.reduceat(scores, offsets), counts)
    position = np.arange(scores.shape[0]) - first_row
    return np.minimum.reduceat(np.where(at_top, position, scores.shape[0]), offsets)


def act(
    params: ActorParams,
    candidates: Sequence[qrep.QueryState],
    rng: np.random.Generator,
) -> ActionOutput:
    """Forward pass plus selection, bundled for the training loop.

    The softmax is taken once and serves the draw, the log probability, and
    (through ActionOutput.probabilities) the policy gradient.
    """
    forward = actor_forward(params, candidates)
    index, log_probability, probabilities = _sample(forward.scores, params.temperature, rng)
    return ActionOutput(
        index=index,
        forward=forward,
        probabilities=probabilities,
        log_probability=log_probability,
    )


def actor_gradients(
    params: ActorParams,
    candidates: Sequence[qrep.QueryState],
    chosen: int,
    advantage: float,
    forward: ActorForward | None = None,
    probabilities: np.ndarray | None = None,
) -> ActorGradients:
    """Gradients of loss = -advantage * log pi(chosen) for all actor parameters.

    `forward` is the pass the choice was sampled from (act's output) and
    `probabilities` its softmax; without them they are recomputed, with the
    same arithmetic. The padding row's gradient is computed like any other
    row; the trainer is the one that refuses to move it. Zero advantage
    short-circuits to exact zeros.
    """
    if len(candidates) == 0:
        raise NoCandidates("actor_gradients needs at least one candidate")
    if not (0 <= chosen < len(candidates)):
        raise IndexOutOfRange(f"chosen index {chosen} outside 0..{len(candidates) - 1}")
    g = params.global_rep
    # Repeated words share one row: `position_row` maps each (candidate,
    # position) to its row.
    table_ids, position_row = np.unique(
        np.concatenate([q.word_ids for q in candidates]), return_inverse=True
    )
    grads = ActorGradients(
        ids=table_ids,
        rows=np.zeros((table_ids.shape[0], params.table.basis_dim)),
        weights=np.zeros(g.rank),
        factors=np.zeros_like(g.factors),
        num_rows=params.table.num_rows,
    )
    if advantage == 0.0:
        return grads

    if forward is None:
        forward = actor_forward(params, candidates)
    if probabilities is None:
        probabilities = policy_probabilities(forward.scores, params.temperature)
    rows = np.stack([q.rows for q in candidates])          # (C, n, k)
    dots = forward.dots                                    # (C, R, n)

    one_hot = np.zeros_like(probabilities)
    one_hot[chosen] = 1.0
    # d loss / d score_c; the 1/temperature comes from the softmax logits.
    g_scores = -advantage * (one_hot - probabilities) / params.temperature

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
    np.add.at(grads.rows, position_row, per_row.reshape(-1, grads.rows.shape[1]))
    return grads
