"""Policy head: scores candidate queries against the global semantic space.

Each candidate's score is its projection onto the factored space, taken by
qrep.project_rows (evaluation's qrep.project_slots gives the same bits from
table row ids); the policy is a temperature
softmax over scores, taken once per step: the probabilities and the chosen
candidate's log probability come from the same logits.

Gradients are hand-derived reverse mode through the softmax, the weighted sum,
and the product pooling. Leave-one-out products use prefix/suffix
accumulation, never division, so exactly-zero inner products are safe.

A training step calls the array routines sample_rows and policy_gradient:
they return tuples of arrays and skip the shape and temperature checks that
the compiled corpus and ActorParams already settle. policy_gradient adds the
table gradient into its distinct rows with one np.bincount over flat cells
(gradient_cells), and descend is the one actor update: the touched table rows
and every factor row are stepped and renormalized as one block. actor_forward,
act and actor_gradients check their inputs, then return what the routine they
wrap returns, so each quantity is computed one way and has one shape.
"""

from __future__ import annotations

import bisect
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


def check_temperature(temperature: float) -> None:
    """Reject a softmax temperature outside [TEMPERATURE_MIN, TEMPERATURE_MAX], NaN included."""
    if not (TEMPERATURE_MIN <= temperature <= TEMPERATURE_MAX):
        raise ValueError(
            f"temperature {temperature!r} outside [{TEMPERATURE_MIN}, {TEMPERATURE_MAX}]"
        )


@dataclass(eq=False)
class ActorParams:
    """Everything the policy needs: word amplitudes, global space, softmax temperature."""

    table: qrep.AmplitudeTable
    global_rep: qrep.GlobalRepresentation
    temperature: float = 1.0

    def __post_init__(self):
        check_temperature(self.temperature)
        if self.table.basis_dim != self.global_rep.basis_dim:
            raise ShapeMismatch(
                f"table basis k={self.table.basis_dim} vs global k={self.global_rep.basis_dim}"
            )


def actor_forward(
    params: ActorParams, candidates: Sequence[qrep.QueryState]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """qrep.project_rows of every candidate's rows: (scores, pooled, dots).

    Deterministic: same inputs, bitwise-same outputs.
    """
    if len(candidates) == 0:
        raise NoCandidates("actor_forward needs at least one candidate")
    g = params.global_rep
    for q in candidates:
        qrep._check_compatible(g, q)
    return qrep.project_rows(g, np.stack([q.rows for q in candidates]))


def _check_finite(scores: np.ndarray) -> None:
    if not np.logical_and.reduce(np.isfinite(scores)):
        raise NonFiniteScore(f"scores contain non-finite values: {scores!r}")


def _logits(scores: np.ndarray, temperature: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Max-shifted logits z = scores / temperature - max, e = exp(z), and sum(e).

    The probabilities are e / sum(e) and log pi(i) is z_i - log(sum(e)); the
    shift makes the sum >= 1, so a log probability never rounds above 0.
    """
    z = scores / temperature
    z = z - np.maximum.reduce(z)
    e = np.exp(z)
    return z, e, np.add.reduce(e)


def _softmax(scores: np.ndarray, temperature: float) -> tuple[np.ndarray, np.ndarray, float]:
    """_logits of finite float scores at a supported temperature."""
    scores = np.asarray(scores, dtype=np.float64)
    _check_finite(scores)
    check_temperature(temperature)
    return _logits(scores, temperature)


def policy_probabilities(scores: np.ndarray, temperature: float) -> np.ndarray:
    """Max-shifted softmax over scores / temperature."""
    _, e, total = _softmax(scores, temperature)
    return e / total


def _draw(
    z: np.ndarray, e: np.ndarray, total: float, rng: np.random.Generator
) -> tuple[int, float, np.ndarray]:
    """Draw an index from _logits' softmax; return it, its log probability, the probabilities.

    The draw is an inverse CDF on one uniform, so a fixed generator gives a
    fixed index sequence.
    """
    probabilities = e / total
    cdf = np.add.accumulate(probabilities)
    u = rng.random() * cdf.item(-1)
    index = min(bisect.bisect_right(cdf, u), probabilities.shape[0] - 1)
    return index, float(z[index] - np.log(total)), probabilities


def select_action(
    scores: np.ndarray, temperature: float, rng: np.random.Generator
) -> tuple[int, float]:
    """Sample a candidate index from the softmax; return it with its log probability."""
    return _draw(*_softmax(scores, temperature), rng)[:2]


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
    at_top = scores == np.repeat(np.maximum.reduceat(scores, offsets), counts)
    rows = np.where(at_top, np.arange(scores.shape[0]), scores.shape[0])
    return np.minimum.reduceat(rows, offsets) - offsets


def sample_rows(
    g: qrep.GlobalRepresentation, rows: np.ndarray, temperature: float, rng: np.random.Generator
) -> tuple[int, float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score a (C, n, k) batch of candidate rows (qrep.project_rows) and sample one candidate.

    Returns (index, log probability, probabilities, scores, pooled, dots).
    The softmax is taken once and serves the draw, the log probability, and
    policy_gradient. Non-finite scores raise NonFiniteScore. The caller
    brings a nonempty batch that fits the global space and a supported
    temperature (act checks them).
    """
    scores, pooled, dots = qrep.project_rows(g, rows)
    _check_finite(scores)
    index, log_probability, probabilities = _draw(*_logits(scores, temperature), rng)
    return index, log_probability, probabilities, scores, pooled, dots


def act(
    params: ActorParams, rows: np.ndarray, rng: np.random.Generator
) -> tuple[int, float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """sample_rows of a checked batch.

    Returns (index, log probability, probabilities, scores, pooled, dots).
    """
    if len(rows) == 0:
        raise NoCandidates("act needs at least one candidate")
    g = params.global_rep
    if rows.ndim != 3 or rows.shape[1:] != (g.order, g.basis_dim):
        raise ShapeMismatch(
            f"global space is order {g.order} over k={g.basis_dim}, "
            f"candidate rows have shape {rows.shape}"
        )
    check_temperature(params.temperature)
    return sample_rows(g, rows, params.temperature, rng)


def gradient_cells(positions: np.ndarray, basis_dim: int) -> np.ndarray:
    """Flat cells of the table gradient that each position's k entries add into.

    `positions` (..., n) index the distinct table rows; the entries of row p
    are cells p * basis_dim + (0, ..., basis_dim - 1) of the gradient
    flattened row by row. The last axis becomes n * basis_dim cells, in
    (position, basis) order.
    """
    cells = positions[..., None] * basis_dim + np.arange(basis_dim)
    return cells.reshape(positions.shape[:-1] + (-1,))


def policy_gradient(
    g: qrep.GlobalRepresentation,
    temperature: float,
    rows: np.ndarray,
    pooled: np.ndarray,
    dots: np.ndarray,
    probabilities: np.ndarray,
    chosen: int,
    advantage: float,
    cells: np.ndarray,
    num_unique: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of loss = -advantage * log pi(chosen): (table rows, weights, factors).

    `rows`, `pooled`, `dots` and `probabilities` are the pass the choice was
    sampled from (sample_rows). Repeated words share one table row: `cells`
    are gradient_cells of each (candidate, position)'s index among the
    num_unique distinct rows, flattened in candidate order, and the
    gradients add there in that order (one np.bincount).
    """
    # one_hot(chosen) - probabilities; 0.0 - p keeps the sign of a zero
    # probability as the subtraction from a zero one-hot entry does.
    d_scores = 0.0 - probabilities
    d_scores[chosen] += 1.0
    # d loss / d score_c; the 1/temperature comes from the softmax logits.
    g_scores = -advantage * d_scores / temperature

    # Leave-one-out products along the position axis: the product of the
    # positions before i times the product of those after it. A running
    # product is what np.cumprod takes, without its wrapper's call cost.
    prefix, suffix = np.ones((2,) + dots.shape)
    np.multiply.accumulate(dots[..., :-1], axis=-1, out=prefix[..., 1:])
    np.multiply.accumulate(dots[..., :0:-1], axis=-1, out=suffix[..., -2::-1])
    w_loo = g.weights[None, :, None] * (prefix * suffix)    # (C, R, n)

    per_row = np.einsum("c,crn,rnk->cnk", g_scores, w_loo, g.factors)
    k = per_row.shape[2]
    table_rows = np.bincount(cells, weights=per_row.ravel(), minlength=num_unique * k)
    return (
        table_rows.reshape(num_unique, k),
        g_scores @ pooled,
        np.einsum("c,crn,cnk->rnk", g_scores, w_loo, rows),
    )


def descend(
    params: ActorParams,
    ids: np.ndarray,
    lr: float,
    table_grad: np.ndarray,
    weights_grad: np.ndarray,
    factors_grad: np.ndarray,
) -> None:
    """One SGD step on the actor: table rows `ids`, the weights and the factors.

    `ids` are sorted distinct table rows and table_grad their gradient rows
    (policy_gradient). The gathered table rows and the (R * n, k) factor
    rows are stepped as one block, scaled to unit length by one
    qrep.renormalize_rows (each row's arithmetic is its own, so stacking
    keeps its bits), and written back. The padding row is re-pinned only
    when it is among the ids: a row the step does not touch stays pinned.
    """
    table = params.table
    g = params.global_rep
    k = g.basis_dim
    m = ids.shape[0]
    g.weights -= lr * weights_grad
    block = np.concatenate((table.amplitudes.take(ids, axis=0), g.factors.reshape(-1, k)))
    block -= lr * np.concatenate((table_grad, factors_grad.reshape(-1, k)))
    qrep.renormalize_rows(block)
    table.amplitudes[ids] = block[:m]
    g.factors[...] = block[m:].reshape(g.factors.shape)
    if ids[0] == qrep.NULL_ID:
        table.pin_padding()


def actor_gradients(
    params: ActorParams, ids: np.ndarray, chosen: int, advantage: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of loss = -advantage * log pi(chosen): (table ids, table rows, weights, factors).

    `ids` (C, n) are the candidates' amplitude table rows, as
    QueryState.word_ids lists them. The table gradient is kept on their
    sorted unique values, table ids; every other row's gradient is zero. The
    candidates are scored afresh (qrep.project_rows, policy_probabilities) and
    policy_gradient takes it from there. The padding row's gradient is
    computed like any other row; the trainer is the one that refuses to move
    it. Zero advantage short-circuits to exact zeros.
    """
    g = params.global_rep
    if ids.ndim != 2 or ids.shape[1] != g.order:
        raise ShapeMismatch(
            f"global space is order {g.order}, candidate ids have shape {ids.shape}"
        )
    if ids.shape[0] == 0:
        raise NoCandidates("actor_gradients needs at least one candidate")
    if not (0 <= chosen < ids.shape[0]):
        raise IndexOutOfRange(f"chosen index {chosen} outside 0..{ids.shape[0] - 1}")
    table_ids, _, positions = qrep.segment_unique(ids.ravel())
    if advantage == 0.0:
        return (
            table_ids,
            np.zeros((table_ids.shape[0], params.table.basis_dim)),
            np.zeros(g.rank),
            np.zeros_like(g.factors),
        )
    rows = params.table.amplitudes[ids]
    scores, pooled, dots = qrep.project_rows(g, rows)
    probabilities = policy_probabilities(scores, params.temperature)
    return (table_ids,) + policy_gradient(
        g,
        params.temperature,
        rows,
        pooled,
        dots,
        probabilities,
        chosen,
        advantage,
        gradient_cells(positions.reshape(ids.shape), g.basis_dim).ravel(),
        table_ids.shape[0],
    )
