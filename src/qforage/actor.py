"""Policy head: scores candidate queries against the global semantic space.

Each candidate's score is its projection onto the factored space; the policy
is a temperature softmax over scores, taken once per step: the probabilities
and the chosen candidate's log probability come from the same logits.

Gradients are hand-derived reverse mode through the softmax, the weighted sum,
and the product pooling. Leave-one-out products use prefix/suffix
accumulation, never division, so exactly-zero inner products are safe.

A training step calls the array routines sample_rows and policy_gradient:
they return tuples of arrays and skip the shape and temperature checks that
the compiled corpus and ActorParams already settle. act, score_rows and
actor_gradients check their inputs, then wrap the same routines in
dataclasses, so each quantity is computed one way.
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


@dataclass(frozen=True, eq=False)
class ActorForward:
    scores: np.ndarray   # (C,)
    pooled: np.ndarray   # (C, R) per-rank products per candidate
    dots: np.ndarray     # (C, R, n) per-position inner products <e_{r,i}, alpha_i>
    rows: np.ndarray     # (C, n, k) the candidate amplitude rows scored


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


def project_rows(
    g: qrep.GlobalRepresentation, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(scores, pooled, dots) of an (N, n, k) batch of candidate amplitude rows.

    The one scoring arithmetic: training, inspect and evaluation all come
    here. One einsum takes every (candidate, rank, position) inner product,
    with the per-candidate arithmetic of qrep.product_pool, and each score is
    the weighted sum qrep.project takes, one dot product per candidate (a
    matrix-vector product would sum in another order). So module-level and
    actor-level scoring agree bit for bit, and a candidate's score does not
    depend on the batch around it. The shapes are not checked here
    (score_rows checks them); the pooled products and dots serve
    policy_gradient.
    """
    dots = np.einsum("rik,cik->cri", g.factors, rows)
    pooled = dots.prod(axis=2)
    scores = np.fromiter(map(g.weights.dot, pooled), dtype=np.float64, count=pooled.shape[0])
    return scores, pooled, dots


def _check_rows(g: qrep.GlobalRepresentation, rows: np.ndarray) -> None:
    if rows.ndim != 3 or rows.shape[1:] != (g.order, g.basis_dim):
        raise ShapeMismatch(
            f"global space is order {g.order} over k={g.basis_dim}, "
            f"candidate rows have shape {rows.shape}"
        )


def score_rows(g: qrep.GlobalRepresentation, rows: np.ndarray) -> ActorForward:
    """project_rows of an (N, n, k) batch whose shape fits the global space."""
    _check_rows(g, rows)
    scores, pooled, dots = project_rows(g, rows)
    return ActorForward(scores=scores, pooled=pooled, dots=dots, rows=rows)


def actor_forward(params: ActorParams, candidates: Sequence[qrep.QueryState]) -> ActorForward:
    """Score every candidate (score_rows). Deterministic: same inputs, bitwise-same outputs."""
    if len(candidates) == 0:
        raise NoCandidates("actor_forward needs at least one candidate")
    g = params.global_rep
    for q in candidates:
        qrep._check_compatible(g, q)
    return score_rows(g, np.stack([q.rows for q in candidates]))


def _check_finite(scores: np.ndarray) -> None:
    if not np.isfinite(scores).all():
        raise NonFiniteScore(f"scores contain non-finite values: {scores!r}")


def _logits(scores: np.ndarray, temperature: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Max-shifted logits z = scores / temperature - max, e = exp(z), and sum(e).

    The probabilities are e / sum(e) and log pi(i) is z_i - log(sum(e)); the
    shift makes the sum >= 1, so a log probability never rounds above 0.
    """
    z = scores / temperature
    z = z - z.max()
    e = np.exp(z)
    return z, e, e.sum()


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
    cdf = probabilities.cumsum()
    u = rng.random() * cdf[-1]
    index = min(int(cdf.searchsorted(u, side="right")), probabilities.shape[0] - 1)
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
    first_row = np.repeat(offsets, counts)
    at_top = scores == np.repeat(np.maximum.reduceat(scores, offsets), counts)
    position = np.arange(scores.shape[0]) - first_row
    return np.minimum.reduceat(np.where(at_top, position, scores.shape[0]), offsets)


def sample_rows(
    g: qrep.GlobalRepresentation, rows: np.ndarray, temperature: float, rng: np.random.Generator
) -> tuple[int, float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score a (C, n, k) batch of candidate rows (project_rows) and sample one candidate.

    Returns (index, log probability, probabilities, scores, pooled, dots).
    The softmax is taken once and serves the draw, the log probability, and
    policy_gradient. Non-finite scores raise NonFiniteScore. The caller
    brings a nonempty batch that fits the global space and a supported
    temperature (act checks them).
    """
    scores, pooled, dots = project_rows(g, rows)
    _check_finite(scores)
    index, log_probability, probabilities = _draw(*_logits(scores, temperature), rng)
    return index, log_probability, probabilities, scores, pooled, dots


def act(params: ActorParams, rows: np.ndarray, rng: np.random.Generator) -> ActionOutput:
    """sample_rows of a checked batch, as an ActionOutput."""
    if len(rows) == 0:
        raise NoCandidates("act needs at least one candidate")
    g = params.global_rep
    _check_rows(g, rows)
    check_temperature(params.temperature)
    index, log_probability, probabilities, scores, pooled, dots = sample_rows(
        g, rows, params.temperature, rng
    )
    return ActionOutput(
        index=index,
        forward=ActorForward(scores=scores, pooled=pooled, dots=dots, rows=rows),
        probabilities=probabilities,
        log_probability=log_probability,
    )


def policy_gradient(
    g: qrep.GlobalRepresentation,
    temperature: float,
    rows: np.ndarray,
    pooled: np.ndarray,
    dots: np.ndarray,
    probabilities: np.ndarray,
    chosen: int,
    advantage: float,
    position_row: np.ndarray,
    num_unique: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of loss = -advantage * log pi(chosen): (table rows, weights, factors).

    `rows`, `pooled`, `dots` and `probabilities` are the pass the choice was
    sampled from (sample_rows). Repeated words share one table row:
    position_row maps each (candidate, position) to its index among the
    num_unique distinct rows, and their gradients add there in that order.
    """
    one_hot = np.zeros(probabilities.shape)
    one_hot[chosen] = 1.0
    # d loss / d score_c; the 1/temperature comes from the softmax logits.
    g_scores = -advantage * (one_hot - probabilities) / temperature

    # Leave-one-out products along the position axis: the product of the
    # positions before i times the product of those after it. A running
    # product is what np.cumprod takes, without its wrapper's call cost.
    prefix, suffix = np.ones((2,) + dots.shape)
    np.multiply.accumulate(dots[..., :-1], axis=-1, out=prefix[..., 1:])
    np.multiply.accumulate(dots[..., :0:-1], axis=-1, out=suffix[..., -2::-1])
    w_loo = g.weights[None, :, None] * (prefix * suffix)    # (C, R, n)

    k = g.basis_dim
    per_row = np.einsum("c,crn,rnk->cnk", g_scores, w_loo, g.factors)
    table_rows = np.zeros((num_unique, k))
    np.add.at(table_rows, position_row, per_row.reshape(-1, k))
    return (
        table_rows,
        g_scores @ pooled,
        np.einsum("c,crn,cnk->rnk", g_scores, w_loo, rows),
    )


def actor_gradients(
    params: ActorParams, ids: np.ndarray, chosen: int, advantage: float
) -> ActorGradients:
    """Gradients of loss = -advantage * log pi(chosen) for all actor parameters.

    `ids` (C, n) are the candidates' amplitude table rows, as
    QueryState.word_ids lists them. The candidates are scored afresh
    (score_rows, policy_probabilities) and policy_gradient takes it from
    there. The padding row's gradient is computed like any other row; the
    trainer is the one that refuses to move it. Zero advantage short-circuits
    to exact zeros.
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
    table_ids, _, position_row = qrep.segment_unique(ids.ravel())
    if advantage == 0.0:
        return ActorGradients(
            ids=table_ids,
            rows=np.zeros((table_ids.shape[0], params.table.basis_dim)),
            weights=np.zeros(g.rank),
            factors=np.zeros_like(g.factors),
            num_rows=params.table.num_rows,
        )
    forward = score_rows(g, params.table.amplitudes[ids])
    probabilities = policy_probabilities(forward.scores, params.temperature)
    rows, weights, factors = policy_gradient(
        g,
        params.temperature,
        forward.rows,
        forward.pooled,
        forward.dots,
        probabilities,
        chosen,
        advantage,
        position_row,
        table_ids.shape[0],
    )
    return ActorGradients(
        ids=table_ids,
        rows=rows,
        weights=weights,
        factors=factors,
        num_rows=params.table.num_rows,
    )
