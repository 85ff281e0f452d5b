"""Judge of (state, action) pairs via complex word embeddings and a density matrix.

Each word carries a nonnegative unit amplitude vector, a phase vector, and a
salience scalar; its embedding is amplitude * exp(i * phase), a unit complex
vector. A token sequence becomes the mixture rho = sum_t beta_t |v_t><v_t| with
beta the softmax of the tokens' saliences. Three fixed coordinate blocks of the
embedding space act as class projectors (mismatch, partial, match); the
measured block masses are the class probabilities and their spread around the
reward values -1, 0, +1 gives the scalar judgment.

Because the projectors are diagonal blocks, class probabilities read only the
squared amplitudes: phases shape off-diagonal structure (visible in inspect
output) but are flat directions of the class loss, and their gradients are
exactly zero.

Training, evaluation and inspect judge one way: class_probabilities reads the
block masses, which equal the Born probabilities on unit rows, and q_value
weights them by the rewards. The density matrix (critic_density,
measure_classes) is the reference for tests and oracles, and shows inspect
its diagonal and off-diagonals.

A training step calls loss_gradient_rows, which gathers the judged pair's
distinct amplitude rows once and reads every token's block masses from them,
and ComplexEmbeddingTable.descend, which steps that same gathered block and
writes it back, so the rows are gathered once per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import qcore, qrep
from .errors import (
    DimensionNotDivisible,
    EmptyInput,
    InvalidLabel,
    ShapeMismatch,
)

UNK_ID = 0
#: Vocabulary word i lives in table row i + WORD_ROW_OFFSET, after the unknown row.
WORD_ROW_OFFSET = 1

CLASS_NAMES = ("mismatch", "partial", "match")
CLASS_REWARDS = (-1, 0, 1)
#: CLASS_REWARDS as floats: the class observable's eigenvalues and q_value's weights.
_REWARD_WEIGHTS = np.array(CLASS_REWARDS, dtype=np.float64)
#: d log(sum_c m_c) / d m_c before the division by the total: one per class.
_CLASS_ONES = np.ones(3)

DEFAULT_EMBED_DIM = 12

#: Loss floor: probabilities below this are treated as flat (zero gradient).
PROB_FLOOR = 1e-12


@lru_cache(maxsize=None)
def class_observable(dim: int) -> qcore.Observable:
    """Three equal coordinate blocks with eigenvalues (-1, 0, +1)."""
    if dim % 3 != 0:
        raise DimensionNotDivisible(f"embedding dimension {dim} is not divisible by 3")
    return qcore.Observable.coordinate_blocks(dim, 3, _REWARD_WEIGHTS)


@dataclass(eq=False)
class ComplexEmbeddingTable:
    """Trainable complex embeddings: amplitudes (nonnegative unit rows), phases, saliences.

    Row 0 absorbs unknown words. The embedding dimension must split into the
    three class blocks.
    """

    words: tuple[str, ...]
    amplitudes: np.ndarray   # (V, d) nonnegative, unit rows
    phases: np.ndarray       # (V, d) radians in [-pi, pi)
    salience: np.ndarray     # (V,)

    def __post_init__(self):
        self.words = tuple(self.words)
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.float64)
        self.phases = np.asarray(self.phases, dtype=np.float64)
        self.salience = np.asarray(self.salience, dtype=np.float64)
        v = len(self.words) + WORD_ROW_OFFSET
        if self.amplitudes.shape[0] != v or self.phases.shape != self.amplitudes.shape:
            raise ShapeMismatch(
                f"table for {len(self.words)} words needs ({v}, d) amplitudes and phases, "
                f"got {self.amplitudes.shape} and {self.phases.shape}"
            )
        if self.salience.shape != (v,):
            raise ShapeMismatch(f"salience must be ({v},), got {self.salience.shape}")
        if self.embed_dim % 3 != 0:
            raise DimensionNotDivisible(
                f"embedding dimension {self.embed_dim} is not divisible by 3"
            )

    @classmethod
    def from_vocab(
        cls, words: Sequence[str], embed_dim: int, rng: np.random.Generator
    ) -> "ComplexEmbeddingTable":
        if embed_dim % 3 != 0:
            raise DimensionNotDivisible(f"embedding dimension {embed_dim} is not divisible by 3")
        rows = len(words) + WORD_ROW_OFFSET
        normal = rng.standard_normal((rows, embed_dim))
        return cls.from_draws(words, normal, rng.uniform(-np.pi, np.pi, size=(rows, embed_dim)))

    @classmethod
    def from_draws(
        cls, words: Sequence[str], normal: np.ndarray, phases: np.ndarray
    ) -> "ComplexEmbeddingTable":
        """The from_vocab table of its normal and uniform(-pi, pi) draws, both (rows, d)."""
        amps = np.abs(normal)
        amps += 1e-3
        # np.linalg.norm's sum of squares, without its conj() copy.
        amps /= np.sqrt(np.add.reduce(amps * amps, axis=1, keepdims=True))
        return cls(words=tuple(words), amplitudes=amps, phases=phases, salience=np.zeros(len(amps)))

    @property
    def embed_dim(self) -> int:
        return self.amplitudes.shape[1]

    @cached_property
    def _index(self) -> dict[str, int]:
        """Word -> table row, built on the first word_id call; training never reads it."""
        return {w: i + WORD_ROW_OFFSET for i, w in enumerate(self.words)}

    def word_id(self, token: str) -> int:
        return self._index.get(token, UNK_ID)

    def embedding(self, ids: np.ndarray) -> np.ndarray:
        """Complex vectors amplitude * exp(i * phase) for the given rows."""
        return self.amplitudes[ids] * np.exp(1j * self.phases[ids])

    def renormalize(self) -> None:
        """Project every amplitude row back onto the nonnegative unit sphere (_project_rows)."""
        _project_rows(self.amplitudes)

    def descend(
        self,
        ids: np.ndarray,
        lr: float,
        amplitude_grad: np.ndarray,
        salience_grad: np.ndarray,
        block: np.ndarray,
    ) -> None:
        """One SGD step on rows `ids` (unique), then _project_rows on them.

        `block` is a copy of the amplitude rows `ids` as they are now, the one
        loss_gradient_rows gathered; it is stepped and projected in place
        and written back once.
        """
        self.salience[ids] -= lr * salience_grad
        block -= lr * amplitude_grad
        _project_rows(block)
        self.amplitudes[ids] = block


def _project_rows(rows: np.ndarray) -> None:
    """Put the rows of a 2-D array on the nonnegative unit sphere, in place.

    Negatives clamp to zero first; a row clamped to all zeros resets to the
    uniform unit row. The rest is qrep.scale_to_unit, so rows already unit
    within its dead band are left bit-identical. The squared norms are taken
    once unless a row was reset.
    """
    np.maximum(rows, 0.0, out=rows)
    sq = np.einsum("ij,ij->i", rows, rows)
    dead = sq <= 1e-300
    if np.logical_or.reduce(dead):
        rows[dead] = 1.0 / np.sqrt(rows.shape[1])
        sq = np.einsum("ij,ij->i", rows, rows)
    qrep.scale_to_unit(rows, sq)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Max-shifted softmax along the last axis.

    A 1-D sequence is shifted and divided by scalars; a batch keeps the
    reduced axis to broadcast. Each row's arithmetic is the same either way.
    """
    keep = z.ndim > 1
    z = z - np.maximum.reduce(z, axis=-1, keepdims=keep)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=keep)


def token_ids(tokens: Sequence[str], table: ComplexEmbeddingTable) -> np.ndarray:
    """The table rows of a token sequence, unknown words at UNK_ID."""
    tokens = list(tokens)
    if not tokens:
        raise EmptyInput("critic needs at least one token")
    return np.asarray([table.word_id(t) for t in tokens], dtype=np.int64)


def critic_density(
    state_tokens: Sequence[str],
    action_tokens: Sequence[str],
    table: ComplexEmbeddingTable,
) -> qcore.DensityMatrix:
    """Density matrix of the concatenated state and action tokens.

    Mixture weights are the softmax of per-token saliences; repeated words
    contribute one mixture component per occurrence, sharing parameters.
    """
    ids = token_ids(list(state_tokens) + list(action_tokens), table)
    beta = _softmax(table.salience[ids])
    vectors = table.embedding(ids)
    return qcore.build_density(beta, list(vectors))


def measure_classes(rho: qcore.DensityMatrix) -> np.ndarray:
    """Born probabilities of the three class blocks by dense projectors (the reference)."""
    dim = rho.dim if isinstance(rho, qcore.DensityMatrix) else np.asarray(rho).shape[0]
    if dim % 3 != 0:
        raise DimensionNotDivisible(f"state dimension {dim} is not divisible by 3")
    return class_observable(dim).probabilities(rho)


def q_value(probabilities: np.ndarray) -> float:
    """Expected reward under the class distribution: (-1, 0, +1) weighted by p."""
    return float(np.dot(_REWARD_WEIGHTS, probabilities))


def block_masses(amplitudes: np.ndarray) -> np.ndarray:
    """Squared-amplitude mass of each class block, row by row: (..., d) to (..., 3)."""
    block = amplitudes.shape[-1] // 3
    sq = amplitudes ** 2
    return np.add.reduce(sq.reshape(*sq.shape[:-1], 3, block), axis=-1)


def _class_masses(
    ids: np.ndarray, table: ComplexEmbeddingTable, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mixture weights and class masses, for ids of shape (..., L).

    `s` holds the per-token block masses, S[..., t, c] = block-c
    squared-amplitude mass of token t's word: block_masses of the tokens'
    rows, read by each caller from the rows it holds, every way giving the
    same values. Returns (beta over tokens, masses m_c = sum_t beta_t
    S[..., t, c]). Every sequence of a batch takes the arithmetic of a
    single one, bit for bit.
    """
    beta = _softmax(table.salience[ids])
    return beta, np.matmul(beta[..., None, :], s)[..., 0, :]


def class_probabilities(tokens: Sequence[str], table: ComplexEmbeddingTable) -> np.ndarray:
    """Class probabilities from diagonal masses, normalized by total mass.

    On the invariant set (unit amplitude rows) the normalizer is exactly the
    trace, 1, and the values coincide with measuring the density matrix. Off
    the sphere the normalized form is scale-invariant, which is the form the
    loss differentiates.
    """
    ids = token_ids(tokens, table)
    _, masses = _class_masses(ids, table, block_masses(table.amplitudes[ids]))
    return masses / masses.sum(axis=-1, keepdims=True)


def pair_groups(ids: np.ndarray, lengths: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The rows of an (N, L) array of table rows, grouped by sequence length.

    Row i holds its sequence in its first lengths[i] entries. Each group,
    one per distinct length in increasing order, is (rows, judged): the
    indices of the rows of that length and their (count, length) sequences,
    without padding. The arrays are read-only, so groups can be kept and
    reused.
    """
    groups = []
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        judged = ids[rows, :length]
        rows.flags.writeable = False
        judged.flags.writeable = False
        groups.append((rows, judged))
    return tuple(groups)


def batch_class_probabilities(
    groups: tuple[tuple[np.ndarray, np.ndarray], ...], table: ComplexEmbeddingTable
) -> np.ndarray:
    """class_probabilities of every row that pair_groups grouped, bit for bit.

    Rows of one length are judged together, so no padding enters a sum; every
    block mass is read from the (V, 3) per-word masses, never from gathered
    amplitudes. The groups depend only on the table rows, so they can be
    built once for many tables.
    """
    word_masses = block_masses(table.amplitudes)
    probabilities = np.empty((sum(rows.shape[0] for rows, _ in groups), 3))
    for rows, judged in groups:
        _, masses = _class_masses(judged, table, word_masses.take(judged, axis=0))
        probabilities[rows] = masses / masses.sum(axis=-1, keepdims=True)
    return probabilities


def loss_gradient_rows(
    table: ComplexEmbeddingTable,
    ids: np.ndarray,
    label: int,
    rows: np.ndarray,
    occurrence: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cross-entropy against class `label`, its gradient rows, and the rows it read.

    Returns (loss, probabilities, amplitude rows, salience rows, block).
    `ids` are the table rows of the judged tokens in order, `rows` their
    sorted distinct values and occurrence[t] the index of ids[t] among them.
    The amplitude rows `rows` are gathered once, as `block` (a copy), which
    is returned for ComplexEmbeddingTable.descend to step; the per-token
    block masses are the distinct rows' masses read at occurrence.
    loss = -log p_label, floored at p >= 1e-12 (below the floor the loss is
    constant, so gradients are zero there). Gradients are reverse mode
    through the salience softmax and the squared-amplitude block masses;
    phases do not enter the diagonal, so their gradient is identically zero.
    Each word's occurrences add into its row in token order. The
    probabilities are the masses over their total. The label and the ids are
    not checked here (critic_loss_and_gradients checks them).
    """
    block = table.amplitudes.take(rows, axis=0)
    s = block_masses(block).take(occurrence, axis=0)
    beta, masses = _class_masses(ids, table, s)
    total = float(np.add.reduce(masses))
    probabilities = masses / total
    p_label = float(probabilities[label])
    loss = -float(np.log(max(p_label, PROB_FLOOR)))
    if p_label <= PROB_FLOOR:
        return (
            loss,
            probabilities,
            np.zeros(block.shape),
            np.zeros(rows.shape[0]),
            block,
        )

    # loss = -log(m_label) + log(sum_c m_c)
    d_masses = _CLASS_ONES / total
    d_masses[label] -= 1.0 / float(masses[label])

    # Salience path: d loss / d beta_t, then softmax backward, then sum
    # occurrences of one word into its single parameter, in token order.
    d_beta = s @ d_masses
    d_z = beta * (d_beta - float(np.dot(beta, d_beta)))
    salience_rows = np.bincount(occurrence, weights=d_z, minlength=rows.shape[0])

    # Amplitude path: m_c picks up 2 * beta_t * a_{w,j} for j in block c.
    word_coeff = np.bincount(occurrence, weights=beta, minlength=rows.shape[0])
    block_scale = (2.0 * d_masses).repeat(block.shape[1] // 3)
    amplitude_rows = np.multiply.outer(word_coeff, block_scale) * block
    return loss, probabilities, amplitude_rows, salience_rows, block


def critic_loss_and_gradients(
    ids: np.ndarray, label: int, table: ComplexEmbeddingTable
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """loss_gradient_rows of a checked label and token sequence.

    `ids` are the table rows of the judged tokens in order, as token_ids
    gives them, and `label` a class index. Returns (loss, probabilities,
    rows, amplitude rows, salience rows): `rows` are the sorted distinct ids,
    the table rows the gradient rows belong to. Every other row's gradient
    is zero, and so is every phase gradient.
    """
    if label not in (0, 1, 2):
        raise InvalidLabel(f"label {label!r} is not a class index in (0, 1, 2)")
    if ids.ndim != 1 or ids.shape[0] == 0:
        raise EmptyInput(f"critic needs a non-empty 1-D sequence of rows, got shape {ids.shape}")
    rows, _, occurrence = qrep.segment_unique(ids)
    loss, probabilities, amplitude_rows, salience_rows, _ = loss_gradient_rows(
        table, ids, label, rows, occurrence
    )
    return loss, probabilities, rows, amplitude_rows, salience_rows
