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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
UNK_TOKEN = "<unk>"

CLASS_NAMES = ("mismatch", "partial", "match")
CLASS_REWARDS = (-1, 0, 1)

DEFAULT_EMBED_DIM = 12

#: Loss floor: probabilities below this are treated as flat (zero gradient).
PROB_FLOOR = 1e-12


def class_of_reward(reward: int) -> int:
    """Map a reward in {-1, 0, +1} to its class index."""
    try:
        return CLASS_REWARDS.index(int(reward))
    except (ValueError, TypeError):
        raise InvalidLabel(f"reward {reward!r} is not one of {CLASS_REWARDS}") from None


@lru_cache(maxsize=None)
def class_observable(dim: int) -> qcore.Observable:
    """Three equal coordinate blocks with eigenvalues (-1, 0, +1)."""
    if dim % 3 != 0:
        raise DimensionNotDivisible(f"embedding dimension {dim} is not divisible by 3")
    return qcore.Observable.coordinate_blocks(dim, 3, np.asarray(CLASS_REWARDS, dtype=np.float64))


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
        v = len(self.words) + 1
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
        self._index = {w: i + 1 for i, w in enumerate(self.words)}

    @classmethod
    def from_vocab(
        cls, words: Sequence[str], embed_dim: int, rng: np.random.Generator
    ) -> "ComplexEmbeddingTable":
        if embed_dim % 3 != 0:
            raise DimensionNotDivisible(f"embedding dimension {embed_dim} is not divisible by 3")
        rows = len(words) + 1
        amps = np.abs(rng.standard_normal((rows, embed_dim))) + 1e-3
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        phases = rng.uniform(-np.pi, np.pi, size=(rows, embed_dim))
        salience = np.zeros(rows)
        return cls(words=tuple(words), amplitudes=amps, phases=phases, salience=salience)

    @property
    def embed_dim(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def num_rows(self) -> int:
        return self.amplitudes.shape[0]

    def word_id(self, token: str) -> int:
        return self._index.get(token, UNK_ID)

    def embedding(self, ids: np.ndarray) -> np.ndarray:
        """Complex vectors amplitude * exp(i * phase) for the given rows."""
        return self.amplitudes[ids] * np.exp(1j * self.phases[ids])

    def renormalize(self) -> None:
        """Project amplitude rows back onto the nonnegative unit sphere.

        Negatives clamp to zero first; a row clamped to all zeros resets to
        the uniform unit row. The rest is qrep.renormalize_rows, so rows
        already unit within its dead band are left bit-identical.
        """
        np.maximum(self.amplitudes, 0.0, out=self.amplitudes)
        sq = np.einsum("ij,ij->i", self.amplitudes, self.amplitudes)
        self.amplitudes[sq <= 1e-300] = 1.0 / np.sqrt(self.embed_dim)
        qrep.renormalize_rows(self.amplitudes)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def _token_ids(tokens: Sequence[str], table: ComplexEmbeddingTable) -> np.ndarray:
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
    ids = _token_ids(list(state_tokens) + list(action_tokens), table)
    beta = _softmax(table.salience[ids])
    vectors = table.embedding(ids)
    return qcore.build_density(beta, list(vectors))


@dataclass(frozen=True, eq=False)
class ClassMeasurement:
    """Class probabilities plus the observable that produced them."""

    probabilities: np.ndarray
    observable: qcore.Observable


def measure_classes(rho: qcore.DensityMatrix) -> ClassMeasurement:
    """Born probabilities of the three class blocks."""
    dim = rho.dim if isinstance(rho, qcore.DensityMatrix) else np.asarray(rho).shape[0]
    if dim % 3 != 0:
        raise DimensionNotDivisible(f"state dimension {dim} is not divisible by 3")
    obs = class_observable(dim)
    return ClassMeasurement(probabilities=obs.probabilities(rho), observable=obs)


def q_value(measurement: ClassMeasurement) -> float:
    """Expected reward under the class distribution: (-1, 0, +1) weighted by p."""
    return float(np.dot(measurement.observable.eigenvalues, measurement.probabilities))


@dataclass(frozen=True, eq=False)
class CriticGradients:
    amplitudes: np.ndarray   # (V, d)
    salience: np.ndarray     # (V,)

    @property
    def phases(self) -> np.ndarray:
        """(V, d) zeros: phases do not enter the block masses, so nothing stores this."""
        return np.zeros_like(self.amplitudes)


def _class_masses(ids: np.ndarray, table: ComplexEmbeddingTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-token block masses and mixture weights.

    Returns (beta over tokens, S with S[t, c] = block-c squared-amplitude mass
    of token t's word, masses m_c = sum_t beta_t S[t, c]).
    """
    beta = _softmax(table.salience[ids])
    block = table.embed_dim // 3
    sq = table.amplitudes[ids] ** 2
    s = sq.reshape(len(ids), 3, block).sum(axis=2)
    return beta, s, beta @ s


def class_probabilities(tokens: Sequence[str], table: ComplexEmbeddingTable) -> np.ndarray:
    """Class probabilities from diagonal masses, normalized by total mass.

    On the invariant set (unit amplitude rows) the normalizer is exactly the
    trace, 1, and the values coincide with measuring the density matrix. Off
    the sphere the normalized form is scale-invariant, which is the form the
    loss differentiates.
    """
    ids = _token_ids(tokens, table)
    _, _, masses = _class_masses(ids, table)
    return masses / masses.sum()


def critic_loss_and_gradients(
    tokens: Sequence[str],
    label: int,
    table: ComplexEmbeddingTable,
) -> tuple[float, CriticGradients]:
    """Cross-entropy against the labeled class, with gradients for all word parameters.

    loss = -log p_label, floored at p >= 1e-12 (below the floor the loss is
    constant, so gradients are zero there). Gradients are reverse mode through
    the salience softmax and the squared-amplitude block masses; phases do not
    enter the diagonal, so their gradient is identically zero.
    """
    if label not in (0, 1, 2):
        raise InvalidLabel(f"label {label!r} is not a class index in (0, 1, 2)")
    ids = _token_ids(tokens, table)
    beta, s, masses = _class_masses(ids, table)
    total = float(masses.sum())
    p_label = float(masses[label]) / total
    loss = -float(np.log(max(p_label, PROB_FLOOR)))

    v_rows, d = table.amplitudes.shape
    grads = CriticGradients(amplitudes=np.zeros((v_rows, d)), salience=np.zeros(v_rows))
    if p_label <= PROB_FLOOR:
        return loss, grads

    # loss = -log(m_label) + log(sum_c m_c)
    d_masses = np.ones(3) / total
    d_masses[label] -= 1.0 / float(masses[label])

    # Salience path: d loss / d beta_t, then softmax backward, then sum
    # occurrences of one word into its single parameter.
    d_beta = s @ d_masses
    d_z = beta * (d_beta - float(np.dot(beta, d_beta)))
    np.add.at(grads.salience, ids, d_z)

    # Amplitude path: m_c picks up 2 * beta_t * a_{w,j} for j in block c.
    occ = beta  # coefficient per occurrence
    word_coeff = np.zeros(v_rows)
    np.add.at(word_coeff, ids, occ)
    block = d // 3
    for c in range(3):
        cols = slice(c * block, (c + 1) * block)
        grads.amplitudes[:, cols] = (
            2.0 * d_masses[c] * word_coeff[:, None] * table.amplitudes[:, cols]
        )
    return loss, grads
