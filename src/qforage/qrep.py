"""Query representations: per-word amplitude rows, local tensors, and the factored global space.

A query of fixed order n maps each word to a unit amplitude row over k basis
meanings. The local representation of the query is the rank-1 tensor whose
entry (b1, ..., bn) is the product of per-position amplitudes; it is never
needed densely during scoring. The global semantic space is a rank-R sum of
outer products (weights w_r, unit factor vectors e_{r,i}), and the overlap
between the two is the projection

    project(g, q) = sum_r w_r * prod_i <e_{r,i}, alpha_i>,

computed in O(R * n * k) without materializing any k^n object. project_rows
takes it for a batch of candidates, and product_pool (the per-rank products)
and project (their weighted sum) are its row for one query.

cp_decompose goes the other way: alternating least squares recovers a rank-R
factored form from a small dense tensor. It exists for oracle and analysis
work; training updates the factored form directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from . import qcore
from .errors import (
    DenseCapExceeded,
    EmptyQuery,
    RankTooLarge,
    ShapeMismatch,
)

NULL_ID = 0
UNK_ID = 1
#: Vocabulary word i lives in table row i + WORD_ROW_OFFSET, after the padding
#: and unknown rows.
WORD_ROW_OFFSET = 2

#: Engineering defaults for the representation sizes.
DEFAULT_BASIS_DIM = 4
DEFAULT_QUERY_ORDER = 5
DEFAULT_RANK = 10

#: Rows whose squared norm is already this close to 1 are left untouched by
#: renormalization, making it an exact no-op on already-normalized data while
#: still enforcing the 1e-9 unit-norm invariant after real updates.
_RENORM_DEADBAND = 1e-13


def scale_to_unit(block: np.ndarray, sq: np.ndarray) -> None:
    """Divide each row of a 2-D array by the root of its squared norm `sq`, in place.

    Rows inside the dead band and rows whose squared norm is NaN are divided
    by 1.0, which is exact, so their bits stay as they are.
    """
    block /= np.where(np.abs(sq - 1.0) > _RENORM_DEADBAND, np.sqrt(sq), 1.0)[:, None]


def renormalize_rows(rows: np.ndarray) -> None:
    """Scale every row of a 2-D array to unit norm, in place, with a dead band.

    Rows inside the dead band and rows whose squared norm is NaN are left as
    they are (scale_to_unit).
    """
    scale_to_unit(rows, np.einsum("ij,ij->i", rows, rows))


def segment_unique(
    values: np.ndarray, counts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each segment's sorted distinct values, and where each value sits among them.

    `values` (M,) are nonnegative integers cut into consecutive segments of
    `counts` values each; without `counts` they are one segment. Returns
    (unique, unique_counts, inverse): `unique` holds every segment's sorted
    distinct values back to back, unique_counts[s] of them for segment s,
    and inverse[m] is the index of values[m] among its own segment's. For
    one segment this is what np.unique(values, return_inverse=True) gives.

    Every segment takes part in one np.sort, of the key segment * width +
    value (width = max(values) + 1) shifted left by `bits`, the bit length
    of M - 1, with each value's position in the low bits, so the sorted
    array also gives the order and many short segments cost one pass. The
    packed key must fit in int64: S * width * 2**bits < 2**63, with S =
    len(counts) (1 without counts); larger inputs raise ValueError.
    """
    size = values.shape[0]
    if counts is None:
        counts = np.array([size])
    width = int(values.max(initial=0)) + 1
    bits = max(size - 1, 0).bit_length()
    if len(counts) * width << bits >= 1 << 63:
        raise ValueError(
            f"{len(counts)} segments of values below {width} at {size} positions "
            "overflow the packed int64 sort key"
        )
    # Segment s's keys lie in [s * width, (s + 1) * width), so one sort
    # orders every segment and keeps each at its own positions: sorted
    # position m has position m's segment offset.
    offset = np.repeat(np.arange(len(counts), dtype=np.int64) * (width << bits), counts)
    packed = np.left_shift(values, bits, dtype=np.int64)
    packed += offset
    packed |= np.arange(size)
    packed.sort()
    order = packed & ((1 << bits) - 1)
    packed -= offset
    packed >>= bits
    # A distinct value starts where the sorted value changes or a segment begins.
    bounds = np.concatenate(([0], np.cumsum(counts)))
    first = np.empty(size, dtype=bool)
    np.not_equal(packed[1:], packed[:-1], out=first[1:])
    first[bounds[:-1][counts > 0]] = True
    unique = packed[first]
    # seen[m] counts the distinct values among the first m sorted ones; less
    # those of earlier segments, it gives each value's index in its own.
    seen = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(first, out=seen[1:])
    unique_counts = np.diff(seen[bounds])
    index = seen[1:]
    index -= np.repeat(seen[bounds[:-1]] + 1, counts)
    inverse = np.empty(size, dtype=np.intp)
    inverse[order] = index
    return unique, unique_counts, inverse


@dataclass(eq=False)
class AmplitudeTable:
    """Trainable real amplitudes giving every vocabulary word a unit row of basis weights.

    Row 0 is the padding row, pinned to the first basis vector; row 1 absorbs
    unknown words and trains like any other row. Lookups never fail: a missing
    token maps to the unknown row.
    """

    words: tuple[str, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        self.words = tuple(self.words)
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.float64)
        rows = len(self.words) + WORD_ROW_OFFSET
        if self.amplitudes.ndim != 2 or self.amplitudes.shape[0] != rows:
            raise ShapeMismatch(
                f"amplitude table for {len(self.words)} words needs shape "
                f"({rows}, k), got {self.amplitudes.shape}"
            )

    @classmethod
    def from_vocab(cls, words: Sequence[str], basis_dim: int, rng: np.random.Generator) -> "AmplitudeTable":
        """Near-uniform random init: every row close to (1/sqrt(k), ..., 1/sqrt(k)).

        Near-uniform rows keep early inner products against near-uniform
        factors close to 1, so products over query positions start well away
        from zero and gradients flow from the first episode.
        """
        rows = len(words) + WORD_ROW_OFFSET
        return cls.from_normal(words, rng.standard_normal((rows, basis_dim)))

    @classmethod
    def from_normal(cls, words: Sequence[str], normal: np.ndarray) -> "AmplitudeTable":
        """The from_vocab table of a standard normal draw of shape (rows, k)."""
        amps = 1.0 + 0.2 * normal
        renormalize_rows(amps)
        amps[NULL_ID] = qcore.basis_vector(amps.shape[1], 0)
        return cls(words=tuple(words), amplitudes=amps)

    @property
    def basis_dim(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def num_rows(self) -> int:
        return self.amplitudes.shape[0]

    @cached_property
    def _index(self) -> dict[str, int]:
        """Word -> table row, built on the first word_id call; training never reads it."""
        return {w: i + WORD_ROW_OFFSET for i, w in enumerate(self.words)}

    def word_id(self, token: str) -> int:
        return self._index.get(token, UNK_ID)

    def renormalize(self) -> None:
        """Restore every row to unit length; re-pins the padding row."""
        renormalize_rows(self.amplitudes)
        self._pin_padding()

    def descend(self, ids: np.ndarray, lr: float, grad: np.ndarray) -> None:
        """One SGD step on rows `ids` (unique), renormalized; re-pins the padding row.

        The rows are gathered once, stepped and scaled to unit length, and
        written back once.
        """
        block = self.amplitudes[ids]
        block -= lr * grad
        renormalize_rows(block)
        self.amplitudes[ids] = block
        self._pin_padding()

    def _pin_padding(self) -> None:
        self.amplitudes[NULL_ID] = 0.0
        self.amplitudes[NULL_ID, 0] = 1.0


@dataclass(frozen=True, eq=False)
class QueryState:
    """A fixed-order query: word ids and a snapshot of their amplitude rows.

    Rows are copied at embed time, so later table updates do not reach back
    into an already-embedded query.
    """

    word_ids: np.ndarray
    rows: np.ndarray

    @property
    def order(self) -> int:
        return self.rows.shape[0]

    @property
    def basis_dim(self) -> int:
        return self.rows.shape[1]


def embed_query(tokens: Sequence[str], table: AmplitudeTable, order: int) -> QueryState:
    """Map tokens to a QueryState of exactly `order` positions.

    Unknown tokens map to the unknown row; short queries pad with the pinned
    null row; long queries truncate.
    """
    tokens = list(tokens)
    if not tokens:
        raise EmptyQuery("cannot embed a query with no tokens")
    ids = [table.word_id(t) for t in tokens[:order]]
    ids.extend([NULL_ID] * (order - len(ids)))
    id_array = np.asarray(ids, dtype=np.int64)
    return QueryState(word_ids=id_array, rows=table.amplitudes[id_array].copy())


@dataclass(eq=False)
class GlobalRepresentation:
    """Rank-R factored semantic space: weights (R,) and unit factors (R, order, k)."""

    weights: np.ndarray
    factors: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.factors = np.asarray(self.factors, dtype=np.float64)
        if self.weights.ndim != 1 or self.factors.ndim != 3:
            raise ShapeMismatch(
                f"weights must be (R,), factors (R, order, k); got {self.weights.shape} and {self.factors.shape}"
            )
        if self.factors.shape[0] != self.weights.shape[0]:
            raise ShapeMismatch(
                f"{self.weights.shape[0]} weights for {self.factors.shape[0]} factor groups"
            )

    @classmethod
    def from_random(
        cls,
        order: int,
        basis_dim: int,
        rank: int,
        rng: np.random.Generator,
    ) -> "GlobalRepresentation":
        factor_normal = rng.standard_normal((rank, order, basis_dim))
        return cls.from_normal(factor_normal, rng.standard_normal(rank))

    @classmethod
    def from_normal(
        cls, factor_normal: np.ndarray, weight_normal: np.ndarray
    ) -> "GlobalRepresentation":
        """The from_random representation of standard normal draws, (R, order, k) and (R,)."""
        rank, order, basis_dim = factor_normal.shape
        flat = (1.0 + 0.2 * factor_normal).reshape(rank * order, basis_dim)
        renormalize_rows(flat)
        # Positive initial weights keep the score monotone in slot alignment
        # at the start of training; signed products of near-unit dots are
        # otherwise free to rank candidates by parity instead of overlap.
        weights = 0.3 * np.abs(weight_normal) + 0.05
        return cls(weights=weights, factors=flat.reshape(rank, order, basis_dim))

    @property
    def rank(self) -> int:
        return self.weights.shape[0]

    @property
    def order(self) -> int:
        return self.factors.shape[1]

    @property
    def basis_dim(self) -> int:
        return self.factors.shape[2]

    def renormalize(self) -> None:
        """Restore unit factor vectors after an optimizer step."""
        renormalize_rows(self.factors.reshape(-1, self.basis_dim))

    def descend(self, lr: float, weights_grad: np.ndarray, factors_grad: np.ndarray) -> None:
        """One SGD step on the weights and factors, then unit factor vectors again."""
        self.weights -= lr * weights_grad
        self.factors -= lr * factors_grad
        renormalize_rows(self.factors.reshape(-1, self.basis_dim))


def _check_compatible(g: GlobalRepresentation, q: QueryState) -> None:
    if (g.order, g.basis_dim) != (q.order, q.basis_dim):
        raise ShapeMismatch(
            f"global space is order {g.order} over k={g.basis_dim}, "
            f"query is order {q.order} over k={q.basis_dim}"
        )


def materialize_local(q: QueryState) -> np.ndarray:
    """Dense rank-1 local tensor: entry (b1, ..., bn) = prod_i alpha_{i, b_i}.

    Only for small spaces; k^n past qcore.DENSE_CAP raises DenseCapExceeded.
    """
    total = q.basis_dim ** q.order
    if total > qcore.DENSE_CAP:
        raise DenseCapExceeded(
            f"local tensor would hold {total} entries, cap is {qcore.DENSE_CAP}"
        )
    return reduce(np.multiply.outer, list(q.rows)).copy()


def cp_reconstruct(g: GlobalRepresentation) -> np.ndarray:
    """Dense tensor sum_r w_r * e_{r,1} x ... x e_{r,n}. Subject to qcore.DENSE_CAP."""
    total = g.basis_dim ** g.order
    if total > qcore.DENSE_CAP:
        raise DenseCapExceeded(
            f"global tensor would hold {total} entries, cap is {qcore.DENSE_CAP}"
        )
    shape = (g.basis_dim,) * g.order
    out = np.zeros(shape, dtype=np.float64)
    for r in range(g.rank):
        out += g.weights[r] * reduce(np.multiply.outer, list(g.factors[r]))
    return out


def project_rows(
    g: GlobalRepresentation, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(scores, pooled, dots) of an (N, n, k) batch of candidate amplitude rows.

    The one scoring arithmetic: training, evaluation, inspect, product_pool
    and project all come here. One einsum takes every (candidate, rank,
    position) inner product, and each score is the weighted sum of its
    pooled row, one dot product per candidate (a matrix-vector product would
    sum in another order), so a score does not depend on the batch around
    it. The shapes are not checked here (product_pool, project and the
    checked actor entry points check them).
    """
    dots = np.einsum("rik,cik->cri", g.factors, rows)
    pooled = dots.prod(axis=2)
    scores = np.fromiter(map(g.weights.dot, pooled), dtype=np.float64, count=pooled.shape[0])
    return scores, pooled, dots


def product_pool(g: GlobalRepresentation, q: QueryState) -> np.ndarray:
    """Per-rank products: component r is prod_i <e_{r,i}, alpha_i> (project_rows' pooled row)."""
    _check_compatible(g, q)
    return project_rows(g, q.rows[None])[1][0]


def project(g: GlobalRepresentation, q: QueryState) -> float:
    """Overlap of the factored global space with the query's local tensor.

    Equals the dense inner product <cp_reconstruct(g), materialize_local(q)>
    but runs in O(R * n * k): project_rows' score for the one query.
    """
    _check_compatible(g, q)
    return float(project_rows(g, q.rows[None])[0][0])


#: Alternating least squares settings (cp_decompose says how each is used).
CP_RESTARTS = 20
CP_MAX_SWEEPS = 500
CP_TOL = 1e-9
CP_RIDGE = 1e-10
CP_EARLY_STOP = 1e-12


@dataclass(frozen=True)
class CPFitReport:
    relative_error: float
    sweeps: int
    restarts_run: int


def _khatri_rao_columns(factor_mats: list[np.ndarray], rank: int) -> np.ndarray:
    """Column-wise Kronecker product; column r is the chained kron of column r of each factor."""
    total = 1
    for a in factor_mats:
        total *= a.shape[0]
    out = np.ones((total, rank))
    for r in range(rank):
        col = np.ones(1)
        for a in factor_mats:
            col = np.kron(col, a[:, r])
        out[:, r] = col
    return out


def _from_als(weights: np.ndarray, factor_mats: list[np.ndarray]) -> GlobalRepresentation:
    """The factored form of ALS weights and per-mode (k, R) factor matrices, copied."""
    factors = np.ascontiguousarray(np.stack(factor_mats).transpose(2, 0, 1))
    return GlobalRepresentation(weights=weights.copy(), factors=factors)


def _algebraic_init(
    t: np.ndarray, rank: int, rng: np.random.Generator
) -> list[np.ndarray] | None:
    """Direct factor estimate for exact low-rank tensors, used to seed the first restart.

    Matrices get a truncated SVD. Order-3 tensors with rank <= mode size get
    the classic simultaneous-diagonalization construction: compress each mode
    to `rank` dimensions, contract the third mode with two random vectors,
    and read the first-mode factors off the eigenvectors of G1 @ inv(G2);
    the remaining modes follow from rank-1 splits of the implied slices.
    Exact for generic tensors of exact rank; returns None when inapplicable
    or numerically degenerate, leaving plain random restarts to handle it.
    """
    n = t.ndim
    k = t.shape[0] if n else 0
    if n == 2 and rank <= k:
        u, _, vt = np.linalg.svd(t)
        return [u[:, :rank].copy(), vt[:rank].T.copy()]
    if n != 3 or rank > k:
        return None
    # Compress each mode to a rank-sized basis (exact when t has exact rank).
    bases = []
    for mode in range(3):
        unfolded = np.moveaxis(t, mode, 0).reshape(k, -1)
        u, _, _ = np.linalg.svd(unfolded, full_matrices=False)
        bases.append(u[:, :rank])
    core = np.einsum("ia,jb,lc,ijl->abc", bases[0], bases[1], bases[2], t)
    xi = rng.standard_normal((2, rank))
    g1 = np.einsum("abc,c->ab", core, xi[0])
    g2 = np.einsum("abc,c->ab", core, xi[1])
    if not np.isfinite(np.linalg.cond(g2)) or np.linalg.cond(g2) > 1e10:
        return None
    try:
        eigvals, eigvecs = np.linalg.eig(g1 @ np.linalg.inv(g2))
    except np.linalg.LinAlgError:
        return None
    if np.max(np.abs(eigvecs.imag)) > 1e-8 * max(np.max(np.abs(eigvecs.real)), 1e-300):
        return None
    a_hat = eigvecs.real
    a_full = bases[0] @ a_hat
    # With the first mode fixed, each component's remaining slice is rank one.
    unfolded0 = t.reshape(k, -1)
    try:
        rows, *_ = np.linalg.lstsq(a_full, unfolded0, rcond=None)
    except np.linalg.LinAlgError:
        return None
    b = np.empty((k, rank))
    c = np.empty((k, rank))
    for r in range(rank):
        slice_r = rows[r].reshape(k, k)
        u, s, vt = np.linalg.svd(slice_r)
        if s[0] <= 0.0:
            return None
        b[:, r] = u[:, 0]
        c[:, r] = vt[0]
    norms_a = np.linalg.norm(a_full, axis=0)
    if np.any(norms_a == 0.0):
        return None
    return [a_full / norms_a, b, c]


def cp_decompose(
    tensor: np.ndarray,
    rank: int,
    rng: np.random.Generator,
) -> tuple[GlobalRepresentation, CPFitReport]:
    """Fit a rank-R factored form to a small dense tensor by alternating least squares.

    Each sweep solves one linear least-squares problem per mode against the
    Khatri-Rao product of the other modes, then folds column magnitudes into
    the weights so factor vectors stay unit. Sweeps stop when the relative
    reconstruction error changes by less than CP_TOL or after CP_MAX_SWEEPS;
    the best of CP_RESTARTS random restarts wins, stopping early once a
    restart reaches CP_EARLY_STOP. Rank-deficient normal equations are
    ridge-regularized by CP_RIDGE.

    The tensor must have equal mode sizes (the factored type is uniform), and
    the rank may not exceed prod(sizes) / max(size), past which exact rank-R
    structure is not identifiable.
    """
    t = np.asarray(tensor, dtype=np.float64)
    if t.ndim < 1:
        raise ShapeMismatch("cp_decompose requires a tensor with at least one mode")
    if len(set(t.shape)) != 1:
        raise ShapeMismatch(f"all modes must share one size, got shape {t.shape}")
    if t.size > qcore.DENSE_CAP:
        raise DenseCapExceeded(f"tensor holds {t.size} entries, cap is {qcore.DENSE_CAP}")
    if rank < 1:
        raise ValueError("rank must be at least 1")
    n = t.ndim
    k = t.shape[0]
    max_rank = t.size // max(t.shape)
    if rank > max_rank:
        raise RankTooLarge(
            f"rank {rank} exceeds the guard {max_rank} for shape {t.shape}"
        )

    norm_t = float(np.linalg.norm(t))
    if norm_t == 0.0:
        factors = np.zeros((rank, n, k))
        factors[:, :, 0] = 1.0
        g = GlobalRepresentation(weights=np.zeros(rank), factors=factors)
        return g, CPFitReport(relative_error=0.0, sweeps=0, restarts_run=0)

    best_err = np.inf
    best: GlobalRepresentation | None = None
    best_sweeps = 0
    restarts_run = 0
    seeded = _algebraic_init(t, rank, rng)

    for attempt in range(CP_RESTARTS):
        restarts_run += 1
        if attempt == 0 and seeded is not None:
            factor_mats = [a.copy() for a in seeded]
        else:
            factor_mats = []
            for _mode in range(n):
                a = rng.standard_normal((k, rank))
                a /= np.linalg.norm(a, axis=0, keepdims=True)
                factor_mats.append(a)
        weights = np.ones(rank)
        prev_err = np.inf
        err = np.inf
        sweeps = 0
        for sweep in range(1, CP_MAX_SWEEPS + 1):
            sweeps = sweep
            for mode in range(n):
                others = [factor_mats[i] for i in range(n) if i != mode]
                if others:
                    gram = np.ones((rank, rank))
                    for a in others:
                        gram *= a.T @ a
                    kr = _khatri_rao_columns(others, rank)
                else:
                    gram = np.ones((rank, rank))
                    kr = np.ones((1, rank))
                unfolded = np.moveaxis(t, mode, 0).reshape(k, -1)
                mttkrp = unfolded @ kr
                cond = np.linalg.cond(gram)
                if not np.isfinite(cond) or cond > 1e12:
                    gram = gram + CP_RIDGE * np.eye(rank)
                try:
                    solved = np.linalg.solve(gram, mttkrp.T).T
                except np.linalg.LinAlgError:
                    solved = np.linalg.solve(gram + CP_RIDGE * np.eye(rank), mttkrp.T).T
                weights = np.linalg.norm(solved, axis=0)
                for r in range(rank):
                    if weights[r] > 0.0:
                        factor_mats[mode][:, r] = solved[:, r] / weights[r]
                    else:
                        factor_mats[mode][:, r] = qcore.basis_vector(k, 0)
            fitted = _from_als(weights, factor_mats)
            err = float(np.linalg.norm(t - cp_reconstruct(fitted))) / norm_t
            if err <= CP_EARLY_STOP or abs(prev_err - err) < CP_TOL:
                break
            prev_err = err
        if err < best_err:
            best_err = err
            best = fitted
            best_sweeps = sweeps
        if best_err <= CP_EARLY_STOP:
            break

    assert best is not None
    return best, CPFitReport(relative_error=best_err, sweeps=best_sweeps, restarts_run=restarts_run)
