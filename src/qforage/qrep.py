"""Query representations: per-word amplitude rows, local tensors, and the factored global space.

A query of fixed order n maps each word to a unit amplitude row over k basis
meanings. The local representation of the query is the rank-1 tensor whose
entry (b1, ..., bn) is the product of per-position amplitudes; it is never
needed densely during scoring. The global semantic space is a rank-R sum of
outer products (weights w_r, unit factor vectors e_{r,i}), and the overlap
between the two is the projection

    project(g, q) = sum_r w_r * prod_i <e_{r,i}, alpha_i>,

computed in O(R * n * k) without materializing any k^n object. product_pool
returns the per-rank products, and project is literally their weighted sum, so
the two share one arithmetic path.

cp_decompose goes the other way: alternating least squares recovers a rank-R
factored form from a small dense tensor. It exists for oracle and analysis
work; training updates the factored form directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
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
NULL_TOKEN = "<null>"
UNK_TOKEN = "<unk>"

#: Engineering defaults for the representation sizes.
DEFAULT_BASIS_DIM = 4
DEFAULT_QUERY_ORDER = 5
DEFAULT_RANK = 10

#: Rows whose squared norm is already this close to 1 are left untouched by
#: renormalization, making it an exact no-op on already-normalized data while
#: still enforcing the 1e-9 unit-norm invariant after real updates.
_RENORM_DEADBAND = 1e-13


def renormalize_rows(rows: np.ndarray, ids: np.ndarray | None = None) -> None:
    """Scale rows of a 2-D array to unit norm, in place, with a dead band.

    With `ids` (unique row indices) only those rows are read and written;
    without, every row is. Rows inside the dead band and rows whose squared
    norm is NaN are left as they are.
    """
    block = rows if ids is None else rows[ids]
    sq = np.einsum("ij,ij->i", block, block)
    off = np.abs(sq - 1.0) > _RENORM_DEADBAND
    block[off] /= np.sqrt(sq[off])[:, None]
    if ids is not None:
        rows[ids] = block


@dataclass(eq=False)
class AmplitudeTable:
    """Trainable real amplitudes giving every vocabulary word a unit row of basis weights.

    Row 0 is the padding row, pinned to the first basis vector; row 1 absorbs
    unknown words and trains like any other row. Lookups never fail: a missing
    token maps to the unknown row.
    """

    words: tuple[str, ...]
    amplitudes: np.ndarray
    _index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.words = tuple(self.words)
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.float64)
        rows = len(self.words) + WORD_ROW_OFFSET
        if self.amplitudes.ndim != 2 or self.amplitudes.shape[0] != rows:
            raise ShapeMismatch(
                f"amplitude table for {len(self.words)} words needs shape "
                f"({rows}, k), got {self.amplitudes.shape}"
            )
        self._index = {w: i + WORD_ROW_OFFSET for i, w in enumerate(self.words)}

    @classmethod
    def from_vocab(cls, words: Sequence[str], basis_dim: int, rng: np.random.Generator) -> "AmplitudeTable":
        """Near-uniform random init: every row close to (1/sqrt(k), ..., 1/sqrt(k)).

        Near-uniform rows keep early inner products against near-uniform
        factors close to 1, so products over query positions start well away
        from zero and gradients flow from the first episode.
        """
        rows = len(words) + WORD_ROW_OFFSET
        amps = 1.0 + 0.2 * rng.standard_normal((rows, basis_dim))
        renormalize_rows(amps)
        amps[NULL_ID] = qcore.basis_vector(basis_dim, 0)
        return cls(words=tuple(words), amplitudes=amps)

    @property
    def basis_dim(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def num_rows(self) -> int:
        return self.amplitudes.shape[0]

    def word_id(self, token: str) -> int:
        return self._index.get(token, UNK_ID)

    def renormalize(self, ids: np.ndarray | None = None) -> None:
        """Restore unit rows after an optimizer step; re-pins the padding row.

        `ids` limits the work to the rows an update touched.
        """
        renormalize_rows(self.amplitudes, ids)
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
        weight_scale: float = 0.3,
    ) -> "GlobalRepresentation":
        factors = 1.0 + 0.2 * rng.standard_normal((rank, order, basis_dim))
        flat = factors.reshape(rank * order, basis_dim)
        renormalize_rows(flat)
        # Positive initial weights keep the score monotone in slot alignment
        # at the start of training; signed products of near-unit dots are
        # otherwise free to rank candidates by parity instead of overlap.
        weights = weight_scale * np.abs(rng.standard_normal(rank)) + 0.05
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


def _check_compatible(g: GlobalRepresentation, q: QueryState) -> None:
    if (g.order, g.basis_dim) != (q.order, q.basis_dim):
        raise ShapeMismatch(
            f"global space is order {g.order} over k={g.basis_dim}, "
            f"query is order {q.order} over k={q.basis_dim}"
        )


def materialize_local(q: QueryState, dense_cap: int = qcore.DENSE_CAP) -> np.ndarray:
    """Dense rank-1 local tensor: entry (b1, ..., bn) = prod_i alpha_{i, b_i}.

    Only for small spaces; k^n past the cap raises DenseCapExceeded.
    """
    total = q.basis_dim ** q.order
    if total > dense_cap:
        raise DenseCapExceeded(
            f"local tensor would hold {total} entries, cap is {dense_cap}"
        )
    return reduce(np.multiply.outer, list(q.rows)).copy()


def cp_reconstruct(g: GlobalRepresentation, dense_cap: int = qcore.DENSE_CAP) -> np.ndarray:
    """Dense tensor sum_r w_r * e_{r,1} x ... x e_{r,n}. Subject to the dense cap."""
    total = g.basis_dim ** g.order
    if total > dense_cap:
        raise DenseCapExceeded(
            f"global tensor would hold {total} entries, cap is {dense_cap}"
        )
    shape = (g.basis_dim,) * g.order
    out = np.zeros(shape, dtype=np.float64)
    for r in range(g.rank):
        out += g.weights[r] * reduce(np.multiply.outer, list(g.factors[r]))
    return out


def product_pool(g: GlobalRepresentation, q: QueryState) -> np.ndarray:
    """Per-rank products: component r is prod_i <e_{r,i}, alpha_i>."""
    _check_compatible(g, q)
    dots = np.einsum("rik,ik->ri", g.factors, q.rows)
    return np.prod(dots, axis=1)


def project(g: GlobalRepresentation, q: QueryState) -> float:
    """Overlap of the factored global space with the query's local tensor.

    Equals the dense inner product <cp_reconstruct(g), materialize_local(q)>
    but runs in O(R * n * k). Computed as the weighted sum of product_pool
    components, the same arithmetic in the same order.
    """
    return float(np.dot(g.weights, product_pool(g, q)))


@dataclass(frozen=True)
class CPOptions:
    """Knobs for alternating least squares."""

    restarts: int = 20
    max_sweeps: int = 500
    tol: float = 1e-9
    ridge: float = 1e-10
    early_stop: float = 1e-12


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
    options: CPOptions | None = None,
) -> tuple[GlobalRepresentation, CPFitReport]:
    """Fit a rank-R factored form to a small dense tensor by alternating least squares.

    Each sweep solves one linear least-squares problem per mode against the
    Khatri-Rao product of the other modes, then folds column magnitudes into
    the weights so factor vectors stay unit. Sweeps stop when the relative
    reconstruction error changes by less than `tol` or after `max_sweeps`; the
    best of `restarts` random restarts wins, stopping early once a restart
    reaches `early_stop`. Rank-deficient normal equations are ridge-regularized.

    The tensor must have equal mode sizes (the factored type is uniform), and
    the rank may not exceed prod(sizes) / max(size), past which exact rank-R
    structure is not identifiable.
    """
    opts = options or CPOptions()
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

    for attempt in range(opts.restarts):
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
        for sweep in range(1, opts.max_sweeps + 1):
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
                    gram = gram + opts.ridge * np.eye(rank)
                try:
                    solved = np.linalg.solve(gram, mttkrp.T).T
                except np.linalg.LinAlgError:
                    solved = np.linalg.solve(gram + opts.ridge * np.eye(rank), mttkrp.T).T
                weights = np.linalg.norm(solved, axis=0)
                for r in range(rank):
                    if weights[r] > 0.0:
                        factor_mats[mode][:, r] = solved[:, r] / weights[r]
                    else:
                        factor_mats[mode][:, r] = qcore.basis_vector(k, 0)
            fitted = _from_als(weights, factor_mats)
            err = float(np.linalg.norm(t - cp_reconstruct(fitted))) / norm_t
            if err <= opts.early_stop or abs(prev_err - err) < opts.tol:
                break
            prev_err = err
        if err < best_err:
            best_err = err
            best = fitted
            best_sweeps = sweeps
        if best_err <= opts.early_stop:
            break

    assert best is not None
    return best, CPFitReport(relative_error=best_err, sweeps=best_sweeps, restarts_run=restarts_run)
