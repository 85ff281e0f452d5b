"""Finite-dimensional Hilbert space primitives, generic over real and complex fields.

State vectors are plain 1-D numpy arrays; a vector is "normalized" when its
Euclidean norm is within 1e-9 of 1. Operations here are pure functions, and the
two container types (:class:`DensityMatrix`, :class:`Observable`) validate their
defining invariants on construction and freeze their arrays, so values can be
shared across threads without locking.

Dense objects are capped: any vector or tensor whose entry count would exceed
``DENSE_CAP`` raises :class:`~qforage.errors.DenseCapExceeded`. Larger spaces
must stay in factored form (see :mod:`qforage.qrep`).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import (
    DenseCapExceeded,
    DimensionMismatch,
    EmptyInput,
    NotNormalized,
    ShapeMismatch,
    WeightNotNormalized,
)

#: Largest number of entries a dense vector, tensor, or matrix side may hold.
DENSE_CAP = 4096

#: Tolerance on | ||v|| - 1 | for a vector to count as normalized.
UNIT_TOL = 1e-9


def vector_norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


def is_normalized(v: np.ndarray, tol: float = UNIT_TOL) -> bool:
    return abs(vector_norm(v) - 1.0) <= tol


def _check_unit_norm(norm: float, what: str) -> None:
    # Written as "not <=" so that a NaN norm fails the check instead of passing it.
    if not abs(norm - 1.0) <= UNIT_TOL:
        raise NotNormalized(f"{what} has norm {norm!r}, expected 1 within {UNIT_TOL}")


def ensure_normalized(v: np.ndarray, what: str = "state vector") -> None:
    _check_unit_norm(vector_norm(np.asarray(v)), what)


def normalize(v: np.ndarray) -> np.ndarray:
    """Return v scaled to unit norm.

    A zero vector has no direction, and a NaN or infinite entry no finite
    norm to divide by; both are rejected.
    """
    v = np.asarray(v)
    norm = vector_norm(v)
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    if not math.isfinite(norm):
        raise ValueError(f"cannot normalize a vector of non-finite norm {norm!r}")
    return v / norm


def basis_vector(dim: int, index: int, dtype=np.float64) -> np.ndarray:
    e = np.zeros(dim, dtype=dtype)
    e[index] = 1
    return e


def tensor_product(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of one or more vectors.

    The composite index is row-major: for vectors of dimensions (d1, ..., dn),
    entry (b1, ..., bn) of the product sits at flat position
    b1*d2*...*dn + ... + bn. The norm of the result is the product of the
    input norms, so a product of normalized vectors is normalized.
    """
    if len(vectors) == 0:
        raise EmptyInput("tensor_product requires at least one vector")
    arrays = [np.asarray(v) for v in vectors]
    total = 1
    for a in arrays:
        if a.ndim != 1:
            raise ShapeMismatch(f"tensor_product operates on 1-D vectors, got shape {a.shape}")
        total *= a.shape[0]
    if total > DENSE_CAP:
        raise DenseCapExceeded(f"dense product would hold {total} entries, cap is {DENSE_CAP}")
    return reduce(np.kron, arrays)


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| onto a normalized vector."""
    v = np.asarray(v)
    ensure_normalized(v, "projector input")
    return np.outer(v, v.conj())


def _as_matrix(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)


def born_probability(projection: np.ndarray, rho) -> float:
    """Probability Tr(P rho) of the outcome carried by projector P in state rho.

    Float dust within 1e-10 of the [0, 1] boundary is clamped; a value farther
    outside signals invalid inputs and is returned as computed.
    """
    p = np.asarray(projection)
    m = _as_matrix(rho)
    if p.shape != m.shape:
        raise ShapeMismatch(f"projector shape {p.shape} does not match state shape {m.shape}")
    value = float(np.trace(p @ m).real)
    if -1e-10 <= value < 0.0:
        value = 0.0
    elif 1.0 < value <= 1.0 + 1e-10:
        value = 1.0
    return value


def collapse_sample(psi: np.ndarray, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Sample a basis outcome of a normalized state; amplitudes weigh as |entry|^2.

    Returns (index, collapsed basis vector). Sampling is inverse-CDF on one
    uniform draw, so identical generators yield identical index sequences.
    The state is 1-D; normalization is checked on the square root of the same
    |entry|^2 total that scales the draw, so an empty, NaN or infinite state
    is rejected with NotNormalized before any draw is taken.
    """
    psi = np.asarray(psi)
    if psi.ndim != 1:
        raise ShapeMismatch(f"collapse input must be a 1-D vector, got shape {psi.shape}")
    cdf = np.add.accumulate(np.abs(psi) ** 2)
    total = cdf.item(-1) if cdf.shape[0] else 0.0
    _check_unit_norm(math.sqrt(total), "collapse input")
    # Scale the draw by the actual total so norm dust cannot push u past the last bin.
    u = rng.random() * total
    index = min(bisect.bisect_right(cdf, u), psi.shape[0] - 1)
    return index, basis_vector(psi.shape[0], index, dtype=psi.dtype)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite matrix describing a mixed state.

    Construction validates all three properties (Hermitian within 1e-10
    entrywise, trace within 1e-10 of 1, smallest eigenvalue >= -1e-8) and
    freezes the array.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeMismatch(f"density matrix must be square, got shape {m.shape}")
        if m.shape[0] > DENSE_CAP:
            raise DenseCapExceeded(f"density matrix side {m.shape[0]} exceeds cap {DENSE_CAP}")
        # Each check asks "not within bound" so that a NaN defect fails it.
        herm_defect = float(np.max(np.abs(m - m.conj().T)))
        if not herm_defect <= 1e-10:
            raise ValueError(f"matrix is not Hermitian: max defect {herm_defect:.3e}")
        trace_defect = abs(complex(np.trace(m)) - 1.0)
        if not trace_defect <= 1e-10:
            raise ValueError(f"trace differs from 1 by {trace_defect:.3e}")
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if not min_eig >= -1e-8:
            raise ValueError(f"matrix has negative eigenvalue {min_eig:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Real spectrum in ascending order."""
        return np.linalg.eigvalsh(self.matrix)

    def purity_defect(self) -> float:
        """Frobenius norm of rho^2 - rho; zero exactly for pure states."""
        m = self.matrix
        return float(np.linalg.norm(m @ m - m))


def build_density(weights: Sequence[float], vectors) -> DensityMatrix:
    """Mixture rho = sum_i w_i |v_i><v_i| from normalized vectors and simplex weights.

    Weights must be nonnegative and sum to 1 within 1e-10; all vectors must be
    normalized and share one dimension. Each |v><v| term is Hermitian exactly in
    floating point, so the sum needs no symmetrization.
    """
    w = np.asarray(weights, dtype=np.float64)
    vecs = [np.asarray(v) for v in vectors]
    if w.ndim != 1 or len(vecs) != w.shape[0]:
        raise DimensionMismatch(
            f"{len(vecs)} vectors given for {w.shape} weights"
        )
    if w.shape[0] == 0:
        raise EmptyInput("build_density requires at least one component")
    if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > 1e-10:
        raise WeightNotNormalized(
            f"weights must be nonnegative and sum to 1, got sum {float(w.sum())!r}"
        )
    dims = {v.shape[0] for v in vecs}
    if len(dims) != 1:
        raise DimensionMismatch(f"vectors have mixed dimensions {sorted(dims)}")
    for v in vecs:
        ensure_normalized(v, "density component")
    dim = vecs[0].shape[0]
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for wi, v in zip(w, vecs):
        rho += wi * np.outer(v, v.conj())
    return DensityMatrix(rho)


@dataclass(frozen=True, eq=False)
class Observable:
    """Projective measurement: orthogonal projectors resolving the identity.

    One real eigenvalue rides along per outcome; it is plain data used by
    callers (the critic maps its three classes to -1, 0, +1) and carries no
    interpretation here.
    """

    projectors: tuple
    eigenvalues: np.ndarray

    def __post_init__(self):
        projs = tuple(np.array(p, dtype=np.complex128) for p in self.projectors)
        eigs = np.array(self.eigenvalues, dtype=np.float64)
        if len(projs) == 0:
            raise EmptyInput("observable needs at least one projector")
        if eigs.shape != (len(projs),):
            raise ShapeMismatch(
                f"{len(projs)} projectors but eigenvalue shape {eigs.shape}"
            )
        dim = projs[0].shape[0]
        for p in projs:
            if p.shape != (dim, dim):
                raise ShapeMismatch("projectors must be square and share one dimension")
            if np.max(np.abs(p - p.conj().T)) > 1e-10:
                raise ValueError("projector is not Hermitian")
            if np.max(np.abs(p @ p - p)) > 1e-10:
                raise ValueError("projector is not idempotent")
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                if np.max(np.abs(projs[i] @ projs[j])) > 1e-10:
                    raise ValueError(f"projectors {i} and {j} are not orthogonal")
        if np.max(np.abs(sum(projs) - np.eye(dim))) > 1e-10:
            raise ValueError("projectors do not resolve the identity")
        for p in projs:
            p.setflags(write=False)
        eigs.setflags(write=False)
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "eigenvalues", eigs)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    @classmethod
    def coordinate_blocks(cls, dim: int, blocks: int, eigenvalues) -> "Observable":
        """Observable whose projectors select contiguous coordinate blocks of equal size."""
        if dim % blocks != 0:
            raise ValueError(f"dimension {dim} does not split into {blocks} equal blocks")
        size = dim // blocks
        projs = []
        for b in range(blocks):
            p = np.zeros((dim, dim), dtype=np.complex128)
            idx = np.arange(b * size, (b + 1) * size)
            p[idx, idx] = 1.0
            projs.append(p)
        return cls(projectors=tuple(projs), eigenvalues=np.asarray(eigenvalues, dtype=np.float64))

    def probabilities(self, rho) -> np.ndarray:
        """Born probability of each outcome in the given state."""
        return np.array([born_probability(p, rho) for p in self.projectors])

    def expectation(self, rho) -> float:
        return float(np.dot(self.eigenvalues, self.probabilities(rho)))
