"""Exception types raised on contract violations.

Every library-specific failure derives from :class:`QForageError`, so process
boundaries (the CLI, long-running loops) can catch a single base class and map
it to an exit code without masking genuine bugs.
"""

from __future__ import annotations


class QForageError(Exception):
    """Base class for all library errors."""


class EmptyInput(QForageError):
    """An operation received an empty sequence where items are required."""


class DenseCapExceeded(QForageError):
    """A dense vector or tensor would exceed the configured entry cap.

    Work past the cap must stay on the factored code path.
    """


class NotNormalized(QForageError):
    """A state vector or table row does not have unit Euclidean norm."""


class ShapeMismatch(QForageError):
    """Operands disagree on dimensions or tensor shape."""


class WeightNotNormalized(QForageError):
    """Mixture weights are negative or do not sum to one."""


class DimensionMismatch(QForageError):
    """Vectors in one collection do not share a common dimension."""


class EmptyQuery(QForageError):
    """A query with no tokens cannot be embedded."""


class RankTooLarge(QForageError):
    """Requested decomposition rank exceeds what the tensor shape supports."""


class NoCandidates(QForageError):
    """The actor was given an empty candidate list."""


class NonFiniteScore(QForageError):
    """A candidate score is NaN or infinite; the policy is undefined."""


class InvalidLabel(QForageError):
    """A label or reward is outside the three-class scheme."""


class DimensionNotDivisible(QForageError):
    """The embedding dimension does not split evenly into class blocks."""


class EmptyCorpus(QForageError):
    """The corpus holds no documents."""


class IndexOutOfRange(QForageError):
    """A chosen index does not address any candidate."""


class SpecInvalid(QForageError):
    """A corpus generation spec asks for impossible counts or rates."""


class VersionMismatch(QForageError):
    """A checkpoint file declares an unsupported format version."""


class ParseError(QForageError):
    """A corpus or checkpoint file is malformed.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def undecodable_line(data, start: int) -> int:
    """The str.splitlines number (1-based) of the line holding byte `start` of `data`.

    `data` is bytes-like, UTF-8 up to `start`: pass a UnicodeDecodeError's
    start to name the line holding the first byte that does not decode.
    """
    return len((str(data[:start], "utf-8") + "?").splitlines())


class BadLabel(ParseError):
    """A corpus line carries a label outside {-1, 0, 1}."""


class MissingPositiveCandidate(QForageError):
    """A document has no candidate labeled +1."""

    def __init__(self, doc_id: str):
        super().__init__(f"document {doc_id!r} has no candidate labeled +1")
        self.doc_id = doc_id


class CheckpointMismatch(QForageError):
    """A checkpoint's parameter shapes do not fit the given corpus."""


class CheckpointInvalid(QForageError):
    """A checkpoint's parameters break an invariant that training maintains."""
