"""Patchy-corpus environment: documents grouped in topic patches, each with labeled candidate queries.

Corpus files are tab-separated text, one candidate per line:

    doc_id <TAB> patch_id <TAB> doc_text <TAB> candidate_query <TAB> label

with ``#`` comment lines allowed. Labels are -1 (mismatch), 0 (partial match),
+1 (match), and they double as the environment reward for choosing that
candidate. Every document carries at least two candidates, at least one of
them labeled +1.

The synthetic generator builds patches as disjoint topic-word pools: match
candidates share at least 60% of their tokens with the document, partial
candidates share within [20%, 60%), and mismatch candidates either share less
than 20% or contain the negation token "not" (high word overlap, inverted
meaning).

Scent statistics summarize a reward array two ways at once: an
exponentially smoothed scalar (s_t = lambda * r_t + (1 - lambda) * s_{t-1},
starting at 0) and the frequency distribution of the reward patterns
(-1, 0, +1), with a per-patch breakdown (reward_scent). scent_stats reads the
same statistics off a sequence of Transitions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from math import ceil
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadLabel,
    EmptyCorpus,
    IndexOutOfRange,
    InvalidLabel,
    MissingPositiveCandidate,
    ParseError,
    SpecInvalid,
)

NEGATION_TOKEN = "not"
REWARD_VALUES = (-1, 0, 1)
DEFAULT_KEYWORD_COUNT = 5


@dataclass(frozen=True)
class Candidate:
    tokens: tuple[str, ...]
    label: int


@dataclass(frozen=True)
class Document:
    doc_id: str
    patch_id: str
    tokens: tuple[str, ...]
    keywords: tuple[str, ...]
    candidates: tuple[Candidate, ...]


@dataclass(frozen=True, eq=False)
class CompiledCorpus:
    """A corpus as read-only arrays, one row per candidate in corpus order.

    Tokens are vocabulary indices, each row padded with -1 past its length.
    Documents occupy consecutive rows: document j's candidates start at row
    offsets[j], and patches[j] indexes its patch in Corpus.patch_ids.
    """

    query_tokens: np.ndarray    # (N, Q) candidate tokens
    query_lengths: np.ndarray   # (N,)
    pair_tokens: np.ndarray     # (N, P) document keywords, then candidate tokens
    pair_lengths: np.ndarray    # (N,)
    labels: np.ndarray          # (N,)
    offsets: np.ndarray         # (D,)
    patches: np.ndarray         # (D,)


def _padded(sequences: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
    width = int(lengths.max(initial=0))
    tokens = np.full((len(sequences), width), -1, dtype=np.int64)
    tokens[np.arange(width) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(sequences), dtype=np.int64, count=int(lengths.sum())
    )
    return tokens, lengths


def compile_corpus(corpus: "Corpus") -> CompiledCorpus:
    """Arrays of a corpus's tokens and labels; see CompiledCorpus."""
    index = {word: i for i, word in enumerate(corpus.vocabulary)}
    patch_index = {pid: i for i, pid in enumerate(corpus.patch_ids)}
    queries: list[list[int]] = []
    pairs: list[list[int]] = []
    labels: list[int] = []
    offsets: list[int] = []
    for doc in corpus.documents:
        offsets.append(len(labels))
        keywords = [index[t] for t in doc.keywords]
        for cand in doc.candidates:
            query = [index[t] for t in cand.tokens]
            queries.append(query)
            pairs.append(keywords + query)
            labels.append(cand.label)
    if not set(labels) <= set(REWARD_VALUES):
        raise InvalidLabel(f"candidate labels {sorted(set(labels))} are not all in {REWARD_VALUES}")
    arrays = (
        *_padded(queries),
        *_padded(pairs),
        np.asarray(labels, dtype=np.int64),
        np.asarray(offsets, dtype=np.int64),
        np.asarray([patch_index[doc.patch_id] for doc in corpus.documents], dtype=np.int64),
    )
    for array in arrays:
        array.flags.writeable = False
    return CompiledCorpus(*arrays)


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]
    vocabulary: tuple[str, ...]
    keyword_count: int

    def document(self, doc_id: str) -> Document:
        for doc in self.documents:
            if doc.doc_id == doc_id:
                return doc
        raise KeyError(doc_id)

    @cached_property
    def patch_ids(self) -> tuple[str, ...]:
        """Patch ids in order of first appearance."""
        return tuple(dict.fromkeys(doc.patch_id for doc in self.documents))

    @cached_property
    def compiled(self) -> CompiledCorpus:
        """The compiled form, built on first use; the corpus is frozen, so it never goes stale."""
        return compile_corpus(self)


def top_keywords(tokens: Sequence[str], count: int) -> tuple[str, ...]:
    """Most frequent tokens, ties broken by first appearance."""
    counts = Counter(tokens)
    first = {}
    for i, t in enumerate(tokens):
        first.setdefault(t, i)
    ranked = sorted(counts, key=lambda t: (-counts[t], first[t]))
    return tuple(ranked[:count])


def _build_corpus(
    records: "dict[str, dict]", keyword_count: int
) -> Corpus:
    documents = []
    vocab: set[str] = set()
    for doc_id, rec in records.items():
        cands = tuple(rec["candidates"])
        if len(cands) < 2:
            raise ParseError(
                f"document {doc_id!r} has {len(cands)} candidate(s), need at least 2",
                line=rec["last_line"],
            )
        if not any(c.label == 1 for c in cands):
            raise MissingPositiveCandidate(doc_id)
        tokens = tuple(rec["tokens"])
        documents.append(
            Document(
                doc_id=doc_id,
                patch_id=rec["patch_id"],
                tokens=tokens,
                keywords=top_keywords(tokens, keyword_count),
                candidates=cands,
            )
        )
        vocab.update(tokens)
        for c in cands:
            vocab.update(c.tokens)
    return Corpus(
        documents=tuple(documents),
        vocabulary=tuple(sorted(vocab)),
        keyword_count=keyword_count,
    )


def parse_corpus_lines(lines: Iterable[str], keyword_count: int = DEFAULT_KEYWORD_COUNT) -> Corpus:
    """Parse corpus records from text lines; see the module docstring for the format."""
    records: dict[str, dict] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise ParseError(f"expected 5 tab-separated fields, got {len(fields)}", line=lineno)
        doc_id, patch_id, doc_text, query, label_str = fields
        if not doc_id or not patch_id or not doc_text.strip() or not query.strip():
            raise ParseError("empty field", line=lineno)
        try:
            label = int(label_str)
        except ValueError:
            raise BadLabel(f"label {label_str!r} is not an integer", line=lineno) from None
        if label not in REWARD_VALUES:
            raise BadLabel(f"label {label} is not one of {REWARD_VALUES}", line=lineno)
        rec = records.get(doc_id)
        if rec is None:
            records[doc_id] = {
                "patch_id": patch_id,
                "text": doc_text,
                "tokens": doc_text.split(),
                "candidates": [Candidate(tuple(query.split()), label)],
                "last_line": lineno,
            }
        else:
            if rec["patch_id"] != patch_id:
                raise ParseError(
                    f"document {doc_id!r} changes patch from {rec['patch_id']!r} to {patch_id!r}",
                    line=lineno,
                )
            if rec["text"] != doc_text:
                raise ParseError(
                    f"document {doc_id!r} text differs from its earlier lines", line=lineno
                )
            rec["candidates"].append(Candidate(tuple(query.split()), label))
            rec["last_line"] = lineno
    return _build_corpus(records, keyword_count)


def load_corpus(path: str, keyword_count: int = DEFAULT_KEYWORD_COUNT) -> Corpus:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_corpus_lines(fh, keyword_count=keyword_count)


def corpus_lines(corpus: Corpus, echo: Sequence[str] = ()) -> list[str]:
    """Serialize a corpus to file lines, optional `key=value` echo comments first."""
    lines = [f"# {entry}" for entry in echo]
    for doc in corpus.documents:
        text = " ".join(doc.tokens)
        for cand in doc.candidates:
            lines.append(
                "\t".join([doc.doc_id, doc.patch_id, text, " ".join(cand.tokens), str(cand.label)])
            )
    return lines


def save_corpus(corpus: Corpus, path: str, echo: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in corpus_lines(corpus, echo):
            fh.write(line + "\n")


@dataclass(frozen=True)
class CorpusSpec:
    """Counts and rates for the synthetic generator."""

    docs: int = 50
    patches: int = 2
    vocab_size: int = 60
    candidates_per_doc: int = 3
    noise: float = 0.0
    doc_len: int = 12
    query_len: int = 4
    keyword_count: int = DEFAULT_KEYWORD_COUNT

    def validate(self) -> None:
        if self.docs < 1 or self.patches < 1 or self.docs < self.patches:
            raise SpecInvalid(
                f"need at least one document per patch, got docs={self.docs} patches={self.patches}"
            )
        if self.candidates_per_doc < 2:
            raise SpecInvalid(f"candidates_per_doc must be >= 2, got {self.candidates_per_doc}")
        if not (0.0 <= self.noise <= 1.0):
            raise SpecInvalid(f"noise rate must lie in [0, 1], got {self.noise}")
        if self.query_len < 2:
            raise SpecInvalid(f"query_len must be >= 2, got {self.query_len}")
        if self.doc_len < self.query_len:
            raise SpecInvalid(
                f"doc_len {self.doc_len} must be >= query_len {self.query_len}"
            )
        if self.keyword_count < 1:
            raise SpecInvalid(f"keyword_count must be >= 1, got {self.keyword_count}")
        if self._patch_pool_size() < self.doc_len:
            raise SpecInvalid(
                f"vocab_size {self.vocab_size} is too small for {self.patches} patches "
                f"of doc_len {self.doc_len}"
            )

    def _noise_pool_size(self) -> int:
        return max(self.query_len, (self.vocab_size - 1) // 4)

    def _patch_pool_size(self) -> int:
        return (self.vocab_size - 1 - self._noise_pool_size()) // self.patches


def _pick(rng: np.random.Generator, pool: Sequence[str], count: int) -> list[str]:
    """Draw `count` distinct items, order randomized."""
    idx = rng.permutation(len(pool))[:count]
    return [pool[i] for i in idx]


def gen_corpus(spec: CorpusSpec, rng: np.random.Generator) -> Corpus:
    """Synthesize a patchy corpus honoring the overlap thresholds at noise 0.

    Candidate labels cycle (+1, 0, -1, ...) within each document, so three
    candidates yield exactly one of each label and every document keeps a
    positive candidate. Label noise re-rolls a candidate's label uniformly;
    if that erases the last +1, the first candidate (built as a match) is
    forced back to +1 so generated corpora always load cleanly.
    """
    spec.validate()
    noise_size = spec._noise_pool_size()
    patch_size = spec._patch_pool_size()
    noise_pool = [f"x{i:02d}" for i in range(noise_size)]
    patch_pools = [
        [f"p{p}w{i:02d}" for i in range(patch_size)] for p in range(spec.patches)
    ]

    length = spec.query_len
    match_lo = ceil(0.6 * length)
    partial_lo = ceil(0.2 * length)
    partial_hi = ceil(0.6 * length) - 1  # largest count still strictly below 60%

    base, extra = divmod(spec.docs, spec.patches)
    records: dict[str, dict] = {}
    doc_index = 0
    for p in range(spec.patches):
        patch_id = f"patch{p}"
        pool = patch_pools[p]
        for _ in range(base + (1 if p < extra else 0)):
            doc_id = f"doc{doc_index:04d}"
            doc_index += 1
            doc_tokens = _pick(rng, pool, spec.doc_len)
            candidates = []
            for c in range(spec.candidates_per_doc):
                label = (1, 0, -1)[c % 3]
                if label == 1:
                    k_doc = int(rng.integers(match_lo, length + 1))
                    tokens = _pick(rng, doc_tokens, k_doc) + _pick(rng, noise_pool, length - k_doc)
                elif label == 0:
                    k_doc = int(rng.integers(partial_lo, partial_hi + 1))
                    tokens = _pick(rng, doc_tokens, k_doc) + _pick(rng, noise_pool, length - k_doc)
                else:
                    if rng.integers(2) == 0:
                        tokens = _pick(rng, noise_pool, length)
                    else:
                        tokens = [NEGATION_TOKEN] + _pick(rng, doc_tokens, length - 1)
                tokens = [tokens[i] for i in rng.permutation(len(tokens))]
                if spec.noise > 0.0 and rng.random() < spec.noise:
                    label = int(rng.choice(REWARD_VALUES))
                candidates.append(Candidate(tuple(tokens), label))
            if not any(c.label == 1 for c in candidates):
                candidates[0] = replace(candidates[0], label=1)
            records[doc_id] = {
                "patch_id": patch_id,
                "tokens": doc_tokens,
                "candidates": candidates,
                "last_line": None,
            }
    return _build_corpus(records, spec.keyword_count)


@dataclass(frozen=True, eq=False)
class Observation:
    """What the agent sees for one document: keywords and shuffled candidates.

    Candidate labels ride along for the step function; policy code must only
    read candidate tokens.
    """

    doc_id: str
    patch_id: str
    keywords: tuple[str, ...]
    candidates: tuple[Candidate, ...]


@dataclass(frozen=True, eq=False)
class Transition:
    """One resolved choice, as recorded for scent statistics and metrics."""

    doc_id: str
    patch_id: str
    candidates: tuple[Candidate, ...]
    chosen_index: int
    reward: int
    log_probability: float = 0.0

    def __post_init__(self):
        if self.reward not in REWARD_VALUES:
            raise InvalidLabel(f"reward {self.reward!r} is not one of {REWARD_VALUES}")
        if self.log_probability > 0.0:
            raise ValueError(f"log probability {self.log_probability!r} is positive")


class Environment:
    """Serves observations from a corpus, in bandit or session mode.

    Bandit mode samples documents uniformly and every episode is one step.
    Session mode walks patch by patch: documents of one patch arrive
    consecutively (order shuffled within the patch, patch order shuffled per
    pass), and `last_of_patch` marks patch boundaries for the training loop.
    Candidate order is shuffled on every observation so candidate position
    carries no signal.
    """

    def __init__(self, corpus: Corpus, rng: np.random.Generator, mode: str = "bandit"):
        if len(corpus.documents) == 0:
            raise EmptyCorpus("environment needs at least one document")
        if mode not in ("bandit", "session"):
            raise ValueError(f"mode must be 'bandit' or 'session', got {mode!r}")
        self.corpus = corpus
        self.mode = mode
        self._rng = rng
        self._queue: list[tuple[Document, bool]] = []
        self.last_of_patch = True

    def _refill_session_queue(self) -> None:
        by_patch: dict[str, list[Document]] = {}
        for doc in self.corpus.documents:
            by_patch.setdefault(doc.patch_id, []).append(doc)
        patch_ids = list(by_patch)
        patch_order = [patch_ids[i] for i in self._rng.permutation(len(patch_ids))]
        for pid in patch_order:
            docs = by_patch[pid]
            order = self._rng.permutation(len(docs))
            for j, idx in enumerate(order):
                self._queue.append((docs[idx], j == len(order) - 1))

    def reset(self) -> Observation:
        """Next observation: a document with its candidates shuffled."""
        if self.mode == "bandit":
            doc = self.corpus.documents[int(self._rng.integers(len(self.corpus.documents)))]
            self.last_of_patch = True
        else:
            if not self._queue:
                self._refill_session_queue()
            doc, self.last_of_patch = self._queue.pop(0)
        perm = self._rng.permutation(len(doc.candidates))
        shuffled = tuple(doc.candidates[i] for i in perm)
        return Observation(
            doc_id=doc.doc_id,
            patch_id=doc.patch_id,
            keywords=doc.keywords,
            candidates=shuffled,
        )


def step(observation: Observation, chosen_index: int) -> tuple[int, Transition]:
    """Resolve a choice. Pure: the reward is the chosen candidate's label."""
    if not (0 <= chosen_index < len(observation.candidates)):
        raise IndexOutOfRange(
            f"chosen index {chosen_index} outside 0..{len(observation.candidates) - 1}"
        )
    reward = observation.candidates[chosen_index].label
    transition = Transition(
        doc_id=observation.doc_id,
        patch_id=observation.patch_id,
        candidates=observation.candidates,
        chosen_index=chosen_index,
        reward=reward,
    )
    return reward, transition


@dataclass(frozen=True, eq=False)
class PatchScent:
    scalar: float
    frequencies: np.ndarray
    count: int


@dataclass(frozen=True, eq=False)
class ScentStats:
    """Smoothed scalar plus reward-pattern distribution, overall and per patch."""

    scalar: float
    frequencies: np.ndarray
    per_patch: dict[str, PatchScent]


def smoothed(rewards: Iterable[int], smoothing: float, start: float = 0.0) -> float:
    """The scent scalar after folding `rewards` in order into `start`."""
    s = start
    for r in rewards:
        s = smoothing * r + (1.0 - smoothing) * s
    return s


def check_smoothing(smoothing: float) -> None:
    """Reject a scent smoothing rate outside (0, 1], NaN included, with ValueError."""
    if not (0.0 < smoothing <= 1.0):
        raise ValueError(f"scent smoothing must lie in (0, 1], got {smoothing!r}")


def reward_scent(
    rewards: np.ndarray, patches: np.ndarray, patch_ids: Sequence[str], smoothing: float
) -> ScentStats:
    """Scent summary of a reward array; empty input gives zeros.

    patches[i] indexes reward i's patch in patch_ids, which lists the patches
    in order of first appearance. Scalars fold each sequence in order
    (smoothed); frequencies are exact counts over their length. A reward
    outside REWARD_VALUES raises InvalidLabel.
    """
    check_smoothing(smoothing)
    rewards = np.asarray(rewards)
    if not np.isin(rewards, REWARD_VALUES).all():
        raise InvalidLabel(f"rewards {sorted(set(rewards.tolist()))} are not all in {REWARD_VALUES}")
    rewards = rewards.astype(np.int64)
    patches = np.asarray(patches, dtype=np.int64)
    width = len(REWARD_VALUES)
    # rewards + 1 is each reward's index in REWARD_VALUES.
    counts = np.bincount(patches * width + rewards + 1, minlength=len(patch_ids) * width)
    counts = counts.reshape(len(patch_ids), width)
    sizes = counts.sum(axis=1)
    by_patch = np.split(rewards[np.argsort(patches, kind="stable")], np.cumsum(sizes)[:-1])
    return ScentStats(
        scalar=smoothed(rewards.tolist(), smoothing),
        frequencies=counts.sum(axis=0) / max(rewards.shape[0], 1),
        per_patch={
            pid: PatchScent(
                scalar=smoothed(patch_rewards.tolist(), smoothing),
                frequencies=patch_counts / size,
                count=int(size),
            )
            for pid, patch_rewards, patch_counts, size in zip(patch_ids, by_patch, counts, sizes)
        },
    )


def scent_stats(transitions: Sequence[Transition], smoothing: float) -> ScentStats:
    """Scent summary of a transition sequence (reward_scent of its rewards and patches)."""
    index: dict[str, int] = {}
    patches = [index.setdefault(t.patch_id, len(index)) for t in transitions]
    return reward_scent([t.reward for t in transitions], patches, tuple(index), smoothing)
