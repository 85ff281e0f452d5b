"""Span tracing installed from outside the program.

A `Tracer` replaces module functions and class methods at the place callers look
them up, e.g. ``setattr(qforage.actor, "actor_gradients", timed)``, so the
program carries no instrumentation of its own. Every call of a wrapped function
becomes a span ``[name, start, end, parent]`` kept in memory; the run writes
them out when it ends. A span's self time is its duration minus the durations
of its direct children.

A site may carry a probe that measures the work a call did, such as the bytes of
the gradient arrays it returned. The probe runs after the call returns and is
recorded as a `PROBE` span under the caller's span, so its cost is charged to no
layer.
"""

from __future__ import annotations

import dataclasses
import functools
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator, Sequence

import numpy as np

PROBE = "trace.probe"


@dataclass(frozen=True)
class Site:
    """One wrapped callable: ``owner.attr`` reported under ``name``."""

    name: str
    owner: object
    attr: str
    probe: Callable[["Tracer", str, tuple, object], None] | None = None


class Tracer:
    """Collects spans and probe counters while its sites are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.returned_bytes: Counter = Counter()
        self.rows_changed: Counter = Counter()
        self.rows_compared: Counter = Counter()
        self._stack: list[int] = []
        self._last_rows: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @contextmanager
    def installed(self, sites: Sequence[Site]) -> Iterator["Tracer"]:
        """Wrap every site that exists for the duration of the block."""
        saved = []
        try:
            for site in sites:
                original = site.owner.__dict__.get(site.attr)
                if original is None:
                    continue
                setattr(site.owner, site.attr, self._wrap(site, original))
                saved.append((site.owner, site.attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, site: Site, fn: Callable) -> Callable:
        spans, stack, name, probe = self.spans, self._stack, site.name, site.probe

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if probe is not None:
                start = perf_counter()
                probe(self, name, args, result)
                spans.append([PROBE, start, perf_counter(), parent])
            return result

        return functools.update_wrapper(timed, fn)

    def self_times(self) -> dict[str, list[float]]:
        """Self time in seconds of every span, grouped by name, in call order."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        grouped: dict[str, list[float]] = defaultdict(list)
        for (name, _, _, _), seconds in zip(self.spans, own):
            grouped[name].append(seconds)
        return grouped


def array_bytes(value) -> int:
    """Summed ``nbytes`` of every array inside tuples, lists and dataclasses."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(array_bytes(v) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(array_bytes(getattr(value, f.name)) for f in dataclasses.fields(value))
    return 0


def count_returned_bytes(tracer: Tracer, name: str, args: tuple, result) -> None:
    """Probe: add the bytes of the arrays a call returned."""
    tracer.returned_bytes[name] += array_bytes(result)


def count_changed_rows(tracer: Tracer, name: str, args: tuple, result) -> None:
    """Probe for a table's in-place ``renormalize``: rows differing from its previous output.

    The first call on a table has no previous output and only takes a snapshot.
    """
    table = args[0]
    rows = table.amplitudes
    before = tracer._last_rows.get(table)
    if before is not None and before.shape == rows.shape:
        tracer.rows_changed[name] += int(np.count_nonzero((rows != before).any(axis=1)))
        tracer.rows_compared[name] += rows.shape[0]
    tracer._last_rows[table] = rows.copy()
