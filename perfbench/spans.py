"""Spans recorded by the benchmark around its calls into the system.

Tracing lives entirely in the benchmark: :class:`Tracer` times the
public calls the workloads make (``prepare``, ``run``, ``execute``,
``checkpoint``, ``open`` ...) and wraps two seams the system calls on
its own — ``session.sync_views`` (lazy view maintenance before every
statement) and ``session.storage_engine.apply`` (every WAL batch) — as
instance attributes, so nothing under ``src/`` is edited.

Spans are kept in memory; :meth:`Tracer.summary` folds them into
per-name totals and self times (a span's duration minus the part its
child spans cover) when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    request: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    children_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.children_seconds


@dataclass
class Tracer:
    """In-memory span recorder; one request id per workload operation."""

    spans: List[Span] = field(default_factory=list)
    #: The events ``sync_views`` returned: one per view it maintained.
    view_events: List[Dict[str, object]] = field(default_factory=list)
    _stack: List[int] = field(default_factory=list)
    _request: int = 0

    def new_request(self) -> None:
        self._request += 1

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self._request, parent, time.perf_counter())
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].children_seconds += record.seconds

    def wrap(self, name: str, func: Callable) -> Callable:
        """*func* with every call recorded as a span called *name*."""

        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return traced

    def attach(self, session) -> None:
        """Wrap the session's self-invoked seams (views, WAL batches)."""
        sync_views = self.wrap("sync_views", session.sync_views)

        def traced_sync_views():
            events = sync_views()
            self.view_events.extend(events)
            return events

        session.sync_views = traced_sync_views
        engine = session.storage_engine
        if engine is not None:
            engine.apply = self.wrap("wal.apply", engine.apply)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total and self seconds."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "seconds": 0.0, "self_seconds": 0.0}
        )
        for record in self.spans:
            entry = out[record.name]
            entry["count"] += 1
            entry["seconds"] += record.seconds
            entry["self_seconds"] += record.self_seconds
        return dict(out)
