"""In-memory spans recorded around calls into the program's layers.

A :class:`Recorder` belongs to one traced run.  It times calls into the
layers' public functions from the benchmark's own files: :meth:`patch`
swaps a function or method for a timing wrapper for the length of a
``with`` block and restores it afterwards, so nothing inside
``src/repro/<layer>`` is instrumented.  Spans stay in memory and are
written once, when the run ends.

A span's *self time* is its duration minus the time its direct children
cover; summing self time per span name says where a pass spent its time.
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bench.clock import now

#: how a wrapper names the span of one call:
#: ``(args, kwargs) -> (name, trace_id)``; a trace id of ``None``
#: inherits the enclosing span's
Labeller = Callable[[tuple, dict], Tuple[str, Optional[str]]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]     # index of the enclosing span, if any
    trace_id: str


class Recorder:
    """The spans and call counts of one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, trace_id: Optional[str] = None) -> Iterator[int]:
        """Record the enclosed block as one span; yields its index."""
        parent = self._open[-1] if self._open else None
        if trace_id is None:
            trace_id = self.spans[parent].trace_id if parent is not None \
                else name
        index = len(self.spans)
        self.spans.append(Span(name, now(), 0.0, parent, trace_id))
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index].end = now()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int], trace_id: str) -> int:
        """Append a span measured elsewhere (e.g. by a network client)."""
        self.spans.append(Span(name, start, end, parent, trace_id))
        return len(self.spans) - 1

    def wrap(self, func: Callable, label: Labeller) -> Callable:
        """``func`` with every call recorded as a span named by ``label``."""
        @functools.wraps(func)
        def traced(*args, **kwargs):
            name, trace_id = label(args, kwargs)
            with self.span(name, trace_id):
                return func(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patch(self, targets: Sequence[Tuple[object, str, Labeller]]
              ) -> Iterator[None]:
        """Wrap ``owner.attr`` for every target while the block runs."""
        saved = []
        try:
            for owner, attr, label in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, label))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: Dict[str, float] = {}
        for span, child_time in zip(self.spans, covered):
            own = span.end - span.start - child_time
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"spans": [asdict(span) for span in self.spans],
             "self_s": self.self_times()}) + "\n", encoding="utf-8")


def fixed(name: str) -> Labeller:
    """A labeller giving every call the same span name."""
    return lambda args, kwargs: (name, None)
