"""Shared experiment plumbing: workload selection, the trace pass every
accuracy artefact observes, and class means.

An accuracy artefact is an observer of one committed instruction stream.
Its module's ``observe(workload, scale, models, **params)`` builds one
cell's state and returns ``(feed, finish)``: ``feed(inst)`` takes each
committed record in program order, and ``finish()`` returns the cell's
rows.  ``models`` is the pass's :class:`Models`: a cell asks it for the
functional models it reads (a cloaking engine, a value predictor), and
cells asking for the same model and configuration share one instance,
which the pass feeds each record once, before any cell's ``feed``.  A
``None`` feed marks a cell that reads nothing per record itself: its
rows come from its models, or (the numpy backend) from a trace of its
own, so ``finish`` alone computes it.  :func:`observe_pass` drives any
number of observers from one interpretation of a workload; the harness
runs every such cell of one (workload, scale) that way, and :func:`run`
is the same pass for one artefact.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.trace.records import DynInst
from repro.workloads import all_workloads, get_workload
from repro.workloads.base import Workload

DEFAULT_SCALE = 1.0

#: one cell's ``(feed, finish)``; see the module docstring
Observer = Tuple[Optional[Callable[[DynInst], None]], Callable[[], list]]


def select_workloads(names: Optional[Sequence[str]] = None) -> List[Workload]:
    """The requested workloads (paper order), or the full suite.

    Raises :class:`ValueError` for a duplicate or unknown abbreviation —
    a duplicate would silently double-count a program in every mean, and
    an unknown name should report the valid list rather than whatever
    the registry lookup throws.
    """
    if not names:
        return all_workloads()
    selected = []
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"duplicate workload abbreviation {name!r}")
        seen.add(name)
        try:
            selected.append(get_workload(name))
        except KeyError:
            valid = ", ".join(w.abbrev for w in all_workloads())
            raise ValueError(
                f"unknown workload abbreviation {name!r}; "
                f"valid abbreviations: {valid}") from None
    return selected


class Models:
    """The functional models one trace pass shares among its observers.

    ``get(factory, *args)`` builds ``factory(*args)`` on the first request
    for that factory and those (hashable) arguments, and returns the same
    instance to every later one, so cells that read one model and
    configuration drive it once.  The pass owns its models: a new pass
    starts with none.
    """

    def __init__(self) -> None:
        self._instances: Dict[tuple, object] = {}
        #: each model's ``observe``, in the order first requested
        self.feeds: List[Callable[[DynInst], object]] = []

    def get(self, factory: Callable, *args):
        key = (factory, args)
        model = self._instances.get(key)
        if model is None:
            model = self._instances[key] = factory(*args)
            self.feeds.append(model.observe)
        return model


def observe_pass(workload: Workload, scale: float,
                 observers: Sequence[Observer], models: Models) -> List[list]:
    """Feed one trace of ``workload`` to ``models``, then to every
    observer; the observers' rows.

    The workload is interpreted at most once, and not at all when neither
    a model nor an observer has a feed.
    """
    feeds = models.feeds + [feed for feed, _ in observers if feed is not None]
    if feeds:
        for inst in workload.trace(scale=scale):
            for feed in feeds:
                feed(inst)
    return [finish() for _, finish in observers]


def run(observe: Callable[..., Observer], scale: float = DEFAULT_SCALE,
        workloads: Optional[Sequence[str]] = None, **params) -> list:
    """``observe``'s rows for the selected workloads, one pass each."""
    rows = []
    for workload in select_workloads(workloads):
        models = Models()
        observer = observe(workload, scale, models, **params)
        rows.extend(observe_pass(workload, scale, [observer], models)[0])
    return rows


def class_means(values_by_workload, workloads) -> tuple:
    """Arithmetic means over the integer and floating-point classes."""
    int_values = [v for v, w in zip(values_by_workload, workloads) if w.is_integer]
    fp_values = [v for v, w in zip(values_by_workload, workloads) if not w.is_integer]
    int_mean = sum(int_values) / len(int_values) if int_values else 0.0
    fp_mean = sum(fp_values) / len(fp_values) if fp_values else 0.0
    return int_mean, fp_mean
