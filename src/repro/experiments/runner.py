"""Shared experiment plumbing: workload selection and class means."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.workloads import all_workloads, get_workload
from repro.workloads.base import Workload

DEFAULT_SCALE = 1.0


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


def class_means(values_by_workload, workloads) -> tuple:
    """Arithmetic means over the integer and floating-point classes."""
    int_values = [v for v, w in zip(values_by_workload, workloads) if w.is_integer]
    fp_values = [v for v, w in zip(values_by_workload, workloads) if not w.is_integer]
    int_mean = sum(int_values) / len(int_values) if int_values else 0.0
    fp_mean = sum(fp_values) / len(fp_values) if fp_values else 0.0
    return int_mean, fp_mean
