"""Staged columnar simulation backend (decode → execute → dependence →
locality → predict).

The per-instruction analyses in :mod:`repro.dependence` are the repo's
reference semantics, but their Python-loop hot paths cap traces at
10⁴–10⁶ instructions.  This package restructures the hot path as a staged
event-stream pipeline over explicit *record batches* (NumPy structured
columns), behind a common :class:`~repro.columnar.backend.SimBackend`
interface with two interchangeable implementations:

* ``reference`` — the existing per-instruction code, unchanged semantics;
* ``numpy`` — vectorized trace materialization, DDT observe/lookup via
  sorted per-word index arrays, and locality histograms via
  bincount-style kernels.

The two backends are held together by a lockstep differential checker
(:mod:`repro.columnar.diff`, reusing the ``repro.chaos`` golden-diff
machinery) and a suite-wide parity test, so they can never silently
drift.  ``docs/columnar.md`` has the stage/record-batch schema and the
parity guarantee.
"""

from repro.columnar.backend import (
    DEFAULT_BACKEND,
    BackendUnavailableError,
    RARLocalityResult,
    ReferenceBackend,
    SimBackend,
    TraceSummary,
    backend_available,
    backend_names,
    get_backend,
)

__all__ = [
    "DEFAULT_BACKEND",
    "BackendUnavailableError",
    "RARLocalityResult",
    "ReferenceBackend",
    "SimBackend",
    "TraceSummary",
    "backend_available",
    "backend_names",
    "get_backend",
]
