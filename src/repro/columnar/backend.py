"""The ``SimBackend`` interface and the ``reference`` implementation.

A backend answers the questions the paper's measurement experiments ask
of a workload trace — summary counts, DDT dependence profiles, locality
histograms — behind one interface, so Figure 2/5/7 code is written once
and the execution strategy (per-instruction reference semantics vs the
vectorized columnar pipeline) is a config choice:

* :class:`ReferenceBackend` drives the existing streaming classes
  (:class:`~repro.dependence.detector.DependenceProfiler`,
  :class:`~repro.dependence.locality.RARLocalityAnalysis`, …) one
  :class:`~repro.trace.records.DynInst` at a time — unchanged semantics,
  and the golden side of every differential check.
* ``NumPyBackend`` (:mod:`repro.columnar.numpy_backend`, loaded lazily
  so the package imports without NumPy) materializes the trace into
  columnar record batches and answers from vectorized kernels.

Backends are looked up by name through :func:`get_backend`; the name
is what the harness ``backend`` JobSpec param carries, so store keys
distinguish backends.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.dependence.ddt import DDT, DDTConfig
from repro.dependence.detector import DependenceProfile, DependenceProfiler
from repro.dependence.locality import (
    AddressValueLocalityAnalysis,
    RARLocalityAnalysis,
)
from repro.trace.records import DynInst
from repro.workloads.base import Workload

#: the backend experiments use when none is requested
DEFAULT_BACKEND = "reference"

#: every backend name, available or not (validation + CLI choices)
BACKEND_NAMES = ("reference", "numpy")

#: a detected dependence as a comparable tuple: (kind, source, sink, word)
DependencePair = Tuple[str, int, int, int]


class BackendUnavailableError(RuntimeError):
    """A requested backend cannot run in this environment."""


@dataclass(frozen=True)
class TraceSummary:
    """The execute-stage output: committed instruction counts."""

    instructions: int
    loads: int
    stores: int


@dataclass
class RARLocalityResult:
    """One Figure 2 measurement (one workload, one address window)."""

    window: str
    sink_loads: int
    hits_within: List[int]  # hits_within[k] = hits at recency position <= k

    def locality(self, n: int) -> float:
        """memory-dependence-locality(n) over all executed sink loads."""
        if not 1 <= n <= len(self.hits_within):
            raise ValueError(f"n must be in [1, {len(self.hits_within)}]")
        if not self.sink_loads:
            return 0.0
        return self.hits_within[n - 1] / self.sink_loads


class SimBackend(abc.ABC):
    """Answers the measurement experiments ask of a workload trace.

    Every query takes ``(workload, scale)`` rather than a trace iterator:
    backends own trace acquisition, which is what lets the columnar
    implementation materialize once and amortize across queries while the
    reference implementation streams.  All results are plain Python
    numbers/objects so renders are byte-identical across backends.
    """

    name: str = "abstract"

    # -- decode → execute ------------------------------------------------

    @abc.abstractmethod
    def stream(self, workload: Workload, scale: float = 1.0,
               max_instructions: Optional[int] = None) -> Iterator[DynInst]:
        """The committed record stream (per-instruction view)."""

    @abc.abstractmethod
    def trace_summary(self, workload: Workload, scale: float = 1.0,
                      max_instructions: Optional[int] = None) -> TraceSummary:
        """Commit counts for the trace (the trace-stage benchmark query)."""

    # -- dependence ------------------------------------------------------

    @abc.abstractmethod
    def ddt_profiles(self, workload: Workload, scale: float,
                     sizes: Sequence[Optional[int]],
                     max_instructions: Optional[int] = None
                     ) -> List[DependenceProfile]:
        """Figure 5: RAW/RAR visibility fractions, one profile per size."""

    @abc.abstractmethod
    def dependence_pairs(self, workload: Workload, scale: float,
                         config: Optional[DDTConfig] = None,
                         max_instructions: Optional[int] = None
                         ) -> Set[DependencePair]:
        """Every dependence a DDT detects over the trace, as a set of
        ``(kind, source_pc, sink_pc, word_addr)`` tuples — the
        differential checker's dependence-stage fingerprint."""

    # -- locality --------------------------------------------------------

    @abc.abstractmethod
    def rar_locality(self, workload: Workload, scale: float, max_n: int,
                     windows: Dict[str, Optional[int]],
                     max_instructions: Optional[int] = None
                     ) -> Dict[str, RARLocalityResult]:
        """Figure 2: RAR dependence locality per address window."""

    # -- locality + predict ----------------------------------------------

    @abc.abstractmethod
    def address_value_locality(self, workload: Workload, scale: float,
                               ddt_config: Optional[DDTConfig] = None,
                               max_instructions: Optional[int] = None
                               ) -> AddressValueLocalityAnalysis:
        """Figure 7: address/value locality breakdown."""


class ReferenceBackend(SimBackend):
    """The existing per-instruction code, unchanged semantics."""

    name = "reference"

    def stream(self, workload: Workload, scale: float = 1.0,
               max_instructions: Optional[int] = None) -> Iterator[DynInst]:
        return workload.trace(scale=scale, max_instructions=max_instructions)

    def trace_summary(self, workload: Workload, scale: float = 1.0,
                      max_instructions: Optional[int] = None) -> TraceSummary:
        instructions = loads = stores = 0
        for inst in self.stream(workload, scale, max_instructions):
            instructions += 1
            if inst.is_load:
                loads += 1
            elif inst.is_store:
                stores += 1
        return TraceSummary(instructions, loads, stores)

    def ddt_profiles(self, workload: Workload, scale: float,
                     sizes: Sequence[Optional[int]],
                     max_instructions: Optional[int] = None
                     ) -> List[DependenceProfile]:
        profiler = DependenceProfiler([DDTConfig(size=s) for s in sizes])
        return profiler.run(self.stream(workload, scale, max_instructions))

    def dependence_pairs(self, workload: Workload, scale: float,
                         config: Optional[DDTConfig] = None,
                         max_instructions: Optional[int] = None
                         ) -> Set[DependencePair]:
        ddt = DDT(config if config is not None else DDTConfig())
        pairs: Set[DependencePair] = set()
        for inst in self.stream(workload, scale, max_instructions):
            if inst.is_load:
                dep = ddt.observe_load(inst.pc, inst.word_addr)
                if dep is not None:
                    pairs.add((dep.kind.value, dep.source_pc, dep.sink_pc,
                               dep.word_addr))
            elif inst.is_store:
                ddt.observe_store(inst.pc, inst.word_addr)
        return pairs

    def rar_locality(self, workload: Workload, scale: float, max_n: int,
                     windows: Dict[str, Optional[int]],
                     max_instructions: Optional[int] = None
                     ) -> Dict[str, RARLocalityResult]:
        analyses = {
            label: RARLocalityAnalysis(max_n=max_n, window=window)
            for label, window in windows.items()
        }
        for inst in self.stream(workload, scale, max_instructions):
            for analysis in analyses.values():
                analysis.observe(inst)
        return {
            label: RARLocalityResult(
                window=label,
                sink_loads=analysis.sink_loads,
                hits_within=list(analysis.hits_within),
            )
            for label, analysis in analyses.items()
        }

    def address_value_locality(self, workload: Workload, scale: float,
                               ddt_config: Optional[DDTConfig] = None,
                               max_instructions: Optional[int] = None
                               ) -> AddressValueLocalityAnalysis:
        analysis = AddressValueLocalityAnalysis(
            ddt_config if ddt_config is not None else DDTConfig(size=128))
        return analysis.run(self.stream(workload, scale, max_instructions))


def backend_names() -> Tuple[str, ...]:
    """Every recognized backend name (some may be unavailable)."""
    return BACKEND_NAMES


def backend_available(name: str) -> bool:
    """Whether :func:`get_backend` would succeed for ``name``."""
    try:
        get_backend(name)
    except (BackendUnavailableError, ValueError):
        return False
    return True


def get_backend(name: str = DEFAULT_BACKEND) -> SimBackend:
    """Look up a backend by name.

    Raises :class:`ValueError` for an unknown name and
    :class:`BackendUnavailableError` when the ``numpy`` backend is
    requested but NumPy is not importable — the message directs users to
    the always-available ``reference`` backend.
    """
    if name == "reference":
        return ReferenceBackend()
    if name == "numpy":
        try:
            from repro.columnar.numpy_backend import NumPyBackend
        except ImportError as exc:
            raise BackendUnavailableError(
                "the 'numpy' columnar backend requires the numpy package "
                f"(import failed: {exc}); install numpy>=1.22 or select "
                "the 'reference' backend, which has identical semantics"
            ) from exc
        return NumPyBackend()
    raise ValueError(
        f"unknown backend {name!r}; valid backends: "
        + ", ".join(BACKEND_NAMES))
