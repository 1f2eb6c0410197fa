"""The ``numpy`` columnar backend: vectorized stages over record batches.

Stage mapping (see ``docs/columnar.md``):

* **decode → execute** — :func:`repro.columnar.batch.materialized_trace`
  runs the reference interpreter once per ``(workload, scale, cap)`` and
  caches the columnar :class:`~repro.columnar.batch.TraceTable`; every
  query below is an array pass over that table.
* **dependence** — :func:`repro.columnar.kernels.ddt_dependences` over
  the memory-access subsequence (sorted per-word index arrays + the
  shared LRU stack-distance kernel).
* **locality** — :func:`repro.columnar.kernels.mru_hits_within` for the
  Figure 2 recency histogram; per-PC previous-occurrence links for the
  Figure 7 address/value comparisons (values compared in ``object``
  columns for exact Python ``==`` semantics — interpreter adds do not
  wrap, so values can exceed float64's exact-integer range).
* **predict** — not vectorized: Figure 7's cloaking engine observes
  :meth:`NumPyBackend.stream`, the materialized table replayed one
  record at a time, so predictor semantics stay the reference's by
  construction.

DDT configurations outside the vectorizable shape (split tables,
``record_loads=False``, ``record_all_loads=True``, ``touch_on_hit=False``,
set-associative ways) fall back to the per-instruction DDT replayed from
the materialized table — correct for every configuration, amortized
interpretation, no silent divergence.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set

import numpy as np

from repro.columnar.backend import (
    DependencePair,
    RARLocalityResult,
    ReferenceBackend,
    SimBackend,
    TraceSummary,
)
from repro.columnar.batch import TraceTable, materialized_trace
from repro.columnar.kernels import (
    KIND_RAR,
    KIND_RAW,
    _is_default_config,
    ddt_dependences,
    group_links,
    mru_hits_within,
)
from repro.dependence.ddt import DDT, DDTConfig
from repro.dependence.detector import DependenceProfile
from repro.dependence.locality import (
    AddressValueLocalityAnalysis,
    LocalityBreakdown,
)
from repro.trace.records import DynInst
from repro.workloads.base import Workload

_KIND_NAME = {KIND_RAW: "RAW", KIND_RAR: "RAR"}

#: vectorized predicate for the reference's ``prev_value is not None`` guard
_IS_NOT_NONE = np.frompyfunc(lambda v: v is not None, 1, 1)


class NumPyBackend(SimBackend):
    """Vectorized implementation of the backend interface."""

    name = "numpy"

    # -- decode → execute ------------------------------------------------

    def table(self, workload: Workload, scale: float = 1.0,
              max_instructions: Optional[int] = None) -> TraceTable:
        """The materialized (cached) columnar trace."""
        return materialized_trace(workload, scale, max_instructions)

    def stream(self, workload: Workload, scale: float = 1.0,
               max_instructions: Optional[int] = None) -> Iterator[DynInst]:
        return self.table(workload, scale, max_instructions).to_dyninsts()

    def trace_summary(self, workload: Workload, scale: float = 1.0,
                      max_instructions: Optional[int] = None) -> TraceSummary:
        return TraceSummary(
            *self.table(workload, scale, max_instructions).counts())

    # -- dependence ------------------------------------------------------

    def ddt_profiles(self, workload: Workload, scale: float,
                     sizes: Sequence[Optional[int]],
                     max_instructions: Optional[int] = None
                     ) -> List[DependenceProfile]:
        table = self.table(workload, scale, max_instructions)
        mem = np.nonzero(table.is_mem)[0]
        word = table.word_addr()[mem]
        is_store = table.is_store[mem]
        loads = int(np.count_nonzero(~is_store))
        by_size = ddt_dependences(word, is_store, list(sizes))
        profiles = []
        for size in sizes:
            kind, _ = by_size[size]
            profiles.append(DependenceProfile(
                config=DDTConfig(size=size),
                loads=loads,
                raw_loads=int(np.count_nonzero(kind == KIND_RAW)),
                rar_loads=int(np.count_nonzero(kind == KIND_RAR)),
            ))
        return profiles

    def dependence_pairs(self, workload: Workload, scale: float,
                         config: Optional[DDTConfig] = None,
                         max_instructions: Optional[int] = None
                         ) -> Set[DependencePair]:
        config = config if config is not None else DDTConfig()
        table = self.table(workload, scale, max_instructions)
        if not _is_default_config(config):
            return self._pairs_fallback(table, config)
        mem = np.nonzero(table.is_mem)[0]
        word = table.word_addr()[mem]
        is_store = table.is_store[mem]
        kind, source = ddt_dependences(word, is_store, [config.size])[config.size]
        detected = np.nonzero(source >= 0)[0]
        sink_pc = table.pc[mem[detected]]
        source_pc = table.pc[mem[source[detected]]]
        kinds = kind[detected]
        words = word[detected]
        return {
            (_KIND_NAME[k], int(src), int(snk), int(w))
            for k, src, snk, w in zip(
                kinds.tolist(), source_pc.tolist(), sink_pc.tolist(),
                words.tolist())
        }

    @staticmethod
    def _pairs_fallback(table: TraceTable,
                        config: DDTConfig) -> Set[DependencePair]:
        ddt = DDT(config)
        pairs: Set[DependencePair] = set()
        for inst in table.to_dyninsts():
            if inst.is_load:
                dep = ddt.observe_load(inst.pc, inst.word_addr)
                if dep is not None:
                    pairs.add((dep.kind.value, dep.source_pc, dep.sink_pc,
                               dep.word_addr))
            elif inst.is_store:
                ddt.observe_store(inst.pc, inst.word_addr)
        return pairs

    # -- locality --------------------------------------------------------

    def rar_locality(self, workload: Workload, scale: float, max_n: int,
                     windows: Dict[str, Optional[int]],
                     max_instructions: Optional[int] = None
                     ) -> Dict[str, RARLocalityResult]:
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        table = self.table(workload, scale, max_instructions)
        mem = np.nonzero(table.is_mem)[0]
        word = table.word_addr()[mem]
        is_store = table.is_store[mem]
        pc = table.pc[mem]
        by_size = ddt_dependences(word, is_store, list(windows.values()))
        results: Dict[str, RARLocalityResult] = {}
        for label, window in windows.items():
            kind, source = by_size[window]
            rar = np.nonzero(kind == KIND_RAR)[0]
            hits = mru_hits_within(pc[rar], pc[source[rar]], max_n)
            results[label] = RARLocalityResult(
                window=label,
                sink_loads=int(rar.size),
                hits_within=[int(h) for h in hits],
            )
        return results

    # -- locality + predict ----------------------------------------------

    def address_value_locality(self, workload: Workload, scale: float,
                               ddt_config: Optional[DDTConfig] = None,
                               max_instructions: Optional[int] = None
                               ) -> AddressValueLocalityAnalysis:
        config = ddt_config if ddt_config is not None else DDTConfig(size=128)
        table = self.table(workload, scale, max_instructions)
        if not _is_default_config(config):
            return AddressValueLocalityAnalysis(config).run(table.to_dyninsts())

        mem = np.nonzero(table.is_mem)[0]
        is_store = table.is_store[mem]
        kind, _ = ddt_dependences(
            table.word_addr()[mem], is_store, [config.size])[config.size]

        load_rows = mem[~is_store]           # trace positions of loads
        kind = kind[~is_store]               # detected-dependence bucket
        pc = table.pc[load_rows]
        prev, _, _, _ = group_links(pc)      # previous execution per static pc
        seen = prev >= 0
        prev_row = np.clip(prev, 0, None)

        addr = table.addr[load_rows]
        addr_match = seen & (addr[prev_row] == addr)

        value = table.value[load_rows]
        prev_value = value[prev_row]
        value_match = seen & _IS_NOT_NONE(prev_value).astype(bool) \
            & np.asarray(prev_value == value, dtype=bool)

        analysis = AddressValueLocalityAnalysis(config)
        analysis.address = self._breakdown(addr_match, kind)
        analysis.value = self._breakdown(value_match, kind)
        return analysis

    @staticmethod
    def _breakdown(match: np.ndarray, kind: np.ndarray) -> LocalityBreakdown:
        return LocalityBreakdown(
            loads=int(match.size),
            local_raw=int(np.count_nonzero(match & (kind == KIND_RAW))),
            local_rar=int(np.count_nonzero(match & (kind == KIND_RAR))),
            local_nodep=int(np.count_nonzero(match & (kind == 0))),
        )


# re-exported for the differential checker's golden side
__all__ = ["NumPyBackend", "ReferenceBackend"]
