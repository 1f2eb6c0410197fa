"""Dependence-stream locality analyses (Figures 2 and 7).

Three metrics from the paper:

* **memory-dependence-locality(n)** (Section 2, Figure 2): the probability
  that a sink load's current RAR dependence was among the last ``n``
  *unique* RAR dependences experienced by previous executions of the same
  static load.  Locality(1) is the hit rate of a "last dependence"
  predictor; larger ``n`` measures the per-load dependence working set.
* **address locality** (Section 5.4): probability that a static load
  accesses the same address in two consecutive executions.
* **value locality** (Section 5.5): same for the loaded value — the hit
  rate of a last-value predictor with unbounded capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.dependence.ddt import DDT, DDTConfig, DependenceKind
from repro.isa.instructions import OpClass
from repro.trace.records import DynInst

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_RAW = DependenceKind.RAW
_RAR = DependenceKind.RAR


class _MRUList:
    """A tiny most-recently-used list of unique items (bounded)."""

    __slots__ = ("items", "capacity")

    def __init__(self, capacity: int) -> None:
        self.items: List[int] = []
        self.capacity = capacity

    def find_and_promote(self, item: int) -> Optional[int]:
        """Return the 0-based recency position of ``item`` and move it to front.

        ``None`` when absent (the item is inserted at the front).
        """
        try:
            position = self.items.index(item)
        except ValueError:
            self.items.insert(0, item)
            del self.items[self.capacity:]
            return None
        if position:
            del self.items[position]
            self.items.insert(0, item)
        return position


class DependenceWorkingSetAnalysis:
    """Section 2's second observation: "the working set of RAR-dependences
    per load is relatively small".

    Tracks, for every static sink load, the set of unique RAR sources it
    has ever depended on, and summarizes the distribution.  A small working
    set is what makes a few-entry-per-PC history predictor viable.
    """

    def __init__(self, window: Optional[int] = None) -> None:
        self._ddt = DDT(DDTConfig(size=window))
        self._sources: Dict[int, set] = {}
        self.sink_loads = 0

    def observe(self, inst: DynInst) -> None:
        """Account one committed instruction."""
        cls = inst.opclass
        if cls == _STORE:
            self._ddt.observe_store(inst.pc, inst.word_addr)
            return
        if cls != _LOAD:
            return
        dep = self._ddt.observe_load(inst.pc, inst.word_addr)
        if dep is None or dep.kind != _RAR:
            return
        self.sink_loads += 1
        self._sources.setdefault(dep.sink_pc, set()).add(dep.source_pc)

    def run(self, trace: Iterable[DynInst]) -> "DependenceWorkingSetAnalysis":
        for inst in trace:
            self.observe(inst)
        return self

    @property
    def static_sinks(self) -> int:
        return len(self._sources)

    def working_set_sizes(self) -> List[int]:
        """Unique-source counts per static sink load (sorted descending)."""
        return sorted((len(s) for s in self._sources.values()), reverse=True)

    def fraction_with_at_most(self, n: int) -> float:
        """Fraction of static sink loads with a working set of <= n sources."""
        if not self._sources:
            return 0.0
        small = sum(1 for s in self._sources.values() if len(s) <= n)
        return small / len(self._sources)


class RARLocalityAnalysis:
    """Figure 2: RAR memory dependence locality over sink loads.

    Dependences are detected with a DDT whose size plays the role of the
    paper's *address window* (``None`` = infinite, Figure 2(a); 4096 =
    Figure 2(b)).  For every executed sink load (a load whose probe detects
    a RAR dependence) the analysis asks at which recency position the
    dependence's source PC sits in that static load's history of unique
    sources.
    """

    def __init__(self, max_n: int = 4, window: Optional[int] = None) -> None:
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        self.max_n = max_n
        self._ddt = DDT(DDTConfig(size=window))
        self._history: Dict[int, _MRUList] = {}
        self.sink_loads = 0
        self.hits_within = [0] * max_n  # hits_within[k] = hits at position <= k

    def observe(self, inst: DynInst) -> None:
        """Account one committed instruction."""
        cls = inst.opclass
        if cls == _STORE:
            self._ddt.observe_store(inst.pc, inst.word_addr)
            return
        if cls != _LOAD:
            return
        dep = self._ddt.observe_load(inst.pc, inst.word_addr)
        if dep is None or dep.kind != _RAR:
            return
        self.sink_loads += 1
        history = self._history.get(dep.sink_pc)
        if history is None:
            history = self._history[dep.sink_pc] = _MRUList(self.max_n)
        position = history.find_and_promote(dep.source_pc)
        if position is not None and position < self.max_n:
            for k in range(position, self.max_n):
                self.hits_within[k] += 1

    def locality(self, n: int) -> float:
        """memory-dependence-locality(n) over all executed sink loads."""
        if not 1 <= n <= self.max_n:
            raise ValueError(f"n must be in [1, {self.max_n}]")
        return self.hits_within[n - 1] / self.sink_loads if self.sink_loads else 0.0

    def run(self, trace: Iterable[DynInst]) -> "RARLocalityAnalysis":
        for inst in trace:
            self.observe(inst)
        return self


@dataclass
class LocalityBreakdown:
    """One Figure 7 bar: locality fractions split by detected dependence."""

    loads: int = 0
    local_raw: int = 0      # loads with locality and a detected RAW dependence
    local_rar: int = 0      # with locality and a detected RAR dependence
    local_nodep: int = 0    # with locality but no visible dependence

    @property
    def total_locality(self) -> float:
        if not self.loads:
            return 0.0
        return (self.local_raw + self.local_rar + self.local_nodep) / self.loads

    def fraction(self, bucket: str) -> float:
        if not self.loads:
            return 0.0
        value = {"raw": self.local_raw, "rar": self.local_rar,
                 "none": self.local_nodep}[bucket]
        return value / self.loads


class AddressValueLocalityAnalysis:
    """Figure 7: address and value locality with a dependence breakdown.

    Uses the paper's 128-entry DDT (configurable) to tag each load with the
    dependence it detects, then checks whether the load's address (part a)
    and value (part b) match its previous execution.
    """

    def __init__(self, ddt_config: DDTConfig = DDTConfig(size=128)) -> None:
        self._ddt = DDT(ddt_config)
        self._last_addr: Dict[int, int] = {}
        self._last_value: Dict[int, object] = {}
        self.address = LocalityBreakdown()
        self.value = LocalityBreakdown()

    def observe(self, inst: DynInst) -> None:
        """Account one committed instruction."""
        cls = inst.opclass
        if cls == _STORE:
            self._ddt.observe_store(inst.pc, inst.word_addr)
            return
        if cls != _LOAD:
            return
        pc = inst.pc
        dep = self._ddt.observe_load(pc, inst.word_addr)
        if dep is None:
            bucket = "none"
        elif dep.kind == _RAW:
            bucket = "raw"
        else:
            bucket = "rar"

        self.address.loads += 1
        self.value.loads += 1
        prev_addr = self._last_addr.get(pc)
        if prev_addr is not None and prev_addr == inst.addr:
            self._bump(self.address, bucket)
        prev_value = self._last_value.get(pc)
        if prev_value is not None and prev_value == inst.value:
            self._bump(self.value, bucket)
        self._last_addr[pc] = inst.addr
        self._last_value[pc] = inst.value

    @staticmethod
    def _bump(breakdown: LocalityBreakdown, bucket: str) -> None:
        if bucket == "raw":
            breakdown.local_raw += 1
        elif bucket == "rar":
            breakdown.local_rar += 1
        else:
            breakdown.local_nodep += 1

    def run(self, trace: Iterable[DynInst]) -> "AddressValueLocalityAnalysis":
        for inst in trace:
            self.observe(inst)
        return self
