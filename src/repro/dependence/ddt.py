"""The Dependence Detection Table (DDT).

The DDT (paper Section 3.1) is an address-indexed cache recording the PC of
a load or store that accessed each address, with LRU replacement (Section
5.2) and word granularity (Section 5.6.1).  A load probing the DDT detects:

* a **RAW** dependence when the entry holds a store — the store wrote the
  value the load reads;
* a **RAR** dependence when the entry holds a load — both loads read the
  same location with no intervening store.

Recording policy for loads (Section 3.1): a load is recorded only when no
preceding *store* is recorded for the address **and** no other *load* is
recorded for it.  This annotates the earliest load in program order as the
producer, matching the paper's restriction of RAR dependences to
(earliest source, any later sink) pairs.

Two organizations are provided:

* **common** (the paper's default): one table shared by loads and stores.
  Section 5.6.2 observes an anomaly where loads evict stores and hide RAW
  dependences.
* **split**: separate load and store tables, the fix the paper suggests.
  A store must still invalidate the load table's entry for its address —
  otherwise a later load would see a stale "RAR" across an intervening
  store, which contradicts the definition of RAR.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.util.lru import make_table


class DependenceKind(enum.Enum):
    RAW = "RAW"
    RAR = "RAR"


_RAW = DependenceKind.RAW
_RAR = DependenceKind.RAR


class Dependence(NamedTuple):
    """A detected (source, sink) memory dependence."""

    kind: DependenceKind
    source_pc: int
    sink_pc: int
    word_addr: int


class _Entry(NamedTuple):
    is_store: bool
    pc: int


@dataclass(frozen=True)
class DDTConfig:
    """Configuration of a DDT instance.

    ``size=None`` models an infinite table (limit studies); ``split=True``
    selects the separate load/store organization of Section 5.6.2; with a
    split table each of the two tables gets ``size`` entries.
    ``record_loads=False`` reproduces the *original* RAW-only cloaking DDT,
    which records stores only — no RAR dependence can be detected and loads
    never evict stores.  ``record_all_loads=True`` makes every load
    (re)record itself, so RAR sources track the *most recent* prior load
    instead of the paper's earliest-load policy (``False``, the default) —
    exposed for ablation.
    """

    size: Optional[int] = 128
    ways: int = 0                   # 0 = fully associative (the paper's DDT)
    split: bool = False
    record_loads: bool = True
    record_all_loads: bool = False
    touch_on_hit: bool = True

    def describe(self) -> str:
        size = "inf" if self.size is None else str(self.size)
        organization = "split" if self.split else "common"
        assoc = f", {self.ways}-way" if self.ways else ""
        return f"DDT({size}, {organization}{assoc})"


class DDT:
    """One Dependence Detection Table; streaming observe API.

    Feed committed loads and stores in program order via
    :meth:`observe_load` / :meth:`observe_store`;  ``observe_load`` returns
    the detected dependence, if any.
    """

    def __init__(self, config: DDTConfig = DDTConfig()) -> None:
        self.config = config
        self._store_table = make_table(config.size, config.ways)
        self._load_table = (make_table(config.size, config.ways)
                            if config.split else self._store_table)
        self._split = config.split
        self._record_loads = config.record_loads
        self._record_all_loads = config.record_all_loads
        self._touch = config.touch_on_hit
        self.loads_observed = 0
        self.stores_observed = 0
        self.raw_detected = 0
        self.rar_detected = 0

    def observe_store(self, pc: int, word_addr: int) -> None:
        """Record a committed store; it becomes the producer for its address."""
        self.stores_observed += 1
        if self._split:
            # An intervening store breaks any RAR chain through this address.
            self._load_table.pop(word_addr)
        self._store_table.put(word_addr, _Entry(True, pc))

    def observe_load(self, pc: int, word_addr: int) -> Optional[Dependence]:
        """Record a committed load; return the dependence it detects."""
        self.loads_observed += 1
        touch = self._touch

        if self._split:
            store_entry = self._store_table.get(word_addr, touch=touch)
            if store_entry is not None:
                self.raw_detected += 1
                return Dependence(_RAW, store_entry.pc, pc, word_addr)
            if not self._record_loads:
                return None
            load_entry = self._load_table.get(word_addr, touch=touch)
            if load_entry is not None:
                self.rar_detected += 1
                if self._record_all_loads:
                    self._load_table.put(word_addr, _Entry(False, pc))
                return Dependence(_RAR, load_entry.pc, pc, word_addr)
            self._load_table.put(word_addr, _Entry(False, pc))
            return None

        entry = self._store_table.get(word_addr, touch=touch)
        if entry is not None:
            if entry.is_store:
                self.raw_detected += 1
                return Dependence(_RAW, entry.pc, pc, word_addr)
            self.rar_detected += 1
            if self._record_all_loads:
                self._store_table.put(word_addr, _Entry(False, pc))
            return Dependence(_RAR, entry.pc, pc, word_addr)
        if self._record_loads:
            self._store_table.put(word_addr, _Entry(False, pc))
        return None

    def clear(self) -> None:
        self._store_table.clear()
        if self._split:
            self._load_table.clear()
