"""The 128-entry load/store scheduler (paper Section 5.1).

Implements the paper's *naive memory dependence speculation* policy:

1. a load may access memory even when preceding store addresses are
   unknown;
2. a load waits for preceding stores *known* to write to the same address
   (their data is forwarded);
3. stores post their address even when their data is not yet available;
4. stores may post data or address out of order.

A load that accesses memory before an older same-address store has posted
its address causes a memory-order violation: its value only becomes
correct once the store's data is forwarded, plus a re-execution penalty
(``violation_penalty``).

Two alternative policies are provided:

* ``no_speculation`` (Figure 10's base) — every load waits until the
  addresses of *all* preceding stores are known;
* ``store_sets`` (Chrysos & Emer) — loads that have violated against a
  store wait for that store set's last store before accessing memory,
  trading rare violations for occasional over-serialization.

The model is trace-driven in program order, so "preceding" is exact: the
scheduler tracks, per word address, the address-post and forward-readiness
times of the most recent earlier store, and the running maximum of store
address-post times for the no-speculation mode.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.memsys.hierarchy import MemoryHierarchy
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.functional_units import BandwidthLimiter
from repro.pipeline.store_sets import StoreSetPredictor


class LoadStoreScheduler:
    """Schedules memory operations and times their data availability."""

    def __init__(self, config: ProcessorConfig, hierarchy: MemoryHierarchy) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.policy = config.effective_lsq_policy
        self.ports = BandwidthLimiter(config.lsq_width)
        self._min_delay = config.lsq_min_delay
        self._forward_latency = config.store_forward_latency
        self._no_speculation = self.policy == "no_speculation"
        # word address -> (addr post time, forward-ready time, store pc)
        self._store_info: Dict[int, Tuple[int, int, int]] = {}
        self._store_addr_frontier = 0
        self.store_sets = (StoreSetPredictor()
                           if self.policy == "store_sets" else None)
        self.loads_forwarded = 0
        self.loads_from_memory = 0
        self.violations = 0

    def schedule_store(self, pc: int, word_addr: int, addr_time: int,
                       data_time: int) -> int:
        """Post a store; returns its completion time (address+data posted).

        The store claims an LSQ port when its address is computed; its data
        may arrive later (out-of-order posting, rules 3/4).
        """
        slot = self.ports.allocate(addr_time + self._min_delay)
        if slot > self._store_addr_frontier:
            self._store_addr_frontier = slot
        posted = data_time if data_time > slot else slot
        forward_ready = posted + self._forward_latency
        self._store_info[word_addr] = (slot, forward_ready, pc)
        if self.store_sets is not None:
            self.store_sets.store_dispatched(pc, slot, forward_ready)
        return posted

    def schedule_load(self, pc: int, word_addr: int, byte_addr: int,
                      addr_time: int) -> int:
        """Schedule a load; returns the cycle its value is available."""
        earliest = addr_time + self._min_delay
        if self._no_speculation:
            # Loads wait for every preceding store address to be known.
            if self._store_addr_frontier > earliest:
                earliest = self._store_addr_frontier
        elif self.store_sets is not None:
            earliest = max(earliest, self.store_sets.load_wait_time(pc))
        slot = self.ports.allocate(earliest)

        info = self._store_info.get(word_addr)
        if info is not None:
            store_addr_time, forward_ready, store_pc = info
            if forward_ready > slot:
                self.loads_forwarded += 1
                if store_addr_time > slot:
                    # The load accessed memory before the older store's
                    # address was known: a memory-order violation.  The
                    # load (and its dependents) re-execute once the store
                    # forwards.
                    self.violations += 1
                    if self.store_sets is not None:
                        self.store_sets.train_violation(pc, store_pc)
                    return forward_ready + self.config.violation_penalty
                # Rule 2: wait for (and forward from) the matching store.
                return forward_ready
        self.loads_from_memory += 1
        return slot + self.hierarchy.load(byte_addr, slot)

    def commit_store(self, byte_addr: int, commit_time: int) -> None:
        """Update cache state when a store leaves the window."""
        self.hierarchy.store(byte_addr, commit_time)
