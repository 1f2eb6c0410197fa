"""Store-set memory dependence prediction (Chrysos & Emer, ISCA 1998).

The paper's base machine uses *naive* memory dependence speculation and
cites Chrysos & Emer both for the synonym merge rule and as the
state-of-the-art scheduling alternative.  This module implements the
store-set predictor as a third LSQ policy so the "naive speculation is
close to ideal for this window" claim (Section 5.1) can be checked:

* the **SSIT** (store-set id table) maps load and store PCs to store-set
  ids;
* the **LFST** (last fetched store table) tracks, per set, the most recent
  in-flight store;
* a load whose PC belongs to a set waits for that set's last store before
  accessing memory;
* on a memory-order violation (a load executed before an older,
  same-address store posted its address) the offending load and store are
  assigned to a common set, using the Chrysos–Emer minimum-id merge rule.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


class StoreSetPredictor:
    """SSIT + LFST, adapted to the trace-driven timing model."""

    def __init__(self, ssit_entries: int = 4096) -> None:
        if ssit_entries <= 0 or ssit_entries & (ssit_entries - 1):
            raise ValueError("ssit_entries must be a power of two")
        self._mask = ssit_entries - 1
        self._ssit: Dict[int, int] = {}
        # set id -> (addr_time, forward_ready) of the most recent store
        self._lfst: Dict[int, Tuple[int, int]] = {}
        self._next_id = 1
        self.violations_trained = 0

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def set_of(self, pc: int) -> Optional[int]:
        return self._ssit.get(self._index(pc))

    def train_violation(self, load_pc: int, store_pc: int) -> None:
        """A load/store pair violated memory order: unify their sets."""
        self.violations_trained += 1
        load_index = self._index(load_pc)
        store_index = self._index(store_pc)
        load_set = self._ssit.get(load_index)
        store_set = self._ssit.get(store_index)
        if load_set is None and store_set is None:
            set_id = self._next_id
            self._next_id += 1
            self._ssit[load_index] = set_id
            self._ssit[store_index] = set_id
        elif load_set is None:
            self._ssit[load_index] = store_set
        elif store_set is None:
            self._ssit[store_index] = load_set
        elif load_set != store_set:
            # Chrysos-Emer: converge on the smaller id.
            winner = min(load_set, store_set)
            self._ssit[load_index] = winner
            self._ssit[store_index] = winner

    def store_dispatched(self, pc: int, addr_time: int,
                         forward_ready: int) -> None:
        """Record a store's timing in its set's LFST slot (if any)."""
        set_id = self.set_of(pc)
        if set_id is not None:
            self._lfst[set_id] = (addr_time, forward_ready)

    def load_wait_time(self, pc: int) -> int:
        """The earliest cycle a set-member load may access memory."""
        set_id = self.set_of(pc)
        if set_id is None:
            return 0
        timing = self._lfst.get(set_id)
        if timing is None:
            return 0
        addr_time, _ = timing
        return addr_time
