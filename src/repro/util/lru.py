"""Finite associative tables with LRU replacement.

Hardware prediction structures are caches: a fixed number of entries, an
index/tag lookup, and a replacement policy.  The paper specifies LRU for the
Dependence Detection Table (Section 5.2) and set-associative organizations
for the DPNT and the Synonym File (Section 5.6.1).  Both organizations are
provided here so every predictor in the repository shares one well-tested
storage model.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterator, Optional, Tuple


class LRUTable:
    """A fully-associative table with LRU replacement.

    ``capacity=None`` models an infinite table (used for limit studies such
    as the infinite address window of Figure 2(a) or the infinite DPNT of
    Section 5.3).

    Lookups by default update recency, matching a hardware CAM whose
    replacement state is touched on every probe.  Pass ``touch=False`` to
    :meth:`get` for a recency-neutral probe.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Any]:
        return iter(self._entries)

    def get(self, key: Any, default: Any = None, touch: bool = True) -> Any:
        """Return the value stored under ``key`` or ``default`` if absent."""
        entries = self._entries
        if key not in entries:
            return default
        if touch:
            entries.move_to_end(key)
        return entries[key]

    def put(self, key: Any, value: Any) -> Optional[Tuple[Any, Any]]:
        """Insert or update ``key``; return the evicted ``(key, value)`` if any."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            entries[key] = value
            return None
        evicted = None
        if self.capacity is not None and len(entries) >= self.capacity:
            evicted = entries.popitem(last=False)
            self.evictions += 1
        entries[key] = value
        return evicted

    def pop(self, key: Any, default: Any = None) -> Any:
        """Remove ``key`` and return its value (``default`` if absent)."""
        return self._entries.pop(key, default)

    def clear(self) -> None:
        self._entries.clear()

    def items(self) -> Iterator[Tuple[Any, Any]]:
        return iter(self._entries.items())


class SetAssociativeTable:
    """A set-associative table with per-set LRU replacement.

    ``num_sets`` must be a power of two; keys are mapped to sets by masking
    their low-order bits, which mirrors how the DPNT indexes with load/store
    PCs and the Synonym File indexes with synonym numbers.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        if num_sets <= 0 or num_sets & (num_sets - 1):
            raise ValueError(f"num_sets must be a power of two, got {num_sets}")
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self.num_sets = num_sets
        self.ways = ways
        self._mask = num_sets - 1
        self._sets: Tuple["OrderedDict[Any, Any]", ...] = tuple(
            OrderedDict() for _ in range(num_sets)
        )
        self.evictions = 0

    @property
    def capacity(self) -> int:
        return self.num_sets * self.ways

    def _set_for(self, key: Any) -> "OrderedDict[Any, Any]":
        return self._sets[hash(key) & self._mask]

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def __contains__(self, key: Any) -> bool:
        return key in self._set_for(key)

    def get(self, key: Any, default: Any = None, touch: bool = True) -> Any:
        """Return the value stored under ``key`` or ``default`` if absent."""
        entries = self._sets[hash(key) & self._mask]
        if key not in entries:
            return default
        if touch:
            entries.move_to_end(key)
        return entries[key]

    def put(self, key: Any, value: Any) -> Optional[Tuple[Any, Any]]:
        """Insert or update ``key``; return the evicted ``(key, value)`` if any."""
        entries = self._sets[hash(key) & self._mask]
        if key in entries:
            entries.move_to_end(key)
            entries[key] = value
            return None
        evicted = None
        if len(entries) >= self.ways:
            evicted = entries.popitem(last=False)
            self.evictions += 1
        entries[key] = value
        return evicted

    def pop(self, key: Any, default: Any = None) -> Any:
        """Remove ``key`` and return its value (``default`` if absent)."""
        return self._set_for(key).pop(key, default)

    def clear(self) -> None:
        for entries in self._sets:
            entries.clear()

    def items(self) -> Iterator[Tuple[Any, Any]]:
        for entries in self._sets:
            yield from entries.items()

    def as_dict(self) -> Dict[Any, Any]:
        """A snapshot of the whole table (testing/debug helper)."""
        return dict(self.items())
