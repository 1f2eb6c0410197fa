"""The Synonym File (paper Section 3.1).

Synonym-indexed storage for in-flight speculative values.  A predicted
producer allocates its synonym's entry *empty* and fills it when its value
becomes available (the store's data, or the memory value the first load
reads); predicted consumers probe it and, when full, obtain a speculative
value.  Entries record whether the producer was a store (a RAW group) or a
load (a RAR group) so accuracy can be attributed per dependence class as
in Figure 6.
"""

from __future__ import annotations

from typing import Optional

from repro.util.lru import make_table


class SFEntry:
    """One synonym's communication slot."""

    __slots__ = ("full", "value", "from_store", "size")

    def __init__(self) -> None:
        self.full = False
        self.value: object = None
        self.from_store = False
        self.size = 4

    def fill(self, value: object, from_store: bool, size: int = 4) -> None:
        self.full = True
        self.value = value
        self.from_store = from_store
        self.size = size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"full value={self.value!r}" if self.full else "empty"
        return f"<SFEntry {state}>"


class SynonymFile:
    """Synonym-indexed value storage.

    ``entries=None`` models an infinite SF; ``ways=0`` a fully-associative
    finite one; otherwise a set-associative organization (the paper's
    timing configuration uses 1K 2-way).
    """

    def __init__(self, entries: Optional[int] = None, ways: int = 2) -> None:
        self._table = make_table(entries, ways)
        self.allocations = 0

    def allocate(self, synonym: int) -> SFEntry:
        """Allocate (or re-claim) the entry for a synonym, marked empty."""
        entry = self._table.get(synonym)
        if entry is None:
            entry = SFEntry()
            self._table.put(synonym, entry)
            self.allocations += 1
        else:
            entry.full = False
            entry.value = None
        return entry

    def deposit(self, synonym: int, value: object, from_store: bool,
                size: int = 4) -> None:
        """Fill the synonym's entry, creating it if necessary."""
        entry = self._table.get(synonym)
        if entry is None:
            entry = SFEntry()
            self._table.put(synonym, entry)
            self.allocations += 1
        entry.fill(value, from_store, size)

    def probe(self, synonym: int) -> Optional[SFEntry]:
        """The entry for a synonym, or ``None`` (miss / evicted)."""
        return self._table.get(synonym)

    def entries(self):
        """Iterate ``(synonym, SFEntry)`` pairs (diagnostics / fault injection)."""
        return self._table.items()
