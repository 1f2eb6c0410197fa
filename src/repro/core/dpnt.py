"""The Dependence Prediction and Naming Table (paper Section 3.1).

The DPNT is PC-indexed.  Each entry associates an instruction with a
synonym and carries **two** confidence predictors — one for the producer
role and one for the consumer role — because the RAR extension makes loads
producers too ("we need to mark loads as producers in the DPNT.  For this
we use two predictors per entry").
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.predictors.confidence import ConfidenceKind, ConfidenceState
from repro.util.lru import make_table


class DPNTEntry:
    """One instruction's prediction state: a synonym plus two role predictors."""

    __slots__ = ("synonym", "producer", "consumer")

    def __init__(self, synonym: int) -> None:
        self.synonym = synonym
        self.producer: Optional[ConfidenceState] = None
        self.consumer: Optional[ConfidenceState] = None


class DPNT:
    """PC-indexed prediction and naming table.

    ``entries=None`` models the infinite DPNT of the accuracy study;
    ``ways=0`` requests full associativity for a finite table.
    """

    def __init__(
        self,
        entries: Optional[int] = None,
        ways: int = 2,
        confidence: ConfidenceKind = ConfidenceKind.TWO_BIT,
    ) -> None:
        self.confidence_kind = confidence
        self._table = make_table(entries, ways)

    def lookup(self, pc: int) -> Optional[DPNTEntry]:
        """The entry for an instruction, or ``None``."""
        return self._table.get(pc)

    def ensure(self, pc: int, synonym: int) -> DPNTEntry:
        """Return the entry for ``pc``, creating it with ``synonym`` if absent."""
        entry = self._table.get(pc)
        if entry is None:
            entry = DPNTEntry(synonym)
            self._table.put(pc, entry)
        return entry

    def mark_producer(self, entry: DPNTEntry) -> ConfidenceState:
        """Attach (or fetch) the producer-role predictor of an entry."""
        if entry.producer is None:
            entry.producer = ConfidenceState(self.confidence_kind)
        return entry.producer

    def mark_consumer(self, entry: DPNTEntry) -> ConfidenceState:
        """Attach (or fetch) the consumer-role predictor of an entry."""
        if entry.consumer is None:
            entry.consumer = ConfidenceState(self.confidence_kind)
        return entry.consumer

    def rewrite_synonym(self, old: int, new: int) -> int:
        """Full-merge support: rewrite every entry carrying ``old``.

        Returns the number of rewritten entries.  This is the associative
        sweep the incremental policy avoids.
        """
        rewritten = 0
        for _, entry in self._table.items():
            if entry.synonym == old:
                entry.synonym = new
                rewritten += 1
        return rewritten

    def entries(self) -> Iterator[Tuple[int, DPNTEntry]]:
        return self._table.items()
