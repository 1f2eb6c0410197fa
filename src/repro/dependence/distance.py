"""Dependence distance distributions.

The DDT's reach is bounded by its size: a dependence is detectable only if
at most ``size`` unique addresses are touched between its source and sink
(the paper's *address window*, Section 2).  This analysis measures, for
every detected RAW and RAR dependence under an infinite window, the
distance in unique intervening addresses — the distribution that explains
the Figure 5 sweep: the fraction of dependences with distance ≤ N is
(approximately) the visibility an N-entry DDT achieves.

It also demonstrates the Section 3.1 argument quantitatively: loads whose
RAW distance exceeds the DDT size but whose RAR distance does not are
exactly the population RAR cloaking rescues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.isa.instructions import OpClass
from repro.trace.records import DynInst

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE


class RecencyRanker:
    """Tracks unique-address recency: rank 0 = most recently accessed.

    ``touch`` returns the current rank of the address (``None`` if never
    seen) and moves it to the front.  The rank of an address equals the
    number of unique addresses touched since its previous access — the
    paper's address-window distance.

    Implemented as a Fenwick (binary indexed) tree over access timestamps:
    a set bit at time ``t`` means "some address was last accessed at
    ``t``".  An address's rank is the number of set bits after its previous
    timestamp, giving O(log n) per access instead of an O(n) LRU scan.
    """

    def __init__(self) -> None:
        self._last_time: Dict[int, int] = {}
        self._tree: List[int] = [0, 0]
        self._size = 1
        self._now = 0
        self._live = 0

    def _grow(self, needed: int) -> None:
        # Double the index space and rebuild from the live timestamps (a
        # Fenwick tree cannot simply be zero-extended across its root).
        while self._size < needed:
            self._size *= 2
        self._tree = [0] * (self._size + 1)
        for t in self._last_time.values():
            self._add(t, 1)

    def _add(self, index: int, delta: int) -> None:
        while index <= self._size:
            self._tree[index] += delta
            index += index & -index

    def _prefix(self, index: int) -> int:
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & -index
        return total

    def touch(self, word_addr: int) -> Optional[int]:
        self._now += 1
        if self._now > self._size:
            self._grow(self._now)
        previous = self._last_time.get(word_addr)
        rank: Optional[int] = None
        if previous is not None:
            rank = self._live - self._prefix(previous)
            self._add(previous, -1)
        else:
            self._live += 1
        self._add(self._now, 1)
        self._last_time[word_addr] = self._now
        return rank

    @property
    def now(self) -> int:
        """The current logical timestamp."""
        return self._now

    def rank_since(self, timestamp: int) -> int:
        """Unique addresses whose most recent access is after ``timestamp``."""
        return self._live - self._prefix(min(timestamp, self._size))


@dataclass
class DistanceHistogram:
    """Power-of-two bucketed distance counts."""

    buckets: Dict[int, int] = field(default_factory=dict)
    total: int = 0

    def record(self, distance: int) -> None:
        bucket = 1
        while bucket <= distance:
            bucket <<= 1
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.total += 1

    def fraction_within(self, limit: int) -> float:
        """Fraction of dependences with distance < ``limit``."""
        if not self.total:
            return 0.0
        covered = sum(count for bucket, count in self.buckets.items()
                      if bucket <= limit)
        return covered / self.total

    def as_rows(self) -> List[Tuple[int, int, float]]:
        """(bucket upper bound, count, cumulative fraction) rows."""
        rows = []
        cumulative = 0
        for bucket in sorted(self.buckets):
            cumulative += self.buckets[bucket]
            rows.append((bucket, self.buckets[bucket],
                         cumulative / self.total))
        return rows


class DependenceDistanceAnalysis:
    """Distance (in unique intervening addresses) of RAW/RAR dependences.

    Unlike :class:`~repro.dependence.ddt.DDT`, both the last store and the
    first load since that store are tracked per address simultaneously, so
    a load's RAW *and* RAR distances are measured independently — the
    comparison behind the paper's distant-store discussion.
    """

    def __init__(self, rescue_limit: int = 128) -> None:
        self._ranker = RecencyRanker()
        self._load_seen: Dict[int, bool] = {}
        self._last_store_time: Dict[int, int] = {}
        self.raw = DistanceHistogram()
        self.rar = DistanceHistogram()
        self.rescue_limit = rescue_limit
        #: RAR dependences within the window whose underlying RAW
        #: dependence lies beyond it — the Section 3.1 rescued loads
        self.rescued_distant_raw = 0
        #: RAR dependences within the window at never-stored addresses —
        #: pure data sharing, the population RAW cloaking can never reach
        self.rescued_no_raw = 0

    def observe(self, inst: DynInst) -> None:
        """Account one committed instruction."""
        cls = inst.opclass
        if cls != _LOAD and cls != _STORE:
            return
        word = inst.word_addr
        distance = self._ranker.touch(word)
        if cls == _STORE:
            self._last_store_time[word] = self._ranker.now
            self._load_seen.pop(word, None)
            return
        # a load
        store_time = self._last_store_time.get(word)
        if distance is not None:
            if self._load_seen.get(word):
                self.rar.record(distance)
                if distance < self.rescue_limit:
                    if store_time is None:
                        self.rescued_no_raw += 1
                    elif self._ranker.rank_since(store_time) >= self.rescue_limit:
                        self.rescued_distant_raw += 1
            elif store_time is not None:
                self.raw.record(distance)
        if self._load_seen.get(word) is None:
            self._load_seen[word] = True

    def run(self, trace: Iterable[DynInst]) -> "DependenceDistanceAnalysis":
        for inst in trace:
            self.observe(inst)
        return self
