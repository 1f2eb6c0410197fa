"""Per-cycle bandwidth accounting for the dataflow timing model."""

from __future__ import annotations

from typing import Dict


class BandwidthLimiter:
    """A single-resource per-cycle bandwidth allocator (issue, LSQ ports, commit).

    ``allocate(earliest)`` returns the first cycle at or after ``earliest``
    with a free slot and takes that slot.
    """

    def __init__(self, width: int) -> None:
        if width < 1:
            raise ValueError("width must be >= 1")
        self.width = width
        self._counts: Dict[int, int] = {}

    def allocate(self, earliest: int) -> int:
        counts = self._counts
        width = self.width
        count = counts.get(earliest, 0)
        while count >= width:
            earliest += 1
            count = counts.get(earliest, 0)
        counts[earliest] = count + 1
        return earliest

    def forget_before(self, cycle: int) -> None:
        """Drop the counts of every cycle before ``cycle``.

        Exact as long as no later request asks for an earlier cycle: the
        walk in :meth:`allocate` never reads a cycle before its
        ``earliest``.
        """
        self._counts = {c: n for c, n in self._counts.items() if c >= cycle}
