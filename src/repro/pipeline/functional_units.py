"""Issue-bandwidth accounting for the dataflow timing model."""

from __future__ import annotations

from typing import Dict

from repro.isa.instructions import OpClass
from repro.pipeline.config import ProcessorConfig


class IssueBandwidth:
    """Allocates issue slots subject to global width and per-class FU limits.

    ``allocate(earliest, opclass)`` returns the first cycle at or after
    ``earliest`` with both a free global issue slot and a free slot of the
    instruction's functional-unit class.
    """

    def __init__(self, config: ProcessorConfig) -> None:
        self._config = config
        self._global: Dict[int, int] = {}
        self._per_class: Dict[OpClass, Dict[int, int]] = {}

    def allocate(self, earliest: int, opclass: OpClass) -> int:
        width = self._config.issue_width
        class_limit = self._config.fu_limit(opclass)
        class_counts = self._per_class.get(opclass)
        if class_counts is None:
            class_counts = self._per_class[opclass] = {}
        cycle = earliest
        while True:
            if self._global.get(cycle, 0) < width \
                    and class_counts.get(cycle, 0) < class_limit:
                self._global[cycle] = self._global.get(cycle, 0) + 1
                class_counts[cycle] = class_counts.get(cycle, 0) + 1
                return cycle
            cycle += 1

    def reset(self) -> None:
        self._global.clear()
        self._per_class.clear()


class BandwidthLimiter:
    """A single-resource per-cycle bandwidth allocator (LSQ ports, commit)."""

    def __init__(self, width: int) -> None:
        if width < 1:
            raise ValueError("width must be >= 1")
        self.width = width
        self._counts: Dict[int, int] = {}

    def allocate(self, earliest: int) -> int:
        cycle = earliest
        counts = self._counts
        while counts.get(cycle, 0) >= self.width:
            cycle += 1
        counts[cycle] = counts.get(cycle, 0) + 1
        return cycle

    def reset(self) -> None:
        self._counts.clear()
