"""Timing:functional trace sampling (paper Section 5.1).

The paper simulates 50,000-instruction observation windows in full timing
mode, then switches to functional simulation for ``ratio`` times as many
instructions (during which caches and branch predictors stay warm).  A
sampling ratio of ``1:2`` means one timing window followed by two windows'
worth of functional instructions.

The schedule is a property of each record's position in the stream, so
:meth:`SamplingPlan.timed` labels records as they stream past and never
holds a window.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Tuple

from repro.trace.records import DynInst

OBSERVATION_SIZE = 50_000


@dataclass(frozen=True)
class SamplingPlan:
    """An alternating timing/functional schedule.

    ``timing`` and ``functional`` are the ratio parts from Table 5.1
    ("1:2" -> ``SamplingPlan(1, 2)``); ``functional=0`` disables sampling
    (the "N/A" programs).
    """

    timing: int = 1
    functional: int = 0
    observation: int = OBSERVATION_SIZE

    def __post_init__(self) -> None:
        if self.timing < 1:
            raise ValueError("timing part of the ratio must be >= 1")
        if self.functional < 0:
            raise ValueError("functional part of the ratio must be >= 0")
        if self.observation < 1:
            raise ValueError("observation window must be >= 1")

    @classmethod
    def parse(cls, text: str, observation: int = OBSERVATION_SIZE) -> "SamplingPlan":
        """Parse a Table 5.1 ratio string: ``"1:2"`` or ``"N/A"``."""
        text = text.strip()
        if text.upper() in ("N/A", "NA", ""):
            return cls(1, 0, observation)
        timing_part, _, functional_part = text.partition(":")
        return cls(int(timing_part), int(functional_part), observation)

    @property
    def enabled(self) -> bool:
        return self.functional > 0

    def timed(self, trace: Iterable[DynInst]) -> Iterator[Tuple[DynInst, bool]]:
        """Yield ``(inst, timing)`` for every record of ``trace``, in order.

        ``timing`` is true for ``timing * observation`` records, then false
        for ``functional * observation``, repeating; a disabled plan times
        every record.  One record is read per pair yielded.
        """
        if not self.enabled:
            return zip(trace, repeat(True))
        timing_len = self.timing * self.observation
        period = timing_len + self.functional * self.observation
        return ((inst, position % period < timing_len)
                for position, inst in enumerate(trace))
