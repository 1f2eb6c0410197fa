"""Cloaking confidence mechanisms (paper Section 5.3).

Two mechanisms are evaluated in Figure 6:

* **non-adaptive 1-bit**: speculate whenever a dependence has ever been
  recorded for the instruction.  It never backs off, so it bounds coverage
  from above and misspeculates freely.
* **adaptive 2-bit automaton**: "enables cloaking as soon as a dependence
  is detected.  However, once a misprediction is encountered it requires
  two correct predictions before allowing a predicted value to be used
  again."  Modelled as a 0..3 counter starting at the threshold (2):
  detection or a correct use increments, a misprediction resets to 0.
"""

from __future__ import annotations

import enum


class ConfidenceKind(enum.Enum):
    ONE_BIT = "1-bit non-adaptive"
    TWO_BIT = "2-bit adaptive"


_ONE_BIT = ConfidenceKind.ONE_BIT
_TWO_BIT = ConfidenceKind.TWO_BIT


class ConfidenceState:
    """Per-DPNT-entry confidence; one instance per (entry, role)."""

    __slots__ = ("kind", "value")

    _MAX = 3
    _THRESHOLD = 2

    def __init__(self, kind: ConfidenceKind) -> None:
        self.kind = kind
        # Both mechanisms allow speculation immediately after the first
        # detection, which is when the entry (and this state) is created.
        self.value = self._THRESHOLD

    @property
    def predict(self) -> bool:
        if self.kind is _ONE_BIT:
            return True
        return self.value >= self._THRESHOLD

    def on_detect(self) -> None:
        """A dependence was detected (but no speculative value was used)."""
        if self.value < self._MAX:
            self.value += 1

    def on_correct(self) -> None:
        """A speculative value was used and verified correct."""
        if self.value < self._MAX:
            self.value += 1

    def on_wrong(self) -> None:
        """A speculative value was used and was wrong."""
        if self.kind is _TWO_BIT:
            self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ConfidenceState({self.kind.name}, value={self.value})"
