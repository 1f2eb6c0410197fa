"""Hybrid cloaking + value prediction (the paper's suggested synergy).

Section 5.5 and the conclusion observe that cloaking/bypassing and load
value prediction cover largely *disjoint* load populations and "suggest a
potential synergy of the two techniques" (Tyson & Austin's memory renaming
already combined the RAW side with value prediction).  This module
implements that combination as an extension experiment:

* the cloaking engine is consulted first — if it *uses* a speculative value
  (consumer predicted, SF full, confidence above threshold) the hybrid's
  prediction is the cloaked value;
* otherwise a last-value predictor supplies the prediction, gated by its
  own 2-bit confidence so unpredictable loads stay silent.

The hybrid's coverage approaches the union of the two mechanisms measured
separately (Table 5.2's ``cloak-only + vp-only + both``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.core.cloaking import CloakingEngine, LoadOutcome
from repro.core.config import CloakingConfig
from repro.isa.instructions import OpClass
from repro.predictors.confidence import ConfidenceKind, ConfidenceState
from repro.predictors.value_prediction import LastValuePredictor
from repro.trace.records import DynInst

_LOAD = OpClass.LOAD


class HybridSource(enum.Enum):
    """Which component produced (or withheld) the hybrid's prediction."""

    NONE = "none"
    CLOAKING = "cloaking"
    VALUE_PREDICTOR = "value-predictor"


_NONE = HybridSource.NONE
_CLOAKING = HybridSource.CLOAKING
_VALUE_PREDICTOR = HybridSource.VALUE_PREDICTOR


@dataclass
class HybridStats:
    """Coverage accounting, split by contributing component."""

    loads: int = 0
    correct_cloaking: int = 0
    correct_vp: int = 0
    wrong_cloaking: int = 0
    wrong_vp: int = 0

    def _frac(self, count: int) -> float:
        return count / self.loads if self.loads else 0.0

    @property
    def coverage(self) -> float:
        return self._frac(self.correct_cloaking + self.correct_vp)

    @property
    def coverage_cloaking(self) -> float:
        return self._frac(self.correct_cloaking)

    @property
    def coverage_vp(self) -> float:
        return self._frac(self.correct_vp)

    @property
    def misspeculation_rate(self) -> float:
        return self._frac(self.wrong_cloaking + self.wrong_vp)


class HybridLoadPredictor:
    """Cloaking first, confidence-gated last-value prediction second.

    After each load, ``last_outcome`` holds what the engine did with it
    and ``last_vp_correct`` whether the last-value predictor's prediction
    was right, both as standalone copies of the two would report them
    (Table 5.2 reads them per load).
    """

    def __init__(
        self,
        cloaking: Optional[CloakingConfig] = None,
        vp_capacity: Optional[int] = 16 * 1024,
        vp_confidence: int = 2,
    ) -> None:
        """``vp_confidence`` is the counter value (0..3) the fallback value
        predictor must reach before its prediction is used.  The default
        (2) mirrors the cloaking side; 3 demands a saturated counter —
        stricter gating for value-noisy codes (see ext_hybrid's discussion
        of go)."""
        if not 0 <= vp_confidence <= 3:
            raise ValueError("vp_confidence must be in [0, 3]")
        self.engine = CloakingEngine(cloaking or CloakingConfig.paper_overlap())
        self.value_predictor = LastValuePredictor(capacity=vp_capacity)
        self.vp_confidence = vp_confidence
        self._vp_confidence: Dict[int, ConfidenceState] = {}
        self.stats = HybridStats()
        self.last_outcome: Optional[LoadOutcome] = None
        self.last_vp_correct = False

    def observe(self, inst: DynInst) -> HybridSource:
        """Account one committed instruction; returns the prediction source."""
        outcome = self.engine.observe(inst)
        if inst.opclass != _LOAD:
            return _NONE
        self.last_outcome = outcome
        self.stats.loads += 1

        if outcome is not None and outcome.speculated:
            # Cloaking made the call; the VP still trains in the background.
            self._train_vp(inst, use=False)
            if outcome.correct:
                self.stats.correct_cloaking += 1
            else:
                self.stats.wrong_cloaking += 1
            return _CLOAKING

        used, correct = self._train_vp(inst, use=True)
        if used:
            if correct:
                self.stats.correct_vp += 1
            else:
                self.stats.wrong_vp += 1
            return _VALUE_PREDICTOR
        return _NONE

    def _train_vp(self, inst: DynInst, use: bool):
        """Verify + train the value predictor; returns (used, correct).

        The last-value table always trains; the confidence automaton gates
        whether a prediction would actually be *used*, mirroring how the
        cloaking side separates silent verification from value use.
        """
        predicted = self.value_predictor.predict(inst.pc)
        correct = self.last_vp_correct = self.value_predictor.observe(
            inst.pc, inst.value)
        confidence = self._vp_confidence.get(inst.pc)
        if confidence is None:
            confidence = self._vp_confidence[inst.pc] = ConfidenceState(
                ConfidenceKind.TWO_BIT)
            confidence.on_wrong()  # start cold: require evidence first
        would_use = (use and predicted is not None
                     and confidence.value >= self.vp_confidence)
        if correct:
            confidence.on_correct()
        else:
            confidence.on_wrong()
        return would_use, correct

    def run(self, trace: Iterable[DynInst]) -> HybridStats:
        for inst in trace:
            self.observe(inst)
        return self.stats
