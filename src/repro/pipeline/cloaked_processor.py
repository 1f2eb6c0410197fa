"""The processor with an integrated cloaking/bypassing mechanism (Figure 8).

Dependence predictions are initiated at decode; the Synonym Rename Table
(in-flight producers) and Synonym File are inspected to locate the
synonym's value; detection, SF and DPNT updates happen at commit.  In this
trace-driven model decode/commit order coincide, so the
:class:`~repro.core.cloaking.CloakingEngine` is driven inline and a
synonym → value-availability-time map plays the role of the SRT/SF pair:

* a predicted **producer store** publishes its value when its data is
  ready (the store need not have executed — that is the point of RAW
  cloaking);
* a predicted **producer load** publishes when its memory access completes
  ("in RAR-based cloaking the value has to be fetched from memory by the
  first load", Section 3.1);
* a predicted **consumer load** with a correct value gives its consumers
  the value at ``max(dispatch + 1, producer publish time)`` — combined
  cloaking + bypassing links consumers directly to the producer;
* a **wrong** value costs according to the recovery policy of Section
  5.6.1: *selective* re-executes the dependent chain once the load's real
  value arrives (a small rescheduling penalty); *squash* flushes and
  refetches from the misspeculated consumer; *oracle* never uses wrong
  values.
"""

from __future__ import annotations

from typing import Dict

from repro.core.cloaking import CloakingEngine, LoadOutcome
from repro.core.config import CloakingConfig
from repro.isa.instructions import MEMORY_CLASSES
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import Processor
from repro.pipeline.recovery import RecoveryPolicy
from repro.trace.records import DynInst

_NOT_PREDICTED = LoadOutcome.NOT_PREDICTED
_CORRECT_RAW = LoadOutcome.CORRECT_RAW
_CORRECT_RAR = LoadOutcome.CORRECT_RAR


class CloakedProcessor(Processor):
    """The base machine plus cloaking/bypassing."""

    #: rescheduling penalty (cycles) for selectively re-executed consumers
    SELECTIVE_PENALTY = 1

    def __init__(
        self,
        config: ProcessorConfig = ProcessorConfig(),
        cloaking: CloakingConfig = CloakingConfig(),
        recovery: RecoveryPolicy = RecoveryPolicy.SELECTIVE,
    ) -> None:
        super().__init__(config)
        self.engine = CloakingEngine(cloaking)
        self.recovery = recovery
        self._oracle = recovery is RecoveryPolicy.ORACLE
        self._squash = recovery is RecoveryPolicy.SQUASH
        self._synonym_value_time: Dict[int, int] = {}
        self.speculations_used = 0
        self.misspeculations = 0

    # -- hooks ----------------------------------------------------------------

    def _store_hook(self, inst: DynInst, data_time: int) -> None:
        observed = self.engine.observe_timing(inst)
        if observed is not None and observed.producer_synonym is not None:
            self._synonym_value_time[observed.producer_synonym] = data_time

    def _load_value_time(self, inst: DynInst, dispatch: int,
                         value_time: int) -> int:
        observed = self.engine.observe_timing(inst)
        outcome = observed.outcome
        effective = value_time

        if outcome is not _NOT_PREDICTED:
            correct = outcome is _CORRECT_RAW or outcome is _CORRECT_RAR
            if correct or not self._oracle:
                self.speculations_used += 1
                if correct:
                    publish = self._synonym_value_time.get(
                        observed.consumer_synonym, dispatch)
                    speculative = dispatch + 1
                    if publish > speculative:
                        speculative = publish
                    if speculative < effective:
                        effective = speculative
                else:
                    self.misspeculations += 1
                    # Misspeculation is signalled when a dependent reads the
                    # wrong value; verification completes with the load.
                    # Selective and squash recovery both reschedule the
                    # dependent chain; squash also flushes and refetches.
                    effective = value_time + self.SELECTIVE_PENALTY
                    if self._squash and value_time + 1 > self._redirect:
                        self._redirect = value_time + 1

        if observed.producer_synonym is not None:
            # A producing load publishes the value it fetched from memory.
            self._synonym_value_time[observed.producer_synonym] = value_time
        return effective

    def _warm_instruction(self, inst: DynInst) -> None:
        super()._warm_instruction(inst)
        if inst.opclass in MEMORY_CLASSES:
            observed = self.engine.observe_timing(inst)
            if observed is not None and observed.producer_synonym is not None:
                # Values deposited during functional simulation are simply
                # "available" when timing resumes.
                self._synonym_value_time[observed.producer_synonym] = \
                    self._final_cycle

    # -- reporting -------------------------------------------------------------

    def finalize(self, name: str = ""):
        """Close out the run; attaches cloaking accuracy to ``result.extra``."""
        result = super().finalize(name)
        stats = self.engine.stats
        result.extra.update({
            "cloaking_mode": self.engine.config.mode.value,
            "recovery": self.recovery.value,
            "coverage": stats.coverage,
            "coverage_raw": stats.coverage_raw,
            "coverage_rar": stats.coverage_rar,
            "misspeculation_rate": stats.misspeculation_rate,
            "speculations_used": self.speculations_used,
            "misspeculations": self.misspeculations,
        })
        return result

    @property
    def misspeculation_rate(self) -> float:
        stats = self.engine.stats
        return stats.misspeculation_rate

    def describe(self) -> str:
        return (f"CloakedProcessor(mode={self.engine.config.mode.value}, "
                f"recovery={self.recovery.value})")
