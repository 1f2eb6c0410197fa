"""The streaming cloaking/bypassing engine (accuracy model).

This is the functional-mode model behind every accuracy number in the
paper's Sections 5.3-5.5: it consumes the committed instruction stream and
exercises the full prediction pipeline —

1. **Consumer prediction** (decode time in hardware): a load whose DPNT
   entry's consumer predictor is confident probes the Synonym File; a full
   entry supplies a speculative value.
2. **Producer deposit** (completion time): a predicted producer (store, or
   the earliest load of a RAR group) writes its value into the SF.
3. **Verification** (commit): the speculative value is compared with the
   value memory actually returned; confidence is trained on the outcome.
4. **Detection** (commit): the DDT observes the access; a detected
   dependence creates/updates DPNT entries, assigns synonyms and merges
   conflicting synonym groups.

Coverage and misspeculation are attributed to RAW or RAR according to who
produced the speculative value (a store or a load), matching Figure 6's
grey/white breakdown.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from repro.core.config import CloakingConfig
from repro.core.dpnt import DPNT
from repro.core.synonym_file import SynonymFile
from repro.core.synonyms import MergePolicy, SynonymAllocator
from repro.dependence.ddt import DDT, Dependence, DependenceKind
from repro.isa.instructions import OpClass
from repro.trace.records import DynInst


class LoadOutcome(enum.Enum):
    """What cloaking did for one dynamic load."""

    NOT_PREDICTED = "none"
    CORRECT_RAW = "correct-raw"
    CORRECT_RAR = "correct-rar"
    WRONG_RAW = "wrong-raw"
    WRONG_RAR = "wrong-rar"

    @property
    def speculated(self) -> bool:
        return self is not _NOT_PREDICTED

    @property
    def correct(self) -> bool:
        return self is _CORRECT_RAW or self is _CORRECT_RAR


_NOT_PREDICTED = LoadOutcome.NOT_PREDICTED
_CORRECT_RAW = LoadOutcome.CORRECT_RAW
_CORRECT_RAR = LoadOutcome.CORRECT_RAR
_WRONG_RAW = LoadOutcome.WRONG_RAW
_WRONG_RAR = LoadOutcome.WRONG_RAR
_RAW = DependenceKind.RAW
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE


class ObservedAccess(NamedTuple):
    """Timing-model view of one observed memory access.

    ``consumer_synonym`` is set when a load obtained (or silently verified)
    a speculative value through that synonym; ``producer_synonym`` when the
    instruction deposited its value into the SF as a predicted producer.
    The pipeline model uses these to time speculative value availability.
    ``spec_value`` is the value the consumer obtained from the SF when the
    outcome is speculative — the differential oracle
    (:mod:`repro.chaos.oracle`) uses it to model what would reach
    architectural state if verification or recovery misbehaved.
    """

    outcome: LoadOutcome
    consumer_synonym: Optional[int]
    producer_synonym: Optional[int]
    spec_value: object = None


#: the access no prediction touched (shared: the tuple is immutable)
_UNTOUCHED = ObservedAccess(_NOT_PREDICTED, None, None)


@dataclass
class CloakingStats:
    """Accuracy accounting over all executed loads (Figure 6 metrics)."""

    loads: int = 0
    correct_raw: int = 0
    correct_rar: int = 0
    wrong_raw: int = 0
    wrong_rar: int = 0

    def _frac(self, count: int) -> float:
        return count / self.loads if self.loads else 0.0

    @property
    def coverage(self) -> float:
        """Fraction of all loads that got a correct value via cloaking."""
        return self._frac(self.correct_raw + self.correct_rar)

    @property
    def coverage_raw(self) -> float:
        return self._frac(self.correct_raw)

    @property
    def coverage_rar(self) -> float:
        return self._frac(self.correct_rar)

    @property
    def misspeculation_rate(self) -> float:
        """Fraction of all loads that got an incorrect value."""
        return self._frac(self.wrong_raw + self.wrong_rar)

    @property
    def misspeculation_raw(self) -> float:
        return self._frac(self.wrong_raw)

    @property
    def misspeculation_rar(self) -> float:
        return self._frac(self.wrong_rar)

    def as_dict(self) -> dict:
        """Counters plus derived rates, JSON-able.

        The serving layer (:mod:`repro.serve`) reports per-session
        accuracy over the wire through this one shape, so clients and the
        offline experiments read the same field names.
        """
        return {
            "loads": self.loads,
            "correct_raw": self.correct_raw,
            "correct_rar": self.correct_rar,
            "wrong_raw": self.wrong_raw,
            "wrong_rar": self.wrong_rar,
            "coverage": self.coverage,
            "misspeculation_rate": self.misspeculation_rate,
        }


class CloakingEngine:
    """A complete cloaking/bypassing prediction mechanism.

    Drive it with :meth:`observe` per committed instruction (it returns the
    :class:`LoadOutcome` for loads), or :meth:`run` over a whole trace.
    """

    def __init__(self, config: CloakingConfig = CloakingConfig()) -> None:
        self.config = config
        self.ddt = DDT(config.ddt)
        self.dpnt = DPNT(config.dpnt_entries, config.dpnt_ways, config.confidence)
        self.sf = SynonymFile(config.sf_entries, config.sf_ways)
        self.synonyms = SynonymAllocator(MergePolicy(config.merge_policy))
        self.stats = CloakingStats()
        self._uses_raw = config.mode.uses_raw
        self._uses_rar = config.mode.uses_rar
        self._check_size = config.check_size_mismatch

    # -- per-instruction streaming interface --------------------------------

    def observe(self, inst: DynInst) -> Optional[LoadOutcome]:
        """Account one committed instruction; returns the outcome for loads."""
        cls = inst.opclass
        if cls == _STORE:
            self._observe_store(inst)
            return None
        if cls != _LOAD:
            return None
        return self._observe_load(inst).outcome

    def observe_timing(self, inst: DynInst) -> Optional[ObservedAccess]:
        """Like :meth:`observe`, with synonym detail for the timing model."""
        cls = inst.opclass
        if cls == _STORE:
            produced = self._observe_store(inst)
            if produced is None:
                return _UNTOUCHED
            return ObservedAccess(_NOT_PREDICTED, None, produced)
        if cls != _LOAD:
            return None
        return self._observe_load(inst)

    def run(self, trace: Iterable[DynInst]) -> CloakingStats:
        """Consume a whole trace; returns the accumulated statistics."""
        for inst in trace:
            self.observe(inst)
        return self.stats

    def describe(self) -> dict:
        """Structure occupancy and naming statistics (diagnostics).

        Useful for sizing studies: how many static instructions carry
        prediction state, how many synonym groups exist, and how much
        merging the dependence stream forced.
        """
        entries = list(self.dpnt.entries())
        producers = sum(1 for _, e in entries if e.producer is not None)
        consumers = sum(1 for _, e in entries if e.consumer is not None)
        return {
            "mode": self.config.mode.value,
            "dpnt_entries": len(entries),
            "producer_entries": producers,
            "consumer_entries": consumers,
            "synonyms_allocated": self.synonyms.allocated,
            "synonym_merges": self.synonyms.merges,
            "sf_allocations": self.sf.allocations,
            "ddt_raw_detected": self.ddt.raw_detected,
            "ddt_rar_detected": self.ddt.rar_detected,
        }

    # -- internals -----------------------------------------------------------

    def _observe_store(self, inst: DynInst) -> Optional[int]:
        produced: Optional[int] = None
        if self._uses_raw:
            entry = self.dpnt.lookup(inst.pc)
            if entry is not None:
                producer = entry.producer
                if producer is not None and producer.predict:
                    self.sf.deposit(entry.synonym, inst.value,
                                    from_store=True, size=inst.size)
                    produced = entry.synonym
        self.ddt.observe_store(inst.pc, inst.word_addr)
        return produced

    def _observe_load(self, inst: DynInst) -> ObservedAccess:
        pc = inst.pc
        stats = self.stats
        stats.loads += 1
        entry = self.dpnt.lookup(pc)
        outcome = _NOT_PREDICTED
        consumed: Optional[int] = None
        produced: Optional[int] = None
        spec_value: object = None

        if entry is not None:
            # 1. Consumer prediction: obtain a speculative value via the
            #    synonym.  The prediction is always *made and verified* when
            #    a value is available, but it is *used* (propagated to
            #    dependent instructions) only when confidence is above
            #    threshold — this is how the 2-bit automaton can require
            #    "two correct predictions before allowing a predicted value
            #    to be used again" (Section 5.3): the two rebuilding
            #    predictions are verified silently.
            consumer = entry.consumer
            if consumer is not None:
                sf_entry = self.sf.probe(entry.synonym)
                # Cross-size communication is undefined (a byte cannot name
                # a word's value); with explicit support enabled the
                # consumer abstains instead of misspeculating.
                if sf_entry is not None and sf_entry.full and not (
                        self._check_size and sf_entry.size != inst.size):
                    use_value = consumer.predict
                    correct = sf_entry.value == inst.value
                    if correct:
                        consumer.on_correct()
                    else:
                        consumer.on_wrong()
                    if use_value:
                        consumed = entry.synonym
                        spec_value = sf_entry.value
                        if correct:
                            if sf_entry.from_store:
                                outcome = _CORRECT_RAW
                                stats.correct_raw += 1
                            else:
                                outcome = _CORRECT_RAR
                                stats.correct_rar += 1
                        elif sf_entry.from_store:
                            outcome = _WRONG_RAW
                            stats.wrong_raw += 1
                        else:
                            outcome = _WRONG_RAR
                            stats.wrong_rar += 1

            # 2. Producer deposit: the earliest load of a RAR group
            #    publishes the value it read (RAR groups only exist when the
            #    mode allows).
            if self._uses_rar:
                producer = entry.producer
                if producer is not None and producer.predict:
                    self.sf.deposit(entry.synonym, inst.value,
                                    from_store=False, size=inst.size)
                    produced = entry.synonym

        # 3/4. Detection and naming, for the dependence classes the mode uses.
        dep = self.ddt.observe_load(pc, inst.word_addr)
        if dep is not None and (self._uses_raw if dep.kind is _RAW
                                else self._uses_rar):
            self._note_dependence(dep)

        if consumed is None and produced is None:
            return _UNTOUCHED
        return ObservedAccess(outcome, consumed, produced, spec_value)

    def _note_dependence(self, dep: Dependence) -> None:
        """Create/merge naming state for a detected dependence and train."""
        source_entry = self.dpnt.lookup(dep.source_pc)
        sink_entry = self.dpnt.lookup(dep.sink_pc)

        if source_entry is None and sink_entry is None:
            synonym = self.synonyms.fresh()
            source_entry = self.dpnt.ensure(dep.source_pc, synonym)
            # Self-RAR (source == sink) must reuse the same entry.
            sink_entry = self.dpnt.ensure(dep.sink_pc, synonym)
        elif source_entry is None:
            source_entry = self.dpnt.ensure(dep.source_pc, sink_entry.synonym)
        elif sink_entry is None:
            sink_entry = self.dpnt.ensure(dep.sink_pc, source_entry.synonym)
        elif source_entry.synonym != sink_entry.synonym:
            old_source, old_sink = source_entry.synonym, sink_entry.synonym
            new_source, new_sink = self.synonyms.merge(old_source, old_sink)
            if self.synonyms.policy == MergePolicy.FULL:
                loser = max(old_source, old_sink)
                self.dpnt.rewrite_synonym(loser, min(old_source, old_sink))
            source_entry.synonym = new_source
            sink_entry.synonym = new_sink

        # Role predictors are created at the confidence threshold, so both
        # instructions can participate "as soon as a dependence is detected".
        # Consumer confidence is trained exclusively by prediction outcomes
        # (step 1); detection alone must not re-enable a misbehaving entry.
        producer = self.dpnt.mark_producer(source_entry)
        producer.on_detect()
        self.dpnt.mark_consumer(sink_entry)
