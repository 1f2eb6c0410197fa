"""Unit tests for the cloaking/bypassing engine on hand-crafted streams."""

import dataclasses

import pytest

from repro.core import (
    CloakingConfig,
    CloakingEngine,
    CloakingMode,
    LoadOutcome,
)
from repro.dependence.ddt import DDTConfig
from repro.isa.instructions import OpClass
from repro.predictors.confidence import ConfidenceKind
from repro.trace.records import DynInst


def load(index, pc, addr, value):
    return DynInst(index, pc, OpClass.LOAD, rd=1, addr=addr, value=value)


def store(index, pc, addr, value):
    return DynInst(index, pc, OpClass.STORE, addr=addr, value=value)


def engine(mode=CloakingMode.RAW_RAR, confidence=ConfidenceKind.TWO_BIT,
           **kwargs):
    return CloakingEngine(CloakingConfig(
        mode=mode, ddt=DDTConfig(size=None), dpnt_entries=None,
        sf_entries=None, confidence=confidence, **kwargs))


class TestRAWCloaking:
    def test_stable_store_load_pair_is_covered(self):
        """ST X, LD X repeating at moving addresses: after the first
        detection, every subsequent load gets a correct value."""
        eng = engine(mode=CloakingMode.RAW)
        outcomes = []
        for i in range(10):
            addr = 400 + 8 * i
            eng.observe(store(2 * i, pc=100, addr=addr, value=i))
            outcomes.append(eng.observe(load(2 * i + 1, pc=200, addr=addr,
                                             value=i)))
        assert outcomes[0] == LoadOutcome.NOT_PREDICTED
        assert all(o == LoadOutcome.CORRECT_RAW for o in outcomes[2:])
        assert eng.stats.coverage_raw > 0.7
        assert eng.stats.coverage_rar == 0.0

    def test_raw_mode_ignores_rar_dependences(self):
        eng = engine(mode=CloakingMode.RAW)
        for i in range(10):
            eng.observe(load(2 * i, pc=100, addr=400, value=7))
            eng.observe(load(2 * i + 1, pc=200, addr=400, value=7))
        assert eng.stats.coverage == 0.0


class TestRARCloaking:
    def test_figure3_idiom_is_covered(self):
        """Two static loads reading the same (moving) location — the
        paper's foo/bar example — get RAR cloaking coverage."""
        eng = engine()
        outcomes = []
        for i in range(10):
            addr = 400 + 8 * i
            value = 50 + i
            eng.observe(load(2 * i, pc=100, addr=addr, value=value))
            outcomes.append(eng.observe(load(2 * i + 1, pc=200, addr=addr,
                                             value=value)))
        assert all(o == LoadOutcome.CORRECT_RAR for o in outcomes[1:])
        # Source loads are never covered (they produce), so coverage over
        # all loads approaches 50% for this half-sink stream.
        assert eng.stats.coverage_rar > 0.4
        assert eng.stats.coverage_raw == 0.0

    def test_self_rar_read_only_global(self):
        """One static load re-reading a fixed location predicts itself.

        Warm-up takes three executions: the first records in the DDT, the
        second detects the dependence (creating the DPNT entry), the third
        deposits the first SF value; the fourth is the first covered one.
        """
        eng = engine()
        outcomes = [
            eng.observe(load(i, pc=100, addr=400, value=7)) for i in range(6)
        ]
        assert outcomes[0] == LoadOutcome.NOT_PREDICTED
        assert all(o == LoadOutcome.CORRECT_RAR for o in outcomes[3:])

    def test_rar_only_mode_ignores_raw(self):
        eng = engine(mode=CloakingMode.RAR)
        for i in range(10):
            addr = 400 + 8 * i
            eng.observe(store(2 * i, pc=100, addr=addr, value=i))
            eng.observe(load(2 * i + 1, pc=200, addr=addr, value=i))
        assert eng.stats.coverage == 0.0


class TestMisspeculation:
    def test_changing_value_misspeculates_then_adapts(self):
        """A striding self-RAR load whose value changes every execution
        misspeculates at most briefly: the 2-bit automaton shuts it off."""
        eng = engine()
        outcomes = [
            eng.observe(load(i, pc=100, addr=400, value=i)) for i in range(20)
        ]
        wrongs = sum(1 for o in outcomes if o in
                     (LoadOutcome.WRONG_RAR, LoadOutcome.WRONG_RAW))
        assert 1 <= wrongs <= 3
        # Steady state: silent (wrong) verification keeps prediction off.
        assert outcomes[-1] == LoadOutcome.NOT_PREDICTED

    def test_one_bit_never_adapts(self):
        eng = engine(confidence=ConfidenceKind.ONE_BIT)
        outcomes = [
            eng.observe(load(i, pc=100, addr=400, value=i)) for i in range(20)
        ]
        wrongs = sum(1 for o in outcomes if o == LoadOutcome.WRONG_RAR)
        assert wrongs >= 15

    def test_intervening_store_value_verified(self):
        """RAR source deposits, a store changes memory, the sink's actual
        value differs: the engine must count a misspeculation, not a hit."""
        eng = engine()
        # train the (100, 200) RAR pair
        for i in range(3):
            addr = 400 + 8 * i
            eng.observe(load(3 * i, pc=100, addr=addr, value=1))
            eng.observe(load(3 * i + 1, pc=200, addr=addr, value=1))
        # now an intervening store (unknown to the predictor's group)
        eng.observe(load(90, pc=100, addr=480, value=1))
        eng.observe(store(91, pc=300, addr=480, value=2))
        outcome = eng.observe(load(92, pc=200, addr=480, value=2))
        assert outcome == LoadOutcome.WRONG_RAR


class TestStatsAccounting:
    def test_totals_are_consistent(self, li_trace):
        eng = engine()
        stats = eng.run(iter(li_trace))
        loads = sum(1 for t in li_trace if t.is_load)
        assert stats.loads == loads
        assert 0.0 <= stats.coverage <= 1.0
        assert 0.0 <= stats.misspeculation_rate <= 1.0
        assert stats.coverage + stats.misspeculation_rate <= 1.0
        assert stats.coverage == pytest.approx(
            stats.coverage_raw + stats.coverage_rar)

    def test_outcome_properties(self):
        assert LoadOutcome.CORRECT_RAW.speculated
        assert LoadOutcome.CORRECT_RAW.correct
        assert LoadOutcome.WRONG_RAR.speculated
        assert not LoadOutcome.WRONG_RAR.correct
        assert not LoadOutcome.NOT_PREDICTED.speculated


class TestFiniteStructures:
    def test_finite_dpnt_loses_coverage(self):
        """A tiny DPNT evicts associations; coverage drops versus infinite."""
        def run(dpnt_entries, ways):
            eng = CloakingEngine(CloakingConfig(
                mode=CloakingMode.RAW_RAR, ddt=DDTConfig(size=None),
                dpnt_entries=dpnt_entries, dpnt_ways=ways, sf_entries=None))
            for i in range(200):
                pc_pair = 100 + (i % 50) * 8   # 50 distinct pairs
                addr = 4000 + 4 * (i % 50)
                eng.observe(load(2 * i, pc=pc_pair, addr=addr, value=i % 50))
                eng.observe(load(2 * i + 1, pc=pc_pair + 4, addr=addr,
                                 value=i % 50))
            return eng.stats.coverage

        assert run(None, 0) > run(8, 0)

    def test_sf_eviction_suppresses_speculation(self):
        eng = CloakingEngine(CloakingConfig(
            mode=CloakingMode.RAW_RAR, ddt=DDTConfig(size=None),
            dpnt_entries=None, sf_entries=1, sf_ways=0))
        # two interleaved self-RAR loads fight over one SF entry
        outcomes = []
        for i in range(10):
            outcomes.append(eng.observe(load(2 * i, pc=100, addr=400, value=7)))
            outcomes.append(eng.observe(load(2 * i + 1, pc=200, addr=800,
                                             value=9)))
        # with one SF entry at most one stream can be live at a time, so
        # coverage exists but is visibly below the infinite-SF case (~80%)
        covered = sum(1 for o in outcomes if o.correct)
        assert covered < 16

    def test_observe_timing_reports_synonyms(self):
        eng = engine()
        eng.observe(load(0, pc=100, addr=400, value=7))
        eng.observe(load(1, pc=200, addr=400, value=7))
        observed = eng.observe_timing(load(2, pc=100, addr=404, value=8))
        assert observed.producer_synonym is not None
        observed_sink = eng.observe_timing(load(3, pc=200, addr=404, value=8))
        assert observed_sink.outcome == LoadOutcome.CORRECT_RAR
        assert observed_sink.consumer_synonym == observed.producer_synonym


class TestMergePolicies:
    def _cross_group_stream(self, policy):
        eng = CloakingEngine(CloakingConfig(
            mode=CloakingMode.RAW_RAR, ddt=DDTConfig(size=None),
            dpnt_entries=None, sf_entries=None, merge_policy=policy))
        # The paper's Section 5.1 example: ST1 A, LD1 A, ST2 B, LD2 B,
        # then (ST1, LD2) pairs force a merge.
        eng.observe(store(0, pc=10, addr=400, value=1))
        eng.observe(load(1, pc=20, addr=400, value=1))
        eng.observe(store(2, pc=30, addr=800, value=2))
        eng.observe(load(3, pc=40, addr=800, value=2))
        for i in range(8):
            addr = 1200 + 8 * i
            eng.observe(store(4 + 2 * i, pc=10, addr=addr, value=5 + i))
            eng.observe(load(5 + 2 * i, pc=40, addr=addr, value=5 + i))
        return eng

    @pytest.mark.parametrize("policy", ["incremental", "full"])
    def test_merging_policies_converge(self, policy):
        eng = self._cross_group_stream(policy)
        st1 = eng.dpnt.lookup(10)
        ld2 = eng.dpnt.lookup(40)
        assert st1.synonym == ld2.synonym

    def test_never_policy_keeps_groups_apart(self):
        eng = self._cross_group_stream("never")
        assert eng.dpnt.lookup(10).synonym != eng.dpnt.lookup(40).synonym

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            CloakingConfig(merge_policy="bogus")


class TestConfig:
    def test_raw_mode_drops_only_load_recording_from_the_ddt(self):
        ddt = DDTConfig(size=128, ways=4, split=True, record_all_loads=True,
                        touch_on_hit=False)
        config = CloakingConfig(mode=CloakingMode.RAW, ddt=ddt)
        assert config.ddt == dataclasses.replace(ddt, record_loads=False)
        assert config.ddt.ways == 4
