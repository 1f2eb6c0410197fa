"""Tests for the extension features: hybrid predictor and working sets."""

import pytest

from repro.dependence.locality import DependenceWorkingSetAnalysis
from repro.isa.instructions import OpClass
from repro.predictors.hybrid import HybridLoadPredictor, HybridSource
from repro.trace.records import DynInst
from repro.workloads import get_workload


def load(index, pc, addr, value):
    return DynInst(index, pc, OpClass.LOAD, rd=1, addr=addr, value=value)


def store(index, pc, addr, value):
    return DynInst(index, pc, OpClass.STORE, addr=addr, value=value)


class TestHybridPredictor:
    def test_cloaking_takes_priority(self):
        hybrid = HybridLoadPredictor()
        sources = []
        # a stable store->load pair: cloaking covers it
        for i in range(10):
            addr = 400 + 8 * i
            hybrid.observe(store(2 * i, pc=10, addr=addr, value=i))
            sources.append(hybrid.observe(load(2 * i + 1, pc=20, addr=addr,
                                               value=i)))
        assert HybridSource.CLOAKING in sources
        assert hybrid.stats.correct_cloaking > 0

    def test_vp_covers_cloaking_silence(self):
        hybrid = HybridLoadPredictor()
        sources = []
        # a value-stable load with NO visible dependence: fresh address
        # every time (so the DDT never sees a repeat) but a constant value.
        for i in range(12):
            sources.append(hybrid.observe(
                load(i, pc=20, addr=4000 + 4 * i, value=7)))
        assert HybridSource.VALUE_PREDICTOR in sources
        assert hybrid.stats.correct_vp > 0
        assert hybrid.stats.correct_cloaking == 0

    def test_confidence_gates_unstable_values(self):
        hybrid = HybridLoadPredictor()
        wrongs = 0
        for i in range(30):
            source = hybrid.observe(load(i, pc=20, addr=4000 + 4 * i, value=i))
            if source == HybridSource.VALUE_PREDICTOR:
                pass
        # values never repeat: confidence must keep the VP silent
        assert hybrid.stats.wrong_vp <= 2

    def test_hybrid_beats_both_components_on_a_real_workload(self):
        """The synergy claim: hybrid coverage >= each component alone."""
        from repro.core import CloakingConfig, CloakingEngine
        from repro.predictors.value_prediction import LastValuePredictor

        trace = list(get_workload("aps").trace(scale=0.02))
        hybrid = HybridLoadPredictor()
        cloak = CloakingEngine(CloakingConfig.paper_overlap())
        vp = LastValuePredictor()
        vp_correct = loads = 0
        for inst in trace:
            hybrid.observe(inst)
            cloak.observe(inst)
            if inst.is_load:
                loads += 1
                vp_correct += vp.observe(inst.pc, inst.value)
        assert hybrid.stats.coverage >= cloak.stats.coverage - 0.01
        # the VP side has no confidence gate in the baseline; compare to the
        # raw hit rate scaled by a margin for the gating warm-up
        assert hybrid.stats.coverage >= 0.5 * (vp_correct / loads)

    def test_components_count_like_standalone_copies(self):
        """ext_hybrid reports the hybrid's own engine and value predictor
        as the cloaking-alone and VP-alone columns: both must count
        exactly what a standalone engine and predictor would."""
        from dataclasses import asdict

        from repro.core import CloakingConfig, CloakingEngine
        from repro.predictors.value_prediction import LastValuePredictor

        hybrid = HybridLoadPredictor()
        cloak = CloakingEngine(CloakingConfig.paper_overlap())
        vp = LastValuePredictor()
        for inst in get_workload("li").trace(scale=0.05):
            hybrid.observe(inst)
            cloak.observe(inst)
            if inst.is_load:
                vp.observe(inst.pc, inst.value)
        assert asdict(hybrid.engine.stats) == asdict(cloak.stats)
        predictor = hybrid.value_predictor
        assert predictor.predictions == vp.predictions == cloak.stats.loads
        assert predictor.correct == vp.correct > 0

    def test_stats_consistency(self):
        hybrid = HybridLoadPredictor()
        for inst in get_workload("li").trace(scale=0.01):
            hybrid.observe(inst)
        stats = hybrid.stats
        assert stats.coverage + stats.misspeculation_rate <= 1.0
        assert stats.coverage == pytest.approx(
            stats.coverage_cloaking + stats.coverage_vp)

    def test_non_memory_instructions_ignored(self):
        hybrid = HybridLoadPredictor()
        source = hybrid.observe(DynInst(0, 0x1000, OpClass.IALU, rd=1))
        assert source == HybridSource.NONE
        assert hybrid.stats.loads == 0

    def test_stricter_vp_gate_reduces_misspeculation(self):
        """vp_confidence=3 (saturated counter) trades coverage for fewer
        wrong value predictions on value-noisy codes."""
        default_gate = HybridLoadPredictor(vp_confidence=2)
        strict_gate = HybridLoadPredictor(vp_confidence=3)
        for inst in get_workload("go").trace(scale=0.04):
            default_gate.observe(inst)
            strict_gate.observe(inst)
        assert (strict_gate.stats.misspeculation_rate
                < default_gate.stats.misspeculation_rate)
        assert strict_gate.stats.coverage > 0.5 * default_gate.stats.coverage

    def test_vp_gate_validation(self):
        with pytest.raises(ValueError):
            HybridLoadPredictor(vp_confidence=5)


class TestWorkingSetAnalysis:
    def test_single_source_working_set(self):
        analysis = DependenceWorkingSetAnalysis()
        for i in range(10):
            addr = 400 + 8 * i
            analysis.observe(load(2 * i, pc=10, addr=addr, value=0))
            analysis.observe(load(2 * i + 1, pc=20, addr=addr, value=0))
        assert analysis.static_sinks == 1
        assert analysis.working_set_sizes() == [1]
        assert analysis.fraction_with_at_most(1) == 1.0

    def test_two_source_working_set(self):
        analysis = DependenceWorkingSetAnalysis()
        for i in range(10):
            addr = 400 + 8 * i
            source_pc = 10 if i % 2 == 0 else 30
            analysis.observe(load(2 * i, pc=source_pc, addr=addr, value=0))
            analysis.observe(load(2 * i + 1, pc=20, addr=addr, value=0))
        assert 2 in analysis.working_set_sizes()
        assert analysis.fraction_with_at_most(1) < 1.0
        assert analysis.fraction_with_at_most(2) == 1.0

    def test_empty_analysis(self):
        analysis = DependenceWorkingSetAnalysis()
        assert analysis.fraction_with_at_most(4) == 0.0
        assert analysis.working_set_sizes() == []

    def test_real_workloads_have_small_working_sets(self):
        """Section 2: the per-load RAR working set is relatively small."""
        for name in ("li", "swm", "aps"):
            analysis = DependenceWorkingSetAnalysis()
            analysis.run(get_workload(name).trace(scale=0.03))
            assert analysis.static_sinks > 0
            assert analysis.fraction_with_at_most(4) > 0.8, name
