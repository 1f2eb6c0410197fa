"""Unit tests for trace records, statistics and sampling."""

from itertools import groupby

import pytest

from repro.isa.instructions import OpClass
from repro.trace.records import DynInst
from repro.trace.sampling import SamplingPlan
from repro.trace.stats import TraceStats, collect_stats


def make_trace(n):
    """n instructions alternating IALU / LOAD / STORE / BRANCH."""
    classes = [OpClass.IALU, OpClass.LOAD, OpClass.STORE, OpClass.BRANCH]
    out = []
    for i in range(n):
        cls = classes[i % 4]
        kwargs = {}
        if cls in (OpClass.LOAD, OpClass.STORE):
            kwargs = {"addr": 4 * i, "value": i}
        elif cls == OpClass.BRANCH:
            kwargs = {"taken": True, "target_pc": 0x1000}
        out.append(DynInst(i, 0x1000 + 4 * (i % 8), cls, **kwargs))
    return out


class TestDynInst:
    def test_classification_properties(self):
        ld = DynInst(0, 0x1000, OpClass.LOAD, rd=1, addr=8, value=7)
        st = DynInst(1, 0x1004, OpClass.STORE, addr=8, value=7)
        br = DynInst(2, 0x1008, OpClass.BRANCH, taken=False, target_pc=0x1000)
        alu = DynInst(3, 0x100C, OpClass.IALU, rd=2)
        assert ld.is_load and ld.is_mem and not ld.is_store
        assert st.is_store and st.is_mem and not st.is_load
        assert br.is_control and not br.is_mem
        assert not alu.is_control and not alu.is_mem

    def test_word_addr(self):
        ld = DynInst(0, 0x1000, OpClass.LOAD, addr=0x104, value=0)
        assert ld.word_addr == 0x41
        assert DynInst(0, 0, OpClass.IALU).word_addr is None


class TestTraceStats:
    def test_collect(self):
        stats = collect_stats(make_trace(40))
        assert stats.instructions == 40
        assert stats.loads == 10
        assert stats.stores == 10
        assert stats.load_fraction == pytest.approx(0.25)
        assert stats.branch_fraction == pytest.approx(0.25)

    def test_empty_stats(self):
        stats = TraceStats()
        assert stats.load_fraction == 0.0
        assert stats.branch_fraction == 0.0
        assert stats.fp_fraction == 0.0


class TestSamplingPlan:
    def test_parse(self):
        plan = SamplingPlan.parse("1:2")
        assert plan.timing == 1 and plan.functional == 2
        assert plan.enabled
        assert SamplingPlan.parse("N/A").enabled is False

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan(0, 1)
        with pytest.raises(ValueError):
            SamplingPlan(1, -1)
        with pytest.raises(ValueError):
            SamplingPlan(1, 1, observation=0)

    def test_segments_alternate_and_partition(self):
        plan = SamplingPlan(1, 2, observation=10)
        trace = make_trace(65)
        labelled = list(plan.timed(trace))
        assert [inst for inst, _ in labelled] == trace  # every record, in order
        runs = [(timing, len(list(group)))
                for timing, group in groupby(timing for _, timing in labelled)]
        assert runs == [(True, 10), (False, 20), (True, 10), (False, 20),
                        (True, 5)]

    def test_disabled_plan_yields_single_mode(self):
        plan = SamplingPlan(1, 0, observation=10)
        labelled = list(plan.timed(make_trace(25)))
        assert [inst.index for inst, _ in labelled] == list(range(25))
        assert all(timing for _, timing in labelled)
