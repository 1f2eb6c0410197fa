"""Tests for the store-set predictor and the LSQ scheduling policies."""

import pytest

from repro.isa.instructions import OpClass
from repro.pipeline import Processor, ProcessorConfig
from repro.pipeline.store_sets import StoreSetPredictor
from repro.trace.records import DynInst


class TestStoreSetPredictor:
    def test_unknown_pcs_have_no_set(self):
        predictor = StoreSetPredictor()
        assert predictor.set_of(0x1000) is None
        assert predictor.load_wait_time(0x1000) == 0

    def test_violation_creates_common_set(self):
        predictor = StoreSetPredictor()
        predictor.train_violation(load_pc=0x1000, store_pc=0x2000)
        assert predictor.set_of(0x1000) == predictor.set_of(0x2000)
        assert predictor.set_of(0x1000) is not None

    def test_set_merging_uses_minimum_id(self):
        predictor = StoreSetPredictor()
        predictor.train_violation(0x1000, 0x2000)   # set 1
        predictor.train_violation(0x3000, 0x4000)   # set 2
        predictor.train_violation(0x1000, 0x4000)   # merge -> min id
        assert predictor.set_of(0x1000) == predictor.set_of(0x4000) == 1

    def test_load_waits_for_set_store(self):
        predictor = StoreSetPredictor()
        predictor.train_violation(0x1000, 0x2000)
        predictor.store_dispatched(0x2000, addr_time=50, forward_ready=55)
        assert predictor.load_wait_time(0x1000) == 50

    def test_partial_membership_adopts_existing_set(self):
        predictor = StoreSetPredictor()
        predictor.train_violation(0x1000, 0x2000)
        predictor.train_violation(0x1000, 0x3000)   # store joins load's set
        assert predictor.set_of(0x3000) == predictor.set_of(0x1000)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            StoreSetPredictor(ssit_entries=100)


def _racy_trace(rounds=300):
    """A store whose address comes off a long-latency chain, followed
    immediately by a load to the same address: the naive policy violates
    every round, store sets learn to wait."""
    trace = []
    index = 0
    for i in range(rounds):
        addr = 0x2000 + 8 * (i % 16)
        # slow address for the store: serial multiply chain in r4
        trace.append(DynInst(index, 0x1000, OpClass.IMUL, rd=4, srcs=(4,)))
        index += 1
        trace.append(DynInst(index, 0x1004, OpClass.STORE, srcs=(4, 3),
                             addr=addr, value=i)); index += 1
        trace.append(DynInst(index, 0x1008, OpClass.LOAD, rd=1, srcs=(9,),
                             addr=addr, value=i)); index += 1
        trace.append(DynInst(index, 0x100C, OpClass.IALU, rd=2, srcs=(1,)))
        index += 1
    return trace


class TestLSQPolicies:
    def test_naive_pays_violations(self):
        processor = Processor(ProcessorConfig(lsq_policy="naive"))
        processor.run(iter(_racy_trace()))
        assert processor.lsq.violations > 100

    def test_store_sets_learn_to_avoid_violations(self):
        processor = Processor(ProcessorConfig(lsq_policy="store_sets"))
        processor.run(iter(_racy_trace()))
        # one (or a few) violations to train, then the set synchronizes
        assert processor.lsq.violations < 10
        assert processor.lsq.store_sets.violations_trained >= 1

    def test_store_sets_beat_naive_on_racy_code(self):
        naive = Processor(ProcessorConfig(lsq_policy="naive"))
        store_sets = Processor(ProcessorConfig(lsq_policy="store_sets"))
        cycles_naive = naive.run(iter(_racy_trace())).cycles
        cycles_ss = store_sets.run(iter(_racy_trace())).cycles
        assert cycles_ss < cycles_naive

    def test_no_speculation_never_violates(self):
        processor = Processor(ProcessorConfig(lsq_policy="no_speculation"))
        processor.run(iter(_racy_trace()))
        assert processor.lsq.violations == 0

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            ProcessorConfig(lsq_policy="psychic")

    def test_naive_close_to_store_sets_on_real_workload(self, com_trace):
        """The paper's Section 5.1 claim: for this window, naive
        speculation performs close to ideal (so close to store sets).
        Our compress stand-in computes store addresses late (hash chains),
        so store sets win a little; "close" here means within 10%."""
        naive = Processor(ProcessorConfig(lsq_policy="naive"))
        store_sets = Processor(ProcessorConfig(lsq_policy="store_sets"))
        cycles_naive = naive.run(iter(com_trace)).cycles
        cycles_ss = store_sets.run(iter(com_trace)).cycles
        assert abs(cycles_naive - cycles_ss) / cycles_naive < 0.10
