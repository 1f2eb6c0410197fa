"""Unit tests for the base out-of-order timing model."""

import pytest

from repro.isa.instructions import OpClass
from repro.pipeline import Processor, ProcessorConfig
from repro.pipeline.functional_units import BandwidthLimiter
from repro.trace.records import DynInst
from repro.trace.sampling import SamplingPlan


# Synthetic streams loop over a small PC window (like a real inner loop)
# so that instruction-cache behaviour does not dominate the effect under
# test.  An unbounded PC stream would cold-miss the I-cache on every block.
def _pc(index):
    return 0x1000 + 4 * (index % 64)


def alu(index, pc=None, rd=1, srcs=()):
    return DynInst(index, pc if pc is not None else _pc(index),
                   OpClass.IALU, rd=rd, srcs=srcs)


def load(index, addr, rd=1, srcs=(), pc=None):
    return DynInst(index, pc if pc is not None else _pc(index),
                   OpClass.LOAD, rd=rd, srcs=srcs, addr=addr, value=0)


def store(index, addr, srcs=(2, 3), pc=None):
    return DynInst(index, pc if pc is not None else _pc(index),
                   OpClass.STORE, srcs=srcs, addr=addr, value=0)


def branch(index, taken, pc=None):
    return DynInst(index, pc if pc is not None else _pc(index),
                   OpClass.BRANCH, srcs=(1,), taken=taken, target_pc=0x1000)


class TestBandwidth:
    def test_limiter_spills_to_next_cycle(self):
        limiter = BandwidthLimiter(2)
        assert [limiter.allocate(5) for _ in range(5)] == [5, 5, 6, 6, 7]

    def test_limiter_validation(self):
        with pytest.raises(ValueError):
            BandwidthLimiter(0)

    def test_forget_before_drops_only_older_cycles(self):
        limiter = BandwidthLimiter(1)
        assert [limiter.allocate(c) for c in (3, 3, 7)] == [3, 4, 7]
        limiter.forget_before(4)
        assert sorted(limiter._counts) == [4, 7]
        assert [limiter.allocate(4) for _ in range(3)] == [5, 6, 8]

    def test_counts_stay_bounded_over_a_long_run(self):
        # Each limiter used to keep one count for every cycle it ever
        # allocated; the processor now drops the counts behind dispatch.
        processor = Processor()
        for i in range(60000):
            if i % 4 == 0:
                inst = load(i, 0x8000 + 4 * (i % 4096), rd=2, srcs=(9,))
            elif i % 4 == 1:
                inst = store(i, 0x8000 + 4 * (i % 1024))
            else:
                inst = alu(i, rd=1, srcs=(1,))     # a serial chain
            processor.feed(inst)
        cycles = processor.finalize().cycles
        assert cycles > 25000
        for limiter in (processor._issue, processor._commit_bw,
                        processor.lsq.ports):
            assert len(limiter._counts) <= 5000



class TestConfigValidation:
    @pytest.mark.parametrize("name", [
        "fetch_width", "issue_width", "commit_width", "window_size",
        "frontend_depth", "lsq_size", "lsq_width"])
    def test_widths_and_sizes_must_be_positive(self, name):
        with pytest.raises(ValueError, match=name):
            ProcessorConfig(**{name: 0})

    @pytest.mark.parametrize("name", [
        "operand_read_cycles", "lsq_min_delay", "store_forward_latency",
        "violation_penalty"])
    def test_delays_must_be_non_negative(self, name):
        with pytest.raises(ValueError, match=name):
            ProcessorConfig(**{name: -1})
        ProcessorConfig(**{name: 0})


class TestDataflowTiming:
    def test_independent_stream_reaches_issue_width(self):
        processor = Processor()
        # long enough that cold-start I-cache misses amortize away
        result = processor.run(alu(i, rd=(i % 16) + 1) for i in range(20000))
        assert result.ipc > 6.0

    def test_serial_chain_is_latency_bound(self):
        processor = Processor()
        # every instruction reads the previous one's destination
        result = processor.run(alu(i, rd=1, srcs=(1,)) for i in range(4000))
        assert result.ipc == pytest.approx(1.0, abs=0.05)

    def test_multiply_chain_slower_than_add_chain(self):
        def chain(cls):
            trace = [DynInst(i, _pc(i), cls, rd=1, srcs=(1,))
                     for i in range(2000)]
            return Processor().run(iter(trace)).cycles

        mul_trace = chain(OpClass.IMUL)
        add_trace = chain(OpClass.IALU)
        # latencies are 4 vs 1 cycles; warmup overhead dilutes the ratio
        assert mul_trace > 2.5 * add_trace

    def test_commit_width_bounds_ipc(self):
        config = ProcessorConfig(commit_width=2)
        result = Processor(config).run(
            alu(i, rd=(i % 16) + 1) for i in range(4000))
        assert result.ipc <= 2.01

    def test_window_size_limits_overlap(self):
        """With a serial miss at the head, a small window throttles more."""
        def run(window):
            config = ProcessorConfig(window_size=window)
            trace = []
            for i in range(0, 3000, 3):
                trace.append(load(i, addr=0x100000 + 64 * i, rd=1))
                trace.append(alu(i + 1, rd=2, srcs=(1,)))
                trace.append(alu(i + 2, rd=3, srcs=(2,)))
            return Processor(config).run(iter(trace)).cycles

        assert run(16) > run(128)


class TestBranches:
    def test_mispredicts_cost_cycles(self):
        # Same static branch alternating taken/not-taken at low history
        # correlation... use a pseudo-random pattern instead.
        import random
        rng = random.Random(7)
        pattern = [rng.random() < 0.5 for _ in range(3000)]
        trace_random = [branch(i, taken) for i, taken in enumerate(pattern)]
        trace_stable = [branch(i, True) for i in range(3000)]
        cycles_random = Processor().run(iter(trace_random)).cycles
        cycles_stable = Processor().run(iter(trace_stable)).cycles
        assert cycles_random > cycles_stable * 1.5

    def test_branch_stats_recorded(self):
        result = Processor().run(iter([branch(0, True), branch(1, True)]))
        assert result.branches == 2
        assert 0.0 <= result.branch_accuracy <= 1.0

    def test_call_return_pair_predicts(self):
        trace = []
        for i in range(0, 600, 2):
            pc = 0x1000 + 4 * i
            trace.append(DynInst(i, pc, OpClass.CALL, rd=31, taken=True,
                                 target_pc=0x2000))
            trace.append(DynInst(i + 1, 0x2000, OpClass.RETURN, srcs=(31,),
                                 taken=True, target_pc=pc + 4))
        result = Processor().run(iter(trace))
        assert result.branch_mispredicts == 0


class TestMemoryScheduling:
    def test_store_to_load_forwarding(self):
        """A load after a same-address store gets forwarded data, not the
        (cold, slow) memory value."""
        trace = [store(0, addr=0x2000), load(1, addr=0x2000, rd=1)]
        processor = Processor()
        result = processor.run(iter(trace))
        assert processor.lsq.loads_forwarded == 1
        assert processor.lsq.loads_from_memory == 0

    def test_unrelated_load_goes_to_memory(self):
        trace = [store(0, addr=0x2000), load(1, addr=0x4000, rd=1)]
        processor = Processor()
        processor.run(iter(trace))
        assert processor.lsq.loads_from_memory == 1

    def test_no_speculation_serializes_on_store_addresses(self):
        """Figure 10's base: loads wait for all preceding store addresses.
        A stream of stores (with slow addresses) then loads must run slower
        without memory dependence speculation."""
        def trace():
            out = []
            index = 0
            for i in range(500):
                # slow address generation: a dependent multiply chain
                out.append(DynInst(index, 0x1000, OpClass.IMUL, rd=4,
                                   srcs=(4,))); index += 1
                out.append(store(index, addr=0x2000 + 8 * i, srcs=(4, 3),
                                 pc=0x1004)); index += 1
                out.append(load(index, addr=0x8000 + 8 * i, rd=1,
                                pc=0x1008)); index += 1
                out.append(DynInst(index, 0x100C, OpClass.IALU, rd=2,
                                   srcs=(1,))); index += 1
            return out

        spec = Processor(ProcessorConfig(memory_speculation=True))
        nospec = Processor(ProcessorConfig(memory_speculation=False))
        cycles_spec = spec.run(iter(trace())).cycles
        cycles_nospec = nospec.run(iter(trace())).cycles
        assert cycles_nospec > cycles_spec

    def test_lsq_width_binds_memory_bandwidth(self):
        # a small, warm address pool so cache misses do not dominate
        trace = [load(i, addr=0x2000 + 16 * (i % 32), rd=(i % 8) + 1)
                 for i in range(2000)]
        wide = Processor(ProcessorConfig(lsq_width=8)).run(iter(trace)).cycles
        narrow = Processor(ProcessorConfig(lsq_width=1)).run(iter(trace)).cycles
        assert narrow > wide * 1.5


class TestSampling:
    def test_sampled_run_times_fewer_instructions(self, li_trace):
        plan = SamplingPlan(1, 2, observation=500)
        processor = Processor()
        result = processor.run(iter(li_trace), sampling=plan)
        assert result.instructions == len(li_trace)
        assert result.timing_instructions < len(li_trace)
        assert result.timing_instructions > 0
        assert result.cycles > 0

    def test_sampled_ipc_close_to_full(self, com_trace):
        full = Processor().run(iter(com_trace)).ipc
        sampled = Processor().run(
            iter(com_trace), sampling=SamplingPlan(1, 1, observation=500)).ipc
        assert sampled == pytest.approx(full, rel=0.35)


class TestSimResult:
    def test_speedup_requires_matching_streams(self):
        a = Processor().run(alu(i, rd=1) for i in range(100))
        b = Processor().run(alu(i, rd=1) for i in range(200))
        with pytest.raises(ValueError):
            b.speedup_over(a)

    def test_speedup_identity(self):
        a = Processor().run(alu(i, rd=1) for i in range(100))
        b = Processor().run(alu(i, rd=1) for i in range(100))
        assert b.speedup_over(a) == pytest.approx(1.0)
