"""Integration tests: sampling + cloaked processor + engine diagnostics."""

from types import SimpleNamespace

import pytest

from repro.core import CloakingConfig
from repro.experiments import fig9
from repro.isa.instructions import OpClass
from repro.pipeline import CloakedProcessor, Processor, ProcessorConfig
from repro.trace.records import DynInst
from repro.trace.sampling import SamplingPlan
from repro.workloads import get_workload

NO_WINDOW_PLAN = SamplingPlan(1, 2, observation=500)


class CountingTrace:
    """3000 ALU records that count how many have been read so far."""

    def __init__(self, count=3000):
        self.count = count
        self.yielded = 0

    def __iter__(self):
        for index in range(self.count):
            self.yielded += 1
            yield DynInst(index, 0x1000 + 4 * (index % 8), OpClass.IALU,
                          rd=1 + index % 8)

    def lag(self, inst):
        """Records read ahead of the one being fed (1 when streaming)."""
        return self.yielded - inst.index


class TestSampledCloakedRuns:
    def test_sampled_cloaked_run_completes(self, com_trace):
        plan = SamplingPlan(1, 2, observation=500)
        processor = CloakedProcessor(cloaking=CloakingConfig.paper_timing())
        result = processor.run(iter(com_trace), sampling=plan)
        assert result.instructions == len(com_trace)
        assert 0 < result.timing_instructions < len(com_trace)
        # the engine observed the whole stream, not just timing segments
        mem_ops = sum(1 for t in com_trace if t.is_mem)
        stats = processor.engine.stats
        assert stats.loads == sum(1 for t in com_trace if t.is_load)

    def test_sampled_speedup_close_to_full(self):
        """The paper: accuracy with sampling was 'very close, often
        identical'.  Our timing analogue: the measured speedup with a 1:2
        plan must approximate the unsampled speedup."""
        workload = get_workload("com")
        trace = list(workload.trace(scale=0.15))
        plan = SamplingPlan(1, 2, observation=2000)

        def speedup(sampling):
            base = Processor()
            cloaked = CloakedProcessor(cloaking=CloakingConfig.paper_timing())
            base.run(iter(trace), sampling=sampling)
            cloaked.run(iter(trace), sampling=sampling)
            return (cloaked.finalize("com")
                    .speedup_over(base.finalize("com")))

        full = speedup(None)
        sampled = speedup(plan)
        assert sampled == pytest.approx(full, abs=0.04)

    def test_sampled_engine_accuracy_close_to_full(self, com_trace):
        """Functional-mode warm-up keeps prediction state continuous, so
        coverage is identical whether or not timing is sampled."""
        plan = SamplingPlan(1, 3, observation=400)
        sampled = CloakedProcessor(cloaking=CloakingConfig.paper_timing())
        sampled.run(iter(com_trace), sampling=plan)
        unsampled = CloakedProcessor(cloaking=CloakingConfig.paper_timing())
        unsampled.run(iter(com_trace))
        assert sampled.engine.stats.coverage == pytest.approx(
            unsampled.engine.stats.coverage, abs=0.01)


class TestNoWindowHeld:
    """A sampled driver reads one record ahead of the machines, never a
    whole timing or functional window."""

    def test_processor_run_streams(self):
        trace = CountingTrace()

        class LagRecorder(Processor):
            def __init__(self):
                super().__init__()
                self.lags = []

            def feed(self, inst, timing=True):
                self.lags.append(trace.lag(inst))
                super().feed(inst, timing)

        machine = LagRecorder()
        result = machine.run(trace, sampling=NO_WINDOW_PLAN)
        assert len(machine.lags) == 3000
        assert max(machine.lags) == 1
        assert result.timing_instructions == 1000

    def test_fig9_driver_streams(self, monkeypatch):
        trace = CountingTrace()
        lags = []
        feed = Processor.feed

        def recording_feed(self, inst, timing=True):
            lags.append(trace.lag(inst))
            feed(self, inst, timing)

        monkeypatch.setattr(Processor, "feed", recording_feed)
        workload = SimpleNamespace(
            abbrev="stub", category="int",
            sampling_plan=lambda: NO_WINDOW_PLAN,
            trace=lambda scale: iter(trace))
        fig9._simulate_workload(workload, 1.0, ProcessorConfig())
        assert len(lags) == (1 + len(fig9.CONFIGS)) * 3000
        assert max(lags) == 1


class TestEngineDiagnostics:
    def test_describe_reports_occupancy(self, li_trace):
        from repro.core import CloakingEngine

        engine = CloakingEngine(CloakingConfig.paper_accuracy())
        engine.run(iter(li_trace))
        info = engine.describe()
        assert info["mode"] == "RAW+RAR"
        assert info["dpnt_entries"] > 0
        assert info["producer_entries"] <= info["dpnt_entries"]
        assert info["synonyms_allocated"] > 0
        assert info["ddt_rar_detected"] > 0
