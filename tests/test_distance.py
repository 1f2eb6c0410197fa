"""Tests for the dependence distance analysis."""

import pytest

from repro.dependence.distance import (
    DependenceDistanceAnalysis,
    DistanceHistogram,
    RecencyRanker,
)
from repro.isa.instructions import OpClass
from repro.trace.records import DynInst
from repro.workloads import get_workload


def load(index, pc, addr):
    return DynInst(index, pc, OpClass.LOAD, rd=1, addr=addr, value=0)


def store(index, pc, addr):
    return DynInst(index, pc, OpClass.STORE, srcs=(9, 8), addr=addr, value=0)


class TestRecencyRanker:
    def test_first_touch_returns_none(self):
        ranker = RecencyRanker()
        assert ranker.touch(5) is None

    def test_immediate_retouch_rank_zero(self):
        ranker = RecencyRanker()
        ranker.touch(5)
        assert ranker.touch(5) == 0

    def test_rank_counts_unique_intervening(self):
        ranker = RecencyRanker()
        ranker.touch(1)
        ranker.touch(2)
        ranker.touch(3)
        ranker.touch(2)        # repeats do not add new uniques
        assert ranker.touch(1) == 2  # {2, 3} intervened

    def test_rank_since(self):
        ranker = RecencyRanker()
        ranker.touch(1)
        t = ranker.now
        ranker.touch(2)
        ranker.touch(3)
        ranker.touch(2)
        assert ranker.rank_since(t) == 2


class TestDistanceHistogram:
    def test_power_of_two_bucketing(self):
        hist = DistanceHistogram()
        hist.record(0)
        hist.record(1)
        hist.record(5)
        hist.record(100)
        assert hist.buckets == {1: 1, 2: 1, 8: 1, 128: 1}
        assert hist.total == 4

    def test_fraction_within(self):
        hist = DistanceHistogram()
        for d in (0, 3, 200):
            hist.record(d)
        assert hist.fraction_within(4) == pytest.approx(2 / 3)
        assert hist.fraction_within(256) == 1.0
        assert DistanceHistogram().fraction_within(4) == 0.0

    def test_as_rows_cumulative(self):
        hist = DistanceHistogram()
        for d in (0, 0, 3):
            hist.record(d)
        rows = hist.as_rows()
        assert rows[-1][2] == pytest.approx(1.0)
        assert rows[0] == (1, 2, pytest.approx(2 / 3))


class TestDependenceDistanceAnalysis:
    def test_raw_and_rar_distances(self):
        analysis = DependenceDistanceAnalysis()
        analysis.observe(store(0, pc=1, addr=400))
        analysis.observe(load(1, pc=2, addr=800))    # 1 unique in between
        analysis.observe(load(2, pc=3, addr=400))    # RAW distance 1
        analysis.observe(load(3, pc=4, addr=400))    # RAR distance 0
        assert analysis.raw.total == 1
        assert analysis.raw.buckets == {2: 1}
        assert analysis.rar.total == 1
        assert analysis.rar.buckets == {1: 1}

    def test_distant_raw_rescue_detected(self):
        """A store, then enough unique addresses to push it beyond a small
        window, then two loads: the RAR pair is in reach, the RAW is not."""
        analysis = DependenceDistanceAnalysis(rescue_limit=8)
        analysis.observe(store(0, pc=1, addr=400))
        for i in range(20):
            analysis.observe(load(1 + i, pc=50, addr=4000 + 4 * i))
        analysis.observe(load(30, pc=2, addr=400))   # RAW, distance 20
        analysis.observe(load(31, pc=3, addr=400))   # RAR, distance 0
        assert analysis.rescued_distant_raw == 1
        assert analysis.rescued_no_raw == 0

    def test_pure_sharing_counted_separately(self):
        analysis = DependenceDistanceAnalysis(rescue_limit=8)
        analysis.observe(load(0, pc=1, addr=400))
        analysis.observe(load(1, pc=2, addr=400))
        assert analysis.rescued_no_raw == 1
        assert analysis.rescued_distant_raw == 0

    def test_visibility_prediction_matches_ddt_sweep(self):
        """Total fraction_within(N) over distances ~ an N-entry DDT's
        total visibility.

        The per-kind splits differ by construction (the DDT keeps a store
        as the producer across intervening loads; the distance analysis
        attributes those pairs to the nearest load), so only the combined
        visibility is comparable — and it must land in the same region.
        """
        from repro.dependence import DDTConfig, DependenceProfiler

        trace = list(get_workload("li").trace(scale=0.02))
        analysis = DependenceDistanceAnalysis()
        analysis.run(iter(trace))
        profiler = DependenceProfiler([DDTConfig(size=128)])
        profile = profiler.run(iter(trace))[0]

        loads = profile.loads
        predicted_any = (
            analysis.raw.total * analysis.raw.fraction_within(128)
            + analysis.rar.total * analysis.rar.fraction_within(128)
        ) / loads
        assert predicted_any == pytest.approx(profile.any_fraction, abs=0.12)

    def test_fpppp_rescue_population(self):
        """fp*'s design: in-window RAR, out-of-window RAW (Section 3.1)."""
        analysis = DependenceDistanceAnalysis(rescue_limit=128)
        analysis.run(get_workload("fp*").trace(scale=0.03))
        assert analysis.rescued_distant_raw > 100
