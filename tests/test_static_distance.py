"""Tests for the dependence-structure passes (depgraph/distance) and the
suite-wide soundness gate of ``repro.experiments.ext_static_distance``."""

import pytest

from repro.analysis import analyze_program, build_cfg
from repro.analysis.depgraph import word_footprint
from repro.analysis.memdep import AddrDescriptor
from repro.analysis.report import W_DPNT_CONFLICT, W_SF_UNDERSIZED
from repro.core import CloakingConfig
from repro.experiments.ext_static_distance import (
    SoundnessViolation,
    run_one,
)
from repro.experiments.runner import select_workloads
from repro.isa import assemble


LOOP = (
    ".data\nbuf: .word 1, 2, 3, 4, 5, 6, 7, 8\n.text\n"
    "la r1, buf\nli r2, 8\n"
    "loop: lw r3, 0(r1)\naddi r1, r1, 4\naddi r2, r2, -1\n"
    "bne r2, r0, loop\nhalt")


def distances_of(source, name="t"):
    return analyze_program(assemble(source, name=name),
                           distances=True).distances


class TestWordFootprint:
    def test_merges_overlapping_intervals(self):
        a = AddrDescriptor("region", 4, 100, 116)   # words 25..28
        b = AddrDescriptor("region", 4, 108, 124)   # words 27..30
        assert word_footprint([a, b]) == 6          # 25..30

    def test_disjoint_intervals_add(self):
        a = AddrDescriptor("exact", 4, 100, 104)
        b = AddrDescriptor("exact", 4, 200, 204)
        assert word_footprint([a, b]) == 2

    def test_unknown_is_unbounded(self):
        assert word_footprint([AddrDescriptor("unknown", 4)]) is None

    def test_empty_is_zero(self):
        assert word_footprint([]) == 0


class TestDepGraph:
    def test_loop_and_affine_summary(self):
        program = assemble(LOOP)
        report = analyze_program(program, distances=True)
        graph = report.distances.graph
        summary = graph.accesses[program.pc_of(2)]
        assert summary.is_load
        assert summary.loop is not None
        assert summary.stride == 4
        assert summary.trips == 8                   # 32-byte region / 4
        assert graph.footprint_words == 8

    def test_straight_line_has_no_loops(self):
        program = assemble(
            ".data\nx: .word 1\n.text\nla r1, x\nlw r2, 0(r1)\nhalt")
        graph = analyze_program(program, distances=True).distances.graph
        assert graph.loops == []
        assert graph.cyclic == set()
        assert graph.accesses[program.pc_of(1)].loop is None

    def test_disjoint_words_split_synonym_sets(self):
        # Two loads of word 'a' share a set; the 'b' load gets its own.
        program = assemble(
            ".data\na: .word 1\nb: .word 3\n.text\n"
            "la r1, a\nlw r2, 0(r1)\nlw r3, 0(r1)\n"
            "la r4, b\nlw r5, 0(r4)\nhalt")
        graph = analyze_program(program, distances=True).distances.graph
        a0, a1, b0 = (program.pc_of(i) for i in (1, 2, 4))
        assert graph.set_of(a0) == graph.set_of(a1)
        assert graph.set_of(a0) != graph.set_of(b0)
        assert len(graph.synonym_sets) == 2
        generations = {s.sid: s.generations for s in graph.synonym_sets}
        assert generations[graph.set_of(a0)] == 1
        assert generations[graph.set_of(b0)] == 1

    def test_unknown_access_joins_every_set(self):
        program = assemble(
            ".data\np: .word 1048576\nq: .word 7\n.text\n"
            "la r1, p\nlw r2, 0(r1)\nlw r3, 0(r2)\n"
            "la r4, q\nlw r5, 0(r4)\nhalt")
        graph = analyze_program(program, distances=True).distances.graph
        assert len(graph.synonym_sets) == 1
        assert graph.synonym_sets[0].generations is None
        assert graph.footprint_words is None


class TestDistanceBounds:
    def test_straight_line_raw_bound(self):
        dist = distances_of(
            ".data\nacc: .word 0\n.text\n"
            "la r1, acc\nsw r0, 0(r1)\nlw r2, 0(r1)\nhalt")
        program = assemble(
            ".data\nacc: .word 0\n.text\n"
            "la r1, acc\nsw r0, 0(r1)\nlw r2, 0(r1)\nhalt")
        pcd = dist.per_pc[program.pc_of(2)]
        assert pcd.raw_sources == 1
        assert pcd.raw_bound == 1                   # only 'acc' in between
        assert program.pc_of(2) in dist.coverable

    def test_lone_load_is_not_coverable(self):
        # One load, no stores, no loop: no source can ever precede it.
        dist = distances_of(
            ".data\nx: .word 1\n.text\nla r1, x\nlw r2, 0(r1)\nhalt")
        program = assemble(
            ".data\nx: .word 1\n.text\nla r1, x\nlw r2, 0(r1)\nhalt")
        pcd = dist.per_pc[program.pc_of(1)]
        assert pcd.rar_sources == 0 and pcd.raw_sources == 0
        assert pcd.rar_bound == 0 and pcd.raw_bound == 0
        assert dist.coverable == set()
        assert dist.coverage_bound == 0.0

    def test_loop_load_is_its_own_rar_source(self):
        program = assemble(LOOP)
        dist = analyze_program(program, distances=True).distances
        pcd = dist.per_pc[program.pc_of(2)]
        assert pcd.rar_sources == 1
        assert pcd.rar_bound == 8                   # the loop's footprint
        assert dist.coverage_bound == 1.0

    def test_unknown_descriptor_is_unbounded(self):
        dist = distances_of(
            ".data\np: .word 1048576\n.text\n"
            "la r1, p\nlw r2, 0(r1)\nlw r3, 0(r2)\nlw r4, 0(r2)\nhalt")
        bounds = [pcd.rar_bound for pcd in dist.per_pc.values()
                  if pcd.rar_sources]
        assert None in bounds

    def test_render_summary_mentions_footprint(self):
        dist = distances_of(LOOP)
        assert "footprint" in dist.render_summary()
        assert "synonym" in dist.render_summary()


class TestConfigLint:
    def test_undersized_synonym_file_flagged(self):
        report = analyze_program(
            assemble(LOOP), distances=True,
            lint_config=CloakingConfig(sf_entries=4, sf_ways=1))
        assert W_SF_UNDERSIZED in [d.code for d in report.diagnostics]

    def test_paper_timing_config_is_feasible(self):
        report = analyze_program(
            assemble(LOOP), distances=True,
            lint_config=CloakingConfig.paper_timing())
        codes = [d.code for d in report.diagnostics]
        assert W_SF_UNDERSIZED not in codes
        assert W_DPNT_CONFLICT not in codes

    def test_dpnt_conflict_flagged(self):
        # One DPNT set, one way: any kernel with >1 memory PC conflicts.
        program = assemble(
            ".data\nx: .word 1\n.text\n"
            "la r1, x\nlw r2, 0(r1)\nlw r3, 0(r1)\nhalt")
        report = analyze_program(
            program, distances=True,
            lint_config=CloakingConfig(dpnt_entries=1, dpnt_ways=1))
        assert W_DPNT_CONFLICT in [d.code for d in report.diagnostics]

    def test_infinite_tables_never_flagged(self):
        report = analyze_program(
            assemble(LOOP), distances=True,
            lint_config=CloakingConfig.paper_accuracy())
        codes = [d.code for d in report.diagnostics]
        assert W_SF_UNDERSIZED not in codes
        assert W_DPNT_CONFLICT not in codes

    def test_dpnt_index_semantics(self):
        config = CloakingConfig.paper_timing()
        assert config.dpnt_sets == 4 * 1024
        assert config.dpnt_index(0x1000) == 0x1000 % (4 * 1024)
        assert CloakingConfig.paper_accuracy().dpnt_index(0x1000) is None


ABBREVS = [w.abbrev for w in select_workloads()]


class TestSoundnessGate:
    """The acceptance gate: replay every kernel at scale 0.25 and require
    zero dynamic observations outside the static may-sets/bounds."""

    @pytest.mark.parametrize("abbrev", ABBREVS)
    def test_kernel_is_sound(self, abbrev):
        rows = run_one(abbrev, scale=0.25)   # raises SoundnessViolation
        (row,) = rows
        assert row.violation_count == 0
        assert row.detected_fraction <= row.coverage_bound + 1e-12
        assert row.rar_pair_inflation >= 1.0 or row.dyn_rar == 0
        assert row.raw_pair_inflation >= 1.0 or row.dyn_raw == 0

    def test_pointer_chasing_kernels_have_dynamic_rar_pairs(self):
        """The pair checks above hold vacuously on a replay that detects
        no RAR pair at all."""
        for abbrev in ("li", "gcc", "per"):
            (row,) = run_one(abbrev, scale=0.25)
            assert row.dyn_rar > 0, f"{abbrev}: no dynamic RAR pairs?"

    def test_violations_raise(self, monkeypatch):
        import repro.experiments.ext_static_distance as mod

        real_replay = mod._replay

        def broken_replay(trace, report, violations):
            violations.add("pair", kind="rar", source="0x0", sink="0x4")
            return real_replay(trace, report, violations)

        monkeypatch.setattr(mod, "_replay", broken_replay)
        with pytest.raises(SoundnessViolation) as excinfo:
            run_one("li", scale=0.05)
        assert "outside the static may-set/bounds" in str(excinfo.value)
