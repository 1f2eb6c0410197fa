"""Tests for the experiment harnesses (structure and rendering)."""

import pytest

from repro.__main__ import main as cli_main
from repro.dependence.ddt import DDT
from repro.experiments import fig2, fig5, fig6, fig7, fig9, fig10, table51, table52

SUBSET = ["li", "com", "swm"]
SCALE = 0.02


class TestTable51:
    def test_rows_and_render(self):
        rows = table51.run(scale=SCALE, workloads=SUBSET)
        assert [r.abbrev for r in rows] == SUBSET
        for row in rows:
            assert row.instructions > 0
            assert 0 < row.load_fraction < 1
        text = table51.render(rows)
        assert "130.li" in text and "Loads" in text

    def test_paper_reference_complete(self):
        from repro.workloads import all_workloads
        for workload in all_workloads():
            assert workload.abbrev in table51.PAPER_TABLE51


class TestFig2:
    def test_two_windows_per_workload(self):
        rows = fig2.run(scale=SCALE, workloads=SUBSET)
        assert len(rows) == 2 * len(SUBSET)
        for row in rows:
            assert len(row.locality) == 4
            assert all(0.0 <= v <= 1.0 for v in row.locality)
            assert row.locality == sorted(row.locality)  # monotone in n
        assert "Figure 2" in fig2.render(rows)

    def test_locality_is_high_for_li(self):
        rows = [r for r in fig2.run(scale=SCALE, workloads=["li"])
                if r.window == "infinite"]
        assert rows[0].locality[3] > 0.7  # the paper's >70% claim


class TestFig5:
    def test_sweep_structure(self):
        rows = fig5.run(scale=SCALE, workloads=["com"], sizes=(32, 128, 512))
        assert len(rows) == 3
        assert [r.ddt_size for r in rows] == [32, 128, 512]
        totals = [r.total for r in rows]
        # visibility is (weakly) monotone in DDT size for a RAW-heavy code
        assert totals == sorted(totals)
        assert "DDT" in fig5.render(rows)

    def test_builds_no_ddt(self, monkeypatch):
        """The reference cell derives every size from one LRU stack
        (``LRUStackProfiler``) instead of replaying one DDT per size."""
        built = []
        original = DDT.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)
        monkeypatch.setattr(DDT, "__init__", counting_init)
        rows = fig5.run(scale=SCALE, workloads=["li"])
        assert [row.ddt_size for row in rows] == list(fig5.DDT_SIZES)
        assert built == []


class TestFig6:
    def test_both_confidence_mechanisms(self):
        rows = fig6.run(scale=SCALE, workloads=SUBSET)
        assert len(rows) == 2 * len(SUBSET)
        adaptive = [r for r in rows if "2-bit" in r.confidence]
        one_bit = [r for r in rows if "1-bit" in r.confidence]
        # non-adaptive coverage bounds adaptive coverage from above
        for a, o in zip(adaptive, one_bit):
            assert o.coverage >= a.coverage - 1e-9
            assert a.misspeculation <= o.misspeculation + 1e-9
        assert "coverage" in fig6.render(rows)


class TestFig7:
    def test_breakdowns_are_fractions(self):
        rows = fig7.run(scale=SCALE, workloads=SUBSET)
        for row in rows:
            assert 0.0 <= row.address_locality <= 1.0
            assert 0.0 <= row.value_locality <= 1.0
            assert 0.0 <= row.coverage <= 1.0
        text = fig7.render(rows)
        assert "Figure 7(a)" in text and "Figure 7(b)" in text


class TestTable52:
    def test_overlap_accounting(self):
        rows = table52.run(scale=SCALE, workloads=SUBSET)
        for row in rows:
            total_buckets = (row.cloak_only_raw + row.cloak_only_rar
                             + row.vp_only + row.both)
            assert total_buckets <= row.loads
        assert "VP-only" in table52.render(rows)

    def test_com_is_cloak_favoured(self):
        """Compress's hash-table RAW chains defeat a last-value predictor."""
        row = table52.run(scale=0.05, workloads=["com"])[0]
        assert row.cloak_only_total > row.frac(row.vp_only)


class TestFig9:
    def test_four_configs_per_workload(self):
        rows = fig9.run(scale=SCALE, workloads=["com"])
        assert set(rows[0].speedups) == {
            "selective/RAW", "selective/RAW+RAR", "squash/RAW",
            "squash/RAW+RAR",
        }
        assert rows[0].base_ipc > 0
        assert "Figure 9" in fig9.render(rows)

    @pytest.mark.parametrize("abbrev", ["li", "tom", "gcc"])
    def test_recovery_policies_see_one_engine_stream(self, abbrev,
                                                     monkeypatch):
        """What sharing one engine between a mode's selective and squash
        machines would need (they do not share one): in fig9's pass both
        get equal ``observe_timing`` streams and ``CloakingStats``, and
        all five machines count the same branches and mispredictions."""
        machines = []

        class RecordedBase(fig9.Processor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                machines.append(self)

        class Recorded(fig9.CloakedProcessor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                machines.append(self)
                self.observed = []
                observe_timing = self.engine.observe_timing

                def record(inst):
                    observed = observe_timing(inst)
                    self.observed.append(observed)
                    return observed
                self.engine.observe_timing = record
        monkeypatch.setattr(fig9, "Processor", RecordedBase)
        monkeypatch.setattr(fig9, "CloakedProcessor", Recorded)
        fig9.run(scale=0.05, workloads=[abbrev])

        base, *cloaked = machines
        assert isinstance(base, RecordedBase) and len(cloaked) == 4
        by_label = dict(zip([label for label, _, _ in fig9.CONFIGS], cloaked))
        for mode in ("RAW", "RAW+RAR"):
            selective = by_label[f"selective/{mode}"]
            squash = by_label[f"squash/{mode}"]
            assert selective.observed == squash.observed
            assert selective.engine.stats == squash.engine.stats
        assert any(access is not None and access.outcome.speculated
                   for access in by_label["selective/RAW+RAR"].observed)
        counts = {(machine.result.branches, machine.result.branch_mispredicts)
                  for machine in machines}
        assert len(counts) == 1
        (branches, mispredicts), = counts
        assert branches > mispredicts > 0

    def test_summary_structure(self):
        rows = fig9.run(scale=SCALE, workloads=["com", "swm"])
        summary = fig9.summarize(rows)
        assert "selective/RAW+RAR" in summary
        assert set(summary["selective/RAW"]) == {"INT", "FP", "ALL"}


class TestFig10:
    def test_two_configs_per_workload(self):
        rows = fig10.run(scale=SCALE, workloads=["com"])
        assert set(rows[0].speedups) == {"RAW", "RAW+RAR"}
        assert "Figure 10" in fig10.render(rows)


class TestCLI:
    @pytest.mark.parametrize("module", [table51, fig2, fig5, fig6, fig7,
                                        table52])
    def test_main_runs(self, module, capsys):
        name = module.__name__.rsplit(".", 1)[1]
        assert cli_main([name, "--scale", "0.01", "--workloads", "li"]) == 0
        assert capsys.readouterr().out.strip()
