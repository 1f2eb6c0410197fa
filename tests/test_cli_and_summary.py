"""Tests for the CLI entry point, the summary runner and the extension
experiment harnesses."""

import pytest

from repro.__main__ import main as cli_main
from repro.experiments import ext_distance, ext_hybrid, ext_predictors, summary
from repro.harness.api import run_artefacts


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "summary" in out

    def test_no_args_prints_usage(self, capsys):
        assert cli_main([]) == 0
        assert "usage" in capsys.readouterr().out

    def test_unknown_artefact(self, capsys):
        assert cli_main(["fig99"]) == 2
        assert "unknown artefact" in capsys.readouterr().err

    def test_runs_an_experiment(self, capsys):
        assert cli_main(["fig5", "--scale", "0.01", "--workloads", "li"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_all_aliases_summary(self, capsys):
        # tiny subset so the full pipeline sweep stays fast
        assert cli_main(["all", "--scale", "0.01", "--workloads", "com"]) == 0
        out = capsys.readouterr().out
        assert "HEADLINE" in out
        assert "Table 5.1" in out and "Figure 10" in out


class TestSummary:
    def test_sections_cover_every_artefact(self):
        outcome = run_artefacts(summary.requests(0.01), ["li"])
        text = "\n".join(summary.compose_sections(outcome))
        for title in ("Table 5.1", "Figure 2", "Figure 5", "Figure 6",
                      "Figure 7", "Table 5.2", "Figure 9", "Figure 10",
                      "Extension"):
            assert title in text
        assert "HEADLINE" in text


class TestExtensionHarnesses:
    def test_ext_hybrid_rows(self):
        rows = ext_hybrid.run(scale=0.02, workloads=["com", "hyd"])
        assert len(rows) == 2
        for row in rows:
            assert row.hybrid_coverage >= row.cloaking_coverage - 0.01
        assert "hybrid" in ext_hybrid.render(rows)

    def test_ext_distance_rows(self):
        rows = ext_distance.run(scale=0.02, workloads=["fp*", "li"])
        fpp = next(r for r in rows if r.abbrev == "fp*")
        # the fpppp design: RAW beyond 128, RAR within
        assert fpp.raw_within[1] < 0.1      # RAW<128
        assert fpp.rar_within[1] > 0.5      # RAR<128
        assert fpp.rescued_distant_raw > 0
        assert "rescued" in ext_distance.render(rows)

    def test_ext_predictors_rows(self):
        rows = ext_predictors.run(scale=0.02, workloads=["com"])
        row = rows[0]
        # compress's coder state counts monotonically: stride beats
        # last-value, and cloaking still finds loads stride cannot
        assert row.stride_correct >= row.last_value_correct
        assert row.cloak_only_vs_stride > 0
        assert "stride" in ext_predictors.render(rows)
