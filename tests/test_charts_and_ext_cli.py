"""Tests for chart renderers and the extension harness CLIs."""

import pytest

from repro.__main__ import main as cli_main
from repro.experiments import ext_distance, ext_hybrid, ext_predictors
from repro.experiments import fig2, fig5, fig6


class TestChartRenderers:
    def test_fig2_chart(self):
        rows = fig2.run(scale=0.01, workloads=["li", "swm"])
        chart = fig2.render_chart(rows)
        assert "locality" in chart
        assert chart.count("|") >= 8  # two bars per program, two delimiters

    def test_fig5_chart(self):
        rows = fig5.run(scale=0.01, workloads=["li"], sizes=(32, 128))
        chart = fig5.render_chart(rows, ddt_size=128)
        assert "DDT 128" in chart
        assert "RAW" in chart and "RAR" in chart

    def test_fig6_chart(self):
        rows = fig6.run(scale=0.01, workloads=["li"])
        chart = fig6.render_chart(rows)
        assert "2-bit adaptive" in chart
        assert "#" in chart

    def test_chart_flag_via_main(self, capsys):
        assert cli_main(["fig5", "--scale", "0.01", "--workloads", "li",
                         "--chart"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5 (DDT 128)" in out


class TestExtensionCLIs:
    @pytest.mark.parametrize("module", [ext_hybrid, ext_distance,
                                        ext_predictors])
    def test_main_runs(self, module, capsys):
        name = module.__name__.rsplit(".", 1)[1]
        assert cli_main([name, "--scale", "0.01", "--workloads", "li"]) == 0
        assert capsys.readouterr().out.strip()

    def test_report_card_main(self, capsys):
        assert cli_main(["report_card", "--scale", "0.02",
                         "--workloads", "li", "com", "swm", "aps"]) == 0
        out = capsys.readouterr().out
        assert "criteria PASS" in out
