"""CLI tests for ``python -m repro.analysis`` and its top-level alias."""

import json

import pytest

from repro.__main__ import main as cli_main
from repro.analysis import REPORT_SCHEMA_VERSION
from repro.analysis.__main__ import JSON_SCHEMA_VERSION
from repro.analysis.__main__ import main as analysis_main


class TestAnalysisCLI:
    def test_single_kernel_clean(self, capsys):
        assert analysis_main(["li", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "li: clean" in out
        assert "1/1 target(s) clean" in out

    def test_suite_strict_exits_zero(self, capsys):
        assert analysis_main(["suite", "--strict", "--scale", "0.05"]) == 0
        assert "18/18 target(s) clean (strict)" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            analysis_main(["--help"])
        assert excinfo.value.code == 0
        assert "suite" in capsys.readouterr().out

    def test_no_targets_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            analysis_main([])
        assert excinfo.value.code == 2

    def test_unknown_kernel_is_a_usage_error(self, capsys):
        assert analysis_main(["nosuchkernel"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_bad_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            analysis_main(["li", "--bogus"])
        assert excinfo.value.code == 2

    def test_dirty_source_file_fails(self, tmp_path, capsys):
        kernel = tmp_path / "spin.s"
        kernel.write_text("loop: j loop\nhalt\n")
        assert analysis_main([str(kernel)]) == 1
        assert "E_NO_HALT" in capsys.readouterr().out

    def test_unassemblable_file_fails(self, tmp_path, capsys):
        kernel = tmp_path / "bad.s"
        kernel.write_text("frobnicate r1\n")
        assert analysis_main([str(kernel)]) == 1
        assert "FAILED TO ASSEMBLE" in capsys.readouterr().out

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert analysis_main([str(tmp_path / "absent.s")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestJsonSchema:
    def test_json_payload_is_stable(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert analysis_main(
            ["li", "gcc", "--scale", "0.05", "--json", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert set(payload) == {
            "schema_version", "scale", "strict", "distances", "clean",
            "programs"}
        assert payload["schema_version"] == JSON_SCHEMA_VERSION
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        assert payload["clean"] is True
        assert [p["name"] for p in payload["programs"]] == ["li", "gcc"]
        for program in payload["programs"]:
            assert set(program) == {
                "schema_version", "name", "instructions", "blocks", "loads",
                "stores", "errors", "warnings", "diagnostics", "rar_pairs",
                "raw_pairs", "addresses",
            }
            assert program["schema_version"] == REPORT_SCHEMA_VERSION
            for pair in program["rar_pairs"]:
                assert len(pair) == 2

    def test_json_to_stdout_is_pure_json(self, capsys):
        # With ``--json -`` stdout must parse as-is; the human-readable
        # summary and diagnostics move to stderr.
        assert analysis_main(["li", "--scale", "0.05", "--json", "-"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["programs"][0]["name"] == "li"
        assert "li: clean" in captured.err
        assert "target(s) clean" in captured.err

    def test_json_to_stdout_keeps_diagnostics_on_stderr(self, tmp_path,
                                                        capsys):
        kernel = tmp_path / "spin.s"
        kernel.write_text("loop: j loop\nhalt\n")
        assert analysis_main([str(kernel), "--json", "-"]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)       # still pure JSON
        assert payload["clean"] is False
        assert "E_NO_HALT" in captured.err

    def test_distances_document(self, capsys):
        assert analysis_main(
            ["li", "--scale", "0.05", "--distances", "--json", "-"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["distances"] is True
        document = payload["programs"][0]["distances"]
        assert set(document) == {
            "footprint_words", "coverage_bound", "coverable",
            "synonym_sets", "pcs",
        }
        assert 0.0 <= document["coverage_bound"] <= 1.0
        for entry in document["pcs"].values():
            assert entry["kind"] in ("load", "store")
            assert "synonym_set" in entry
            if entry["kind"] == "load":
                assert "rar_bound" in entry and "raw_bound" in entry
        sets = document["synonym_sets"]
        members = [pc for s in sets for pc in s["members"]]
        assert sorted(members) == sorted(document["pcs"])  # a partition


class TestTopLevelDispatch:
    def test_analysis_subcommand(self, capsys):
        assert cli_main(["analysis", "li", "--scale", "0.05"]) == 0
        assert "li: clean" in capsys.readouterr().out

    def test_analysis_usage_error_propagates(self, capsys):
        assert cli_main(["analysis", "nosuchkernel"]) == 2

    def test_analysis_help_propagates(self, capsys):
        assert cli_main(["analysis", "--help"]) == 0
        assert "suite" in capsys.readouterr().out
