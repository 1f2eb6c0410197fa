"""CLI contract tests for ``python -m repro.staticcheck`` (and aliases).

Pins the exit-status contract (0 clean / 1 findings / 2 usage), the
``--json -`` stream separation (JSON alone on stdout, human lines on
stderr), and strict mode.
"""

import json
import textwrap

from repro.staticcheck.__main__ import main

CLEAN = """\
    def lookup(table, key):
        return table[key]
    """

ERROR_VIOLATION = """\
    CACHE = {}

    def put(key, value):
        CACHE[key] = value
    """

WARNING_VIOLATION = """\
    def is_half(x):
        return x != 0.5
    """


def project(tmp_path, source, name="mod.py"):
    (tmp_path / name).write_text(textwrap.dedent(source))
    return [str(tmp_path), "--root", str(tmp_path)]


def test_clean_tree_exits_zero(tmp_path, capsys):
    assert main(project(tmp_path, CLEAN)) == 0
    assert "clean" in capsys.readouterr().out


def test_seeded_error_exits_one(tmp_path, capsys):
    assert main(project(tmp_path, ERROR_VIOLATION)) == 1
    out = capsys.readouterr().out
    assert "FS101" in out and "mod.py:1" in out


def test_warnings_fail_only_under_strict(tmp_path):
    argv = project(tmp_path, WARNING_VIOLATION)
    assert main(argv) == 0
    assert main(argv + ["--strict"]) == 1


def test_bad_path_exits_two(tmp_path, capsys):
    assert main([str(tmp_path / "missing.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_rule_filter_exits_two(tmp_path, capsys):
    argv = project(tmp_path, CLEAN) + ["--rule", "ZZ123"]
    assert main(argv) == 2
    assert "unknown staticcheck rule" in capsys.readouterr().err


def test_rule_filter_limits_report(tmp_path, capsys):
    argv = project(tmp_path, ERROR_VIOLATION)
    assert main(argv + ["--rule", "FH101"]) == 0
    assert main(argv + ["--rule", "module-mutable-state"]) == 1


def test_json_dash_separates_streams(tmp_path, capsys):
    argv = project(tmp_path, ERROR_VIOLATION) + ["--json", "-"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)      # stdout is pure JSON
    assert payload["errors"] == 1
    assert payload["findings"][0]["rule"] == "FS101"
    assert payload["schema_version"] >= 1
    assert "registry_version" in payload
    assert "FS101" in captured.err          # human report went to stderr


def test_json_file_output(tmp_path):
    report_path = tmp_path / "report.json"
    argv = project(tmp_path, ERROR_VIOLATION) + ["--json", str(report_path)]
    assert main(argv) == 1
    payload = json.loads(report_path.read_text())
    assert [f["rule"] for f in payload["findings"]] == ["FS101"]


def test_list_rules(tmp_path, capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DT101", "DT301", "FH101", "FS101", "CK101"):
        assert rule_id in out


def test_top_level_alias_dispatches(capsys):
    from repro.__main__ import main as repro_main

    assert repro_main(["staticcheck", "--list-rules"]) == 0
    assert "FS101" in capsys.readouterr().out


def test_repo_tree_is_clean_in_strict_mode(capsys):
    """The shipped tree passes its own gate."""
    assert main(["--strict"]) == 0
    assert "clean" in capsys.readouterr().out
