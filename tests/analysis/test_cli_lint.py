"""CLI plumbing tests for the ``repro lint`` verb."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


@pytest.fixture()
def bad_tree(tmp_path):
    target = tmp_path / "src" / "repro" / "simulation"
    target.mkdir(parents=True)
    (target / "mod.py").write_text("import time\nstamp = time.time()\n")
    return tmp_path


def test_lint_clean_tree_exits_zero(tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "simulation"
    target.mkdir(parents=True)
    (target / "mod.py").write_text("import time\nstart = time.monotonic()\n")
    assert main(["lint", str(tmp_path)]) == 0
    assert "clean: 1 files scanned" in capsys.readouterr().out


def test_lint_findings_exit_one_text(bad_tree, capsys):
    assert main(["lint", str(bad_tree)]) == 1
    out = capsys.readouterr().out
    assert "REP102" in out and "mod.py:2:9" in out


def test_lint_json_format(bad_tree, capsys):
    assert main(["lint", str(bad_tree), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"][0]["rule"] == "REP102"


def test_lint_github_format(bad_tree, capsys):
    assert main(["lint", str(bad_tree), "--format", "github"]) == 1
    assert capsys.readouterr().out.startswith("::error file=")


def test_lint_ignore_silences_rule(bad_tree, capsys):
    assert main(["lint", str(bad_tree), "--ignore", "REP102"]) == 0
    assert "clean" in capsys.readouterr().out


def test_lint_select_other_family(bad_tree, capsys):
    assert main(["lint", str(bad_tree), "--select", "REP6"]) == 0


def test_lint_unknown_select_exits_two(bad_tree, capsys):
    assert main(["lint", str(bad_tree), "--select", "REP9"]) == 2
    assert "matches no registered rule" in capsys.readouterr().err


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("REP101", "REP201", "REP301", "REP501", "REP601"):
        assert rule_id in out


def test_lint_single_file_argument(bad_tree, capsys):
    target = bad_tree / "src" / "repro" / "simulation" / "mod.py"
    assert main(["lint", str(target)]) == 1
    assert "REP102" in capsys.readouterr().out
