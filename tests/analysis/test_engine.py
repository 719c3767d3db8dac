"""Engine, reporting and self-scan tests for ``repro.analysis``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    RULE_REGISTRY,
    LintEngine,
    ModuleContext,
    Rule,
    register_rule,
    format_report,
    lint_paths,
    lint_source,
    module_name_for,
    rule_catalogue,
    select_rules,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------- registry


def test_registry_has_all_documented_rules():
    expected = {
        "REP101", "REP102", "REP103", "REP104", "REP201",
        "REP301", "REP302", "REP501", "REP601",
        "REP602", "REP701",
    }
    assert set(RULE_REGISTRY) == expected


def test_registration_refuses_a_rule_without_id_or_name():
    class Nameless(Rule):
        id = "REP999"

    with pytest.raises(ValueError, match="needs non-empty id and name"):
        register_rule(Nameless)
    assert "REP999" not in RULE_REGISTRY


def test_registration_refuses_a_duplicate_id():
    class Impostor(Rule):
        id = "REP101"
        name = "impostor"

    with pytest.raises(ValueError, match="duplicate rule id REP101"):
        register_rule(Impostor)
    assert RULE_REGISTRY["REP101"] is not Impostor


def test_catalogue_rows_are_complete():
    for row in rule_catalogue():
        assert row["id"].startswith("REP")
        assert row["name"]
        assert row["rationale"]


# ---------------------------------------------------------------- module names


@pytest.mark.parametrize(
    "path,expected",
    [
        ("src/repro/rng.py", "repro.rng"),
        ("src/repro/stats/__init__.py", "repro.stats"),
        ("/abs/checkout/src/repro/simulation/snippet.py", "repro.simulation.snippet"),
        ("benchmarks/bench_simulator.py", "benchmarks.bench_simulator"),
        ("standalone.py", "standalone"),
    ],
)
def test_module_name_for(path, expected):
    assert module_name_for(Path(path)) == expected


# ---------------------------------------------------------------- select/ignore


def test_select_family_prefix():
    chosen = {cls.id for cls in select_rules(select=["REP1"])}
    assert chosen == {"REP101", "REP102", "REP103", "REP104"}


def test_ignore_wins_over_select():
    chosen = {cls.id for cls in select_rules(select=["REP1"], ignore=["REP103"])}
    assert chosen == {"REP101", "REP102", "REP104"}


def test_unknown_prefix_raises():
    with pytest.raises(ValueError, match="REP9"):
        select_rules(select=["REP9"])
    with pytest.raises(ValueError, match="ignore"):
        select_rules(ignore=["REP777"])


def test_selected_engine_only_reports_selected_rules():
    source = "import time, random\nx = time.time()\ny = random.random()\n"
    engine = LintEngine(select_rules(select=["REP102"]))
    findings = engine.lint_source(source, Path("src/repro/simulation/snippet.py"))
    assert [f.rule for f in findings] == ["REP102"]


# ---------------------------------------------------------------- REP000


def test_syntax_error_yields_rep000():
    findings = lint_source("def broken(:\n", "src/repro/simulation/broken.py")
    assert [f.rule for f in findings] == ["REP000"]
    assert "does not parse" in findings[0].message


def test_undecodable_file_yields_rep000(tmp_path):
    target = tmp_path / "latin1.py"
    target.write_bytes(b"name = '\xe9'\n")
    report = lint_paths([target])
    assert report.files_scanned == 1
    assert [f.rule for f in report.findings] == ["REP000"]
    assert "file is unreadable" in report.findings[0].message


def test_context_line_is_empty_out_of_range():
    ctx = ModuleContext(path=Path("src/repro/simulation/x.py"), source="a = 1\nb = 2\n", tree=None)
    assert [ctx.line(n) for n in (0, 1, 2, 3)] == ["", "a = 1", "b = 2", ""]


# ---------------------------------------------------------------- tree runs


def test_run_over_directory(tmp_path):
    package = tmp_path / "src" / "repro" / "simulation"
    package.mkdir(parents=True)
    (package / "good.py").write_text("import time\nstart = time.monotonic()\n")
    (package / "bad.py").write_text("import time\nstamp = time.time()\n")
    (package / "__pycache__").mkdir()
    (package / "__pycache__" / "junk.py").write_text("import time\ntime.time()\n")

    report = lint_paths([tmp_path])
    assert report.files_scanned == 2  # __pycache__ skipped
    assert [f.rule for f in report.findings] == ["REP102"]
    assert report.findings[0].path.endswith("bad.py")
    assert report.exit_code() == 1


def test_run_counts_suppressions(tmp_path):
    target = tmp_path / "src" / "repro" / "simulation"
    target.mkdir(parents=True)
    (target / "mod.py").write_text("import time\nt = time.time()  # repro: noqa REP102\n")
    report = lint_paths([tmp_path])
    assert report.clean
    assert report.suppressed == 1
    assert report.exit_code() == 0


# ---------------------------------------------------------------- formatting


def _sample_report(tmp_path):
    target = tmp_path / "src" / "repro" / "simulation"
    target.mkdir(parents=True)
    (target / "mod.py").write_text("import time\nstamp = time.time()\n")
    return lint_paths([tmp_path])


def test_text_format(tmp_path):
    report = _sample_report(tmp_path)
    text = format_report(report, "text")
    assert "mod.py:2:9: REP102" in text
    assert "1 finding in 1 files" in text


def test_json_format(tmp_path):
    report = _sample_report(tmp_path)
    payload = json.loads(format_report(report, "json"))
    assert payload["files_scanned"] == 1
    assert payload["findings"][0]["rule"] == "REP102"
    assert payload["findings"][0]["line"] == 2


def test_github_format(tmp_path):
    report = _sample_report(tmp_path)
    annotation = format_report(report, "github")
    assert annotation.startswith("::error file=")
    assert "line=2" in annotation and "title=REP102" in annotation


def test_unknown_format_raises(tmp_path):
    with pytest.raises(ValueError, match="unknown format"):
        format_report(_sample_report(tmp_path), "xml")


# ---------------------------------------------------------------- self-scan


def test_self_scan_src_is_clean():
    """The repository's own runtime code passes its own linter."""
    report = lint_paths([REPO_ROOT / "src"])
    assert report.files_scanned > 50
    messages = [f"{f.path}:{f.line}: {f.rule} {f.message}" for f in report.findings]
    assert report.clean, "\n".join(messages)
    # The two documented suppressions (rng spawn, report figure seeds).
    assert report.suppressed >= 2


def test_self_scan_benchmarks_is_clean():
    report = lint_paths([REPO_ROOT / "benchmarks"])
    messages = [f"{f.path}:{f.line}: {f.rule} {f.message}" for f in report.findings]
    assert report.clean, "\n".join(messages)
