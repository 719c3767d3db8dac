"""The docs drift gate (``tools/check_docs.py``) passes on the live tree and
reports each kind of drift it exists to catch.

The tool is a script, not a package module, so it is loaded by path; the
planted defects live in a temporary tree that the tool's ``REPO`` and
``DOCS_DIR`` are pointed at.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_docs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("check_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tree(tool, tmp_path, monkeypatch):
    """An empty repository layout the tool reads instead of the live one."""
    (tmp_path / "docs").mkdir()
    monkeypatch.setattr(tool, "REPO", str(tmp_path))
    monkeypatch.setattr(tool, "DOCS_DIR", str(tmp_path / "docs"))
    return tmp_path


def problems_of(check):
    problems = []
    check(problems)
    return problems


@pytest.mark.parametrize(
    "check", ["check_cli_docs", "check_spec_docs", "check_links", "check_module_paths"]
)
def test_live_tree_passes(tool, check):
    assert problems_of(getattr(tool, check)) == []


def test_undocumented_flag_reported(tool, monkeypatch):
    surface = tool.collect_cli_surface()
    surface["run"] = surface["run"] | {"--planted-flag"}
    monkeypatch.setattr(tool, "collect_cli_surface", lambda: surface)
    assert problems_of(tool.check_cli_docs) == [
        "docs/cli.md: flag --planted-flag of 'repro run' is undocumented"
    ]


def test_undocumented_spec_field_reported(tool, tree):
    from repro.experiments.pipeline import ExperimentSpec

    live = Path(tool.__file__).resolve().parents[1] / "docs" / "spec-reference.md"
    field = dataclasses.fields(ExperimentSpec)[0].name
    text = live.read_text(encoding="utf-8").replace(f"`{field}`", field)
    (tree / "docs" / "spec-reference.md").write_text(text, encoding="utf-8")
    assert problems_of(tool.check_spec_docs) == [
        f"docs/spec-reference.md: ExperimentSpec field {field!r} is undocumented"
    ]


def test_broken_link_reported(tool, tree):
    (tree / "README.md").write_text("See [the guide](docs/missing.md).\n", encoding="utf-8")
    assert problems_of(tool.check_links) == ["README.md: broken link 'docs/missing.md'"]


def test_missing_anchor_reported(tool, tree):
    (tree / "docs" / "guide.md").write_text("# Guide\n\n## Usage\n", encoding="utf-8")
    (tree / "README.md").write_text(
        "[ok](docs/guide.md#usage) and [gone](docs/guide.md#install)\n", encoding="utf-8"
    )
    assert problems_of(tool.check_links) == [
        "README.md: link 'docs/guide.md#install' points at a missing anchor"
    ]


def test_unknown_module_reported(tool, tree, monkeypatch, capsys):
    (tree / "docs" / "notes.md").write_text("`repro.no_such_module` is gone.\n", encoding="utf-8")
    problem = (
        "docs/notes.md: `repro.no_such_module` does not resolve "
        "(repro has no attribute 'no_such_module')"
    )
    assert problems_of(tool.check_module_paths) == [problem]
    # The gate itself runs the check (and reports the tree's missing pages).
    monkeypatch.setattr(sys, "argv", ["check_docs.py"])
    assert tool.main() == 1
    assert f"DOCS DRIFT: {problem}" in capsys.readouterr().err.splitlines()


def test_unknown_attribute_reported(tool, tree):
    (tree / "README.md").write_text(
        "`repro.rng` holds `repro.rng.RandomStreams`, not `repro.rng.Tracer`.\n",
        encoding="utf-8",
    )
    assert problems_of(tool.check_module_paths) == [
        "README.md: `repro.rng.Tracer` does not resolve "
        "(repro.rng has no attribute 'Tracer')"
    ]


def test_contributing_guide_is_checked(tool, tree):
    (tree / "CONTRIBUTING.md").write_text(
        "Read [the guide](docs/missing.md); `repro.stats.kernel` holds the event loop.\n",
        encoding="utf-8",
    )
    problems = problems_of(tool.check_links) + problems_of(tool.check_module_paths)
    assert problems == [
        "CONTRIBUTING.md: broken link 'docs/missing.md'",
        "CONTRIBUTING.md: `repro.stats.kernel` does not resolve "
        "(repro.stats has no attribute 'kernel')",
    ]


def test_lazy_export_resolves(tool, monkeypatch):
    """A name a package exports lazily (PEP 562) resolves through its ``__getattr__``."""
    import repro.stats

    monkeypatch.delitem(vars(repro.stats), "Monitor", raising=False)
    assert tool.unresolved_part("repro.stats.Monitor.record") == ""
    assert "Monitor" in vars(repro.stats)  # bound by the lazy hook
