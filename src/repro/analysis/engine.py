"""The lint engine: file discovery, rule dispatch and the report object.

One :class:`LintEngine` holds the selected rule classes; :meth:`LintEngine.run`
walks the requested paths and produces a :class:`LintReport`.  Each file is
parsed once and walked once — rules subscribe to AST node classes via their
``node_types`` attribute and the engine dispatches every visited node to the
subscribed rules only (see :mod:`repro.analysis.rules.base`).

Files that do not parse yield a single ``REP000`` finding rather than
aborting the scan, so one broken file cannot hide findings in the rest of
the tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from .rules.base import RULE_REGISTRY, Finding, Rule
from .suppressions import scan_suppressions

__all__ = [
    "LintEngine",
    "LintReport",
    "ModuleContext",
    "discover_files",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "select_rules",
]

#: Directory names never descended into during discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "build", "dist"}

#: Path components that anchor dotted module names (see :func:`module_name_for`).
_PACKAGE_ROOTS = ("repro", "benchmarks", "tests")


def module_name_for(path: Path) -> str:
    """Best-effort dotted module name of ``path``.

    Anchors at the last ``repro``/``benchmarks``/``tests`` component so both
    real files (``src/repro/stats/sinks.py`` -> ``repro.stats.sinks``) and the
    virtual paths used by fixture tests (``src/repro/simulation/snippet.py``) map
    into the scopes the domain rules are gated on.  Falls back to the bare
    stem when no anchor is present.
    """
    parts = list(path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] in _PACKAGE_ROOTS:
            dotted = [p for p in parts[index:] if p != "__init__"]
            return ".".join(dotted)
    return parts[-1] if parts else ""


@dataclass
class ModuleContext:
    """Everything a rule may want to know about the file under scan."""

    path: Path
    source: str
    tree: ast.AST
    module: str = ""
    #: Source split into lines (1-indexed via ``line(n)``), for rules that
    #: need the raw text of a flagged line.
    lines: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.module:
            self.module = module_name_for(self.path)
        if not self.lines:
            self.lines = self.source.splitlines()

    def line(self, number: int) -> str:
        """Text of physical line ``number`` (1-indexed; ``""`` out of range)."""
        if 1 <= number <= len(self.lines):
            return self.lines[number - 1]
        return ""

    def in_package(self, *packages: str) -> bool:
        """Whether the module lives in (or under) any of ``packages``."""
        for package in packages:
            if self.module == package or self.module.startswith(package + "."):
                return True
        return False


@dataclass
class LintReport:
    """Outcome of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: Count of findings silenced by ``# repro: noqa`` comments.
    suppressed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def exit_code(self) -> int:
        """Process exit code: 0 clean, 1 findings."""
        return 0 if self.clean else 1


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Expand ``paths`` into the sorted list of ``.py`` files to scan.

    Directories are walked recursively (skipping caches and VCS internals);
    explicit file arguments are taken as-is so callers can lint generated
    or oddly named files.
    """
    seen = set()
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(
                candidate
                for candidate in path.rglob("*.py")
                if not _SKIP_DIRS.intersection(candidate.parts)
            )
        else:
            candidates = [path]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                files.append(candidate)
    return files


def select_rules(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Type[Rule]]:
    """Resolve ``--select``/``--ignore`` prefixes against the registry.

    Both lists hold rule-id prefixes (``REP1`` selects the whole determinism
    family, ``REP103`` one rule).  ``select`` defaults to everything;
    ``ignore`` wins over ``select``.  Unknown prefixes raise ``ValueError``
    so typos fail loudly instead of silently scanning nothing.
    """

    def normalise(prefixes: Optional[Sequence[str]], label: str) -> List[str]:
        if not prefixes:
            return []
        cleaned = [prefix.strip().upper() for prefix in prefixes if prefix.strip()]
        for prefix in cleaned:
            if not any(rule_id.startswith(prefix) for rule_id in RULE_REGISTRY):
                raise ValueError(f"--{label} prefix {prefix!r} matches no registered rule")
        return cleaned

    selected = normalise(select, "select")
    ignored = normalise(ignore, "ignore")
    chosen: List[Type[Rule]] = []
    for rule_id, cls in RULE_REGISTRY.items():
        if selected and not any(rule_id.startswith(prefix) for prefix in selected):
            continue
        if any(rule_id.startswith(prefix) for prefix in ignored):
            continue
        chosen.append(cls)
    return chosen


class LintEngine:
    """Runs a set of rules over files and aggregates the findings."""

    def __init__(self, rules: Optional[Sequence[Type[Rule]]] = None) -> None:
        #: Rule classes instantiated fresh for every scanned file.
        self.rule_classes: List[Type[Rule]] = (
            list(rules) if rules is not None else list(RULE_REGISTRY.values())
        )

    # -- single-file entry points ----------------------------------------

    def lint_source(self, source: str, path: Path) -> List[Finding]:
        """Lint one file's ``source`` as if it lived at ``path``.

        This is the fixture-test entry point: tests hand in snippets under
        virtual paths like ``src/repro/des/snippet.py`` to exercise the
        scope-gated rules without touching the working tree.
        """
        findings, _suppressed = self._lint_source_counted(source, path)
        return findings

    def _lint_source_counted(self, source: str, path: Path) -> Tuple[List[Finding], int]:
        path_text = str(path)
        try:
            tree = ast.parse(source, filename=path_text)
        except (SyntaxError, ValueError) as exc:
            line = getattr(exc, "lineno", None) or 1
            col = getattr(exc, "offset", None) or 0
            message = getattr(exc, "msg", None) or str(exc)
            finding = Finding("REP000", f"file does not parse: {message}", line, col, path_text)
            return [finding], 0

        ctx = ModuleContext(path=path, source=source, tree=tree)
        rules = [cls() for cls in self.rule_classes]
        rules = [rule for rule in rules if rule.applies_to(ctx)]
        if not rules:
            return [], 0

        dispatch: Dict[type, List[Rule]] = {}
        for rule in rules:
            rule.start(ctx)
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)

        raw: List[Finding] = []
        if dispatch:
            for node in ast.walk(tree):
                subscribers = dispatch.get(type(node))
                if subscribers:
                    for rule in subscribers:
                        raw.extend(rule.visit(node, ctx))
        for rule in rules:
            raw.extend(rule.finish(ctx))

        suppressions = scan_suppressions(source)
        findings: List[Finding] = []
        suppressed = 0
        for finding in raw:
            if suppressions.is_suppressed(finding.rule, finding.line):
                suppressed += 1
                continue
            findings.append(finding.relocate(path_text))
        findings.sort(key=lambda f: (f.line, f.col, f.rule))
        return findings, suppressed

    # -- tree entry point -------------------------------------------------

    def run(self, paths: Sequence[Path]) -> LintReport:
        """Lint every ``.py`` file under ``paths`` and aggregate a report."""
        report = LintReport()
        for file_path in discover_files(paths):
            try:
                source = file_path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                report.findings.append(
                    Finding("REP000", f"file is unreadable: {exc}", 1, 0, str(file_path))
                )
                report.files_scanned += 1
                continue
            findings, suppressed = self._lint_source_counted(source, file_path)
            report.findings.extend(findings)
            report.suppressed += suppressed
            report.files_scanned += 1
        return report


def lint_paths(
    paths: Sequence[Path],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> LintReport:
    """Convenience wrapper: resolve rules, build an engine, run it."""
    return LintEngine(select_rules(select, ignore)).run(list(paths))


def lint_source(source: str, path: "Path | str") -> List[Finding]:
    """Convenience wrapper used heavily by the fixture tests."""
    return LintEngine().lint_source(source, Path(path))
