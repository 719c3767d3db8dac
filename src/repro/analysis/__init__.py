"""Static analysis for the repro codebase: the ``repro lint`` engine.

This package is a small, dependency-free AST linter whose rules encode the
repository's *domain* invariants — the properties generic linters cannot
know about, each grounded in a real past bug:

=======  =====================  ==================================================
id       name                   guards against
=======  =====================  ==================================================
REP101   nondeterministic-rng   global ``random``/``np.random`` state in runtime code
REP102   wall-clock-read        ``time.time()``/``datetime.now()`` leaking into results
REP103   seed-arithmetic        ``seed + i`` child-stream derivation (the PR 1 bug)
REP104   undeclared-dependency  ``repro`` imports outside the stdlib and numpy
REP201   unpicklable-task       lambdas/closures handed to sweep backends (the PR 3 bug)
REP301   missing-slots          unslotted classes in the hot DES modules
REP302   slots-subclass-dict    subclasses silently reintroducing ``__dict__``
REP401   des-yield-protocol     processes yielding non-events / registered uncalled
REP501   frozen-spec-mutation   attribute writes on frozen specs/configs/tasks
REP601   bare-except            handlers that catch KeyboardInterrupt/SystemExit
REP602   swallowed-error        broad handlers that silently discard errors
REP701   constant-retry-sleep   retry loops sleeping a fixed delay (no backoff)
=======  =====================  ==================================================

``REP000`` marks files that fail to parse.  Findings are silenced in
source with ``# repro: noqa`` or ``# repro: noqa REP103`` trailing
comments (:mod:`.suppressions`).  The CLI entry point is
``repro lint [PATHS] [--format text|json|github] [--select ...]``.
"""

from .engine import (
    LintEngine,
    LintReport,
    ModuleContext,
    discover_files,
    lint_paths,
    lint_source,
    module_name_for,
    select_rules,
)
from .reporting import FORMATS, format_report
from .rules import RULE_REGISTRY, Finding, Rule, register_rule, rule_catalogue
from .suppressions import SuppressionIndex, scan_suppressions

__all__ = [
    "FORMATS",
    "Finding",
    "LintEngine",
    "LintReport",
    "ModuleContext",
    "RULE_REGISTRY",
    "Rule",
    "SuppressionIndex",
    "discover_files",
    "format_report",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "register_rule",
    "rule_catalogue",
    "scan_suppressions",
    "select_rules",
]
