"""The uniform `--resume` missing-journal error at the CLI boundary.

Every verb that accepts `--resume` must reject a nonexistent journal path
with the same one-line message *before* any computation starts —
historically each command surfaced it wherever its engine happened to be
built, which for lazily-built engines could be minutes into an analysis
pass.
"""

from __future__ import annotations

import pytest

from repro.cli import main

MISSING = "/nonexistent/dir/sweep.journal"
RESUME_CASES = [
    ["figure", "6", "--simulate", "--resume", MISSING],
    ["figure", "4", "--resume", MISSING],  # analysis-only: engine never built
    ["validate", "--resume", MISSING],
    ["report", "--resume", MISSING],
    ["run", "case-1", "--resume", MISSING],
]


@pytest.mark.parametrize("argv", RESUME_CASES, ids=lambda argv: argv[0])
def test_missing_resume_journal_is_one_uniform_error(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    message = str(excinfo.value)
    assert message == f"--resume {MISSING}: no such journal (use --checkpoint to start one)"


def test_existing_journal_is_accepted(tmp_path, capsys):
    journal = tmp_path / "run.journal"
    code = main(
        ["run", "case-1", "--clusters", "2", "--sizes", "512", "--messages", "100",
         "--checkpoint", str(journal)]
    )
    assert code == 0
    assert journal.exists()
    code = main(
        ["run", "case-1", "--clusters", "2", "--sizes", "512", "--messages", "100",
         "--resume", str(journal)]
    )
    assert code == 0
