"""Tests for the crash-tolerant sweep journal (checkpoint/resume).

The acceptance bar: a sweep killed mid-run and resumed from its journal
produces results *bit-identical* to an uninterrupted run, on every backend
— asserted by equality, never timing (the CI box has 1 CPU).  Corrupt or
truncated journals degrade to re-execution, never to wrong results.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.errors import CheckpointError
from repro.parallel import (
    SocketBackend,
    SweepEngine,
    SweepJournal,
    SweepTask,
)
from repro.parallel.checkpoint import ABORT_EXIT_CODE
from repro.simulation.runner import replication_configs, run_replications, run_simulation_task
from repro.simulation.simulator import SimulationConfig

#: Generous worker-join budget for the 1-CPU CI box (workers import numpy).
ACCEPT_TIMEOUT = 60.0

_SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)


def _log_and_square(x, log_path):
    """Picklable task that records every execution (to count re-runs)."""
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(f"{x}\n")
    return x * x


def _executions(log_path) -> int:
    if not os.path.exists(log_path):
        return 0
    with open(log_path, "r", encoding="utf-8") as handle:
        return len(handle.read().split())


def _tasks(log_path, count=4):
    return [
        SweepTask(fn=_log_and_square, args=(i, str(log_path)), label=f"square[{i}]")
        for i in range(count)
    ]


def _truncate_journal(path, keep_done: int) -> None:
    """Rewrite a journal keeping the header(s) and the first N done records."""
    kept, done = [], 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["kind"] == "done":
                if done >= keep_done:
                    continue
                done += 1
            kept.append(line)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(kept)


class TestJournalBasics:
    def test_completed_tasks_are_not_reexecuted(self, tmp_path):
        journal_path = tmp_path / "sweep.journal"
        log = tmp_path / "executions.log"
        first = SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(_tasks(log))
        assert first == [0, 1, 4, 9]
        assert _executions(log) == 4
        again = SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(_tasks(log))
        assert again == first
        assert _executions(log) == 4  # everything restored, nothing re-ran

    def test_partial_journal_resumes_only_unfinished(self, tmp_path):
        journal_path = tmp_path / "sweep.journal"
        log = tmp_path / "executions.log"
        reference = SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(_tasks(log))
        _truncate_journal(journal_path, keep_done=2)
        resumed = SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(_tasks(log))
        assert resumed == reference
        assert _executions(log) == 4 + 2  # only the two dropped tasks re-ran

    def test_journal_accepts_plain_path(self, tmp_path):
        journal_path = str(tmp_path / "sweep.journal")
        engine = SweepEngine(jobs=1, journal=journal_path)
        assert isinstance(engine.journal, SweepJournal)
        assert engine.map(abs, [-2]) == [2]
        assert os.path.exists(journal_path)

    def test_progress_reports_restored_tasks(self, tmp_path):
        journal_path = tmp_path / "sweep.journal"
        log = tmp_path / "executions.log"
        SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(_tasks(log))
        seen = []
        engine = SweepEngine(
            jobs=1,
            journal=SweepJournal(journal_path),
            progress=lambda done, total, label: seen.append((done, total, label)),
        )
        engine.run(_tasks(log))
        assert seen == [(i + 1, 4, f"square[{i}]") for i in range(4)]

    def test_multi_run_campaign_matches_runs_by_ordinal(self, tmp_path):
        journal_path = tmp_path / "campaign.journal"
        log = tmp_path / "executions.log"
        engine = SweepEngine(jobs=1, journal=SweepJournal(journal_path))
        first = engine.run(_tasks(log, count=2))
        second = engine.run(_tasks(log, count=3))
        assert _executions(log) == 5
        resumed = SweepEngine(jobs=1, journal=SweepJournal(journal_path))
        assert resumed.run(_tasks(log, count=2)) == first
        assert resumed.run(_tasks(log, count=3)) == second
        assert _executions(log) == 5  # both runs fully restored


class TestJournalCorruption:
    def test_truncated_last_record_is_discarded_not_fatal(self, tmp_path):
        journal_path = tmp_path / "sweep.journal"
        log = tmp_path / "executions.log"
        reference = SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(_tasks(log))
        with open(journal_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(journal_path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:-1])
            handle.write(lines[-1][: len(lines[-1]) // 2])  # half-written record
        with pytest.warns(UserWarning, match="discarding line"):
            journal = SweepJournal(journal_path)
        resumed = SweepEngine(jobs=1, journal=journal).run(_tasks(log))
        assert resumed == reference
        assert _executions(log) == 4 + 1  # only the mangled task re-ran

    def test_corrupt_middle_line_discards_the_rest(self, tmp_path):
        journal_path = tmp_path / "sweep.journal"
        log = tmp_path / "executions.log"
        reference = SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(_tasks(log))
        with open(journal_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[2] = "this is not json\n"  # header, done0, GARBAGE, done2, done3
        with open(journal_path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.warns(UserWarning, match="discarding line 3"):
            journal = SweepJournal(journal_path)
        assert journal.restored_count == 1
        resumed = SweepEngine(jobs=1, journal=journal).run(_tasks(log))
        assert resumed == reference
        assert _executions(log) == 4 + 3

    def test_undecodable_pickle_payload_is_discarded(self, tmp_path):
        journal_path = tmp_path / "sweep.journal"
        log = tmp_path / "executions.log"
        SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(_tasks(log))
        with open(journal_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        record = json.loads(lines[1])
        record["value"] = "bm90IGEgcGlja2xl"  # base64("not a pickle")
        lines[1] = json.dumps(record) + "\n"
        with open(journal_path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.warns(UserWarning, match="discarding line 2"):
            journal = SweepJournal(journal_path)
        assert journal.restored_count == 0

    def test_unterminated_final_record_is_partial_even_if_parseable(self, tmp_path):
        # A kill can leave a record's bytes without the line terminator;
        # trusting it would make the next append merge two records onto
        # one line, so it must be treated as partial and truncated away.
        journal_path = tmp_path / "sweep.journal"
        log = tmp_path / "executions.log"
        reference = SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(_tasks(log))
        with open(journal_path, "r", encoding="utf-8") as handle:
            content = handle.read()
        with open(journal_path, "w", encoding="utf-8") as handle:
            handle.write(content.rstrip("\n"))  # complete JSON, no newline
        with pytest.warns(UserWarning, match="unterminated final record"):
            journal = SweepJournal(journal_path)
        assert journal.restored_count == 3
        resumed = SweepEngine(jobs=1, journal=journal).run(_tasks(log))
        assert resumed == reference
        assert _executions(log) == 4 + 1
        # The healed file must be cleanly parseable by the next resume.
        assert SweepJournal(journal_path).restored_count == 4

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("tasks", 5, "run header re-declared with different content"),
            ("run", 7, "done record for undeclared run 7"),
            ("index", 4, "task index 4 out of range"),
            ("kind", "skip", "unknown record kind 'skip'"),
        ],
        ids=["redeclared-header", "undeclared-run", "index-out-of-range", "unknown-kind"],
    )
    def test_inconsistent_record_discards_the_rest(self, tmp_path, field, value, match):
        # Each line is valid JSON; what breaks is its agreement with the
        # header.  Line 3 (done1) is replaced: by a second header for the
        # same run in the first case, by a mutated done record otherwise.
        journal_path = tmp_path / "sweep.journal"
        log = tmp_path / "executions.log"
        reference = SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(_tasks(log))
        with open(journal_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        record = json.loads(lines[0] if field == "tasks" else lines[2])
        record[field] = value
        lines[2] = json.dumps(record) + "\n"
        with open(journal_path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.warns(UserWarning, match=f"discarding line 3 .*{match}"):
            journal = SweepJournal(journal_path)
        assert journal.restored_count == 1
        resumed = SweepEngine(jobs=1, journal=journal).run(_tasks(log))
        assert resumed == reference
        assert _executions(log) == 4 + 3

    def test_empty_and_missing_files_are_fine(self, tmp_path):
        missing = SweepJournal(tmp_path / "never-written.journal")
        assert missing.restored_count == 0
        empty_path = tmp_path / "empty.journal"
        empty_path.write_text("")
        assert SweepJournal(empty_path).restored_count == 0

    def test_fingerprint_mismatch_raises_checkpoint_error(self, tmp_path):
        journal_path = tmp_path / "sweep.journal"
        log = tmp_path / "executions.log"
        SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(_tasks(log))
        other_tasks = [
            SweepTask(fn=_log_and_square, args=(i, str(log)), label=f"DIFFERENT[{i}]")
            for i in range(4)
        ]
        with pytest.raises(CheckpointError, match="different campaign"):
            SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(other_tasks)

    def test_task_count_mismatch_raises_checkpoint_error(self, tmp_path):
        journal_path = tmp_path / "sweep.journal"
        log = tmp_path / "executions.log"
        SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(_tasks(log))
        with pytest.raises(CheckpointError):
            SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(_tasks(log, count=6))

    def test_changed_arguments_with_same_labels_raise(self, tmp_path):
        # Labels alone cannot encode every parameter (e.g. --messages or
        # the base seed); the fingerprint must still catch the change
        # instead of silently mixing two campaign definitions.
        journal_path = tmp_path / "sweep.journal"
        log = tmp_path / "executions.log"

        def tasks_with_offset(offset):
            return [
                SweepTask(fn=_log_and_square, args=(i + offset, str(log)), label=f"t[{i}]")
                for i in range(3)
            ]

        SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(tasks_with_offset(0))
        with pytest.raises(CheckpointError, match="different campaign"):
            SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(tasks_with_offset(10))

    def test_unpicklable_arguments_fall_back_to_label_fingerprint(self, tmp_path):
        journal_path = tmp_path / "sweep.journal"
        unpicklable = lambda x: -x  # noqa: E731 — serial tasks may be closures
        tasks = [SweepTask(fn=(lambda f: f(3)), args=(unpicklable,), label="t")]  # repro: noqa REP201
        first = SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(tasks)
        assert first == [-3]
        # A fresh incarnation with equivalent (still unpicklable) tasks
        # restores rather than raising.
        again = SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(tasks)
        assert again == [-3]

    def test_corrupt_tail_heals_on_resume(self, tmp_path):
        # Records appended after a corrupt line must be visible to the
        # *next* resume: the journal truncates the bad tail before
        # appending, so repeated crash-resume cycles do not re-execute the
        # same tasks forever.
        journal_path = tmp_path / "sweep.journal"
        log = tmp_path / "executions.log"
        reference = SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(_tasks(log))
        with open(journal_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[2] = "this is not json\n"
        with open(journal_path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.warns(UserWarning, match="discarding line 3"):
            resumed = SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(_tasks(log))
        assert resumed == reference
        assert _executions(log) == 4 + 3
        # Third incarnation: the healed journal restores everything.
        final = SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(_tasks(log))
        assert final == reference
        assert _executions(log) == 4 + 3  # nothing re-ran this time


class TestCrashResumeBitIdentity:
    """Acceptance criterion: kill + resume == uninterrupted, per backend."""

    def _simulation_tasks(self, system):
        config = SimulationConfig(num_messages=300, seed=11)
        return [
            SweepTask(
                fn=run_simulation_task,
                args=(system, rep_config),
                label=f"rep[{i}]",
            )
            for i, rep_config in enumerate(replication_configs(config, 3))
        ]

    @pytest.mark.parametrize("backend_name", ["serial", "pool", "socket"])
    def test_resumed_equals_uninterrupted(self, backend_name, tmp_path, small_case1_system):
        tasks = self._simulation_tasks(small_case1_system)
        uninterrupted = SweepEngine(jobs=1).run(tasks)

        # Simulate the kill: journal the full sweep, then drop every record
        # past the first — the state an interrupted campaign leaves behind.
        journal_path = tmp_path / "campaign.journal"
        SweepEngine(jobs=1, journal=SweepJournal(journal_path)).run(tasks)
        _truncate_journal(journal_path, keep_done=1)

        if backend_name == "serial":
            engine = SweepEngine(jobs=1, journal=SweepJournal(journal_path))
        elif backend_name == "pool":
            engine = SweepEngine(jobs=2, backend="pool", journal=SweepJournal(journal_path))
        else:
            engine = SweepEngine(
                backend=SocketBackend(spawn_workers=2, accept_timeout=ACCEPT_TIMEOUT),
                journal=SweepJournal(journal_path),
            )
        assert engine.run(tasks) == uninterrupted

    def test_service_distribution_ablation_honours_checkpoint(self, tmp_path):
        from repro.experiments.ablations import service_distribution_ablation

        journal_path = tmp_path / "svc.journal"
        first = service_distribution_ablation(
            num_clusters=4, num_messages=300, checkpoint=str(journal_path)
        )
        assert journal_path.exists()
        assert SweepJournal(journal_path).restored_count == 2
        resumed = service_distribution_ablation(
            num_clusters=4, num_messages=300, checkpoint=str(journal_path)
        )
        assert resumed.to_rows() == first.to_rows()

    def test_run_replications_checkpoint_roundtrip(self, tmp_path, small_case1_system):
        config = SimulationConfig(num_messages=200, seed=5)
        reference = run_replications(small_case1_system, config, replications=2, jobs=1)
        journal_path = tmp_path / "reps.journal"
        first = run_replications(
            small_case1_system, config, replications=2, jobs=1, checkpoint=str(journal_path)
        )
        resumed = run_replications(
            small_case1_system, config, replications=2, jobs=1, checkpoint=str(journal_path)
        )
        assert first.per_replication == reference.per_replication
        assert resumed.per_replication == reference.per_replication


class TestAbortHookAndCli:
    """The deterministic-kill hook and the --checkpoint/--resume flags."""

    def _cli(self, *argv, env=None, cwd=None):
        full_env = dict(os.environ)
        full_env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_SRC_DIR, os.environ.get("PYTHONPATH")) if p
        )
        full_env.update(env or {})
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=full_env, cwd=cwd, capture_output=True, text=True,
        )

    @pytest.mark.slow
    def test_cli_kill_and_resume_matches_uninterrupted(self, tmp_path):
        figure_args = (
            "figure", "4", "--simulate", "--clusters", "2", "4",
            "--sizes", "512", "--messages", "300", "--replications", "2",
        )
        journal = str(tmp_path / "fig4.journal")
        killed = self._cli(
            *figure_args, "--checkpoint", journal,
            env={"REPRO_CHECKPOINT_ABORT_AFTER": "2"}, cwd=str(tmp_path),
        )
        assert killed.returncode == ABORT_EXIT_CODE
        resumed = self._cli(
            *figure_args, "--resume", journal, "--csv", "resumed.csv", cwd=str(tmp_path)
        )
        assert resumed.returncode == 0, resumed.stderr
        fresh = self._cli(*figure_args, "--csv", "fresh.csv", cwd=str(tmp_path))
        assert fresh.returncode == 0, fresh.stderr
        assert (tmp_path / "resumed.csv").read_text() == (tmp_path / "fresh.csv").read_text()

    def test_resolve_engine_rejects_conflicting_journals(self, tmp_path):
        from repro.parallel import resolve_engine

        engine = SweepEngine(jobs=1, journal=SweepJournal(tmp_path / "a.journal"))
        with pytest.raises(ValueError, match="already has a journal"):
            resolve_engine(engine=engine, checkpoint=str(tmp_path / "b.journal"))

    def test_resolve_engine_accepts_repeated_same_checkpoint(self, tmp_path, small_case1_system):
        # A campaign loop reuses one engine across several driver calls
        # that all pass the same checkpoint path: the first call attaches
        # the journal and later calls must keep it (run ordinals continue)
        # instead of raising or re-opening the file mid-campaign.
        config = SimulationConfig(num_messages=200, seed=7)
        path = str(tmp_path / "campaign.journal")
        engine = SweepEngine(jobs=1)
        first = run_replications(
            small_case1_system, config, replications=2, engine=engine, checkpoint=path
        )
        journal = engine.journal
        second = run_replications(
            small_case1_system, config, replications=2, engine=engine, checkpoint=path
        )
        assert engine.journal is journal  # same attached journal, not reopened
        assert second.per_replication == first.per_replication

    def test_cli_checkpoint_error_is_a_clean_exit(self, tmp_path):
        # Resuming with changed parameters must print the CheckpointError
        # message, not a traceback.  (The ratio study is closed-form and
        # vectorized — it journals no tasks — so the campaign here is a
        # small simulating figure sweep.)
        journal = str(tmp_path / "fig4.journal")
        base = ["figure", "4", "--simulate", "--sizes", "512", "--messages", "100"]
        first = self._cli(*base, "--clusters", "2", "--checkpoint", journal,
                          cwd=str(tmp_path))
        assert first.returncode == 0, first.stderr
        clashed = self._cli(*base, "--clusters", "2", "--resume", journal,
                            "--csv", "x.csv", cwd=str(tmp_path), env={"COLUMNS": "80"})
        assert clashed.returncode == 0  # same campaign resumes fine
        # Now a different campaign definition against the same journal:
        mismatch = self._cli(*base, "--clusters", "2", "4", "--resume", journal,
                             cwd=str(tmp_path))
        assert mismatch.returncode != 0
        assert "checkpoint error:" in mismatch.stderr
        assert "Traceback" not in mismatch.stderr

    def test_resume_requires_existing_journal(self, tmp_path):
        from repro.cli import build_engine, build_parser

        args = build_parser().parse_args(
            ["ratio", "--resume", str(tmp_path / "absent.journal")]
        )
        with pytest.raises(SystemExit, match="no such journal"):
            build_engine(args)

    def test_checkpoint_and_resume_are_mutually_exclusive(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["ratio", "--checkpoint", "a", "--resume", "b"])
        assert "not allowed with" in capsys.readouterr().err

    def test_checkpoint_flags_on_every_sweep_command(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (
            ["figure", "4", "--checkpoint", "j"],
            ["ratio", "--checkpoint", "j"],
            ["validate", "--checkpoint", "j"],
            ["ablation", "message-size", "--checkpoint", "j"],
            ["report", "--checkpoint", "j"],
        ):
            assert parser.parse_args(argv).checkpoint == "j"

    def test_closed_form_ablation_accepts_checkpoint(self, tmp_path, capsys):
        # fixed-point-vs-mva now runs as a 2-task sweep through the
        # pipeline runner, so --checkpoint/--resume journal it like any
        # other ablation (the flags used to be rejected).
        from repro.cli import main

        journal = str(tmp_path / "mva.journal")
        assert main(["ablation", "fixed-point-vs-mva", "--checkpoint", journal]) == 0
        first = capsys.readouterr().out
        assert os.path.exists(journal)
        assert main(["ablation", "fixed-point-vs-mva", "--resume", journal]) == 0
        assert capsys.readouterr().out == first

    def test_cli_checkpoint_then_resume_ratio(self, tmp_path):
        journal = str(tmp_path / "ratio.journal")
        first = self._cli("ratio", "--checkpoint", journal, "--csv", "a.csv", cwd=str(tmp_path))
        assert first.returncode == 0, first.stderr
        resumed = self._cli("ratio", "--resume", journal, "--csv", "b.csv", cwd=str(tmp_path))
        assert resumed.returncode == 0, resumed.stderr
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()
