"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_arguments(self):
        args = build_parser().parse_args(["figure", "4", "--simulate", "--clusters", "1", "4"])
        assert args.command == "figure"
        assert args.number == 4
        assert args.simulate
        assert args.clusters == [1, 4]

    def test_unknown_figure_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "3"])

    @pytest.mark.parametrize(
        "flag",
        [["--jobs", "2"], ["--backend", "serial"], ["--workers", "2"],
         ["--checkpoint", "j"], ["--resume", "j"]],
        ids=lambda flag: flag[0].lstrip("-"),
    )
    @pytest.mark.parametrize(
        "verb", [["ratio"], ["ablation", "message-size"]], ids=lambda verb: verb[0]
    )
    def test_closed_form_verbs_take_no_execution_flags(
        self, verb, flag, tmp_path, monkeypatch, capsys
    ):
        # ratio and ablation evaluate in-process and start no sweep task,
        # so they accept no backend, worker or journal options.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main([*verb, *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "j").exists()


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Case 1" in out or "case-1" in out
        assert "Figure 4" in out
        assert "0.25" in out

    def test_analyze(self, capsys):
        assert main(["analyze", "--case", "case-1", "--clusters", "8"]) == 0
        out = capsys.readouterr().out
        assert "Mean message latency" in out
        assert "Outgoing probability" in out

    def test_figure_analysis_only(self, capsys):
        code = main(["figure", "4", "--clusters", "1", "16", "--sizes", "1024", "--chart"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "analysis_ms" in out
        assert "legend" in out

    def test_figure_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "fig4.csv"
        code = main(["figure", "4", "--clusters", "1", "4", "--sizes", "512",
                     "--csv", str(csv_path)])
        assert code == 0
        assert csv_path.exists()
        assert "analysis_ms" in csv_path.read_text()

    def test_ablation(self, capsys):
        assert main(["ablation", "message-size"]) == 0
        out = capsys.readouterr().out
        assert "message-size" in out

    def test_validate_small(self, capsys):
        code = main([
            "validate", "--case", "case-1", "--clusters", "4",
            "--messages", "800", "--message-bytes", "512",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "rel. error" in out

    def test_report_analysis_only(self, tmp_path, capsys):
        out_path = tmp_path / "report.md"
        code = main(["report", "--clusters", "1", "8", "16", "32", "256",
                     "--output", str(out_path)])
        assert code == 0
        text = out_path.read_text()
        assert "# Reproduction report" in text
        assert "## Figure 4" in text
        assert "Blocking vs non-blocking ratio" in text

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


def _table_rows(out):
    """The data rows of a ``repro run`` table (the lines after its rule)."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("--------"))
    return [line.split() for line in lines[start + 1:] if line.strip()]


class TestRunOverrides:
    def test_rates_override_sets_the_rate_axis(self, capsys):
        assert main(["run", "case-1", "--smoke", "--mode", "analysis",
                     "--rates", "0.5", "1.0"]) == 0
        out = capsys.readouterr().out
        assert {row[2] for row in _table_rows(out)} == {"0.5", "1"}

    def test_seed_override_is_reported_and_changes_the_draws(self, capsys):
        argv = ["run", "case-1", "--smoke", "--mode", "simulate", "--messages", "200"]
        assert main(argv + ["--seed", "5"]) == 0
        seeded = capsys.readouterr().out
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert "seed: 5," in seeded
        assert "seed: 5," not in default
        assert _table_rows(seeded) != _table_rows(default)

    @pytest.mark.parametrize("mode", ["analysis", "simulate", "both"])
    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_rate_is_a_one_line_error(self, mode, rate):
        """A NaN rate used to spin the simulator forever (and crash the
        solver with a traceback in ``both`` mode); it is refused up front."""
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "case-1", "--smoke", "--mode", mode, "--rates", rate])
        assert str(excinfo.value) == (
            f"error: generation_rates must be a finite number, got {rate}"
        )

    def test_non_finite_number_in_a_spec_file_is_a_one_line_error(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"scenario": "case-1", "mode": "simulate", "switch_latency_us": NaN}')
        with pytest.raises(SystemExit) as excinfo:
            main(["run", str(spec)])
        assert str(excinfo.value) == "error: switch_latency_us must be a finite number, got nan"

    def test_smoke_is_refused_for_a_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"scenario": "case-1", "mode": "analysis"}')
        with pytest.raises(SystemExit, match="--smoke applies to scenario names only"):
            main(["run", str(spec), "--smoke"])

    @pytest.mark.parametrize("value", ["two", "-1"])
    def test_jobs_must_be_a_non_negative_int(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "case-1", "--smoke", "--jobs", value])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0.5:0.1", "a:b"])
    def test_histogram_range_must_be_an_increasing_pair(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "case-1", "--smoke", "--stats-mode", "online",
                  "--histogram-range", value])
        assert excinfo.value.code == 2
        assert "--histogram-range" in capsys.readouterr().err
