"""CLI-level cache tests: bit-identity on golden fixtures + the `cache` verb.

The headline acceptance check of the result cache: running the *same*
golden-fixture CLI invocation twice with ``--cache`` produces bytes
identical to the uncached fixture — on the cold (computing) run and the
warm (served-from-disk) run alike.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

from repro.cli import main

GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "experiments", "golden"
)
sys.path.insert(0, GOLDEN_DIR)
from regen import CLI_CASES, run_cli_case  # noqa: E402

sys.path.pop(0)


def golden_text(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as handle:
        return handle.read()


def run_case_cached(name: str, tmp_path, cache_dir, tag: str) -> str:
    argv = list(CLI_CASES[name]) + ["--cache", str(cache_dir)]
    out_path = str(tmp_path / f"{tag}{os.path.splitext(name)[1]}")
    with contextlib.redirect_stderr(io.StringIO()):
        return run_cli_case(argv, out_path)


def run_main(argv, tmp_path=None):
    """Run the CLI in-process, capturing stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    return out.getvalue(), err.getvalue()


class TestGoldenBitIdentity:
    @pytest.mark.parametrize("name", ["cli_figure4_analysis.csv", "cli_figure6_sim.csv"])
    def test_cold_and_warm_runs_match_uncached_fixture(self, name, tmp_path):
        cache_dir = tmp_path / "cache"
        want = golden_text(name)
        assert run_case_cached(name, tmp_path, cache_dir, "cold") == want
        assert run_case_cached(name, tmp_path, cache_dir, "warm") == want
        # The second run really was served from the cache.
        stats_out, _ = run_main(["cache", "stats", "--cache", str(cache_dir), "--json"])
        stats = json.loads(stats_out)
        assert stats["entries"] == 1
        assert stats["hits"] == 1


class TestRunVerbCache:
    RUN_ARGS = [
        "run", "case-1", "--clusters", "2", "--sizes", "512",
        "--messages", "150", "--replications", "1",
    ]

    @pytest.mark.parametrize(
        "args",
        [
            pytest.param(["case-1", *RUN_ARGS[2:]], id="case-1"),
            pytest.param(["case-1-lossy", *RUN_ARGS[2:]], id="case-1-lossy"),
            pytest.param(["das2-churn", *RUN_ARGS[2:]], id="das2-churn"),
            # The cache stores the per-target availability dict with sorted
            # keys; at this seed a key-order-dependent mean would round the
            # hit's availability column one ulp away from the miss's.
            pytest.param(["das2-churn", "--smoke", "--seed", "9"], id="das2-churn-smoke-seed-9"),
        ],
    )
    def test_run_twice_is_byte_identical_and_reports_hit(self, args, tmp_path):
        """A hit reproduces the miss's bytes, fault columns included."""
        cache_dir = str(tmp_path / "cache")
        argv = ["run", *args, "--cache", cache_dir]
        cold_out, cold_err = run_main(argv + ["--csv", str(tmp_path / "cold.csv")])
        warm_out, warm_err = run_main(argv + ["--csv", str(tmp_path / "warm.csv")])
        assert "[cache miss]" in cold_err
        assert "[cache hit]" in warm_err
        assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()
        # stdout differs only in the echoed CSV filename.
        strip = lambda text: "\n".join(  # noqa: E731
            line for line in text.splitlines() if not line.startswith("Wrote ")
        )
        assert strip(warm_out) == strip(cold_out)

    def test_no_cache_flag_ignores_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        _, err = run_main(self.RUN_ARGS + ["--no-cache", "--mode", "analysis"])
        assert "cache" not in err
        assert not (tmp_path / "env-cache").exists()

    def test_env_var_enables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        _, err = run_main(self.RUN_ARGS + ["--mode", "analysis"])
        assert "[cache miss]" in err
        _, err = run_main(self.RUN_ARGS + ["--mode", "analysis"])
        assert "[cache hit]" in err

    def test_resume_disables_cache(self, tmp_path):
        """--resume must execute (and keep journaling), not hit the cache."""
        cache_dir = str(tmp_path / "cache")
        journal = str(tmp_path / "run.journal")
        run_main(self.RUN_ARGS + ["--cache", cache_dir, "--csv", str(tmp_path / "a.csv")])
        run_main(self.RUN_ARGS + ["--checkpoint", journal, "--csv", str(tmp_path / "b.csv")])
        _, err = run_main(
            self.RUN_ARGS
            + ["--cache", cache_dir, "--resume", journal, "--csv", str(tmp_path / "c.csv")]
        )
        assert "cache hit" not in err
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()


class TestCacheVerb:
    def seed_cache(self, tmp_path) -> str:
        cache_dir = str(tmp_path / "cache")
        run_main(
            ["run", "case-1", "--clusters", "2", "--sizes", "512", "--mode",
             "analysis", "--cache", cache_dir]
        )
        return cache_dir

    def test_list_show_evict_round_trip(self, tmp_path):
        cache_dir = self.seed_cache(tmp_path)
        listed, _ = run_main(["cache", "list", "--cache", cache_dir, "--json"])
        entries = json.loads(listed)
        assert len(entries) == 1
        key = entries[0]["key"]
        shown, _ = run_main(["cache", "show", key, "--cache", cache_dir])
        assert json.loads(shown)["spec"]["scenario"] == "case-1"
        evicted, _ = run_main(["cache", "evict", key, "--cache", cache_dir])
        assert key in evicted
        stats, _ = run_main(["cache", "stats", "--cache", cache_dir, "--json"])
        assert json.loads(stats)["entries"] == 0

    def test_clear(self, tmp_path):
        cache_dir = self.seed_cache(tmp_path)
        out, _ = run_main(["cache", "clear", "--cache", cache_dir])
        assert "removed 1 entries" in out

    def test_cache_verb_requires_a_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit):
            main(["cache", "stats"])

    def test_show_unknown_key_fails(self, tmp_path):
        cache_dir = self.seed_cache(tmp_path)
        with pytest.raises(SystemExit):
            main(["cache", "show", "f" * 64, "--cache", cache_dir])

    def test_evict_unknown_key_fails(self, tmp_path):
        cache_dir = self.seed_cache(tmp_path)
        with pytest.raises(SystemExit, match="no cache entry"):
            main(["cache", "evict", "f" * 64, "--cache", cache_dir])
        stats, _ = run_main(["cache", "stats", "--cache", cache_dir, "--json"])
        assert json.loads(stats)["entries"] == 1

    @pytest.mark.parametrize("action", ["show", "evict"])
    def test_show_and_evict_need_a_key(self, action, tmp_path):
        with pytest.raises(SystemExit, match=f"repro cache {action} needs a KEY"):
            main(["cache", action, "--cache", str(tmp_path / "cache")])

    def test_list_on_an_empty_cache(self, tmp_path):
        out, _ = run_main(["cache", "list", "--cache", str(tmp_path / "cache")])
        assert out == "cache is empty\n"

    def test_text_list_marks_fresh_entries(self, tmp_path):
        cache_dir = self.seed_cache(tmp_path)
        listed, _ = run_main(["cache", "list", "--cache", cache_dir, "--json"])
        key = json.loads(listed)[0]["key"]
        out, _ = run_main(["cache", "list", "--cache", cache_dir])
        header, row = out.splitlines()[0], out.splitlines()[-1]
        assert header.split()[:2] == ["key", "scenario"]
        assert row.split()[:3] == [key, "case-1", "analysis"]
        assert row.split()[-1] == "no"

    def test_text_stats_names_the_root(self, tmp_path):
        cache_dir = self.seed_cache(tmp_path)
        out, _ = run_main(["cache", "stats", "--cache", cache_dir])
        root, *fields = out.splitlines()
        assert root.startswith("cache: ")
        assert root.endswith("cache")
        values = dict(map(str.strip, line.split(":", 1)) for line in fields)
        assert values["entries"] == "1"

    def test_evict_stale_keeps_fresh_entries(self, tmp_path):
        cache_dir = self.seed_cache(tmp_path)
        out, _ = run_main(["cache", "evict-stale", "--cache", cache_dir])
        assert out == "evicted 0 stale entries\n"
        stats, _ = run_main(["cache", "stats", "--cache", cache_dir, "--json"])
        assert json.loads(stats)["entries"] == 1
