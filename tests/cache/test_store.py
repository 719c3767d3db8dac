"""Tests for the content-addressed result cache (`repro.cache`).

Covers the store's contract end to end: hit/miss/eviction accounting, key
stability across processes, code-version invalidation, corrupted-entry
recovery, and the headline guarantee — a cache hit renders the same result
rows a cold run computes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cache import (
    CacheError,
    ResultCache,
    code_fingerprint,
    coerce_cache,
    spec_cache_key,
)
from repro.experiments.pipeline import (
    ExperimentRunner,
    ExperimentSpec,
    TableCollector,
    build_plan,
)
from repro.experiments.scenarios import PAPER_PARAMETERS
from repro.viz.tables import rows_to_csv_text

FP_A = "a" * 64
FP_B = "b" * 64


def small_spec(**overrides) -> ExperimentSpec:
    fields = dict(
        scenario="case-1",
        mode="both",
        cluster_counts=[2],
        message_sizes=[512.0],
        replications=1,
        simulation_messages=120,
        seed=0,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def compute_outcome(plan):
    return ExperimentRunner().run_outcome(plan)


class TestKeys:
    def test_key_is_stable_and_order_independent(self):
        spec = small_spec()
        key = spec_cache_key(spec.to_json(), FP_A)
        assert key == spec_cache_key(spec.to_json(), FP_A)
        # Field order of the JSON dict must not matter.
        shuffled = dict(reversed(list(spec.to_json().items())))
        assert spec_cache_key(shuffled, FP_A) == key

    def test_key_depends_on_spec_and_fingerprint(self):
        spec = small_spec()
        key = spec_cache_key(spec.to_json(), FP_A)
        assert spec_cache_key(small_spec(seed=1).to_json(), FP_A) != key
        assert spec_cache_key(spec.to_json(), FP_B) != key

    def test_key_stable_across_processes(self):
        """The same (spec, fingerprint) yields the same key in a fresh interpreter."""
        spec = small_spec()
        script = (
            "import json, sys\n"
            "from repro.cache import spec_cache_key\n"
            "from repro.experiments.pipeline import ExperimentSpec\n"
            "spec = ExperimentSpec.from_json_text(sys.argv[1])\n"
            "print(spec_cache_key(spec.to_json(), sys.argv[2]))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps(spec.to_json()), FP_A],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == spec_cache_key(spec.to_json(), FP_A)

    def test_code_fingerprint_is_memoized_and_hex(self):
        fp = code_fingerprint()
        assert fp == code_fingerprint()
        assert len(fp) == 64
        int(fp, 16)  # hex digest


def fresh_fingerprint(*flags: str, path: str = "") -> list:
    """``[code_fingerprint(), "True" if NumPy is absent else "False"]`` in a
    fresh interpreter run with ``flags``, with ``path`` ahead of src.

    Only a fresh interpreter sees a different NumPy: in-process,
    ``find_spec`` returns the spec of the NumPy already imported.
    """
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    script = (
        "import importlib.util\n"
        "from repro.cache.fingerprint import code_fingerprint\n"
        "print(code_fingerprint(), importlib.util.find_spec('numpy') is None)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (path, src) if p))
    out = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    return out.stdout.split()


class TestFingerprintNamesNumpy:
    """Every variate comes from NumPy's ``Generator`` algorithms, which NEP 19
    leaves free to change between releases, so the code fingerprint covers
    NumPy's ``version.py``."""

    def test_a_different_numpy_version_changes_the_fingerprint(self, tmp_path):
        planted = tmp_path / "numpy"
        planted.mkdir()
        (planted / "__init__.py").write_text("")
        (planted / "version.py").write_text('version = "0.0.0.planted"\n')
        assert fresh_fingerprint() == [code_fingerprint(), "False"]
        fingerprint, absent = fresh_fingerprint(path=str(tmp_path))
        assert absent == "False"
        assert fingerprint != code_fingerprint()

    def test_an_absent_numpy_hashes_a_fixed_marker(self):
        # -S skips site-packages, where NumPy is installed.
        first = fresh_fingerprint("-S")
        assert first[1] == "True"
        assert first == fresh_fingerprint("-S")
        assert first[0] != code_fingerprint()

    def test_uncacheable_plan_with_custom_parameters(self, tmp_path):
        import dataclasses

        spec = small_spec(mode="analysis")
        custom = dataclasses.replace(PAPER_PARAMETERS, generation_rate=0.5)
        plan = build_plan(spec, parameters=custom)
        cache = ResultCache(tmp_path / "store", fingerprint=FP_A)
        assert cache.key_for_plan(plan) is None
        outcome = compute_outcome(plan)
        assert cache.put_outcome(plan, outcome) is None
        assert cache.get_outcome(plan) is None
        assert cache.stats().entries == 0


class TestStoreLifecycle:
    def test_miss_put_hit_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path / "store", fingerprint=FP_A)
        plan = build_plan(small_spec())
        assert cache.get_outcome(plan) is None  # miss
        key = cache.put_outcome(plan, compute_outcome(plan))
        assert key == cache.key_for_plan(plan)
        hit = cache.get_outcome(plan)
        assert hit is not None
        stats = cache.stats()
        assert stats.entries == 1
        assert (stats.hits, stats.misses, stats.puts) == (1, 1, 1)
        entry = cache.get_entry(key)
        assert entry.hits == 1
        assert entry.scenario == "case-1"
        assert entry.last_hit_at is not None

    def test_counters_persist_across_opens(self, tmp_path):
        root = tmp_path / "store"
        cache = ResultCache(root, fingerprint=FP_A)
        plan = build_plan(small_spec())
        cache.get_outcome(plan)
        cache.put_outcome(plan, compute_outcome(plan))
        reopened = ResultCache(root, fingerprint=FP_A)
        assert reopened.get_outcome(plan) is not None
        stats = reopened.stats()
        assert (stats.hits, stats.misses, stats.puts) == (1, 1, 1)

    def test_evict(self, tmp_path):
        cache = ResultCache(tmp_path / "store", fingerprint=FP_A)
        plan = build_plan(small_spec(mode="analysis"))
        key = cache.put_outcome(plan, compute_outcome(plan))
        assert cache.evict(key)
        assert not cache.evict(key)  # second eviction is a no-op
        assert cache.get_entry(key) is None
        assert cache.stats().entries == 0
        assert cache.stats().evictions == 1
        assert cache.get_outcome(plan) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "store", fingerprint=FP_A)
        for seed in (0, 1):
            plan = build_plan(small_spec(mode="analysis", seed=seed))
            cache.put_outcome(plan, compute_outcome(plan))
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_coerce_cache(self, tmp_path):
        assert coerce_cache(None) is None
        opened = coerce_cache(tmp_path / "store")
        assert isinstance(opened, ResultCache)
        assert coerce_cache(opened) is opened

    def test_unusable_root_raises_cache_error(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("plain file")
        with pytest.raises(CacheError):
            ResultCache(blocker / "store")


class TestCodeVersionInvalidation:
    def test_new_fingerprint_never_serves_old_entries(self, tmp_path):
        root = tmp_path / "store"
        plan = build_plan(small_spec(mode="analysis"))
        old = ResultCache(root, fingerprint=FP_A)
        old.put_outcome(plan, compute_outcome(plan))
        new = ResultCache(root, fingerprint=FP_B)
        assert new.get_outcome(plan) is None  # different key: a clean miss
        assert new.stats().stale_entries == 1
        assert new.evict_stale() == 1
        assert new.stats().entries == 0
        # The old code version would still have been a hit before eviction.
        assert old.get_outcome(plan) is None  # gone now — it was evicted

    def test_evict_stale_keeps_current_entries(self, tmp_path):
        root = tmp_path / "store"
        plan = build_plan(small_spec(mode="analysis"))
        ResultCache(root, fingerprint=FP_A).put_outcome(plan, compute_outcome(plan))
        new = ResultCache(root, fingerprint=FP_B)
        new.put_outcome(plan, compute_outcome(plan))
        assert new.evict_stale() == 1
        assert new.get_outcome(plan) is not None


class TestCorruptionRecovery:
    def put_one(self, tmp_path):
        cache = ResultCache(tmp_path / "store", fingerprint=FP_A)
        plan = build_plan(small_spec())
        key = cache.put_outcome(plan, compute_outcome(plan))
        return cache, plan, cache._payload_path(key)

    def test_truncated_payload_recovers_as_miss(self, tmp_path):
        cache, plan, path = self.put_one(tmp_path)
        with open(path, "r+", encoding="utf-8") as handle:
            handle.truncate(40)
        assert cache.get_outcome(plan) is None
        stats = cache.stats()
        assert stats.corrupt_dropped == 1
        assert stats.entries == 0
        # The campaign recomputes and re-fills cleanly afterwards.
        cache.put_outcome(plan, compute_outcome(plan))
        assert cache.get_outcome(plan) is not None

    def test_deleted_payload_recovers_as_miss(self, tmp_path):
        cache, plan, path = self.put_one(tmp_path)
        os.remove(path)
        assert cache.get_outcome(plan) is None
        assert cache.stats().corrupt_dropped == 1

    def test_schema_drift_recovers_as_miss(self, tmp_path):
        cache, plan, path = self.put_one(tmp_path)
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
        envelope["outcome"]["payload_version"] = 999
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle)
        assert cache.get_outcome(plan) is None
        assert cache.stats().corrupt_dropped == 1

    def test_version_1_payload_is_dropped_and_recomputed(self, tmp_path):
        cache, plan, path = self.put_one(tmp_path)
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
        # Version 1 also carried an interval in every replication's run.
        envelope["outcome"]["payload_version"] = 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle)
        recomputed = ExperimentRunner(cache=cache).run(plan, TableCollector())
        assert cache.stats().corrupt_dropped == 1
        assert recomputed.to_rows() == TableCollector().collect(compute_outcome(plan)).to_rows()
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["outcome"]["payload_version"] == 2
        assert cache.get_outcome(plan) is not None

    def test_wrong_key_payload_recovers_as_miss(self, tmp_path):
        cache, plan, path = self.put_one(tmp_path)
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
        envelope["key"] = "0" * 64
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle)
        assert cache.get_outcome(plan) is None
        assert cache.stats().corrupt_dropped == 1


class TestHitEqualsMiss:
    def test_hit_renders_identical_rows_and_csv(self, tmp_path):
        """The cached pipeline result matches the cold one, value for value."""
        spec = small_spec(cluster_counts=[2, 4], replications=2)
        cache = ResultCache(tmp_path / "store")
        cold = ExperimentRunner(cache=cache).run(build_plan(spec), TableCollector())
        warm = ExperimentRunner(cache=cache).run(build_plan(spec), TableCollector())
        assert cache.stats().hits == 1
        assert warm.to_rows() == cold.to_rows()
        assert rows_to_csv_text(warm.to_rows()) == rows_to_csv_text(cold.to_rows())
        cold_acc, warm_acc = cold.accuracy_summary(), warm.accuracy_summary()
        assert warm_acc.as_dict() == cold_acc.as_dict()

    def test_hit_equals_miss_without_simulation(self, tmp_path):
        spec = small_spec(mode="analysis", cluster_counts=[2, 4, 8])
        cache = ResultCache(tmp_path / "store")
        cold = ExperimentRunner(cache=cache).run(build_plan(spec), TableCollector())
        warm = ExperimentRunner(cache=cache).run(build_plan(spec), TableCollector())
        assert cache.stats().hits == 1
        assert warm.to_rows() == cold.to_rows()
