"""Tests for the content-addressed result cache (`repro.cache`).

Covers the store's contract end to end: hit/miss/eviction accounting, key
stability across processes, code-version invalidation, corrupted-entry
recovery, and the headline guarantee — a cache hit renders the same result
rows a cold run computes.
"""

from __future__ import annotations

import copy
import json
import os
import struct
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
from repro.cache.serialize import PAYLOAD_VERSION
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

    def test_a_hit_opens_the_index_only_to_count_itself(self, tmp_path, monkeypatch):
        """The payload file is read before the index: a hit opens one
        connection (the counter write), a plain miss opens the index to
        tell it from an entry whose payload is gone."""
        cache = ResultCache(tmp_path / "store", fingerprint=FP_A)
        plan = build_plan(small_spec())
        cache.put_outcome(plan, compute_outcome(plan))
        opened = []
        connect = cache._connect

        def counting_connect():
            opened.append(1)
            return connect()

        monkeypatch.setattr(cache, "_connect", counting_connect)
        assert cache.get_outcome(plan) is not None
        assert len(opened) == 1
        assert cache.get_entry(cache.key_for_plan(plan)).hits == 1
        opened.clear()
        assert cache.get_outcome(build_plan(small_spec(seed=1))) is None
        assert len(opened) == 2  # the index lookup, then the miss counter
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.corrupt_dropped) == (1, 1, 0)

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

    def test_a_write_landing_during_a_miss_is_kept(self, tmp_path, monkeypatch):
        """A reader that finds no payload file while a writer stores the
        entry counts a plain miss: the writer's file lands before its index
        row, so the reader sees the row with its file and drops nothing."""
        cache = ResultCache(tmp_path / "store", fingerprint=FP_A)
        plan = build_plan(small_spec())
        outcome = compute_outcome(plan)
        connect = cache._connect

        def writer_lands_first():
            monkeypatch.setattr(cache, "_connect", connect)
            cache.put_outcome(plan, outcome)
            return connect()

        monkeypatch.setattr(cache, "_connect", writer_lands_first)
        assert cache.get_outcome(plan) is None
        stats = cache.stats()
        assert (stats.misses, stats.corrupt_dropped, stats.entries) == (1, 0, 1)
        assert cache.get_outcome(plan) is not None

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
            assert json.load(handle)["outcome"]["payload_version"] == PAYLOAD_VERSION
        assert cache.get_outcome(plan) is not None

    def test_version_3_payload_is_dropped_and_recomputed(self, tmp_path):
        """A payload in the version-3 layout (a key list in each per-centre
        map) is dropped, recomputed and rewritten with one centre list."""
        cache, plan, path = self.put_one(tmp_path)
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
        envelope["outcome"] = as_version_3(envelope["outcome"])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle, sort_keys=True)
        recomputed = ExperimentRunner(cache=cache).run(plan, TableCollector())
        assert cache.stats().corrupt_dropped == 1
        assert recomputed.to_rows() == TableCollector().collect(compute_outcome(plan)).to_rows()
        with open(path, "r", encoding="utf-8") as handle:
            outcome = json.load(handle)["outcome"]
        assert outcome["payload_version"] == PAYLOAD_VERSION
        run = outcome["replicated"][0]["per_replication"][0]
        assert isinstance(run["centres"], list) and isinstance(run["utilizations"], str)
        assert cache.get_outcome(plan) is not None

    def test_version_2_payload_is_dropped_and_recomputed(self, tmp_path):
        """A payload in the version-2 layout (one float.hex() string per
        float) is dropped, recomputed and rewritten packed."""
        cache, plan, path = self.put_one(tmp_path)
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
        envelope["outcome"] = as_version_2(envelope["outcome"])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle, sort_keys=True)
        recomputed = ExperimentRunner(cache=cache).run(plan, TableCollector())
        assert cache.stats().corrupt_dropped == 1
        assert recomputed.to_rows() == TableCollector().collect(compute_outcome(plan)).to_rows()
        with open(path, "r", encoding="utf-8") as handle:
            outcome = json.load(handle)["outcome"]
        assert outcome["payload_version"] == PAYLOAD_VERSION
        assert isinstance(outcome["analysis"]["mean_latency_s"], str)
        assert cache.get_outcome(plan) is not None

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda packed: packed[:-16], id="truncated"),
            pytest.param(lambda packed: "xy" + packed[2:], id="non-hex"),
            pytest.param(lambda packed: packed + "00", id="wrong-length"),
        ],
    )
    def test_damaged_packed_string_is_dropped_and_recomputed(self, tmp_path, damage):
        cache, plan, path = self.put_one(tmp_path)
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
        run = envelope["outcome"]["replicated"][0]["per_replication"][0]
        run["utilizations"] = damage(run["utilizations"])
        self.assert_dropped_and_recomputed(cache, plan, path, envelope)

    def test_key_value_count_mismatch_is_dropped_and_recomputed(self, tmp_path):
        cache, plan, path = self.put_one(tmp_path)
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
        run = envelope["outcome"]["replicated"][0]["per_replication"][0]
        run["centres"].append("icn1-extra")
        self.assert_dropped_and_recomputed(cache, plan, path, envelope)

    @pytest.mark.parametrize("name", ["utilizations", "mean_occupancies"])
    def test_centre_list_disagreeing_with_one_value_string_is_dropped_and_recomputed(
        self, tmp_path, name
    ):
        """Each packed string is checked against the one centre list: a
        string one double short is corrupt even when the other one fits."""
        cache, plan, path = self.put_one(tmp_path)
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
        run = envelope["outcome"]["replicated"][0]["per_replication"][0]
        run[name] = run[name][:-16]
        self.assert_dropped_and_recomputed(cache, plan, path, envelope)

    def assert_dropped_and_recomputed(self, cache, plan, path, envelope):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle)
        recomputed = ExperimentRunner(cache=cache).run(plan, TableCollector())
        stats = cache.stats()
        assert (stats.corrupt_dropped, stats.misses, stats.hits) == (1, 1, 0)
        cold = TableCollector().collect(compute_outcome(plan))
        assert rows_to_csv_text(recomputed.to_rows()) == rows_to_csv_text(cold.to_rows())
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


def as_version_3(outcome):
    """``outcome`` (a current payload) rewritten in the version-3 layout:
    each per-centre map carries its own copy of the centre list."""
    old = copy.deepcopy(outcome)
    old["payload_version"] = 3
    for point in old["replicated"]:
        for run in point["per_replication"]:
            centres = run.pop("centres")
            for name in ("utilizations", "mean_occupancies"):
                run[name] = {"keys": list(centres), "values": run[name]}
    return old


def as_version_2(outcome):
    """``outcome`` (a current payload) rewritten in the version-2 layout."""

    def hexes(packed):
        raw = bytes.fromhex(packed)
        return [value.hex() for value in struct.unpack(f"<{len(raw) // 8}d", raw)]

    def mapping(packed):
        return None if packed is None else dict(zip(packed["keys"], hexes(packed["values"])))

    old = as_version_3(outcome)
    old["payload_version"] = 2
    for name, column in old["analysis"].items():
        if isinstance(column, str):
            old["analysis"][name] = hexes(column)
    for point in old["replicated"]:
        for run in point["per_replication"]:
            for name in ("utilizations", "mean_occupancies", "latency_summary"):
                run[name] = mapping(run[name])
    return old


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

    def test_hit_equals_miss_over_the_paper_cluster_counts(self, tmp_path):
        """Every per-centre value of a paper-grid campaign (2C + 1 centres
        per point, C up to 256) comes back bit-exact."""
        spec = small_spec(
            mode="simulate", cluster_counts=list(PAPER_PARAMETERS.cluster_counts),
            message_sizes=list(PAPER_PARAMETERS.message_sizes), simulation_messages=300,
        )
        assert len(PAPER_PARAMETERS.cluster_counts) == 9
        cache = ResultCache(tmp_path / "store")
        cold_outcome = ExperimentRunner(cache=cache).run_outcome(build_plan(spec))
        warm_outcome = ExperimentRunner(cache=cache).run_outcome(build_plan(spec))
        assert cache.stats().hits == 1
        assert warm_outcome.replicated == cold_outcome.replicated
        runs = [agg.per_replication[0] for agg in warm_outcome.replicated]
        assert max(len(run.utilizations) for run in runs) == 2 * 256 + 1
        cold = TableCollector().collect(cold_outcome)
        warm = TableCollector().collect(warm_outcome)
        assert warm.to_rows() == cold.to_rows()
        assert rows_to_csv_text(warm.to_rows()) == rows_to_csv_text(cold.to_rows())

    def test_hit_equals_miss_without_simulation(self, tmp_path):
        spec = small_spec(mode="analysis", cluster_counts=[2, 4, 8])
        cache = ResultCache(tmp_path / "store")
        cold = ExperimentRunner(cache=cache).run(build_plan(spec), TableCollector())
        warm = ExperimentRunner(cache=cache).run(build_plan(spec), TableCollector())
        assert cache.stats().hits == 1
        assert warm.to_rows() == cold.to_rows()
