"""Tests for the `repro serve` HTTP service (jobs, cache, warm pool).

The HTTP tests run a real :class:`ReproService` on an ephemeral loopback
port and speak to it with :mod:`http.client` — the same wire a curl user
hits, on a new connection per request or on one kept-alive connection.
Execution backends are injected per test: a serial backend keeps the
round-trip tests fast, a blocking stub makes queue-order tests
deterministic, and the real :class:`PersistentPoolBackend` proves the
warm-pool contract.
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time

import pytest

from repro.cache import ResultCache
from repro.experiments.pipeline import (
    ExperimentRunner,
    ExperimentSpec,
    TableCollector,
    build_plan,
)
from repro.parallel import PersistentPoolBackend, SerialBackend
from repro.service import JobManager, ReproService
from repro.viz.tables import rows_to_csv_text

FP = "c" * 64


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


class _Client:
    """Tiny JSON-over-HTTP helper bound to one running service.

    Each request opens its own connection, unless ``keep_alive`` sends them
    all on one HTTP/1.1 connection (as perfbench's client and most HTTP
    libraries do).
    """

    def __init__(self, service: ReproService, keep_alive: bool = False) -> None:
        self.host, self.port = service.address
        self.conn = self._connect() if keep_alive else None

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=30)

    def exchange(self, method: str, path: str, body=None, headers=None):
        """One request; returns the response and its body, already read."""
        conn = self.conn or self._connect()
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            payload = response.read()
        finally:
            if conn is not self.conn:
                conn.close()
        return response, payload

    def request(self, method: str, path: str, body=None, headers=None):
        response, payload = self.exchange(method, path, body=body, headers=headers)
        return response.status, payload

    def json(self, method: str, path: str, body=None):
        status, payload = self.request(method, path, body=body)
        return status, json.loads(payload)

    def submit(self, spec: ExperimentSpec):
        return self.json("POST", "/v1/experiments", body=spec.to_json_text())

    def poll(self, status_url: str):
        """Poll a job until it settles; returns its last status body."""
        deadline = time.monotonic() + 30
        while True:
            status, body = self.json("GET", status_url)
            assert status == 200
            if body["state"] in ("done", "failed"):
                return body
            assert time.monotonic() < deadline
            time.sleep(0.01)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()


@pytest.fixture()
def serial_service(tmp_path):
    cache = ResultCache(tmp_path / "cache", fingerprint=FP)
    manager = JobManager(cache, jobs=1, backend=SerialBackend())
    with ReproService(manager) as service:
        yield service


class TestRoundTrip:
    def test_submit_poll_fetch_matches_direct_run(self, serial_service, tmp_path):
        client = _Client(serial_service)
        spec = small_spec()
        status, submitted = client.submit(spec)
        assert status == 202
        assert submitted["state"] in ("queued", "running")
        assert len(submitted["cache_key"]) == 64

        job = serial_service.manager.wait(submitted["id"])
        assert job.state == "done"

        status, body = client.json("GET", submitted["status_url"])
        assert status == 200
        assert body["state"] == "done"
        assert body["progress"] == {"done": 1, "total": 1}
        assert body["spec"]["scenario"] == "case-1"

        status, result = client.json("GET", submitted["result_url"])
        assert status == 200
        # The service's rows are exactly what the pipeline computes directly.
        direct = ExperimentRunner().run(build_plan(spec), TableCollector())
        assert result["rows"] == direct.to_rows()
        assert result["accuracy"] == direct.accuracy_summary().as_dict()
        assert result["cached"] is False

        status, csv_bytes = client.request("GET", submitted["result_url"] + ".csv")
        assert status == 200
        assert csv_bytes.decode("utf-8") == rows_to_csv_text(direct.to_rows())

    def test_resubmission_is_served_from_cache(self, serial_service):
        client = _Client(serial_service)
        spec = small_spec()
        _, first = client.submit(spec)
        serial_service.manager.wait(first["id"])
        _, csv_cold = client.request("GET", first["result_url"] + ".csv")

        status, second = client.submit(spec)
        assert status == 202
        assert second["id"] != first["id"]
        assert second["cache_key"] == first["cache_key"]
        # A hit is answered at submission: no poll is needed.
        assert second["state"] == "done"
        status, body = client.json("GET", second["status_url"])
        assert body["cached"] is True
        assert body["progress"] == {"done": 1, "total": 1}
        assert body["submitted_at"] <= body["started_at"] <= body["finished_at"]
        _, csv_warm = client.request("GET", second["result_url"] + ".csv")
        assert csv_warm == csv_cold

    def test_legacy_engine_mode_submission_is_accepted(self, serial_service):
        """A submission written for older releases loads; the key is ignored."""
        client = _Client(serial_service)
        spec = small_spec(mode="analysis")
        _, plain = client.submit(spec)
        body = json.dumps({**spec.to_json(), "engine_mode": "vectorized"})
        with pytest.warns(DeprecationWarning, match="engine_mode"):
            status, legacy = client.json("POST", "/v1/experiments", body=body)
        assert status == 202
        assert legacy["cache_key"] == plain["cache_key"]

    def test_health_reports_cache_and_jobs(self, serial_service):
        client = _Client(serial_service)
        status, health = client.json("GET", "/v1/health")
        assert status == 200
        assert health["status"] == "ok"
        assert health["jobs"] == 0
        assert health["cache"]["entries"] == 0

    def test_cache_endpoints(self, serial_service):
        client = _Client(serial_service)
        _, submitted = client.submit(small_spec(mode="analysis"))
        serial_service.manager.wait(submitted["id"])
        key = submitted["cache_key"]

        status, listing = client.json("GET", "/v1/cache")
        assert status == 200
        assert [entry["key"] for entry in listing["entries"]] == [key]
        status, stats = client.json("GET", "/v1/cache/stats")
        assert stats["entries"] == 1
        status, entry = client.json("GET", f"/v1/cache/{key}")
        assert entry["spec"]["scenario"] == "case-1"
        status, body = client.json("DELETE", f"/v1/cache/{key}")
        assert status == 200 and body == {"evicted": key}
        status, _ = client.json("DELETE", f"/v1/cache/{key}")
        assert status == 404


class TestKeptAlive:
    """Every request on one kept-alive connection, as most HTTP clients send them."""

    def test_round_trips_do_not_stall(self, serial_service):
        # A response sent as two segments waits for the client's delayed
        # ACK before its second one leaves: >= 40 ms a round trip on Linux.
        client = _Client(serial_service, keep_alive=True)
        try:
            times = []
            for _ in range(20):
                start = time.perf_counter()
                status, _ = client.request("GET", "/v1/health")
                times.append(time.perf_counter() - start)
                assert status == 200
        finally:
            client.close()
        assert statistics.median(times) < 0.020

    def test_one_connection_serves_the_direct_run_bytes(self, serial_service):
        spec = small_spec()
        direct = ExperimentRunner().run(build_plan(spec), TableCollector())
        expected = rows_to_csv_text(direct.to_rows()).encode("utf-8")
        client = _Client(serial_service, keep_alive=True)
        try:
            client.conn.connect()
            sock = client.conn.sock
            served = []
            for _ in range(2):  # the miss, then the hit it filled
                status, submitted = client.submit(spec)
                assert status == 202
                assert client.poll(submitted["status_url"])["state"] == "done"
                served.append(client.request("GET", submitted["result_url"] + ".csv"))
            # Every request went over the one connection opened first.
            assert client.conn.sock is sock
        finally:
            client.close()
        assert served == [(200, expected), (200, expected)]

    def test_miss_then_hit_count_one_lookup_each(self, serial_service):
        client = _Client(serial_service, keep_alive=True)
        spec = small_spec(mode="analysis")
        try:
            _, before = client.json("GET", "/v1/cache/stats")
            for _ in range(2):
                _, submitted = client.submit(spec)
                client.poll(submitted["status_url"])
            _, after = client.json("GET", "/v1/cache/stats")
        finally:
            client.close()
        moved = {name: after[name] - before[name] for name in ("hits", "misses", "puts")}
        assert moved == {"hits": 1, "misses": 1, "puts": 1}


class TestErrors:
    def test_malformed_submissions_are_4xx(self, serial_service):
        client = _Client(serial_service)
        cases = [
            "this is not json",
            json.dumps({"scenario": "no-such-scenario"}),
            json.dumps({"scenario": "case-1", "warp_factor": 9}),
            json.dumps({"scenario": "case-1", "mode": "telepathy"}),
            json.dumps({"scenario": "case-1", "replications": 0}),
        ]
        for body in cases:
            status, response = client.json("POST", "/v1/experiments", body=body)
            assert status == 400, body
            assert response["error"]
        # Nothing was queued by any of them.
        assert serial_service.manager.list_jobs() == []

    def test_malformed_numbers_are_400_and_keep_the_connection(self, serial_service):
        """A string size or a NaN rate gets a 400 JSON error and queues
        nothing (a NaN rate would hang the one dispatcher), and the
        kept-alive connection still answers."""
        client = _Client(serial_service, keep_alive=True)
        try:
            for body in (
                '{"scenario": "case-1", "message_sizes": ["512"]}',
                '{"scenario": "case-1", "generation_rates": [NaN]}',
            ):
                status, response = client.json("POST", "/v1/experiments", body=body)
                assert status == 400, body
                assert response["error"]
            status, health = client.json("GET", "/v1/health")
            assert status == 200 and health["status"] == "ok"
        finally:
            client.close()
        assert serial_service.manager.list_jobs() == []

    @pytest.mark.parametrize(
        "body, message",
        [
            ('{"scenario": "case-1", "message_sizes": [Infinity]}',
             "message_sizes must be a finite number, got inf"),
            ('{"scenario": "case-1", "generation_rates": [true]}',
             "generation_rates must be a finite number, got True"),
            ('{"scenario": "case-1", "switch_latency_us": "3"}',
             "switch_latency_us must be a finite number, got '3'"),
            ('{"scenario": "case-1", "message_sizes": 512}',
             "message_sizes must be a list, got 512"),
            ('{"scenario": "case-1", "mode": "simulate", '
             '"failures": {"mtbf_s": NaN, "mttr_s": 1.0}}',
             "mtbf_s must be a positive finite number, got nan"),
        ],
    )
    def test_malformed_number_error_is_the_spec_message(self, serial_service, body, message):
        """The 400 carries the same message ``repro run`` prints."""
        status, response = _Client(serial_service).json("POST", "/v1/experiments", body=body)
        assert (status, response["error"]) == (400, message)
        assert serial_service.manager.list_jobs() == []

    def test_empty_body_is_400(self, serial_service):
        status, body = _Client(serial_service).json("POST", "/v1/experiments")
        assert status == 400

    def test_oversized_body_is_413(self, serial_service):
        from repro.service.http import MAX_BODY_BYTES

        client = _Client(serial_service)
        status, _ = client.request(
            "POST", "/v1/experiments", body=b"",
            headers={"Content-Length": str(MAX_BODY_BYTES + 1)},
        )
        assert status == 413

    def test_failed_cache_read_fails_the_job_not_the_request(
        self, serial_service, monkeypatch
    ):
        def unreadable(plan):
            raise OSError("cache volume unreadable")

        monkeypatch.setattr(serial_service.manager.cache, "get_outcome", unreadable)
        client = _Client(serial_service)
        status, submitted = client.submit(small_spec())
        assert status == 202
        assert submitted["state"] == "failed"
        status, body = client.json("GET", submitted["result_url"])
        assert status == 500
        assert "cache volume unreadable" in body["error"]

    def test_refusal_with_unread_body_closes_the_connection(self, serial_service):
        from repro.service.http import MAX_BODY_BYTES

        # Each refusal leaves a body unread; on a kept-alive connection the
        # server would parse those bytes as the next request.
        cases = [
            ("/v1/experiments", {"Content-Length": "abc"}, 400),
            ("/v1/experiments", {"Content-Length": str(MAX_BODY_BYTES + 1)}, 413),
            ("/v1/jobs", {}, 404),
        ]
        client = _Client(serial_service, keep_alive=True)
        try:
            for path, headers, expected in cases:
                response, _ = client.exchange("POST", path, body=b"{}", headers=headers)
                assert response.status == expected, path
                assert response.getheader("Connection") == "close", path
                # The connection reconnects for the next request.
                status, health = client.json("GET", "/v1/health")
                assert status == 200 and health["status"] == "ok"
        finally:
            client.close()

    def test_unknown_paths_are_404(self, serial_service):
        client = _Client(serial_service)
        for method, path in [
            ("GET", "/nope"),
            ("GET", "/v1/nope"),
            ("GET", "/v1/jobs/job-999999"),
            ("GET", "/v1/jobs/job-999999/result"),
            ("GET", "/v1/cache/" + "0" * 64),
            ("POST", "/v1/jobs"),
            ("DELETE", "/v1/jobs"),
        ]:
            status, _ = client.request(method, path, body=b"{}" if method == "POST" else None)
            assert status == 404, (method, path)

    def test_unknown_subresource_of_a_job_is_404(self, serial_service):
        client = _Client(serial_service)
        _, submitted = client.submit(small_spec(mode="analysis"))
        serial_service.manager.wait(submitted["id"])
        status, body = client.json("GET", f"/v1/jobs/{submitted['id']}/result.json")
        assert status == 404
        assert "unknown path" in body["error"]
        status, _ = client.json("GET", f"/v1/jobs/{submitted['id']}/result")
        assert status == 200

    def test_failed_job_is_500_with_error(self, tmp_path):
        class ExplodingBackend(SerialBackend):
            def execute(self, tasks):
                raise RuntimeError("worker fleet on fire")

        cache = ResultCache(tmp_path / "cache", fingerprint=FP)
        manager = JobManager(cache, jobs=1, backend=ExplodingBackend())
        with ReproService(manager) as service:
            client = _Client(service)
            _, submitted = client.submit(small_spec())
            job = manager.wait(submitted["id"])
            assert job.state == "failed"
            status, body = client.json("GET", submitted["result_url"])
            assert status == 500
            assert "worker fleet on fire" in body["error"]
            # The dispatcher survived: an analysis-only job still completes.
            _, ok = client.submit(small_spec(mode="analysis"))
            assert manager.wait(ok["id"]).state == "done"


class _GatedBackend(SerialBackend):
    """A serial backend that waits for an event before executing."""

    def __init__(self, gate: threading.Event) -> None:
        super().__init__()
        self.gate = gate

    def execute(self, tasks):
        assert self.gate.wait(timeout=30)
        return super().execute(tasks)


def _wait_until_running(manager: JobManager) -> None:
    """Wait for the dispatcher to take the queued job, emptying the queue."""
    deadline = time.monotonic() + 30
    while manager.queue_depth() > 0:
        assert time.monotonic() < deadline
        time.sleep(0.01)


class TestConcurrency:
    def test_concurrent_submissions_queue_and_dedup(self, tmp_path):
        gate = threading.Event()
        cache = ResultCache(tmp_path / "cache", fingerprint=FP)
        manager = JobManager(cache, jobs=1, backend=_GatedBackend(gate))
        with ReproService(manager) as service:
            client = _Client(service)
            _, first = client.submit(small_spec(seed=0))
            _, second = client.submit(small_spec(seed=1))
            # While both are active, resubmitting either joins the live job.
            _, dup = client.submit(small_spec(seed=1))
            assert dup["id"] == second["id"]
            # A queued/running job's result is a 409, not an error page.
            status, _ = client.json("GET", second["result_url"])
            assert status == 409

            gate.set()
            assert manager.wait(first["id"]).state == "done"
            assert manager.wait(second["id"]).state == "done"
            # Different seeds are different campaigns with different keys.
            assert first["cache_key"] != second["cache_key"]
            status, body = client.json("GET", "/v1/jobs")
            assert {job["state"] for job in body["jobs"]} == {"done"}

    def test_parallel_clients_all_get_answers(self, serial_service):
        client = _Client(serial_service)
        results = {}

        def submit(seed: int) -> None:
            results[seed] = client.submit(small_spec(mode="analysis", seed=seed))

        threads = [threading.Thread(target=submit, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert {status for status, _ in results.values()} == {202}
        ids = {body["id"] for _, body in results.values()}
        assert len(ids) == 4
        for _, body in results.values():
            assert serial_service.manager.wait(body["id"]).state == "done"


class TestWarmPool:
    def test_two_simulation_jobs_share_one_pool(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", fingerprint=FP)
        backend = PersistentPoolBackend(jobs=1)
        manager = JobManager(cache, jobs=1, backend=backend)
        with ReproService(manager) as service:
            client = _Client(service)
            for seed in (0, 1):
                _, submitted = client.submit(small_spec(seed=seed))
                assert manager.wait(submitted["id"], timeout=120).state == "done"
            status, health = client.json("GET", "/v1/health")
            assert health["pools_created"] == 1
        backend.close()

    def test_journal_removed_after_completed_job(self, serial_service):
        import os

        client = _Client(serial_service)
        _, submitted = client.submit(small_spec())
        serial_service.manager.wait(submitted["id"])
        journal = os.path.join(
            serial_service.manager.state_dir, f"{submitted['cache_key']}.journal"
        )
        assert not os.path.exists(journal)


class _CountingBackend(_GatedBackend):
    """A gated serial backend that records how many tasks each run hands it."""

    def __init__(self, gate: threading.Event) -> None:
        super().__init__(gate)
        self.runs = []

    def execute(self, tasks):
        self.runs.append(len(tasks))
        return super().execute(tasks)


class TestTaskCount:
    """A job counts its simulation tasks from the grid; only a miss builds them."""

    def test_hit_builds_no_simulation_tasks(self, serial_service, monkeypatch):
        plans = []

        def recording_build_plan(spec):
            plans.append(build_plan(spec))
            return plans[-1]

        monkeypatch.setattr("repro.service.jobs.build_plan", recording_build_plan)
        manager = serial_service.manager
        spec = small_spec(cluster_counts=[2, 4], replications=2)
        assert manager.wait(manager.submit(spec).id).state == "done"

        hit = manager.submit(spec)
        assert hit.cached and hit.state == "done"
        assert "simulation" not in plans[-1].__dict__
        assert hit.total_tasks == hit.done_tasks == 4

    def test_miss_total_is_the_dispatched_task_count(self, tmp_path):
        gate = threading.Event()
        backend = _CountingBackend(gate)
        cache = ResultCache(tmp_path / "cache", fingerprint=FP)
        manager = JobManager(cache, jobs=1, backend=backend)
        try:
            first = manager.submit(small_spec())
            _wait_until_running(manager)
            # The dispatcher is held on the first job, so the second's total
            # is still the one counted at submission.
            second = manager.submit(small_spec(cluster_counts=[2, 4], replications=3))
            submitted_total = second.total_tasks
            gate.set()
            assert manager.wait(first.id).state == "done"
            assert manager.wait(second.id).state == "done"
        finally:
            manager.close()
        assert submitted_total == backend.runs[1] == 6
        assert second.as_dict()["progress"] == {"done": 6, "total": 6}


class TestLoadShedding:
    def test_negative_queue_bound_rejected(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", fingerprint=FP)
        with pytest.raises(ValueError, match="max_queued"):
            JobManager(cache, jobs=1, backend=SerialBackend(), max_queued=-1)

    def test_wait_on_unknown_job_returns_none(self, serial_service):
        assert serial_service.manager.wait("job-999999") is None

    def test_full_queue_is_503_with_retry_after(self, tmp_path):
        gate = threading.Event()
        cache = ResultCache(tmp_path / "cache", fingerprint=FP)
        manager = JobManager(cache, jobs=1, backend=_GatedBackend(gate), max_queued=1)
        try:
            with ReproService(manager) as service:
                client = _Client(service)
                _, first = client.submit(small_spec(seed=0))
                _wait_until_running(manager)
                _, second = client.submit(small_spec(seed=1))

                # The queue is at its bound: a third campaign is shed.
                host, port = service.address
                conn = http.client.HTTPConnection(host, port, timeout=30)
                try:
                    conn.request(
                        "POST", "/v1/experiments", body=small_spec(seed=2).to_json_text()
                    )
                    response = conn.getresponse()
                    body = json.loads(response.read())
                finally:
                    conn.close()
                assert response.status == 503
                assert "queue is full" in body["error"]
                assert body["retry_after"] > 0
                assert int(response.getheader("Retry-After")) >= 1

                # Resubmitting a queued campaign still joins the live job
                # (dedup wins over the bound).
                _, dup = client.submit(small_spec(seed=1))
                assert dup["id"] == second["id"]

                # Health shows the pressure while the queue is full.
                _, health = client.json("GET", "/v1/health")
                assert health["queued"] == 1
                assert health["max_queued"] == 1

                gate.set()
                assert manager.wait(first["id"]).state == "done"
                assert manager.wait(second["id"]).state == "done"
                # With the queue drained, submissions are accepted again.
                status, third = client.submit(small_spec(seed=2))
                assert status == 202
                assert manager.wait(third["id"]).state == "done"
        finally:
            gate.set()

    def test_cached_spec_is_never_shed(self, tmp_path):
        gate = threading.Event()
        cache = ResultCache(tmp_path / "cache", fingerprint=FP)
        cached = small_spec(seed=9)
        ExperimentRunner(cache=cache).run(build_plan(cached), TableCollector())
        manager = JobManager(cache, jobs=1, backend=_GatedBackend(gate), max_queued=1)
        try:
            with ReproService(manager) as service:
                client = _Client(service)
                _, running = client.submit(small_spec(seed=0))
                _wait_until_running(manager)
                _, queued = client.submit(small_spec(seed=1))
                assert client.submit(small_spec(seed=2))[0] == 503

                # A miss is running and the queue is at its bound, yet the
                # cached spec is answered at once.
                status, hit = client.submit(cached)
                assert status == 202
                assert hit["state"] == "done"
                status, _ = client.request("GET", hit["result_url"] + ".csv")
                assert status == 200
                assert manager.queue_depth() == 1

                gate.set()
                assert manager.wait(running["id"]).state == "done"
                assert manager.wait(queued["id"]).state == "done"
        finally:
            gate.set()

    def test_unbounded_by_default(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", fingerprint=FP)
        manager = JobManager(cache, jobs=1, backend=SerialBackend())
        assert manager.max_queued == 0
        with ReproService(manager) as service:
            client = _Client(service)
            statuses = [
                client.submit(small_spec(mode="analysis", seed=seed))[0]
                for seed in range(8)
            ]
            assert statuses == [202] * 8
            for job in manager.list_jobs():
                manager.wait(job.id)


class TestShutdown:
    def test_submissions_after_close_are_503(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", fingerprint=FP)
        manager = JobManager(cache, jobs=1, backend=SerialBackend())
        service = ReproService(manager).start()
        client = _Client(service)
        manager.close()
        try:
            status, body = client.json(
                "POST", "/v1/experiments", body=small_spec().to_json_text()
            )
            assert status == 503
        finally:
            service.stop()
