"""``serve``: one client on one kept-alive HTTP/1.1 connection to ``repro serve``.

The server runs as ``python -m repro serve --port 0 --pool 2 --cache DIR``.
Set-up lasts from its start until a warm-up spec (not part of the
schedule) has been computed, which boots the warm pool.  A seeded schedule
then alternates new small ``case-1``/``case-2`` specs (misses: computed on
the warm pool, then written to the cache) with resubmissions of specs
already done (hits: read from the cache).  Each operation submits the spec,
polls its job at a fixed interval and fetches the CSV.  Layer numbers come
from outside the server: the client's request timings, the job status
timestamps, ``/v1/cache/stats`` and ``/v1/health``.
"""

from __future__ import annotations

import http.client
import json
import random
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from . import campaigns
from .common import (
    OP_TIMEOUT_S,
    digest,
    payload_sizes,
    probe,
    read_line,
    remove_tree,
    start_child,
    stop_child,
    work_dir,
)

POOL = 2
#: Pause between two status polls of one job.
POLL_INTERVAL_S = 0.01
WARM_UP_SPEC = {"scenario": "case-1", "mode": "both", "cluster_counts": [2],
                "message_sizes": [512], "replications": 2, "simulation_messages": 200,
                "seed": 0}


def new_spec(rng: random.Random) -> dict:
    """A small spec: 2 cluster counts x 2 sizes x 2 replications x 1 000 messages."""
    return {"scenario": rng.choice(["case-1", "case-2"]), "mode": "both",
            "cluster_counts": [8, 32], "message_sizes": [512, 1024], "replications": 2,
            "simulation_messages": 1000, "seed": rng.randrange(1, 2**31)}


class Client:
    """One kept-alive connection; every request's round trip is recorded."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=OP_TIMEOUT_S)

    def request(self, method: str, path: str, body: Optional[dict] = None
                ) -> Tuple[float, int, bytes]:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if body is None else {"Content-Type": "application/json"}
        start = time.perf_counter()
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        return time.perf_counter() - start, response.status, data

    def get_json(self, path: str) -> dict:
        _, status, data = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} returned {status}")
        return json.loads(data)

    def run_spec(self, spec: dict) -> dict:
        """Submit, poll until settled, fetch the CSV; returns the timings and outputs."""
        out = {"status_s": [], "errors": []}
        out["submit_s"], status, data = self.request("POST", "/v1/experiments", spec)
        if status != 202:
            out["errors"].append(f"submit returned {status}: {data[:200]!r}")
            return out
        job_id = json.loads(data)["id"]
        deadline = time.perf_counter() + OP_TIMEOUT_S
        while True:
            elapsed, status, data = self.request("GET", f"/v1/jobs/{job_id}")
            out["status_s"].append(elapsed)
            job = json.loads(data) if status == 200 else {}
            if job.get("state") in ("done", "failed") or time.perf_counter() > deadline:
                break
            time.sleep(POLL_INTERVAL_S)
        out["job"] = job
        if job.get("state") != "done":
            out["errors"].append(f"job ended {job.get('state')}: {job.get('error')}")
            return out
        out["result_s"], status, out["csv"] = self.request("GET", f"/v1/jobs/{job_id}/result.csv")
        if status != 200:
            out["errors"].append(f"result.csv returned {status}")
        return out

    def close(self) -> None:
        self.conn.close()


class Server:
    """A ``repro serve`` process plus the client connected to it."""

    def __init__(self) -> None:
        self.cache = work_dir("serve-cache-")
        start = time.perf_counter()
        self.proc = start_child(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--pool", str(POOL),
             "--cache", self.cache],
            stdout=subprocess.PIPE, text=True,
        )
        self.client = None
        try:
            banner = read_line(self.proc, OP_TIMEOUT_S)
            if banner is None or "http://" not in banner:
                raise RuntimeError(f"repro serve did not start: {banner!r}")
            host, port = banner.split("http://", 1)[1].split("/", 1)[0].rsplit(":", 1)
            self.client = Client(host, int(port))
            warm = self.client.run_spec(WARM_UP_SPEC)
            if warm["errors"]:
                raise RuntimeError(f"warm-up failed: {warm['errors']}")
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        stop_child(self.proc, interrupt=True)
        remove_tree(self.cache)


def window(seed: int, seconds: float, traced: bool, max_ops: Optional[int] = None
           ) -> Dict[str, object]:
    """A fresh server; the seeded schedule runs until ``seconds`` pass or ``max_ops`` ran.

    A host-speed sample (``probe_s``) is taken before the server starts and
    before every operation, while the server is idle.
    """
    probes = [probe()]
    server = Server()
    try:
        client = server.client
        before = client.get_json("/v1/cache/stats")
        rng = random.Random(seed)
        done: List[Tuple[str, dict]] = []
        filled: Dict[str, bytes] = {}
        ops: List[dict] = []
        details: List[dict] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline and (max_ops is None or len(ops) < max_ops):
            if len(ops) % 2 == 0 or not done:
                kind, spec = "miss", new_spec(rng)
                label = f"{spec['scenario']}/seed-{spec['seed']}"
            else:
                kind, (label, spec) = "hit", rng.choice(done)
            probes.append(probe())
            start = time.perf_counter()
            out = client.run_spec(spec)
            elapsed = time.perf_counter() - start
            errors = out["errors"]
            record = {"kind": kind, "label": label, "seconds": elapsed, "ok": False,
                      "errors": errors, "msgs": 0, "digest": None}
            if not errors:
                csv, job = out["csv"], out["job"]
                record["digest"] = digest(csv)
                if job["cached"] != (kind == "hit"):
                    errors.append(f"expected a cache {kind}, job cached={job['cached']}")
                progress = job["progress"]
                if kind == "miss":
                    filled[label] = csv
                    done.append((label, spec))
                    if progress["done"] != progress["total"]:
                        errors.append(f"only {progress['done']} of {progress['total']} tasks ran")
                    record["msgs"] = (progress["total"] * spec["simulation_messages"]
                                      if not errors else 0)
                elif csv != filled[label]:
                    errors.append("cache hit CSV differs from the miss that filled it")
            record["ok"] = not errors
            ops.append(record)
            if traced:
                details.append({k: out.get(k) for k in ("submit_s", "status_s", "result_s")}
                               | {"job": out.get("job"), "seconds": elapsed})
        after = client.get_json("/v1/cache/stats")
        health = client.get_json("/v1/health")
        result: Dict[str, object] = {"ops": ops, "payload_bytes": payload_sizes(server.cache),
                                     "setup_s": server.setup_s, "probe_s": probes}
    finally:
        server.close()
    if done:
        _check_against_serial(ops, done[0], filled)
    if traced:
        result["layer"] = _layers(ops, details, before, after, health)
        result["requests"] = details
    return result


def _check_against_serial(ops: List[dict], first_done: Tuple[str, dict],
                          filled: Dict[str, bytes]) -> None:
    """Once per window, outside the timed region: the first served miss must
    equal an in-process serial run of the same spec."""
    label, spec = first_done
    first = next(op for op in ops if op["kind"] == "miss" and op["label"] == label)
    reference = campaigns.spec_csv(spec)
    if reference["csv"].encode("utf-8") != filled[label]:
        first["errors"].append("served CSV differs from an in-process serial run")
    if reference["incomplete"]:
        first["errors"].append(f"{reference['incomplete']} runs completed too few messages")
    first["ok"] = not first["errors"]


def _layers(ops, details, before, after, health) -> Dict[str, float]:
    n = max(len(ops), 1)
    hits = [d["job"] for op, d in zip(ops, details) if op["kind"] == "hit" and d.get("job")]
    misses = [d["job"] for op, d in zip(ops, details) if op["kind"] == "miss" and d.get("job")]

    def med(values):
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else 0.0

    exec_miss = sum(j["finished_at"] - j["started_at"] for j in misses)
    hit_details = [d for op, d in zip(ops, details) if op["kind"] == "hit" and op["ok"]]
    trips = [(d["submit_s"] + sum(d["status_s"]) + d["result_s"]) / d["seconds"]
             for d in hit_details]
    msgs = sum(op["msgs"] for op in ops if op["kind"] == "miss")
    lookups = (after["hits"] + after["misses"]) - (before["hits"] + before["misses"])
    return {
        "service.submit_s": med(d["submit_s"] for d in details),
        "service.status_s": med(s for d in details for s in d["status_s"] or []),
        "service.result_s": med(d["result_s"] for d in details),
        "service.polls": sum(len(d["status_s"] or []) for d in details) / n,
        "service.hit_polls": sum(len(d["status_s"]) for d in hit_details) / max(len(hit_details), 1),
        "service.hit_roundtrip_share": med(trips),
        "service.queue_s": med(j["started_at"] - j["submitted_at"] for j in hits + misses),
        "service.exec_s": med(j["finished_at"] - j["started_at"] for j in hits + misses),
        "cache.get_s": med(j["finished_at"] - j["started_at"] for j in hits),
        "cache.lookups": lookups / n,
        "cache.hit_ratio": (after["hits"] - before["hits"]) / lookups if lookups else 0.0,
        "cache.puts": (after["puts"] - before["puts"]) / n,
        "experiments.tasks": sum(j["progress"]["total"] for j in misses) / n,
        "simulation.msgs": msgs / n,
        "simulation.busy_msgs_per_s": msgs / exec_miss if exec_miss > 0 else 0.0,
        "parallel.pool_boots": float(health.get("pools_created", 0)),
    }


def run(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """Three set-ups (one of them the measured window's own) and one or two windows."""
    probes: List[float] = []
    setups = []
    for _ in range(1 if trace else 2):
        probes.append(probe())
        spare = Server()
        setups.append(spare.setup_s)
        spare.close()
    if not trace:
        measured = window(seed, seconds, False)
        return {"setup_s": setups + [measured["setup_s"]], "windows": [measured],
                "probe_s": probes + measured["probe_s"]}
    plain = window(seed, seconds / 2, False)
    traced = window(seed, 1e9, True, max_ops=len(plain["ops"]))
    return {"setup_s": setups + [plain["setup_s"]], "windows": [plain, traced],
            "probe_s": probes + plain["probe_s"]}
