"""``paper-figures`` and ``scenario-sweep``: in-process campaigns.

Each window is a fresh interpreter running :mod:`perfbench.inproc` on a
fresh cache.  Set-up is timed from process start to its ``ready`` line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Dict, Optional

from . import tracer
from .common import payload_sizes, probe, read_line, remove_tree, start_child, stop_child, work_dir

#: Simulated messages per run: the count the paper's validation was
#: measured at in this benchmark (the paper itself used 10 000).
MESSAGES = 2_000
#: Hard limit on one worker process, well inside the run's own limit.
WORKER_TIMEOUT_S = 150.0


def _worker(job: Dict[str, object]) -> Dict[str, object]:
    """Run one ``perfbench.inproc`` job; returns its result plus ``setup_s``."""
    scratch = work_dir("inproc-")
    try:
        job = dict(job, cache_dir=os.path.join(scratch, "cache"),
                   warm_cache_dir=os.path.join(scratch, "warm-cache"),
                   result_path=os.path.join(scratch, "result.json"))
        job_path = os.path.join(scratch, "job.json")
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        start = time.perf_counter()
        proc = start_child([sys.executable, "-m", "perfbench.inproc", job_path],
                           stdout=subprocess.PIPE, text=True)
        try:
            line = read_line(proc, WORKER_TIMEOUT_S)
            setup_s = time.perf_counter() - start
            if job["mode"] != "spec-csv" and (line is None or line.strip() != "ready"):
                raise RuntimeError(f"{job['mode']} worker did not become ready")
            proc.wait(timeout=max(1.0, WORKER_TIMEOUT_S - setup_s))
        finally:
            stop_child(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"{job['mode']} worker exited with {proc.returncode}")
        with open(job["result_path"], encoding="utf-8") as handle:
            result = json.load(handle)
        result["setup_s"] = setup_s
        result["payload_bytes"] = payload_sizes(job["cache_dir"])
        return result
    finally:
        remove_tree(scratch)


def spec_csv(spec_json: Dict[str, object]) -> Dict[str, object]:
    """Serial in-process reference CSV of one spec (fresh interpreter)."""
    return _worker({"mode": "spec-csv", "spec": spec_json})


def _window(workload: str, seed: int, seconds: float, traced: bool,
            max_ops: Optional[int] = None) -> Dict[str, object]:
    result = _worker({"mode": "window", "workload": workload, "seed": seed,
                      "seconds": seconds, "max_ops": max_ops, "trace": traced,
                      "messages": MESSAGES})
    window = {"ops": result["ops"], "payload_bytes": result["payload_bytes"],
              "setup_s": result["setup_s"], "probe_s": result["probe_s"]}
    if traced:
        layer = tracer.layer_metrics(result["spans"], len(result["ops"]))
        layer["stats.first_ci_s"] = result["first_ci_s"]
        layer["experiments.import_s"] = result["import_s"]
        window["layer"] = layer
        window["spans"] = result["spans"]
    return window


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """Three set-ups (one of them the measured window's own) and one or two windows.

    A host-speed sample is taken before every worker starts; the worker
    takes one before every operation.
    """
    probes = []
    setups = []
    for _ in range(1 if trace else 2):
        probes.append(probe())
        setups.append(_worker({"mode": "setup", "workload": workload, "trace": False})["setup_s"])
    probes.append(probe())
    if not trace:
        window = _window(workload, seed, seconds, False)
        return {"setup_s": setups + [window["setup_s"]], "windows": [window],
                "probe_s": probes + window["probe_s"]}
    plain = _window(workload, seed, seconds / 2, False)
    traced = _window(workload, seed, 1e9, True, max_ops=len(plain["ops"]))
    return {"setup_s": setups + [plain["setup_s"]], "windows": [plain, traced],
            "probe_s": probes + plain["probe_s"]}
