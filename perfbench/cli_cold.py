"""``cli-cold``: every operation is a fresh ``python -m repro run`` process.

Each pass runs every scenario's smoke spec once computing its result (a
miss), in seeded order; a scenario whose cache round trip is lossless is
then run once more, served from the cache (a hit).  A hit's CSV must equal,
byte for byte, the CSV of the miss that filled it.
"""

from __future__ import annotations

import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from . import tracer
from .common import (
    OP_TIMEOUT_S,
    ROOT,
    child_env,
    digest,
    payload_sizes,
    probe,
    read_line,
    remove_tree,
    start_child,
    stop_child,
    work_dir,
)

#: Every registered scenario at the time the benchmark was defined.
SCENARIOS = (
    "case-1", "case-2", "het-nics", "hotspot", "localized-linear", "bursty-hyper",
    "bursty-erlang", "das2-like", "llnl-like", "das2-churn", "llnl-failures", "case-1-lossy",
)
#: Failure-injection scenarios.  Their cache hits lose the
#: ``availability,throughput_msg_s,dropped`` columns, so ``cli-cold`` does
#: not re-read them and ``cli-faults`` exists to show the defect.
FAULT_SCENARIOS = ("das2-churn", "llnl-failures", "case-1-lossy")
LOSSLESS_SCENARIOS = tuple(s for s in SCENARIOS if s not in FAULT_SCENARIOS)

_RUN_SHAPE = re.compile(r"(\d+) messages x (\d+) replication")


def setup_once(probes: List[float]) -> float:
    """Fresh interpreter until ``import repro.cli`` returns."""
    probes.append(probe())
    start = time.perf_counter()
    proc = start_child(
        [sys.executable, "-c", "import repro.cli; print('ready', flush=True)"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        if read_line(proc, OP_TIMEOUT_S) is None:
            raise RuntimeError("'import repro.cli' did not complete")
        return time.perf_counter() - start
    finally:
        stop_child(proc)


def schedule(seed: int, scenarios: Sequence[str], reread: Sequence[str]):
    """Endless seeded (kind, scenario, spec seed) schedule, one pass at a time.

    A pass takes the scenarios in seeded order; each miss of a scenario in
    ``reread`` is followed by its hit, so a window cut short still has both.
    """
    rng = random.Random(seed)
    while True:
        spec_seed = rng.randrange(1, 2**31)
        for name in rng.sample(scenarios, len(scenarios)):
            yield "miss", name, spec_seed
            if name in reread:
                yield "hit", name, spec_seed


def window(
    seed: int,
    seconds: float,
    traced: bool,
    scenarios: Sequence[str],
    reread: Sequence[str],
    max_ops: Optional[int] = None,
) -> Dict[str, object]:
    """Run operations until ``seconds`` pass (or ``max_ops`` ran) on a fresh cache.

    A host-speed sample is taken before every operation (``probe_s``).
    """
    cache = work_dir("cli-cache-")
    probes: List[float] = []
    outputs = work_dir("cli-out-")
    ops: List[dict] = []
    traces: List[dict] = []
    filled: Dict[str, bytes] = {}
    try:
        deadline = time.perf_counter() + seconds
        for index, (kind, name, spec_seed) in enumerate(schedule(seed, scenarios, reread)):
            if time.perf_counter() >= deadline or (max_ops is not None and index >= max_ops):
                break
            label = f"{name}/seed-{spec_seed}"
            csv_path = os.path.join(outputs, f"{index}.csv")
            args = ["run", name, "--smoke", "--seed", str(spec_seed),
                    "--cache", cache, "--csv", csv_path]
            spans_path = os.path.join(outputs, f"{index}.spans.json")
            argv = ([sys.executable, "-m", "perfbench.traced_cli", spans_path] if traced
                    else [sys.executable, "-m", "repro"]) + args
            probes.append(probe())
            ops.append(_run_op(kind, label, argv, csv_path, filled))
            if traced and os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as handle:
                    traces.append(json.load(handle))
        result: Dict[str, object] = {"ops": ops, "payload_bytes": payload_sizes(cache),
                                     "probe_s": probes}
        if traced:
            result["spans"] = tracer.concat([t["spans"] for t in traces])
            result["layer"] = _layers(traces, result["spans"])
        return result
    finally:
        remove_tree(cache)
        remove_tree(outputs)


def _run_op(kind: str, label: str, argv: List[str], csv_path: str,
            filled: Dict[str, bytes]) -> dict:
    record = {"kind": kind, "label": label, "seconds": None, "ok": False,
              "errors": [], "msgs": 0, "digest": None}
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record["seconds"] = time.perf_counter() - start
        record["errors"].append(f"timed out after {OP_TIMEOUT_S:g} s")
        return record
    record["seconds"] = time.perf_counter() - start
    errors = record["errors"]
    if proc.returncode != 0:
        errors.append(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return record
    if f"[cache {kind}]" not in proc.stderr:
        errors.append(f"expected a cache {kind}: {proc.stderr.strip()[-200:]}")
    try:
        with open(csv_path, "rb") as handle:
            csv = handle.read()
    except OSError as exc:
        errors.append(f"no CSV: {exc}")
        return record
    record["digest"] = digest(csv)
    if kind == "miss":
        filled[label] = csv
        shape = _RUN_SHAPE.search(proc.stdout)
        rows = max(len(csv.splitlines()) - 1, 0)
        if shape is None or rows == 0:
            errors.append("miss output lacks the simulated run shape or rows")
        else:
            record["msgs"] = rows * int(shape.group(1)) * int(shape.group(2))
    elif csv != filled.get(label):
        errors.append("cache hit CSV differs from the miss that filled it"
                      + _lost_columns(filled.get(label, b""), csv))
    record["ok"] = not errors
    return record


def _lost_columns(miss: bytes, hit: bytes) -> str:
    """The CSV columns a hit lacks, as a note for the failure report."""
    header = lambda data: data.split(b"\n", 1)[0].decode("utf-8", "replace").split(",")
    lost = [c for c in header(miss) if c not in header(hit)]
    return f" (columns lost: {','.join(lost)})" if lost else ""


def _layers(traces: List[dict], spans: List[list]) -> Dict[str, float]:
    """Per-layer metrics of a traced window (one traced process per operation)."""
    layer = tracer.layer_metrics(spans, len(traces))
    layer["cli.import_s"] = statistics.median(t["import_s"] for t in traces)
    firsts = []
    for t in traces:
        calls = [s for s in t["spans"] if s[0] == "stats.t_quantile"]
        if calls:
            firsts.append(calls[0][2] - calls[0][1])
    layer["stats.first_ci_s"] = statistics.median(firsts) if firsts else 0.0
    return layer


def run(seed: int, seconds: float, trace: bool, scenarios: Sequence[str],
        reread: Sequence[str]) -> Dict[str, object]:
    """Set up five times (a set-up is cheap here) and measure one window
    (two, untraced then traced, with ``trace``)."""
    probes: List[float] = []
    setups = [setup_once(probes) for _ in range(5)]
    if not trace:
        measured = window(seed, seconds, False, scenarios, reread)
        return {"setup_s": setups, "windows": [measured],
                "probe_s": probes + measured["probe_s"]}
    plain = window(seed, seconds / 2, False, scenarios, reread)
    traced = window(seed, 1e9, True, scenarios, reread, max_ops=len(plain["ops"]))
    return {"setup_s": setups, "windows": [plain, traced], "probe_s": probes + plain["probe_s"]}
