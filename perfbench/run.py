"""The repository's benchmark: one seeded workload per run, checked and traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --steadiness --seeds 1-10 --sets 2 --seconds 20

A run measures one workload for ``--seconds`` seconds of operations, checks
every output, prints a report (every metric by name, with its unit) and, as
its last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the run measures an untraced window
of ``--seconds/2`` and then the same operations with layer spans recorded,
and the metrics are the per-layer ones.

End-to-end times are reported at the reference host speed: a short fixed
loop (the host probe) is timed at the start and end of the run and before
every set-up and operation, and times are divided by the median probe's
slowdown against :data:`perfbench.common.REFERENCE_PROBE_S`.  The report
prints them as measured too.  The full record of a run (host, probe
samples, every operation with its output digest, per-layer numbers, spans)
is written under ``.perfbench/results/``.

``--steadiness`` runs the given seeds on each workload, ``--sets`` times
over, and reports each end-to-end metric's median and quartiles, whether
its spread fits the bound in ``BENCHMARK.json``, whether the sets' medians
agree within it, and whether the output digests of equal seeds agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import campaigns, cli_cold, serve  # noqa: E402
from perfbench.common import (  # noqa: E402
    OUT,
    REFERENCE_PROBE_S,
    ROOT,
    host_record,
    host_slowdown,
    median,
    peak_child_rss_mb,
    probe,
    program_present,
    quartiles,
    remove_tree,
    tail,
)


class Workload(NamedTuple):
    why: str
    run: Callable[[int, float, bool], Dict[str, object]]


WORKLOADS: Dict[str, Workload] = {
    "cli-cold": Workload(
        "The commonest user action, and the only one that pays interpreter start, "
        "'import repro.cli' and the lazy scipy import on every call.",
        lambda seed, seconds, trace: cli_cold.run(
            seed, seconds, trace, cli_cold.SCENARIOS, cli_cold.LOSSLESS_SCENARIOS),
    ),
    "paper-figures": Workload(
        "The paper's validation run (Figures 4-7 via run_figure, 9 cluster counts x 2 sizes); "
        "a change to the closed-loop engine must show it costs nothing here.",
        lambda seed, seconds, trace: campaigns.run("paper-figures", seed, seconds, trace),
    ),
    "scenario-sweep": Workload(
        "Campaigns of the five scenarios whose draws depend on simulation state, which the "
        "vectorized engine refuses, so the DES does all their work.",
        lambda seed, seconds, trace: campaigns.run("scenario-sweep", seed, seconds, trace),
    ),
    "serve": Workload(
        "The only path through the warm pool and HTTP, and the only one with cache writes "
        "beside cache reads.",
        lambda seed, seconds, trace: serve.run(seed, seconds, trace),
    ),
    # Not in BENCHMARK.json: its cache hits fail their check by design.
    "cli-faults": Workload(
        "Shows a defect: cache hits of the failure scenarios lose the "
        "availability,throughput_msg_s,dropped columns of the run that filled them.",
        lambda seed, seconds, trace: cli_cold.run(
            seed, seconds, trace, cli_cold.FAULT_SCENARIOS, cli_cold.FAULT_SCENARIOS),
    ),
}


class Metric(NamedTuple):
    unit: str
    meaning: str


END_TO_END: Dict[str, Metric] = {
    "setup_s": Metric("s", "fresh interpreter until the first timed operation can start "
                           "(median of the run's set-ups)"),
    "miss_s.mean": Metric("s", "mean wall time of an operation whose result is computed"),
    "miss_s.p50": Metric("s", "median of the same"),
    "miss_s.tail": Metric("s", "highest percentile of misses with >= 10 beyond it"),
    "hit_s.mean": Metric("s", "mean wall time of an operation served from the result cache"),
    "hit_s.p50": Metric("s", "median of the same"),
    "hit_s.tail": Metric("s", "highest percentile of hits with >= 10 beyond it"),
    "sim_msgs_per_s": Metric("msg/s", "simulated messages per second of miss wall time"),
    "peak_rss_mb": Metric("MiB", "largest peak RSS of any of the program's processes"),
    "failed_frac": Metric("ratio", "operations that failed or returned wrong output, "
                                   "over operations attempted"),
}

#: Per-layer metrics of the final line with --trace 1 (every workload has them).
PER_LAYER: Dict[str, str] = {
    "cache.get_s": "s",
    "cache.hit_ratio": "ratio",
    "cache.payload_bytes": "B",
    "experiments.tasks": "count",
    "simulation.busy_msgs_per_s": "msg/s",
    "trace.overhead_frac": "ratio",
}

#: Units of the per-layer report, by metric-name suffix.
_LAYER_UNITS = {"_s": "s", "_s.p50": "s", "per_s": "msg/s", "ratio": "ratio",
                "frac": "ratio", "share": "ratio", "bytes": "B"}


def layer_unit(name: str) -> str:
    if name in PER_LAYER:
        return PER_LAYER[name]
    for suffix, unit in _LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# -- one run ----------------------------------------------------------------------


#: End-to-end metrics that are times (scaled by the host slowdown) or rates
#: (scaled by its inverse).
_TIMES = ("setup_s", "miss_s.mean", "miss_s.p50", "miss_s.tail",
          "hit_s.mean", "hit_s.p50", "hit_s.tail")
_RATES = ("sim_msgs_per_s",)


def at_reference_speed(raw: Dict[str, object], slowdown: float) -> Dict[str, object]:
    """``raw`` with times and rates scaled to the reference host speed.

    On a shared host the CPU speed drifts by tens of percent over minutes
    and the program's times follow it; dividing by the slowdown the host
    probe measured during the same run keeps runs comparable.
    """
    def scale(value, factor):
        if isinstance(value, dict):
            return dict(value, value=value["value"] * factor)
        return None if value is None else value * factor

    out = dict(raw)
    for name in _TIMES:
        out[name] = scale(raw[name], 1.0 / slowdown)
    for name in _RATES:
        out[name] = scale(raw[name], slowdown)
    return out


def end_to_end(outcome: Dict[str, object]) -> Dict[str, object]:
    """End-to-end metrics of the untraced window, as measured."""
    ops = outcome["windows"][0]["ops"]
    miss = [op["seconds"] for op in ops if op["kind"] == "miss" and op["ok"]]
    hit = [op["seconds"] for op in ops if op["kind"] == "hit" and op["ok"]]
    msgs = sum(op["msgs"] for op in ops if op["kind"] == "miss" and op["ok"])
    failed = sum(1 for op in ops if not op["ok"])
    return {
        "setup_s": median(outcome["setup_s"]),
        "miss_s.mean": statistics.mean(miss) if miss else None,
        "miss_s.p50": median(miss),
        "miss_s.tail": tail(miss),
        "hit_s.mean": statistics.mean(hit) if hit else None,
        "hit_s.p50": median(hit),
        "hit_s.tail": tail(hit),
        "sim_msgs_per_s": msgs / sum(miss) if miss else None,
        "peak_rss_mb": peak_child_rss_mb(),
        "failed_frac": failed / len(ops) if ops else None,
    }


def per_layer(outcome: Dict[str, object]) -> Dict[str, float]:
    """Per-layer metrics of the traced window, plus the tracing overhead."""
    plain, traced = outcome["windows"]
    layer = dict(traced["layer"])
    layer["cache.payload_bytes"] = median(traced["payload_bytes"]) or 0.0
    # Each window's time is taken at its own host speed: the two windows run
    # one after the other, and the host can drift between them.
    plain_s = sum(op["seconds"] for op in plain["ops"]) / host_slowdown(plain["probe_s"])
    traced_s = sum(op["seconds"] for op in traced["ops"]) / host_slowdown(traced["probe_s"])
    layer["trace.overhead_frac"] = traced_s / plain_s - 1.0 if plain_s else 0.0
    return layer


def attribution(workload: str, e2e: Dict[str, object], layer: Dict[str, float]) -> List[str]:
    """Where the two costs found while defining the benchmark go."""
    lines = []
    if workload == "cli-cold" and e2e["miss_s.p50"]:
        share = (layer["cli.import_s"] + layer["stats.first_ci_s"]) / e2e["miss_s.p50"]
        lines.append(f"  cli.import_s + stats.first_ci_s = {share:.0%} of miss_s.p50")
    if workload == "serve":
        lines.append(f"  service round trips (submit + polls + result) = "
                     f"{layer['service.hit_roundtrip_share']:.0%} of a hit (median over hits)")
    return lines


def _fmt(value: object) -> str:
    if isinstance(value, dict):
        return f"p{value['percentile']:g} = {value['value']:.6g} (of {value['samples']})"
    return "n/a" if value is None else f"{value:.6g}"


def run_one(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    host = host_record()
    calibration_start = probe()
    outcome = workload.run(args.seed, float(args.seconds), bool(args.trace))
    calibration_end = probe()
    probes = [calibration_start, *outcome["probe_s"], calibration_end]
    slowdown = host_slowdown(probes)

    raw = end_to_end(outcome)
    e2e = at_reference_speed(raw, slowdown)
    ops = outcome["windows"][0]["ops"]
    attempted = len(ops)
    failed = sum(1 for op in ops if not op["ok"])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"why: {workload.why}")
    print(f"host: {json.dumps(host)}")
    print(f"host probe: start={calibration_start:.4f} s end={calibration_end:.4f} s "
          f"median={statistics.median(probes):.4f} s of {len(probes)} -> slowdown "
          f"{slowdown:.3f} against the reference {REFERENCE_PROBE_S} s")
    kinds = {k: sum(1 for op in ops if op["kind"] == k) for k in ("miss", "hit")}
    print(f"end-to-end (untraced window: {attempted} operations, {kinds['miss']} misses, "
          f"{kinds['hit']} hits); times and rates at the reference host speed, "
          f"[as measured]:")
    for name, metric in END_TO_END.items():
        measured = f"[{_fmt(raw[name])}]" if name in _TIMES + _RATES else ""
        print(f"  {name:<16} {_fmt(e2e[name]):>26} {measured:>30} {metric.unit:<6} "
              f"{metric.meaning}")
    for op in ops:
        for error in op["errors"]:
            print(f"  FAILED {op['kind']} {op['label']}: {error.strip().splitlines()[-1]}")

    layer = None
    if args.trace:
        layer = per_layer(outcome)
        print(f"per-layer (traced window, {len(outcome['windows'][1]['ops'])} operations):")
        for name in sorted(layer):
            print(f"  {name:<44} {layer[name]:>14.6g} {layer_unit(name)}")
        print("attribution:")
        for line in attribution(args.workload, raw, layer):
            print(line)

    record = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "probe_s": probes, "slowdown": slowdown, "setup_s": outcome["setup_s"],
        "end_to_end": e2e, "end_to_end_as_measured": raw, "per_layer": layer,
        "attempted": attempted, "failed": failed, "windows": outcome["windows"],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    print(f"results: {path.relative_to(ROOT)}")

    if args.trace:
        metrics = {name: {"value": float(layer.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": float(e2e[name] or 0.0), "unit": END_TO_END[name].unit}
                   for name in benchmark_spec()["end_to_end"]}
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))
    return 0


def benchmark_spec() -> Dict[str, object]:
    """The parts of ``BENCHMARK.json`` the benchmark reads."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "run_seconds": spec["run_seconds"],
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
    }


# -- steadiness ---------------------------------------------------------------------


def _seeds(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def steadiness(args: argparse.Namespace) -> int:
    spec = benchmark_spec()
    workloads = args.workload_list or spec["workloads"]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    seeds = _seeds(args.seeds)
    runs: Dict[str, List[List[dict]]] = {w: [[] for _ in range(args.sets)] for w in workloads}
    for set_index in range(args.sets):
        for workload in workloads:
            for seed in seeds:
                runs[workload][set_index].append(_child_run(workload, seed, seconds))
    report = {"seconds": seconds, "seeds": seeds, "sets": args.sets, "workloads": {}}
    for workload in workloads:
        print(f"{workload}:")
        rows = {}
        for name, metric in spec["end_to_end"].items():
            row = {"bound": metric["bound"], "sets": []}
            for set_runs in runs[workload]:
                values = [r["metrics"][name]["value"] for r in set_runs]
                q = quartiles(values)
                spread = (q[2] - q[0]) / q[1] if q and q[1] else None
                row["sets"].append({"values": values, "quartiles": q, "spread": spread,
                                    "fits": spread is not None and spread <= metric["bound"],
                                    "steady": spread is not None
                                    and spread < metric["bound"] / 3})
            medians = [s["quartiles"][1] for s in row["sets"] if s["quartiles"]]
            if len(medians) >= 2:
                change = (medians[-1] - medians[0]) / medians[0]
                worse = change if metric["better"] == "lower" else -change
                row["sets_agree"] = worse <= metric["bound"]
            rows[name] = row
            sets_text = "  ".join(
                f"median={s['quartiles'][1]:.5g} q1={s['quartiles'][0]:.5g} "
                f"q3={s['quartiles'][2]:.5g} spread={s['spread']:.3f}"
                f"{' steady' if s['steady'] else (' fits' if s['fits'] else ' WIDE')}"
                for s in row["sets"] if s["quartiles"]
            )
            agree = "" if "sets_agree" not in row else (
                " sets agree" if row["sets_agree"] else " SETS DISAGREE")
            print(f"  {name:<16} bound={metric['bound']:<5} {sets_text}{agree}")
        digests = _digest_agreement(runs[workload])
        failed = sum(r["failed"] for set_runs in runs[workload] for r in set_runs)
        print(f"  digests: {digests['compared']} operations compared across sets, "
              f"{digests['differ']} differ; failed operations: {failed}")
        report["workloads"][workload] = {"metrics": rows, "digests": digests, "failed": failed}
    path = OUT / f"steadiness-{time.time_ns()}.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"report: {path.relative_to(ROOT)}")
    return 0


def _child_run(workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed: {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    record_path = next(line.split(": ", 1)[1] for line in lines if line.startswith("results: "))
    record = json.loads((ROOT / record_path).read_text(encoding="utf-8"))
    result["digests"] = {f"{op['kind']} {op['label']}": op["digest"]
                         for op in record["windows"][0]["ops"]}
    print(f"  {workload} seed={seed}: " + ", ".join(
        f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        + f" attempted={result['attempted']} failed={result['failed']}", flush=True)
    return result


def _digest_agreement(sets: List[List[dict]]) -> Dict[str, int]:
    compared = differ = 0
    for per_seed in zip(*sets):
        common = set.intersection(*(set(r["digests"]) for r in per_seed))
        for key in common:
            compared += 1
            if len({r["digests"][key] for r in per_seed}) > 1:
                differ += 1
    return {"compared": compared, "differ": differ}


# -- entry point --------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        dest="workload_list")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="run every seed of --seeds on each workload, --sets times")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    if not program_present():
        print("perfbench: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2
    remove_tree(str(OUT / "work"))
    if args.steadiness:
        return steadiness(args)
    if not args.workload_list or len(args.workload_list) != 1:
        parser.error("a run needs exactly one --workload")
    args.workload = args.workload_list[0]
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
