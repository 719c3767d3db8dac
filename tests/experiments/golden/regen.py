"""Regenerate the golden CLI / driver fixtures in this directory.

The fixtures pin the *results* of every CLI command (and the library
drivers underneath) so refactors of the experiment plumbing can prove
bit-identity against the pre-refactor behaviour::

    PYTHONPATH=src python tests/experiments/golden/regen.py

The captured artefacts:

* ``cli_*.txt`` / ``cli_*.csv`` / ``cli_report.md`` — verbatim CLI output
  (stdout or the written file) for one small, deterministic invocation of
  each command.
* ``driver_results.json`` — ``float.hex()``-exact headline numbers of the
  library drivers (figures, ratio, validate, ablations), so bit-identity
  does not depend on table formatting.

Only run this script to *re-seed* the fixtures after an intentional
behaviour change; the test suite (``tests/experiments/test_golden_cli.py``)
treats any diff as a regression.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# The exact argument lists the golden tests replay (kept here so the
# fixture and the test cannot drift apart).
CLI_CASES = {
    "cli_figure4_analysis.csv": [
        "figure", "4", "--clusters", "1", "4", "16", "256",
        "--sizes", "512", "1024", "--csv", "{out}",
    ],
    "cli_figure6_sim.csv": [
        "figure", "6", "--simulate", "--clusters", "2", "4", "--sizes", "512",
        "--messages", "400", "--replications", "2", "--csv", "{out}",
    ],
    "cli_ratio.csv": ["ratio", "--csv", "{out}"],
    "cli_validate.txt": [
        "validate", "--case", "case-1", "--clusters", "4",
        "--messages", "500", "--message-bytes", "512",
    ],
    "cli_ablation_switch_ports.txt": ["ablation", "switch-ports"],
    "cli_ablation_switch_latency.txt": ["ablation", "switch-latency"],
    "cli_ablation_generation_rate.txt": ["ablation", "generation-rate"],
    "cli_ablation_message_size.txt": ["ablation", "message-size"],
    "cli_ablation_fixed_point.txt": ["ablation", "fixed-point-vs-mva"],
    "cli_report.md": [
        "report", "--clusters", "1", "8", "16", "32", "256", "--output", "{out}",
    ],
}


def run_cli_case(argv, out_path=None):
    """Run one CLI invocation, returning the artefact text (stdout or file)."""
    from repro.cli import main

    argv = [a.format(out=out_path) if a == "{out}" else a for a in argv]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"CLI {argv} exited {code}")
    if out_path is not None:
        with open(out_path, "r", encoding="utf-8") as handle:
            return handle.read()
    return buffer.getvalue()


def capture_driver_results():
    """``float.hex()``-exact headline numbers of the library drivers."""
    from repro.core.model import ModelConfig
    from repro.experiments.ablations import (
        fixed_point_vs_exact_mva,
        sweep_generation_rate,
        sweep_message_size,
        sweep_switch_latency,
        sweep_switch_ports,
    )
    from repro.experiments.blocking_ratio import run_blocking_ratio_study
    from repro.experiments.figures import run_figure
    from repro.experiments.scenarios import SCENARIOS, build_scenario_system
    from repro.simulation.runner import validate_against_analysis
    from repro.simulation.simulator import SimulationConfig

    data = {}

    fig = run_figure(
        6, include_simulation=True, cluster_counts=[2, 4], message_sizes=[512],
        simulation_messages=400, replications=2, seed=0,
    )
    data["figure6"] = [
        {
            "clusters": p.num_clusters,
            "message_bytes": p.message_bytes,
            "analysis_ms": p.analysis_latency_ms.hex(),
            "simulation_ms": p.simulation_latency_ms.hex(),
        }
        for p in fig.points
    ]

    ratio = run_blocking_ratio_study(cluster_counts=[1, 4, 16, 64, 256])
    data["ratio"] = [
        {
            "scenario": p.scenario,
            "clusters": p.num_clusters,
            "message_bytes": p.message_bytes,
            "nonblocking_ms": p.nonblocking_latency_ms.hex(),
            "blocking_ms": p.blocking_latency_ms.hex(),
        }
        for p in ratio.points
    ]

    system = build_scenario_system(SCENARIOS["case-1"], 4)
    point = validate_against_analysis(
        system,
        ModelConfig(architecture="non-blocking", message_bytes=512.0, generation_rate=0.25),
        SimulationConfig(architecture="non-blocking", message_bytes=512.0,
                         generation_rate=0.25, num_messages=500),
        replications=2,
    )
    data["validate"] = {
        "analysis_ms": point.analysis_latency_ms.hex(),
        "simulation_ms": point.simulation_latency_ms.hex(),
    }

    data["ablations"] = {}
    for name, study in (
        ("switch-ports", sweep_switch_ports()),
        ("switch-latency", sweep_switch_latency()),
        ("generation-rate", sweep_generation_rate()),
        ("message-size", sweep_message_size()),
        ("fixed-point-vs-mva", fixed_point_vs_exact_mva()),
    ):
        data["ablations"][name] = [
            {
                "value": row.value.hex(),
                "mean_latency_ms": row.mean_latency_ms.hex(),
                "extra": {
                    k: (v.hex() if isinstance(v, float) else v)
                    for k, v in row.extra.items()
                },
            }
            for row in study.rows
        ]
    return data


def main() -> int:
    import tempfile

    for name, argv in CLI_CASES.items():
        out_path = None
        if "{out}" in argv:
            suffix = os.path.splitext(name)[1]
            fd, out_path = tempfile.mkstemp(suffix=suffix)
            os.close(fd)
        try:
            text = run_cli_case(argv, out_path)
        finally:
            if out_path is not None and os.path.exists(out_path):
                os.unlink(out_path)
        with open(os.path.join(HERE, name), "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {name} ({len(text)} bytes)")

    results = capture_driver_results()
    with open(os.path.join(HERE, "driver_results.json"), "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote driver_results.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
