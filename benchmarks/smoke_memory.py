"""Memory-cap smoke test of the streaming observation layer.

Runs one closed-loop simulation under a hard ``RLIMIT_AS`` address-space
cap and reports the outcome as JSON.  The cap is applied *relative to the
process's own post-import footprint* (``VmSize`` from ``/proc/self/status``
plus ``--slack-mb``), so the test measures what the run *adds* — the
interpreter/NumPy baseline varies across machines and would otherwise
swallow the budget.

Exit codes:

* 0 — the run finished under the cap (JSON result on stdout);
* 9 — the run hit the cap (``MemoryError``), which is the *expected*
  outcome for ``--mode array`` at large message counts: the array sink
  retains every observation, so its memory ceiling is O(messages).  Under
  a 48 MiB slack it fits 100k messages and first fails between 250k and
  300k.  The online sink is O(1) in messages and must survive the same
  cap at 1M, 10x the 100k the array sink is pinned to fit — CI pins
  exactly that contract::

      python benchmarks/smoke_memory.py --mode online --messages 1000000 --slack-mb 48
      python benchmarks/smoke_memory.py --mode array --messages 400000 --slack-mb 48  # exit 9

Requires Linux (``/proc`` + ``resource``); used by the CI ``memory-smoke``
step and by ``tests/simulation/test_stats_mode.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

EXIT_OOM = 9


def _vm_size_mb() -> float:
    """Current virtual size of this process in MiB (Linux)."""
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmSize not found in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("array", "online"), required=True,
                        help="stats sink of the run")
    parser.add_argument("--messages", type=int, required=True,
                        help="closed-loop messages to simulate")
    parser.add_argument("--slack-mb", type=float, default=48.0,
                        help="address-space headroom above the post-import "
                             "footprint (default: 48 MiB)")
    parser.add_argument("--clusters", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--no-cap", action="store_true",
                        help="skip the rlimit (pure RSS measurement run)")
    args = parser.parse_args()

    # Import the full simulation stack and build the system BEFORE the cap:
    # the budget must cover only what the run itself allocates.
    from repro.cluster.presets import paper_evaluation_system
    from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET
    from repro.simulation.simulator import MultiClusterSimulator, SimulationConfig

    system = paper_evaluation_system(
        args.clusters, GIGABIT_ETHERNET, FAST_ETHERNET, total_processors=32
    )
    config = SimulationConfig(
        num_messages=args.messages, seed=args.seed, stats_mode=args.mode
    )
    sim = MultiClusterSimulator(system, config)

    baseline_mb = _vm_size_mb()
    cap_mb = None
    old_soft, old_hard = resource.getrlimit(resource.RLIMIT_AS)
    if not args.no_cap:
        # Cap only the *soft* limit: restoring it after a MemoryError needs
        # no privileges, and without the restore even printing the failure
        # JSON can die of a second MemoryError.
        cap_mb = baseline_mb + args.slack_mb
        cap_bytes = int(cap_mb * 1024 * 1024)
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, old_hard))

    try:
        result = sim.run()
    except MemoryError:
        resource.setrlimit(resource.RLIMIT_AS, (old_soft, old_hard))
        sim = None  # release the run's buffers before reporting
        print(json.dumps({
            "ok": False,
            "error": "MemoryError",
            "mode": args.mode,
            "messages": args.messages,
            "cap_mb": cap_mb,
        }))
        return EXIT_OOM

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "ok": True,
        "mode": args.mode,
        "messages": args.messages,
        "measured_messages": result.measured_messages,
        "mean_latency_s": result.mean_latency_s,
        "baseline_mb": round(baseline_mb, 1),
        "cap_mb": None if cap_mb is None else round(cap_mb, 1),
        "peak_rss_mb": round(peak_rss_mb, 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
