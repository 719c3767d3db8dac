"""In-process workloads, run in a fresh interpreter per window.

``python -m perfbench.inproc JOB.json`` imports the program, pays its
first-call costs (imports, code fingerprint, first confidence interval, one
tiny campaign per operation kind against a throw-away cache), prints
``ready`` and then runs timed operations until the job's deadline or
operation cap.  Every operation goes through a public entry point with the
serial backend: ``run_figure`` for ``paper-figures``, ``build_plan`` +
``ExperimentRunner`` for ``scenario-sweep``.  Checks run between
operations, outside the timed region.  The result (operations, digests,
spans) is written to the job's ``result_path``.
"""

from __future__ import annotations

import json
import random
import sys
import time
import traceback

_T0 = time.perf_counter()

from repro.cache import ResultCache  # noqa: E402
from repro.experiments.figures import FIGURE_SPECS, run_figure  # noqa: E402
from repro.experiments import pipeline  # noqa: E402
from repro.experiments.pipeline import ExperimentRunner, ExperimentSpec, TableCollector  # noqa: E402
from repro.experiments.scenarios import PAPER_PARAMETERS, get_scenario  # noqa: E402
from repro.stats.intervals import t_quantile  # noqa: E402
from repro.viz.tables import rows_to_csv_text  # noqa: E402

from perfbench.common import digest, probe  # noqa: E402
from perfbench.tracer import Tracer, install  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

#: The paper's figures, in the order a pass draws them from.
FIGURES = (4, 5, 6, 7)
#: Analysis-vs-simulation MAPE bound (percent) per figure at 2 000 messages
#: per point.  Measured over eight seeds: at most 1.6 % on Figures 4 and 5
#: and 4.0 % on the blocking Figures 6 and 7.
MAPE_BOUND_PERCENT = {4: 3.0, 5: 3.0, 6: 6.0, 7: 6.0}
#: The five scenarios whose draws depend on simulation state (the
#: vectorized engine refuses all of them, so the DES does their work).
SWEEP_SCENARIOS = ("hotspot", "localized-linear", "das2-churn", "llnl-failures", "case-1-lossy")
#: Sweep scenarios whose cached result is re-read as a hit.  The three
#: failure scenarios are not: their cache round trip drops the fault
#: columns (the ``cli-faults`` workload reports that defect).
SWEEP_REREAD = ("hotspot", "localized-linear")
#: Each cached result is re-read this many times: a hit takes milliseconds,
#: so a few more of them steady its median at almost no cost.
HIT_REPEATS = 3


def figure_plan(number: int, messages: int, seed: int):
    """The plan ``run_figure`` builds for the paper's full sweep (for checks)."""
    figure = FIGURE_SPECS[number]
    return pipeline.build_plan(ExperimentSpec(
        scenario=figure.scenario.name,
        mode="both",
        architecture=figure.architecture,
        cluster_counts=tuple(PAPER_PARAMETERS.cluster_counts),
        message_sizes=tuple(PAPER_PARAMETERS.message_sizes),
        generation_rates=(PAPER_PARAMETERS.generation_rate,),
        simulation_messages=messages,
        seed=seed,
    ))


def sweep_spec(name: str, seed: int, **axes) -> ExperimentSpec:
    scenario = get_scenario(name)
    return ExperimentSpec(
        scenario=name, mode="both" if scenario.analysis_capable else "simulate",
        seed=seed, **axes,
    )


def incomplete_points(outcome, requested: int) -> int:
    """Simulated runs that completed fewer messages than requested."""
    if outcome.replicated is None:
        return 0
    return sum(
        1
        for agg in outcome.replicated
        for rep in agg.per_replication
        if rep.completed_messages < requested
    )


def completed_messages(outcome) -> int:
    if outcome.replicated is None:
        return 0
    return sum(rep.completed_messages for agg in outcome.replicated for rep in agg.per_replication)


# -- operations -----------------------------------------------------------------
#
# Each operation function is called inside the timed region and returns a
# ``check`` closure that validates its output afterwards.


def figure_op(store, number, messages, seed):
    result = run_figure(
        number, include_simulation=True, simulation_messages=messages,
        seed=seed, jobs=1, cache=store,
    )
    csv = rows_to_csv_text(result.to_rows())

    def check():
        errors = []
        summary = result.accuracy_summary()
        if summary is None or summary.mape_percent > MAPE_BOUND_PERCENT[number]:
            errors.append(f"figure {number} MAPE {summary} exceeds {MAPE_BOUND_PERCENT[number]}%")
        outcome = store.get_outcome(figure_plan(number, messages, seed))
        if outcome is None:
            errors.append(f"figure {number} result was not cached")
            msgs = 0
        else:
            msgs = completed_messages(outcome)
            short = incomplete_points(outcome, messages)
            if short:
                errors.append(f"figure {number}: {short} runs completed too few messages")
        return csv, msgs, errors

    return check


def sweep_op(store, name, messages, seed):
    spec = sweep_spec(name, seed, simulation_messages=messages)
    # Called through the module so a traced run sees the planning layer.
    plan = pipeline.build_plan(spec)
    outcome = ExperimentRunner(jobs=1, cache=store).run_outcome(plan)
    result = TableCollector().collect(outcome)
    csv = rows_to_csv_text(result.to_rows())

    def check():
        errors = []
        short = incomplete_points(outcome, messages)
        if short:
            errors.append(f"{name}: {short} runs completed too few messages")
        return csv, completed_messages(outcome), errors

    return check


def schedule(workload: str, seed: int):
    """Endless seeded schedule of passes, each a list of (kind, label, op).

    ``op(store, messages)`` runs one operation.  Every pass holds the same
    operations with a fresh spec seed, so whole passes keep the mix of
    operation kinds, and with it the medians, the same from run to run.
    """
    rng = random.Random(seed)
    while True:
        spec_seed = rng.randrange(1, 2**31)
        ops = []
        if workload == "paper-figures":
            for number in rng.sample(FIGURES, len(FIGURES)):
                label = f"figure-{number}/seed-{spec_seed}"
                for kind in ("miss",) + ("hit",) * HIT_REPEATS:
                    ops.append((kind, label, (
                        lambda store, m, n=number, s=spec_seed: figure_op(store, n, m, s))))
        else:
            for name in rng.sample(SWEEP_SCENARIOS, len(SWEEP_SCENARIOS)):
                ops.append(("miss", f"{name}/seed-{spec_seed}", (
                    lambda store, m, n=name, s=spec_seed: sweep_op(store, n, m, s))))
            reread = SWEEP_REREAD * HIT_REPEATS
            for name in rng.sample(reread, len(reread)):
                ops.append(("hit", f"{name}/seed-{spec_seed}", (
                    lambda store, m, n=name, s=spec_seed: sweep_op(store, n, m, s))))
        yield ops


def warm_up(workload: str, store) -> None:
    """One tiny campaign per operation kind (computed, then re-read)."""
    for _ in range(2):
        if workload == "paper-figures":
            for number in FIGURES:
                run_figure(number, include_simulation=True, cluster_counts=[16],
                           message_sizes=[512], simulation_messages=200, seed=0,
                           jobs=1, cache=store)
        else:
            for name in SWEEP_SCENARIOS:
                spec = sweep_spec(name, 0, cluster_counts=get_scenario(name).smoke_cluster_counts,
                                  message_sizes=(512,), simulation_messages=200)
                ExperimentRunner(jobs=1, cache=store).run(pipeline.build_plan(spec))


def spec_csv(spec_json) -> dict:
    """Serial in-process run of one spec: the reference a served CSV must equal."""
    spec = ExperimentSpec.from_json(spec_json)
    outcome = ExperimentRunner(jobs=1).run_outcome(pipeline.build_plan(spec))
    csv = rows_to_csv_text(TableCollector().collect(outcome).to_rows())
    return {"csv": csv, "incomplete": incomplete_points(outcome, spec.simulation_messages)}


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    out = {"import_s": _IMPORT_S}
    if job["mode"] == "spec-csv":
        out.update(spec_csv(job["spec"]))
        _write(job, out)
        return 0
    workload = job["workload"]
    tracer = Tracer()
    if job["trace"]:
        install(tracer)
    store = ResultCache(job["cache_dir"])
    start = time.perf_counter()
    t_quantile(0.95, 9)
    out["first_ci_s"] = time.perf_counter() - start
    warm_up(workload, ResultCache(job["warm_cache_dir"]))
    print("ready", flush=True)
    if job["mode"] == "setup":
        _write(job, out)
        return 0

    out["ops"] = ops = []
    out["spans"] = tracer.spans
    out["probe_s"] = probes = []
    deadline = time.perf_counter() + job["seconds"]
    max_ops = job.get("max_ops")
    filled = {}
    for op_pass in schedule(workload, job["seed"]):
        if time.perf_counter() >= deadline or (max_ops is not None and len(ops) >= max_ops):
            break
        for kind, label, op in op_pass[:None if max_ops is None else max_ops - len(ops)]:
            probes.append(probe())
            _timed(kind, label, op, store, job, tracer, ops, filled)
    _write(job, out)
    return 0


def _timed(kind, label, op, store, job, tracer, ops, filled) -> None:
    """Run one operation inside the timed region, then check its output."""
    if kind == "hit" and label not in filled:
        return
    tracer.op = len(ops)
    tracer.active = bool(job["trace"])
    start = time.perf_counter()
    try:
        check = op(store, job["messages"])
        error = None
    except Exception:  # an operation that raises counts as failed
        check, error = None, traceback.format_exc(limit=4)
    elapsed = time.perf_counter() - start
    tracer.active = False
    record = {"kind": kind, "label": label, "seconds": elapsed, "ok": error is None,
              "errors": [error] if error else [], "msgs": 0, "digest": None}
    if check is not None:
        csv, msgs, errors = check()
        record.update(digest=digest(csv.encode("utf-8")), msgs=msgs)
        if kind == "miss":
            filled[label] = csv
        elif csv != filled[label]:
            errors.append(f"{label}: cache hit CSV differs from the miss that filled it")
        record["errors"] = errors
        record["ok"] = not errors
    ops.append(record)


def _write(job, out) -> None:
    with open(job["result_path"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
