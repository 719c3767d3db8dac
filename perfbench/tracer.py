"""Spans at the layer boundaries of the program, recorded from outside it.

:func:`install` wraps the public functions where one layer calls into the
next (``build_plan``, ``SweepEngine.run``, the simulation task functions,
``ResultCache.get_outcome`` ...).  Each wrapped call records a span: name,
start, end, parent span and operation id, plus counts taken from its
arguments or result.  Spans stay in memory until the run ends.  A layer's
self time is its spans' durations minus the child spans inside them.

The program's sources are not modified: wrapping replaces the function
objects in the loaded modules, so only the traced run pays for it.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional

#: One span: [name, start, end, parent index or None, operation id, counts].
Span = List[Any]


class Tracer:
    """In-memory span recorder for one process (single-threaded use)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self.op: Optional[int] = None
        self.active = False

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int, counts: Optional[Dict[str, float]] = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        if counts:
            span[5] = counts
        self._open.pop()

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts = count(args, kwargs, result)
                return result
            finally:
                tracer.end(index, counts)

        traced.perfbench_original = fn
        return traced


def _grid_counts(args, kwargs, result) -> Dict[str, float]:
    evaluations = args[0] if args else kwargs.get("evaluations", ())
    return {
        "grid_points": len(evaluations),
        "fixed_point_iters": int(sum(int(i) for i in result.iterations)),
        "scalar_fallbacks": len(result.scalar_fallback),
    }


def _task_counts(args, kwargs, result) -> Dict[str, float]:
    return {"msgs": int(result.completed_messages)}


def _run_counts(args, kwargs, result) -> Dict[str, float]:
    return {"tasks": len(result)}


def _get_counts(args, kwargs, result) -> Dict[str, float]:
    return {"hit": int(result is not None)}


#: (span name, module, attribute, counter) for every traced layer boundary.
BOUNDARIES = (
    ("stats.t_quantile", "repro.stats.intervals", "t_quantile", None),
    ("experiments.plan", "repro.experiments.pipeline", "build_plan", None),
    ("experiments.collect", "repro.experiments.pipeline", "TableCollector.collect", None),
    ("experiments.collect", "repro.experiments.figures", "FigureCollector.collect", None),
    ("core.grid", "repro.core.vectorized", "evaluate_latency_grid", _grid_counts),
    ("core.grid", "repro.core.cluster_of_clusters", "evaluate_heterogeneous_grid", _grid_counts),
    ("simulation.task.run_simulation_task", "repro.simulation.runner",
     "run_simulation_task", _task_counts),
    ("simulation.task.run_vectorized_simulation_task", "repro.simulation.vectorized_replay",
     "run_vectorized_simulation_task", _task_counts),
    ("parallel.run", "repro.parallel.engine", "SweepEngine.run", _run_counts),
    ("cache.key", "repro.cache.store", "ResultCache.key_for_plan", None),
    ("cache.get", "repro.cache.store", "ResultCache.get_outcome", _get_counts),
    ("cache.put", "repro.cache.store", "ResultCache.put_outcome", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every boundary in :data:`BOUNDARIES` with ``tracer``.

    A function imported by name into other modules (``from .runner import
    run_simulation_task``) is replaced there too, so every call path is seen.
    """
    for name, module_name, attribute, count in BOUNDARIES:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            setattr(owner, method, tracer.wrap(name, owner.__dict__[method], count))
            continue
        original = getattr(module, attribute)
        traced = tracer.wrap(name, original, count)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name.split(".")[0] != "repro" or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, traced)


# -- per-layer metrics ----------------------------------------------------------


def concat(per_op: List[List[Span]]) -> List[Span]:
    """Join the span lists of single-operation processes; operation ``i`` is list ``i``."""
    out: List[Span] = []
    for op, spans in enumerate(per_op):
        base = len(out)
        for name, start, end, parent, _op, counts in spans:
            out.append([name, start, end, None if parent is None else parent + base, op, counts])
    return out


def _self_times(spans: List[Span]) -> List[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            covered[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - covered[i] for i, span in enumerate(spans)]


def layer_metrics(spans: List[Span], ops: int) -> Dict[str, float]:
    """Per-layer metrics from the spans of ``ops`` timed operations.

    ``*_s`` metrics are self time per operation unless they say otherwise;
    counts are per operation.  ``cache.get_s``/``cache.put_s`` are the
    median duration of one cache read that hit / one cache write, and
    ``simulation.task_s.p50`` the median duration of one simulation task.
    """
    ops = max(ops, 1)
    timed = [i for i, span in enumerate(spans) if span[4] is not None and span[2] is not None]
    selfs = _self_times(spans)
    out: Dict[str, float] = {}

    def select(prefix: str) -> List[int]:
        return [i for i in timed if spans[i][0] == prefix or spans[i][0].startswith(prefix + ".")]

    def dur(i: int) -> float:
        return spans[i][2] - spans[i][1]

    def counted(indices: List[int], key: str) -> float:
        return sum((spans[i][5] or {}).get(key, 0) for i in indices)

    main = select("cli.main")
    if main:
        out["cli.render_s"] = sum(selfs[i] for i in main) / ops
    quantiles = select("stats.t_quantile")
    out["stats.ci_s"] = sum(dur(i) for i in quantiles) / ops
    out["stats.ci_calls"] = len(quantiles) / ops
    out["experiments.plan_s"] = sum(selfs[i] for i in select("experiments.plan")) / ops
    out["experiments.collect_s"] = sum(selfs[i] for i in select("experiments.collect")) / ops
    tasks = select("simulation.task")
    out["experiments.tasks"] = len(tasks) / ops
    for fn in sorted({spans[i][0].rsplit(".", 1)[1] for i in tasks}):
        out[f"experiments.tasks.{fn}"] = sum(1 for i in tasks if spans[i][0].endswith(fn)) / ops
    grids = select("core.grid")
    out["core.grid_s"] = sum(selfs[i] for i in grids) / ops
    for key in ("grid_points", "fixed_point_iters", "scalar_fallbacks"):
        out[f"core.{key}"] = counted(grids, key) / ops
    busy = sum(dur(i) for i in tasks)
    msgs = counted(tasks, "msgs")
    out["simulation.task_s.p50"] = statistics.median(dur(i) for i in tasks) if tasks else 0.0
    out["simulation.busy_s"] = busy / ops
    out["simulation.msgs"] = msgs / ops
    out["simulation.busy_msgs_per_s"] = msgs / busy if busy > 0 else 0.0
    runs = select("parallel.run")
    out["parallel.run_s"] = sum(dur(i) for i in runs) / ops
    out["parallel.overhead_s"] = sum(selfs[i] for i in runs) / ops
    first = []
    for r in runs:
        ends = [spans[i][2] for i in tasks if spans[i][3] == r]
        if ends:
            first.append(min(ends) - spans[r][1])
    out["parallel.first_result_s"] = statistics.median(first) if first else 0.0
    out["parallel.pool_boots"] = 0.0
    out["cache.key_s"] = sum(selfs[i] for i in select("cache.key")) / ops
    gets = select("cache.get")
    hits = [i for i in gets if (spans[i][5] or {}).get("hit")]
    puts = select("cache.put")
    out["cache.get_s"] = statistics.median(dur(i) for i in hits) if hits else 0.0
    out["cache.put_s"] = statistics.median(dur(i) for i in puts) if puts else 0.0
    out["cache.lookups"] = len(gets) / ops
    out["cache.hit_ratio"] = len(hits) / len(gets) if gets else 0.0
    return out
