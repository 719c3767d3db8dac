"""Fixture-snippet tests: every rule, one bad and one good snippet each.

Snippets are linted under *virtual* paths (``src/repro/des/snippet.py``)
so the scope-gated rules see the module names they are gated on without
touching the working tree.  Two snippets are reduced reproductions of real
past bugs: the PR 1 ``seed + i`` replication-seed bug (REP103) and the
PR 3 lambda-into-the-sweep bug (REP201).
"""

from __future__ import annotations

import re
import tomllib
from pathlib import Path

import pytest

from repro.analysis import lint_source
from repro.analysis.rules.determinism import DECLARED_DEPENDENCIES

#: Virtual paths mapping into the scoped packages.
DES_PATH = "src/repro/des/snippet.py"
HOT_PATH = "src/repro/des/monitor.py"  # member of the REP301 hot-module set
SIM_PATH = "src/repro/simulation/snippet.py"
PIPE_PATH = "src/repro/experiments/snippet.py"
TOOL_PATH = "tools/snippet.py"  # outside every scoped package


def rule_ids(source: str, path: str = DES_PATH):
    return [finding.rule for finding in lint_source(source, path)]


# ---------------------------------------------------------------- REP101


class TestNondeterministicRng:
    def test_bad_global_random_call(self):
        source = "import random\nvalue = random.random()\n"
        assert rule_ids(source) == ["REP101"]

    def test_bad_np_global_draw(self):
        source = "import numpy as np\nvalue = np.random.rand(3)\n"
        assert rule_ids(source) == ["REP101"]

    def test_bad_unseeded_default_rng(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rule_ids(source) == ["REP101"]

    def test_good_seeded_constructors(self):
        source = (
            "import numpy as np\n"
            "ss = np.random.SeedSequence(7)\n"
            "rng = np.random.default_rng(ss)\n"
            "gen = np.random.Generator(np.random.PCG64(ss))\n"
        )
        assert rule_ids(source) == []

    def test_good_generator_method_not_flagged(self):
        # rng.random() is a draw from an explicit stream, not global state.
        source = "def draw(rng):\n    return rng.random()\n"
        assert rule_ids(source) == []

    def test_out_of_scope_module_not_flagged(self):
        source = "import random\nvalue = random.random()\n"
        assert rule_ids(source, TOOL_PATH) == []

    def test_suppression_honored(self):
        source = "import random\nvalue = random.random()  # repro: noqa REP101\n"
        assert rule_ids(source) == []


# ---------------------------------------------------------------- REP102


class TestWallClock:
    def test_bad_time_time(self):
        source = "import time\nstamp = time.time()\n"
        assert rule_ids(source) == ["REP102"]

    def test_bad_datetime_now(self):
        source = "import datetime\nstamp = datetime.datetime.now()\n"
        assert rule_ids(source) == ["REP102"]

    def test_good_monotonic_timer(self):
        source = "import time\nstart = time.monotonic()\nelapsed = time.perf_counter()\n"
        assert rule_ids(source) == []

    def test_suppression_honored(self):
        source = "import time\nstamp = time.time()  # repro: noqa REP102\n"
        assert rule_ids(source) == []


# ---------------------------------------------------------------- REP103


class TestSeedArithmetic:
    def test_bad_pr1_reproduction(self):
        # Reduced reproduction of the PR 1 bug: replication seeds derived
        # by offsetting the master seed, which correlates the streams.
        source = (
            "def run_replications(seed, count):\n"
            "    return [simulate(seed + i) for i in range(count)]\n"
        )
        assert rule_ids(source) == ["REP103"]

    def test_bad_attribute_seed(self):
        source = "def spawn(self, k):\n    return Streams(self._seed * 31 + k)\n"
        assert rule_ids(source) == ["REP103"]

    def test_good_seed_sequence_spawn(self):
        source = (
            "import numpy as np\n"
            "def run_replications(seed, count):\n"
            "    children = np.random.SeedSequence(seed).spawn(count)\n"
            "    return [simulate(child) for child in children]\n"
        )
        assert rule_ids(source) == []

    def test_good_unrelated_arithmetic(self):
        source = "def f(n_seeds):\n    return n_seeds + 1\n"
        assert rule_ids(source) == []

    def test_applies_outside_runtime_packages(self):
        source = "def f(seed, i):\n    return seed + i\n"
        assert rule_ids(source, TOOL_PATH) == ["REP103"]

    def test_suppression_honored(self):
        source = "def f(seed, i):\n    return seed + i  # repro: noqa REP103\n"
        assert rule_ids(source) == []


# ---------------------------------------------------------------- REP104


class TestUndeclaredDependency:
    @pytest.mark.parametrize(
        "source",
        ["import scipy\n", "from scipy import stats\n", "import scipy.stats as st\n",
         "import os, scipy\n", "def t(p):\n    from scipy import stats\n"],
    )
    def test_bad_scipy_import(self, source):
        assert rule_ids(source, PIPE_PATH) == ["REP104"]

    def test_good_declared_stdlib_and_relative_imports(self):
        source = (
            "from __future__ import annotations\n"
            "import math, tomllib\n"
            "import numpy as np\n"
            "from numpy.random import SeedSequence\n"
            "from collections import deque\n"
            "from repro.errors import ReproError\n"
            "from . import sinks\n"
            "from ..des import Environment\n"
        )
        assert rule_ids(source, PIPE_PATH) == []

    @pytest.mark.parametrize("path", ["tests/stats/snippet.py", "benchmarks/snippet.py", TOOL_PATH])
    def test_outside_repro_not_flagged(self, path):
        assert rule_ids("import scipy\n", path) == []

    def test_suppression_honored(self):
        assert rule_ids("import scipy  # repro: noqa REP104\n", PIPE_PATH) == []

    def test_declared_set_matches_pyproject(self):
        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        with pyproject.open("rb") as handle:
            requirements = tomllib.load(handle)["project"]["dependencies"]
        names = {re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0] for requirement in requirements}
        assert names == DECLARED_DEPENDENCIES


# ---------------------------------------------------------------- REP201


class TestUnpicklableTask:
    def test_bad_pr3_reproduction_lambda_task(self):
        # Reduced reproduction of the PR 3 bug: a lambda handed to the
        # sweep dies with PicklingError on every multi-process backend.
        source = (
            "from repro.parallel import SweepEngine, SweepTask\n"
            "tasks = [SweepTask(fn=lambda x: x * 2, args=(i,)) for i in range(4)]\n"
        )
        assert rule_ids(source, PIPE_PATH) == ["REP201"]

    def test_bad_lambda_into_engine_map(self):
        source = "def sweep(engine, items):\n    return engine.map(lambda x: x + 1, items)\n"
        assert rule_ids(source, PIPE_PATH) == ["REP201"]

    def test_bad_nested_function_task(self):
        source = (
            "def sweep(engine, items):\n"
            "    def worker(x):\n"
            "        return x + 1\n"
            "    return engine.map(worker, items)\n"
        )
        assert rule_ids(source, PIPE_PATH) == ["REP201"]

    def test_good_module_level_function(self):
        source = (
            "def worker(x):\n"
            "    return x + 1\n"
            "def sweep(engine, items):\n"
            "    return engine.map(worker, items)\n"
        )
        assert rule_ids(source, PIPE_PATH) == []

    def test_good_builtin_map_with_lambda(self):
        # Plain builtin map never pickles; must not be flagged.
        source = "squares = list(map(lambda x: x * x, range(4)))\n"
        assert rule_ids(source, PIPE_PATH) == []

    def test_suppression_honored(self):
        source = "r = engine.map(lambda x: x, items)  # repro: noqa REP201\n"
        assert rule_ids(source, PIPE_PATH) == []


# ---------------------------------------------------------------- REP301


class TestMissingSlots:
    def test_bad_unslotted_class_in_hot_module(self):
        source = "class FastThing:\n    def __init__(self):\n        self.x = 1\n"
        assert rule_ids(source, HOT_PATH) == ["REP301"]

    def test_good_slots_declared(self):
        source = "class FastThing:\n    __slots__ = ('x',)\n"
        assert rule_ids(source, HOT_PATH) == []

    def test_good_dataclass_slots(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True, slots=True)\n"
            "class Record:\n"
            "    x: int\n"
        )
        assert rule_ids(source, HOT_PATH) == []

    def test_good_exception_exempt(self):
        source = "class KernelError(Exception):\n    pass\n"
        assert rule_ids(source, HOT_PATH) == []

    def test_not_applied_outside_hot_modules(self):
        source = "class SlowThing:\n    pass\n"
        assert rule_ids(source, PIPE_PATH) == []

    def test_suppression_honored(self):
        source = "class FastThing:  # repro: noqa REP301\n    pass\n"
        assert rule_ids(source, HOT_PATH) == []


# ---------------------------------------------------------------- REP302


class TestSlottedSubclassDict:
    def test_bad_subclass_without_slots(self):
        source = "class MyTimeout(Timeout):\n    pass\n"
        assert rule_ids(source, SIM_PATH) == ["REP302"]

    def test_good_subclass_with_empty_slots(self):
        source = "class MyTimeout(Timeout):\n    __slots__ = ()\n"
        assert rule_ids(source, SIM_PATH) == []

    def test_good_subclass_of_unslotted_base(self):
        source = "class MyStore(Store):\n    pass\n"
        assert rule_ids(source, SIM_PATH) == []

    def test_suppression_honored(self):
        source = "class MyTimeout(Timeout):  # repro: noqa REP302\n    pass\n"
        assert rule_ids(source, SIM_PATH) == []


# ---------------------------------------------------------------- REP401


class TestDesYieldProtocol:
    def test_bad_constant_yield(self):
        source = (
            "def agent(env):\n"
            "    yield 42\n"
            "def build(env):\n"
            "    env.process(agent(env))\n"
        )
        assert rule_ids(source, SIM_PATH) == ["REP401"]

    def test_bad_bare_yield(self):
        source = (
            "def agent(env):\n"
            "    yield\n"
            "def build(env):\n"
            "    env.process(agent(env))\n"
        )
        assert rule_ids(source, SIM_PATH) == ["REP401"]

    def test_bad_uncalled_registration(self):
        source = "def build(env, agent):\n    env.process(agent)\n"
        assert rule_ids(source, SIM_PATH) == ["REP401"]

    def test_good_event_yields(self):
        source = (
            "def agent(env, centre, message):\n"
            "    yield env.timeout(1.0)\n"
            "    yield centre.begin(message)\n"
            "def build(env, centre, message):\n"
            "    env.process(agent(env, centre, message))\n"
        )
        assert rule_ids(source, SIM_PATH) == []

    def test_good_unregistered_generator_ignored(self):
        # Not every generator is a DES process; only registered ones count.
        source = "def counter():\n    yield 1\n    yield 2\n"
        assert rule_ids(source, SIM_PATH) == []

    def test_suppression_honored(self):
        source = (
            "def agent(env):\n"
            "    yield 42  # repro: noqa REP401\n"
            "def build(env):\n"
            "    env.process(agent(env))\n"
        )
        assert rule_ids(source, SIM_PATH) == []


# ---------------------------------------------------------------- REP501


class TestFrozenSpecMutation:
    def test_bad_spec_attribute_assignment(self):
        source = "def tweak(spec):\n    spec.mean_message_size = 4096.0\n"
        assert rule_ids(source, PIPE_PATH) == ["REP501"]

    def test_bad_augmented_assignment(self):
        source = "def tweak(run_spec):\n    run_spec.replications += 1\n"
        assert rule_ids(source, PIPE_PATH) == ["REP501"]

    def test_bad_object_setattr_on_non_self(self):
        source = "def tweak(spec):\n    object.__setattr__(spec, 'seed', 1)\n"
        assert rule_ids(source, PIPE_PATH) == ["REP501"]

    def test_good_dataclasses_replace(self):
        source = (
            "from dataclasses import replace\n"
            "def tweak(spec):\n"
            "    return replace(spec, mean_message_size=4096.0)\n"
        )
        assert rule_ids(source, PIPE_PATH) == []

    def test_good_post_init_setattr_on_self(self):
        source = (
            "class Spec:\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'seed', int(self.seed))\n"
        )
        assert rule_ids(source, PIPE_PATH) == []

    def test_good_non_spec_variable(self):
        source = "def f(monitor):\n    monitor.name = 'latency'\n"
        assert rule_ids(source, PIPE_PATH) == []

    def test_suppression_honored(self):
        source = "def tweak(spec):\n    spec.seed = 1  # repro: noqa REP501\n"
        assert rule_ids(source, PIPE_PATH) == []


# ---------------------------------------------------------------- REP601 / REP602


class TestErrorHygiene:
    def test_bad_bare_except(self):
        source = "try:\n    run()\nexcept:\n    cleanup()\n"
        assert rule_ids(source, PIPE_PATH) == ["REP601"]

    def test_bad_swallowed_broad_exception(self):
        source = "try:\n    run()\nexcept Exception:\n    pass\n"
        assert rule_ids(source, PIPE_PATH) == ["REP602"]

    def test_good_broad_handler_with_body(self):
        source = (
            "try:\n"
            "    run()\n"
            "except Exception as exc:\n"
            "    log(exc)\n"
            "    raise\n"
        )
        assert rule_ids(source, PIPE_PATH) == []

    def test_good_narrow_pass_handler(self):
        # Best-effort cleanup with a narrow type stays legal.
        source = "try:\n    sock.close()\nexcept OSError:\n    pass\n"
        assert rule_ids(source, PIPE_PATH) == []

    def test_bare_except_not_double_reported(self):
        source = "try:\n    run()\nexcept:\n    pass\n"
        assert rule_ids(source, PIPE_PATH) == ["REP601"]

    def test_suppression_honored(self):
        source = "try:\n    run()\nexcept Exception:  # repro: noqa REP602\n    pass\n"
        assert rule_ids(source, PIPE_PATH) == []


# ---------------------------------------------------------------- REP701


PAR_PATH = "src/repro/parallel/snippet.py"
SVC_PATH = "src/repro/service/snippet.py"


class TestConstantRetrySleep:
    def test_bad_literal_delay(self):
        source = (
            "import time\n"
            "def dial(connect):\n"
            "    for attempt in range(5):\n"
            "        try:\n"
            "            return connect()\n"
            "        except OSError:\n"
            "            time.sleep(0.5)\n"
        )
        assert rule_ids(source, PAR_PATH) == ["REP701"]

    def test_bad_unchanging_name(self):
        source = (
            "import time\n"
            "def poll(ready, retry_delay):\n"
            "    while not ready():\n"
            "        time.sleep(retry_delay)\n"
        )
        assert rule_ids(source, SVC_PATH) == ["REP701"]

    def test_good_backoff_iteration(self):
        source = (
            "import time\n"
            "def dial(connect, delays):\n"
            "    for delay in delays:\n"
            "        if connect():\n"
            "            return\n"
            "        time.sleep(delay)\n"
        )
        assert rule_ids(source, PAR_PATH) == []

    def test_good_indexed_backoff(self):
        source = (
            "import time\n"
            "def dial(connect, delays):\n"
            "    for attempt in range(len(delays)):\n"
            "        if connect():\n"
            "            return\n"
            "        time.sleep(delays[attempt])\n"
        )
        assert rule_ids(source, PAR_PATH) == []

    def test_good_delay_reassigned_in_loop(self):
        source = (
            "import time\n"
            "def dial(connect):\n"
            "    delay = 0.2\n"
            "    while not connect():\n"
            "        time.sleep(delay)\n"
            "        delay = min(delay * 2, 5.0)\n"
        )
        assert rule_ids(source, PAR_PATH) == []

    def test_innermost_loop_flagged_once(self):
        source = (
            "import time\n"
            "def spin():\n"
            "    while True:\n"
            "        for _ in range(3):\n"
            "            time.sleep(1.0)\n"
        )
        assert rule_ids(source, PAR_PATH) == ["REP701"]

    def test_out_of_scope_module_not_flagged(self):
        source = (
            "import time\n"
            "def pace():\n"
            "    while True:\n"
            "        time.sleep(0.5)\n"
        )
        assert rule_ids(source, DES_PATH) == []
        assert rule_ids(source, TOOL_PATH) == []

    def test_suppression_honored(self):
        source = (
            "import time\n"
            "def dial(connect):\n"
            "    while not connect():\n"
            "        time.sleep(0.5)  # repro: noqa REP701\n"
        )
        assert rule_ids(source, PAR_PATH) == []


# ---------------------------------------------------------------- blanket noqa


@pytest.mark.parametrize(
    "line",
    [
        "stamp = time.time()  # repro: noqa",
        "stamp = time.time()  # repro: noqa REP102, REP101",
        "stamp = time.time()  # REPRO: NOQA rep102",
    ],
)
def test_suppression_spellings(line):
    assert rule_ids(f"import time\n{line}\n") == []


def test_blanket_noqa_suppresses_multiple_rules_on_line():
    source = "import time, random\nx = (time.time(), random.random())  # repro: noqa\n"
    assert rule_ids(source) == []


def test_unrelated_noqa_id_does_not_suppress():
    source = "import time\nstamp = time.time()  # repro: noqa REP101\n"
    assert rule_ids(source) == ["REP102"]
