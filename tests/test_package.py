"""Package-level tests: public API surface, version, docstrings."""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestPublicAPI:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name!r}"

    def test_quickstart_from_docstring(self):
        """The example in the package docstring must actually work."""
        from repro import AnalyticalModel, ModelConfig, paper_evaluation_system
        from repro.network import FAST_ETHERNET, GIGABIT_ETHERNET

        system = paper_evaluation_system(16, GIGABIT_ETHERNET, FAST_ETHERNET)
        report = AnalyticalModel(system, ModelConfig(message_bytes=1024)).evaluate()
        assert report.mean_latency_ms > 0

    @pytest.mark.parametrize(
        "module",
        [
            "repro.rng",
            "repro.stats",
            "repro.queueing",
            "repro.topology",
            "repro.network",
            "repro.cluster",
            "repro.core",
            "repro.workload",
            "repro.simulation",
            "repro.experiments",
            "repro.viz",
            "repro.parallel",
            "repro.cache",
            "repro.service",
            "repro.analysis",
            "repro.testing",
            "repro.cli",
        ],
    )
    def test_subpackages_importable_and_documented(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__, f"{module} is missing a module docstring"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.rng",
            "repro.stats",
            "repro.queueing",
            "repro.topology",
            "repro.network",
            "repro.cluster",
            "repro.core",
            "repro.workload",
            "repro.simulation",
            "repro.experiments",
            "repro.viz",
            "repro.parallel",
            "repro.cache",
            "repro.service",
            "repro.analysis",
            "repro.testing",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.__all__ lists missing attribute {name!r}"

    def test_errors_hierarchy(self):
        from repro.errors import (
            ConfigurationError,
            ConvergenceError,
            ExperimentError,
            ReproError,
            SimulationError,
            StabilityError,
            TopologyError,
        )

        for exc in (
            ConfigurationError,
            ConvergenceError,
            ExperimentError,
            SimulationError,
            StabilityError,
            TopologyError,
        ):
            assert issubclass(exc, ReproError)
        assert issubclass(ConfigurationError, ValueError)
        assert issubclass(StabilityError, ArithmeticError)


class TestPerfbenchBoundaries:
    """perfbench's tracer wraps program functions by module path and reads
    grid results by field name, so a rename breaks only traced runs; these
    tests make it break tier-1 too."""

    @staticmethod
    def _tracer():
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def _resolve(module_name, attribute):
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part)
        return owner

    def test_every_boundary_resolves(self):
        for name, module_name, attribute, _ in self._tracer().BOUNDARIES:
            assert callable(self._resolve(module_name, attribute)), name

    def test_grid_counts_read_every_grid_function(self):
        from repro import ModelConfig, paper_evaluation_system
        from repro.network import FAST_ETHERNET, GIGABIT_ETHERNET

        tracer = self._tracer()
        system = paper_evaluation_system(4, GIGABIT_ETHERNET, FAST_ETHERNET)
        evaluations = [(system, ModelConfig())]
        grids = [
            (module_name, attribute)
            for _, module_name, attribute, count in tracer.BOUNDARIES
            if count is tracer._grid_counts
        ]
        assert len(grids) == 2
        for module_name, attribute in grids:
            result = self._resolve(module_name, attribute)(evaluations)
            counts = tracer._grid_counts((evaluations,), {}, result)
            assert counts["grid_points"] == 1
            assert counts["fixed_point_iters"] >= 1
            assert counts["scalar_fallbacks"] == 0


def _src_env() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


class TestColdPath:
    """A cache hit, ``--help``, ``scenarios`` and ``info`` import only what
    they use: no NumPy, no execution backend, no simulator and no solver."""

    #: Modules none of those commands may load.
    HEAVY = (
        "numpy",
        "multiprocessing",
        "concurrent.futures",
        "socket",
        "repro.rng",
        "repro.simulation.simulator",
        "repro.simulation.runner",
        "repro.core.solver",
        "repro.parallel.backends",
    )

    #: Runs every registered scenario's smoke spec into CACHE, writing
    #: OUT/<name>.<kind>.csv; then (the light verbs) --help, scenarios and
    #: info; then writes the loaded module names to OUT/modules.txt.
    SCRIPT = (
        "import contextlib, io, sys\n"
        "from repro.cli import main\n"
        "from repro.experiments.scenarios import SCENARIO_REGISTRY\n"
        "kind, cache, out = sys.argv[1:]\n"
        "for name in SCENARIO_REGISTRY:\n"
        "    csv = f'{out}/{name}.{kind}.csv'\n"
        "    assert main(['run', name, '--smoke', '--cache', cache, '--csv', csv]) == 0\n"
        "for argv in (['--help'], ['scenarios'], ['info']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            main(argv)\n"
        "        except SystemExit:\n"
        "            pass\n"
        "with open(f'{out}/modules.txt', 'w') as handle:\n"
        "    handle.write('\\n'.join(sorted(sys.modules)))\n"
    )

    def _run(self, kind, cache, out):
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, kind, str(cache), str(out)],
            env=_src_env(), capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        return result.stderr, (out / "modules.txt").read_text().split()

    def test_cache_hits_and_light_verbs_load_no_numpy(self, tmp_path):
        from repro.experiments.scenarios import SCENARIO_REGISTRY

        cache, out = tmp_path / "cache", tmp_path / "out"
        out.mkdir()
        self._run("miss", cache, out)  # fills the cache, one fresh interpreter
        stderr, loaded = self._run("hit", cache, out)  # a second fresh interpreter
        assert stderr.count("[cache hit]") == len(SCENARIO_REGISTRY), stderr
        assert "[cache miss]" not in stderr
        for name in SCENARIO_REGISTRY:
            miss = (out / f"{name}.miss.csv").read_bytes()
            assert (out / f"{name}.hit.csv").read_bytes() == miss, name
        heavy = [m for m in loaded if m in self.HEAVY]
        assert not heavy, f"cache hits and light verbs loaded {heavy}"


class TestLightModules:
    """Each module a cache hit reads its spec, plan and results with loads
    none of :attr:`TestColdPath.HEAVY` on its own, so a regression names
    the module that brought the weight in."""

    SCRIPT = (
        "import importlib, sys\n"
        "importlib.import_module(sys.argv[1])\n"
        "print(' '.join(sys.modules))\n"
    )

    @pytest.mark.parametrize(
        "module",
        [
            "repro.batching",
            "repro.cache.serialize",
            "repro.cache.store",
            "repro.cli",
            "repro.core.vectorized",
            "repro.experiments.pipeline",
            "repro.experiments.scenarios",
            "repro.simulation.fault_spec",
            "repro.simulation.results",
            "repro.stats.compare",
            "repro.stats.intervals",
            "repro.stats.modes",
            "repro.workload.arrivals",
            "repro.workload.destinations",
        ],
    )
    def test_module_loads_nothing_heavy(self, module):
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, module], env=_src_env(),
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        loaded = result.stdout.split()
        heavy = [m for m in loaded if m in TestColdPath.HEAVY]
        assert not heavy, f"importing {module} loaded {heavy}"


class TestLazyExports:
    """Package ``__init__``s re-export through :func:`repro._lazy.lazy_exports`:
    importing a package loads none of its modules, and reading a name
    imports the one module that defines it."""

    PACKAGES = (
        "repro",
        "repro.core",
        "repro.experiments",
        "repro.parallel",
        "repro.simulation",
        "repro.stats",
    )

    def test_importing_packages_loads_no_module(self):
        script = (
            "import importlib, sys\n"
            "for name in sys.argv[1:]:\n"
            "    importlib.import_module(name)\n"
            "print(' '.join(m for m in sys.modules if m.startswith('repro')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, *self.PACKAGES], env=_src_env(),
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert set(result.stdout.split()) == {*self.PACKAGES, "repro._lazy"}

    def test_reading_a_name_imports_and_stores_its_definition(self):
        from repro._lazy import lazy_exports
        from repro.parallel.engine import SweepEngine

        namespace = {"__name__": "repro.parallel"}
        getattr_, dir_ = lazy_exports(namespace, {".engine": ("SweepEngine",)})
        assert dir_() == ["SweepEngine", "__name__"]  # listed before it is read
        assert getattr_("SweepEngine") is SweepEngine
        # Stored in the namespace, so the module __getattr__ runs once per name.
        assert namespace["SweepEngine"] is SweepEngine
        assert dir_() == ["SweepEngine", "__name__"]

    def test_unknown_name_is_an_attribute_error(self):
        import repro.parallel

        with pytest.raises(
            AttributeError, match="module 'repro.parallel' has no attribute 'spawn_seed'"
        ):
            repro.parallel.spawn_seed
        assert not hasattr(repro.parallel, "spawn_seed")


class TestDeclaredEnvironment:
    def test_smoke_run_imports_no_scipy(self, tmp_path):
        """A cold ``repro run --smoke`` computes its confidence intervals
        without importing scipy, which the install does not declare."""
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['run', 'case-1', '--smoke', '--no-cache', '--csv', sys.argv[1]]) == 0\n"
            "assert 'scipy' not in sys.modules, 'the smoke run imported scipy'\n"
        )
        out = tmp_path / "points.csv"
        result = subprocess.run(
            [sys.executable, "-c", script, str(out)], env=_src_env(),
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert out.read_text().startswith("clusters,")
