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
            "repro.des",
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
            "repro.cli",
        ],
    )
    def test_subpackages_importable_and_documented(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__, f"{module} is missing a module docstring"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.des",
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
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        out = tmp_path / "points.csv"
        result = subprocess.run(
            [sys.executable, "-c", script, str(out)], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert out.read_text().startswith("clusters,")
