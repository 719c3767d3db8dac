"""Every ``src/repro`` module must have a production importer.

The test walks the static import graph of the package (stdlib ``ast`` only;
nothing under ``src`` is imported) from the production entry points: the
CLI, the ``repro serve`` service, the socket worker that backends spawn
with ``python -m`` and the defining module of every name in
``repro.__all__``.  A module no walk reaches is code that only tests run,
so the suite fails until it is deleted or wired to an entry point.

Edges:

* every ``import`` and ``from ... import`` in a module, lazy ones included;
* ``from pkg import name`` reaches ``pkg.name`` when that is a submodule,
  else the module that defines ``name`` (following package re-exports);
* importing a module reaches the ``__init__`` of each parent package;
* inside a package ``__init__``, a top-level re-export of a name is not a
  use, but ``from . import submodule`` is (it is how rule modules register).

A second test imports ``repro.cli`` in a fresh interpreter and checks that
no ``TEST_ONLY`` module is loaded, so they cost nothing at startup.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

ROOTS = (
    "repro.__main__",
    "repro.cli",
    "repro.service.http",
    "repro.service.jobs",
    "repro.parallel.worker",
)

# Both are deleted in later changes: the deprecated closed-loop delegate
# goes with the perfbench tracer boundary that wraps it by module path, and
# the synthetic trace generator's only users are tests and the golden
# regenerator.
TEST_ONLY = frozenset(
    {
        "repro.simulation.vectorized_replay",
        "repro.workload.messages",
    }
)

# (imported module, (name, bound name) pairs or None for a plain ``import``,
# whether the statement is a top-level ``from`` import of a package __init__)
Import = Tuple[str, Optional[Tuple[Tuple[str, str], ...]], bool]


def _modules(src: Path) -> Dict[str, Path]:
    modules = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return modules


def _imports(module: str, path: Path) -> List[Import]:
    is_package = path.name == "__init__.py"
    package = module.split(".") if is_package else module.split(".")[:-1]
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found: List[Import] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None, False) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            target = ".".join(base + ([node.module] if node.module else []))
            names = tuple((alias.name, alias.asname or alias.name) for alias in node.names)
            found.append((target, names, is_package and node in tree.body))
    return found


def _public_names(init: Path) -> List[str]:
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            return ast.literal_eval(node.value)
    raise AssertionError(f"{init} defines no __all__")


def _unreached(src: Path, roots: Iterable[str] = ROOTS) -> Set[str]:
    modules = _modules(src)
    imports = {module: _imports(module, path) for module, path in modules.items()}
    packages = {module for module, path in modules.items() if path.name == "__init__.py"}

    def define(module: str, name: str) -> str:
        """The submodule ``module.name``, else the module that defines ``name``."""
        if f"{module}.{name}" in modules:
            return f"{module}.{name}"
        if module in packages:
            for target, names, in_init in imports[module]:
                for original, bound in names if in_init else ():
                    if bound == name:
                        return define(target, original)
        return module

    pending = list(roots) + [define("repro", name) for name in _public_names(modules["repro"])]
    reached: Set[str] = set()
    while pending:
        module = pending.pop()
        if module in reached or module not in modules:
            continue
        reached.add(module)
        pending.append(module.rpartition(".")[0])
        for target, names, in_init in imports[module]:
            if not in_init:
                pending.append(target)
            for original, _ in names or ():
                defined = define(target, original)
                if not in_init or defined == f"{target}.{original}":
                    pending.append(defined)
    return set(modules) - reached


def test_only_listed_modules_lack_a_production_importer():
    unreached = _unreached(SRC)
    assert not unreached - TEST_ONLY, f"only tests import {sorted(unreached - TEST_ONLY)}"
    assert not TEST_ONLY - unreached, f"stale TEST_ONLY entries {sorted(TEST_ONLY - unreached)}"


def _test_only_loaded_by(module: str) -> Set[str]:
    """The ``TEST_ONLY`` modules a fresh interpreter loads to import ``module``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    ))
    result = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return TEST_ONLY & set(result.stdout.split())


def test_cli_import_loads_no_test_only_module():
    """A fresh ``import repro.cli`` pays for no module that only tests use."""
    loaded = _test_only_loaded_by("repro.cli")
    assert not loaded, f"import repro.cli loads test-only modules {sorted(loaded)}"


@pytest.mark.parametrize("module", ["repro", *(root for root in ROOTS if root != "repro.cli")])
def test_other_entry_points_load_no_test_only_module(module):
    """The package, the service and the socket worker start without them too."""
    loaded = _test_only_loaded_by(module)
    assert not loaded, f"import {module} loads test-only modules {sorted(loaded)}"


def test_walk_follows_lazy_imports_and_skips_reexports(tmp_path):
    files = {
        "repro/__init__.py": "from .api import run\n__all__ = ['run']\n",
        "repro/api.py": "def run():\n    from .lazy import go\n",
        "repro/lazy.py": "from .pkg import helper\n",
        "repro/pkg/__init__.py": (
            "from .impl import helper\nfrom .dead import unused\nfrom . import registered\n"
        ),
        "repro/pkg/impl.py": "helper = 1\n",
        "repro/pkg/dead.py": "unused = 1\n",
        "repro/pkg/registered.py": "",
        "repro/orphan.py": "from .api import run\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert _unreached(tmp_path, roots=()) == {"repro.pkg.dead", "repro.orphan"}
