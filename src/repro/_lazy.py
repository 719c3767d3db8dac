"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

A package names each public symbol together with the submodule that
defines it; the submodule is imported the first time the symbol is read.
``import repro`` (or any subpackage) therefore loads nothing but this
table, and a cold cache hit pays only for the modules it uses — not for
NumPy, the DES kernel or the execution backends.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: Dict[str, Any], exports: Dict[str, Tuple[str, ...]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of a lazily re-exporting package.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    defining submodule, relative to the package (``".engine"``), to the
    names it defines.  A resolved name is stored in ``namespace``, so the
    hook runs once per name.
    """
    package = namespace["__name__"]
    module_of = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(module_of))

    return __getattr__, __dir__
