"""Deterministic test harnesses for the distributed execution layer."""

from .._lazy import lazy_exports

__all__ = [
    "ChaosSpec",
    "ChaosController",
    "parse_chaos_spec",
    "controller",
    "set_role",
    "reset",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".chaos": (
        "ChaosController", "ChaosSpec", "controller", "parse_chaos_spec", "reset", "set_role",
    ),
})
