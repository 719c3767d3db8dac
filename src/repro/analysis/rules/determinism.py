"""Determinism rules: REP101 (RNG), REP102 (wall clock), REP103 (seed math),
REP104 (undeclared dependency).

The whole experiment pipeline promises bit-identical reruns for a given
seed (the golden-trace and golden-CLI fixtures enforce it end to end).
That promise dies quietly the moment simulation code draws from global RNG
state, reads the wall clock, derives child seeds by arithmetic, or imports
what the install does not declare:

* global ``random.*`` / ``np.random.*`` calls share hidden state across
  components, so adding one draw anywhere perturbs every stream after it;
* wall-clock reads make output depend on when the run happened;
* ``seed + i`` style derivation produces overlapping / correlated child
  streams — the exact bug fixed in PR 1 by moving every seed derivation to
  ``numpy.random.SeedSequence.spawn``;
* an import of a package the install does not declare makes results depend
  on the host: the scipy Student-t quantile, imported when present with a
  fallback otherwise, moved every confidence-interval half-width.

REP101 and REP102 are gated to the runtime packages (``repro.rng``,
``repro.simulation``, ``repro.workload``, ``repro.parallel``); monotonic
timers (``time.monotonic``/``perf_counter``) stay legal because they only
feed progress reporting, never results.  REP103 applies everywhere; REP104
to every ``repro`` module (tests, benchmarks and tools may use more).
"""

from __future__ import annotations

import ast
import sys
from typing import Iterator

from .base import Finding, Rule, register_rule

__all__ = [
    "DECLARED_DEPENDENCIES",
    "NondeterministicRngRule",
    "WallClockRule",
    "SeedArithmeticRule",
    "UndeclaredDependencyRule",
]

#: Packages whose code runs inside (or feeds) a simulation.
RUNTIME_PACKAGES = ("repro.rng", "repro.simulation", "repro.workload", "repro.parallel")

#: Third-party packages a ``repro`` module may import: ``[project].dependencies``
#: of pyproject.toml, whose distribution names are also the import names (a
#: test keeps the two in step).
DECLARED_DEPENDENCIES = frozenset({"numpy"})

#: ``np.random`` attributes that are deterministic stream *constructors*
#: rather than draws from the hidden global generator.
_ALLOWED_NP_RANDOM = frozenset(
    {
        "SeedSequence",
        "default_rng",
        "Generator",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Wall-clock calls that leak real time into results.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "date.today",
    }
)


class _RuntimeScopedRule(Rule):
    """Shared gate: only scan the simulation-runtime packages."""

    def applies_to(self, ctx) -> bool:
        return ctx.in_package(*RUNTIME_PACKAGES)


@register_rule
class NondeterministicRngRule(_RuntimeScopedRule):
    id = "REP101"
    name = "nondeterministic-rng"
    rationale = (
        "Global random.* / np.random.* state breaks seeded reproducibility; "
        "use repro.rng streams spawned from a SeedSequence."
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx) -> Iterator[Finding]:
        dotted = self.dotted(node.func)
        if not dotted:
            return
        parts = dotted.split(".")
        if parts[0] == "random" and len(parts) == 2:
            yield Finding(
                self.id,
                f"call to global-state {dotted}(); draw from a per-component "
                "repro.rng stream instead",
                node.lineno,
                node.col_offset,
            )
            return
        if len(parts) >= 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
            attr = parts[2]
            if attr not in _ALLOWED_NP_RANDOM:
                yield Finding(
                    self.id,
                    f"call to legacy global-state {dotted}(); construct an "
                    "explicit Generator from a SeedSequence instead",
                    node.lineno,
                    node.col_offset,
                )
            elif attr == "default_rng" and not node.args and not node.keywords:
                yield Finding(
                    self.id,
                    f"{dotted}() without a seed is entropy-seeded; pass a seed "
                    "or SeedSequence",
                    node.lineno,
                    node.col_offset,
                )


@register_rule
class WallClockRule(_RuntimeScopedRule):
    id = "REP102"
    name = "wall-clock-read"
    rationale = (
        "Wall-clock reads make simulation output depend on when it ran; "
        "use the simulated clock or time.monotonic for timers."
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx) -> Iterator[Finding]:
        dotted = self.dotted(node.func)
        if dotted in _WALL_CLOCK:
            yield Finding(
                self.id,
                f"wall-clock read {dotted}() in simulation-runtime code; use "
                "the simulated clock or time.monotonic (elapsed time)",
                node.lineno,
                node.col_offset,
            )


def _operand_name(node: ast.AST) -> str:
    """Variable-ish name of a BinOp operand (``""`` for literals/calls)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


@register_rule
class SeedArithmeticRule(Rule):
    id = "REP103"
    name = "seed-arithmetic"
    rationale = (
        "seed + i style derivation yields overlapping child streams (the "
        "PR 1 bug); spawn children with numpy.random.SeedSequence.spawn."
    )
    node_types = (ast.BinOp,)

    _OPS = (ast.Add, ast.Sub, ast.Mult)

    def visit(self, node: ast.BinOp, ctx) -> Iterator[Finding]:
        if not isinstance(node.op, self._OPS):
            return
        for operand in (node.left, node.right):
            name = _operand_name(operand)
            if name and (name.lower() == "seed" or name.lower().endswith("_seed")):
                yield Finding(
                    self.id,
                    f"arithmetic on {name!r} derives correlated child seeds; "
                    "use SeedSequence.spawn (or spawn_seeds) instead",
                    node.lineno,
                    node.col_offset,
                )
                return


@register_rule
class UndeclaredDependencyRule(Rule):
    id = "REP104"
    name = "undeclared-dependency"
    rationale = (
        "A repro module importing a package the install does not declare "
        "either fails on a clean install or, behind a guard, makes results "
        "depend on the host (the scipy t quantile); use the stdlib and numpy."
    )
    node_types = (ast.Import, ast.ImportFrom)

    def applies_to(self, ctx) -> bool:
        return ctx.in_package("repro")

    def visit(self, node: ast.AST, ctx) -> Iterator[Finding]:
        if isinstance(node, ast.ImportFrom):
            if node.level:  # relative imports stay inside repro
                return
            modules = [node.module]
        else:
            modules = [alias.name for alias in node.names]
        for module in modules:
            top = module.split(".")[0]
            if top in sys.stdlib_module_names or top == "repro" or top in DECLARED_DEPENDENCIES:
                continue
            yield Finding(
                self.id,
                f"import of {top!r}, which pyproject.toml does not declare; "
                "use the stdlib or a declared dependency",
                node.lineno,
                node.col_offset,
            )
