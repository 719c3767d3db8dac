"""Slots-integrity rules: REP301 (missing slots), REP302 (subclass __dict__).

The PR 4 throughput work made the DES kernel's per-event objects slotted:
a simulation allocates one :class:`~repro.des.events.Event` (or subclass)
per message hop, so instance ``__dict__`` allocation is a measurable share
of runtime and memory.  Two ways that invariant regresses silently:

* a new class lands in one of the hot modules without ``__slots__``
  (REP301) — the object works, it is just several times bigger and slower
  to allocate;
* a subclass of a slotted class forgets its own ``__slots__`` declaration
  (REP302) — Python then quietly gives *instances of the subclass* a
  ``__dict__`` again, undoing the base class's optimisation for exactly
  the objects that matter.

Both rules accept ``__slots__`` assignments and ``@dataclass(slots=True)``;
exception/enum/protocol classes are exempt (slots are meaningless or
harmful there).
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import Finding, Rule, register_rule

__all__ = ["MissingSlotsRule", "SlottedSubclassDictRule", "HOT_MODULES", "KNOWN_SLOTTED"]

#: Modules whose classes are allocated on the per-message hot path.
HOT_MODULES = frozenset(
    {
        "repro.des.events",
        "repro.des.process",
        "repro.des.monitor",
        "repro.des.rng",
        "repro.simulation.components",
        "repro.simulation.message",
    }
)

#: Slotted classes of the DES kernel and validation simulator whose
#: subclasses must re-declare ``__slots__`` (REP302).  Kept as names
#: because the linter sees one file at a time.
KNOWN_SLOTTED = frozenset(
    {
        "Event",
        "Timeout",
        "AbsoluteTimeout",
        "Initialize",
        "ConditionValue",
        "Condition",
        "AllOf",
        "AnyOf",
        "Process",
        "Monitor",
        "TimeWeightedMonitor",
        "VariateStream",
        "VariateGenerator",
        "RandomStreams",
        "ServiceCenterSim",
        "LatencySink",
        "Message",
    }
)

#: Base-class names that make slots pointless or wrong.
_EXEMPT_BASE_SUFFIXES = ("Exception", "Error", "Warning")
_EXEMPT_BASES = frozenset(
    {"Enum", "IntEnum", "StrEnum", "Flag", "Protocol", "ABC", "NamedTuple", "TypedDict"}
)


def _base_names(node: ast.ClassDef) -> Iterator[str]:
    for base in node.bases:
        name = Rule.dotted(base)
        if name:
            yield name.rsplit(".", 1)[-1]


def _is_exempt(node: ast.ClassDef) -> bool:
    for name in _base_names(node):
        if name in _EXEMPT_BASES or name.endswith(_EXEMPT_BASE_SUFFIXES):
            return True
    return False


def _declares_slots(node: ast.ClassDef) -> bool:
    """Whether the class body assigns ``__slots__`` or uses dataclass slots."""
    for stmt in node.body:
        targets = ()
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = (stmt.target,)
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call) and Rule.call_name(decorator) == "dataclass":
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "slots"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
    return False


@register_rule
class MissingSlotsRule(Rule):
    id = "REP301"
    name = "missing-slots"
    rationale = (
        "Classes in the hot DES/simulation modules are allocated per message "
        "hop; an instance __dict__ there costs memory and throughput."
    )
    node_types = (ast.ClassDef,)

    def applies_to(self, ctx) -> bool:
        return ctx.module in HOT_MODULES

    def visit(self, node: ast.ClassDef, ctx) -> Iterator[Finding]:
        if _is_exempt(node) or _declares_slots(node):
            return
        yield Finding(
            self.id,
            f"class {node.name!r} in hot module {ctx.module} lacks __slots__ "
            "(declare __slots__ or use @dataclass(slots=True))",
            node.lineno,
            node.col_offset,
        )


@register_rule
class SlottedSubclassDictRule(Rule):
    id = "REP302"
    name = "slots-subclass-dict"
    rationale = (
        "A subclass of a slotted class without its own __slots__ silently "
        "reintroduces the per-instance __dict__ the base class removed."
    )
    node_types = (ast.ClassDef,)

    def applies_to(self, ctx) -> bool:
        return ctx.in_package("repro.des", "repro.simulation")

    def visit(self, node: ast.ClassDef, ctx) -> Iterator[Finding]:
        if _is_exempt(node) or _declares_slots(node):
            return
        slotted_bases = [name for name in _base_names(node) if name in KNOWN_SLOTTED]
        if not slotted_bases:
            return
        yield Finding(
            self.id,
            f"class {node.name!r} subclasses slotted {slotted_bases[0]!r} but "
            "declares no __slots__, reintroducing a per-instance __dict__ "
            "(add __slots__ = (...) — empty is fine)",
            node.lineno,
            node.col_offset,
        )
