"""No module of the simulator reaches into another object's private state.

The rule is that no class reads or sets another class's private
attributes.  This guard walks every module of ``repro.simulation`` with
``ast`` and fails on any attribute access ``owner._name`` (a leading
underscore, not a dunder) whose owner is not ``self`` or ``cls``, naming
each hit by ``file:line``.  Other packages are out of its scope: the
statistics accumulators read their own class's fields when they merge.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

SIMULATION = Path(__file__).resolve().parents[2] / "src" / "repro" / "simulation"


def foreign_private_accesses(source: str, filename: str) -> List[str]:
    """``file:line`` of every private attribute read or set on a foreign owner."""
    hits = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr.startswith("__") and node.attr.endswith("__"):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in ("self", "cls"):
            continue
        hits.append((node.lineno, node.col_offset))
    return [f"{filename}:{line}" for line, _ in sorted(hits)]


def test_simulation_modules_touch_only_their_own_private_attributes():
    hits = [
        hit
        for path in sorted(SIMULATION.glob("*.py"))
        for hit in foreign_private_accesses(path.read_text(encoding="utf-8"), path.name)
    ]
    assert hits == []


def test_guard_flags_foreign_owners_and_spares_self_cls_and_dunders():
    source = (
        "class Center:\n"
        "    def begin(self, clock, other):\n"
        "        self._level += 1.0\n"
        "        now = clock._now\n"
        "        self.clock._queue.append(now)\n"
        "        other._level = cls._count\n"
        "        return type(self).__name__, next_id.__self__\n"
    )
    assert foreign_private_accesses(source, "center.py") == [
        "center.py:4", "center.py:5", "center.py:6",
    ]
