"""DES-protocol rule: REP401 (process generators must yield events).

The event kernel (:class:`repro.des.core.Environment`) drives *process
generators*: functions registered with ``env.process(fn(...))`` that
``yield`` :class:`~repro.des.events.Event` objects to wait on.  Two easy
mistakes produce simulations that hang or silently do nothing:

* yielding a non-event (a bare ``yield``, a number, a string) — the kernel
  cannot subscribe a callback to a constant, so the process never resumes;
* registering the function object instead of calling it
  (``env.process(worker)`` instead of ``env.process(worker())``) — nothing
  runs, and with no error the run just deadlocks at time 0.

The rule finds every ``env.process(...)`` registration in the module,
collects the names of the registered generator functions, and then checks
each such function's ``yield`` statements.  Yields of calls, names and
other expressions are accepted (the value's type cannot be proven
statically); only provably wrong yields — constants and bare yields — are
flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from .base import Finding, Rule, register_rule

__all__ = ["DesYieldProtocolRule"]


def _is_env_process(node: ast.Call) -> bool:
    """Whether ``node`` is an ``<...>.env.process(...)`` / ``env.process(...)`` call."""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "process"):
        return False
    receiver = Rule.dotted(func.value)
    return receiver == "env" or receiver.endswith(".env")


def _own_yields(fn: ast.FunctionDef) -> Iterator[ast.Yield]:
    """Yield statements belonging to ``fn`` itself (not to nested defs)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Yield):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@register_rule
class DesYieldProtocolRule(Rule):
    id = "REP401"
    name = "des-yield-protocol"
    rationale = (
        "A DES process that yields a non-event (or is registered uncalled) "
        "never resumes, deadlocking the simulation with no error."
    )
    node_types = (ast.Call,)

    def start(self, ctx) -> None:
        # Pre-pass: names of generator functions registered as processes.
        self._process_names: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and _is_env_process(node) and node.args:
                registered = node.args[0]
                if isinstance(registered, ast.Call):
                    name = self.call_name(registered)
                    if name:
                        self._process_names.add(name)

    def visit(self, node: ast.Call, ctx) -> Iterator[Finding]:
        if not _is_env_process(node) or not node.args:
            return
        registered = node.args[0]
        if isinstance(registered, (ast.Name, ast.Attribute)):
            name = self.dotted(registered)
            yield Finding(
                self.id,
                f"env.process({name}) registers the function object, not a "
                f"generator; call it: env.process({name}(...))",
                registered.lineno,
                registered.col_offset,
            )

    def finish(self, ctx) -> Iterator[Finding]:
        if not self._process_names:
            return
        functions: List[Tuple[str, ast.FunctionDef]] = [
            (node.name, node)
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.FunctionDef) and node.name in self._process_names
        ]
        for name, fn in functions:
            for stmt in _own_yields(fn):
                if stmt.value is None:
                    yield Finding(
                        self.id,
                        f"bare yield in DES process {name!r}; processes must "
                        "yield Event objects (e.g. env.timeout(...))",
                        stmt.lineno,
                        stmt.col_offset,
                    )
                elif isinstance(stmt.value, ast.Constant):
                    yield Finding(
                        self.id,
                        f"DES process {name!r} yields the constant "
                        f"{stmt.value.value!r}; the kernel can only wait on "
                        "Event objects (e.g. env.timeout(...))",
                        stmt.lineno,
                        stmt.col_offset,
                    )
