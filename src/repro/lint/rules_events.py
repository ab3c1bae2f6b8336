"""E rule: event-kind discipline.

* **E102** -- every event kind passed to ``*.emit(ts, kind, ...)``
  must exist in the ``KINDS`` registry of ``obs/events.py``; a literal
  outside the registry would silently vanish from kind filters and
  exported traces.

Kernel spans need no rule: ``MiniDUX._push_span`` is the only way to
open one, and it hands the span to the handler's last frame, which
closes it on completion.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.lint.engine import (Finding, Rule, assigned_value,
                               module_str_constants)

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.engine import LintEngine


class EventKindRule(Rule):
    """E102: emitted event kinds must exist in the kind registry."""

    id = "E102"
    title = "event kinds restricted to the obs/events.py registry"

    def finalize(self, engine: LintEngine) -> list[Finding]:
        kinds, consts = self._registry(engine)
        if kinds is None:
            return []  # tree has no kind registry (e.g. a fixture)
        findings: list[Finding] = []
        for ctx in engine.files:
            local = dict(consts)
            local.update(module_str_constants(ctx.tree))
            for node in ast.walk(ctx.tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "emit"
                        and self._receiver_is_bus(node.func.value)
                        and len(node.args) >= 2):
                    continue
                kind = self._kind_value(node.args[1], local)
                if kind is None or kind in kinds:
                    continue
                f = self.finding(
                    ctx, node,
                    f"event kind {kind!r} is not in the KINDS registry "
                    f"(known: {', '.join(sorted(kinds))})",
                    ident=kind)
                if f is not None:
                    findings.append(f)
        return findings

    @staticmethod
    def _receiver_is_bus(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in ("events", "bus", "event_bus")
        if isinstance(node, ast.Attribute):
            return node.attr in ("events", "bus", "event_bus")
        return False

    @staticmethod
    def _kind_value(node: ast.expr,
                    consts: dict[str, str]) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return consts.get(node.id)
        return None

    def _registry(self, engine: LintEngine) \
            -> tuple[set[str] | None, dict[str, str]]:
        """(registered kinds, constant name -> kind) from events.py."""
        for ctx in engine.files:
            assert isinstance(ctx.tree, ast.Module)
            consts = module_str_constants(ctx.tree)
            for node in ctx.tree.body:
                value = assigned_value(node, "KINDS")
                if isinstance(value, (ast.Tuple, ast.List)):
                    kinds: set[str] = set()
                    for elt in value.elts:
                        if isinstance(elt, ast.Constant) \
                                and isinstance(elt.value, str):
                            kinds.add(elt.value)
                        elif isinstance(elt, ast.Name) \
                                and elt.id in consts:
                            kinds.add(consts[elt.id])
                    return kinds, consts
        return None, {}


def rules() -> list[Rule]:
    return [EventKindRule()]
