"""E rules: span and event-kind discipline.

The observability layers rest on two conventions that were previously
enforced only by runtime asserts:

* **E101** -- every ``_span_begin`` must be answered by a matching
  ``_span_end`` on *all* exits.  Two shapes satisfy the contract: a
  lexical end that every CFG path (including exception edges, see
  :mod:`repro.lint.cfg`) from the begin passes through, or an end
  inside a nested function of the same scope -- the deferred
  completion-callback discipline the kernel uses (``_span_end`` fires
  in the ``on_complete`` closure when the frame retires).  A
  ``_span_end`` with no begin in scope is flagged too.
* **E102** -- every event kind passed to ``*.emit(ts, kind, ...)``
  must exist in the ``KINDS`` registry of ``obs/events.py``; a literal
  outside the registry would silently vanish from kind filters and
  exported traces.

Spans are matched by their constant ``(kind, name)`` prefix: a begin
and an end agree when their leading string-constant arguments agree
(a non-constant tail, e.g. a computed syscall name, matches any).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.lint import cfg as cfg_mod
from repro.lint.engine import (Finding, Rule, assigned_value,
                               module_str_constants)

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.engine import FileContext, LintEngine

_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _span_key(call: ast.Call) -> tuple[str, ...]:
    """The constant-string prefix identifying a span call site."""
    out: list[str] = []
    for arg in call.args[:4]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            out.append(arg.value)
        elif out:
            break
    return tuple(out[:2])


def _keys_match(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    if not a or not b:
        return False
    short, long = (a, b) if len(a) <= len(b) else (b, a)
    return long[:len(short)] == short


def _span_calls(func: ast.FunctionDef | ast.AsyncFunctionDef) \
        -> list[tuple[ast.Call, ast.stmt, str]]:
    """(call, enclosing statement, begin/end) in *func*'s own body."""
    out: list[tuple[ast.Call, ast.stmt, str]] = []

    def scan_expr(node: ast.AST, stmt: ast.stmt) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNC_DEFS + (ast.Lambda,)):
                continue
            if isinstance(child, ast.Call):
                name = None
                if isinstance(child.func, ast.Attribute):
                    name = child.func.attr
                elif isinstance(child.func, ast.Name):
                    name = child.func.id
                if name in ("_span_begin", "_span_end"):
                    out.append((child, stmt,
                                "begin" if name == "_span_begin" else "end"))
            scan_expr(child, stmt)

    def scan_block(body: list[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, _FUNC_DEFS):
                continue
            scan_expr(stmt, stmt)
            for attr in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, attr, None)
                if isinstance(sub, list):
                    scan_block([s for s in sub if isinstance(s, ast.stmt)])
            for handler in getattr(stmt, "handlers", []):
                scan_block(handler.body)

    scan_block(func.body)
    # scan_expr dives into compound statements' condition/iter
    # expressions via the statement itself, and scan_block re-visits
    # nested bodies with the right statement anchor -- dedup keeps the
    # innermost anchor (last write wins below).
    dedup: dict[int, tuple[ast.Call, ast.stmt, str]] = {}
    for call, stmt, role in out:
        dedup[id(call)] = (call, stmt, role)
    return list(dedup.values())


class SpanPairRule(Rule):
    """E101: ``_span_begin`` without a provable ``_span_end``."""

    id = "E101"
    title = "span begin/end pairing on all exits"

    def finalize(self, engine: LintEngine) -> list[Finding]:
        findings: list[Finding] = []
        for ctx in engine.files:
            # Visit every function scope, carrying the chain of
            # enclosing scopes so a closure end can find its begin in
            # the function that deferred it.
            def visit(node: ast.AST,
                      ancestors: tuple[ast.AST, ...]) -> None:
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, _FUNC_DEFS):
                        findings.extend(
                            self._check_scope(ctx, child, ancestors))
                        visit(child, ancestors + (child,))
                    else:
                        visit(child, ancestors)

            visit(ctx.tree, ())
        return findings

    def _check_scope(self, ctx: FileContext,
                     func: ast.FunctionDef | ast.AsyncFunctionDef,
                     ancestors: tuple[ast.AST, ...]) -> list[Finding]:
        calls = _span_calls(func)
        begins = [(c, s) for c, s, role in calls if role == "begin"]
        ends = [(c, s) for c, s, role in calls if role == "end"]
        closure_ends = []
        for nested in ast.walk(func):
            if nested is func or not isinstance(nested, _FUNC_DEFS):
                continue
            for c, _, role in _span_calls(nested):
                if role == "end":
                    closure_ends.append(c)
        out: list[Finding] = []
        for call, stmt in begins:
            key = _span_key(call)
            label = ":".join(key) or "<dynamic>"
            if any(_keys_match(key, _span_key(e)) for e in closure_ends):
                continue  # deferred completion-callback discipline
            barriers = [s for e, s in ends
                        if _keys_match(key, _span_key(e))]
            if not barriers:
                f = self.finding(
                    ctx, call,
                    f"`_span_begin` for `{label}` has no matching "
                    f"`_span_end` in `{func.name}` (neither lexical nor "
                    "in a completion closure)",
                    ident=f"{func.name}:{label}:missing")
                if f is not None:
                    out.append(f)
                continue
            escape = cfg_mod.all_paths_hit(func, stmt, barriers)
            if escape is not None:
                how = "an exception edge" if escape == cfg_mod.RAISE_EXIT \
                    else "a normal exit"
                f = self.finding(
                    ctx, call,
                    f"`_span_begin` for `{label}` can leave "
                    f"`{func.name}` via {how} without passing "
                    "`_span_end`",
                    ident=f"{func.name}:{label}:escape")
                if f is not None:
                    out.append(f)
        # Ends with no begin anywhere in scope (the begin for a closure
        # end legitimately lives in the *enclosing* function).
        enclosing_begins = [_span_key(c) for c, _ in begins]
        for anc in ancestors:
            if isinstance(anc, _FUNC_DEFS):
                enclosing_begins.extend(
                    _span_key(c) for c, _, role in _span_calls(anc)
                    if role == "begin")
        for call, _stmt in ends:
            key = _span_key(call)
            label = ":".join(key) or "<dynamic>"
            if not any(_keys_match(key, b) for b in enclosing_begins):
                f = self.finding(
                    ctx, call,
                    f"`_span_end` for `{label}` in `{func.name}` has no "
                    "matching `_span_begin` in scope",
                    ident=f"{func.name}:{label}:orphan")
                if f is not None:
                    out.append(f)
        return out


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
    return [SpanPairRule(), EventKindRule()]
