"""F rules: process-boundary and fault-injection discipline.

The run engine crosses a real process boundary (one worker process
per attempt) and carries a fault-injection plan across it through the
environment; three conventions keep that machinery honest:

* **F101** -- every fault-site string literal (``faults.fire("...")``
  and ``FaultSite(site=...)``) must name one of the sites registered in
  ``KNOWN_SITES`` (``src/repro/faults/plan.py``); and conversely every
  registered site must be fired somewhere, or it is dead surface a
  chaos suite believes it is exercising.
* **F102** -- callables handed across the process boundary
  (``pool.submit(fn, ...)``, ``Process(target=fn, args=...)``) must be
  module-level functions with plain-data arguments: lambdas, nested
  functions, and bound methods don't pickle (or drag a live object
  graph across the fork), and the repo's contract is that results come
  back through the on-disk RunStore, never through return pipes.
* **F103** -- worker-side code (the transitive callees of process
  targets) must not read environment variables outside the allowlisted
  ``REPRO_*`` namespace: the run engine only forwards that namespace,
  so anything else silently reads the *pool host's* environment.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.lint.callgraph import CallGraph, FuncKey
from repro.lint.engine import (Finding, Rule, assigned_value,
                               module_str_constants)

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.engine import FileContext, LintEngine

_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Environment-variable prefix workers may read (F103).
ENV_ALLOWED_PREFIX = "REPRO_"


def _known_sites(engine: LintEngine) -> tuple[set[str], FileContext | None]:
    """The ``KNOWN_SITES`` registry, wherever the scanned tree defines it."""
    for ctx in engine.files:
        assert isinstance(ctx.tree, ast.Module)
        for node in ctx.tree.body:
            value = assigned_value(node, "KNOWN_SITES")
            if isinstance(value, (ast.Tuple, ast.List)):
                sites = {elt.value for elt in value.elts
                         if isinstance(elt, ast.Constant)
                         and isinstance(elt.value, str)}
                return sites, ctx
    return set(), None


def _site_literals(ctx: FileContext) -> list[tuple[ast.AST, str]]:
    """Fault-site string literals used in this file."""
    out: list[tuple[ast.AST, str]] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if name == "fire" and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                out.append((arg, arg.value))
        elif name == "FaultSite":
            site: ast.expr | None = node.args[0] if node.args else None
            for kw in node.keywords:
                if kw.arg == "site":
                    site = kw.value
            if isinstance(site, ast.Constant) \
                    and isinstance(site.value, str):
                out.append((site, site.value))
    return out


class FaultSiteRule(Rule):
    """F101: fault-site literals vs. the registered site set."""

    id = "F101"
    title = "fault-site literals match the registered KNOWN_SITES"

    def finalize(self, engine: LintEngine) -> list[Finding]:
        sites, registry_ctx = _known_sites(engine)
        if registry_ctx is None:
            return []  # no fault registry in this tree
        findings: list[Finding] = []
        used: set[str] = set()
        for ctx in engine.files:
            for node, value in _site_literals(ctx):
                used.add(value)
                if value in sites:
                    continue
                f = self.finding(
                    ctx, node,
                    f"fault site {value!r} is not registered in "
                    "KNOWN_SITES (the injector would reject the plan)",
                    ident=value)
                if f is not None:
                    findings.append(f)
        for site in sorted(sites - used):
            f = self.finding(
                registry_ctx, None,
                f"registered fault site {site!r} has no fire() or "
                "FaultSite() reference in the tree (dead site)",
                ident=f"dead:{site}")
            if f is not None:
                findings.append(f)
        return findings


class ProcessBoundaryRule(Rule):
    """F102: process-boundary callables must be module-level and
    their arguments plain data."""

    id = "F102"
    title = "process-boundary callables are module-level, args picklable"

    def finalize(self, engine: LintEngine) -> list[Finding]:
        findings: list[Finding] = []
        for ctx in engine.files:
            nested = _nested_function_names(ctx.tree)
            module_funcs = {n.name for n in ctx.tree.body
                            if isinstance(n, _FUNC_DEFS)}
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                target, where = self._boundary_target(node)
                if target is None:
                    continue
                findings.extend(self._check_target(
                    ctx, node, target, where, nested, module_funcs))
                findings.extend(self._check_args(ctx, node, where))
        return findings

    @staticmethod
    def _boundary_target(node: ast.Call) \
            -> tuple[ast.expr | None, str | None]:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if name == "submit" and node.args:
            return node.args[0], "submit"
        if name == "Process":
            for kw in node.keywords:
                if kw.arg == "target":
                    return kw.value, "Process"
        return None, None

    def _check_target(self, ctx: FileContext, call: ast.Call,
                      target: ast.expr, where: str | None,
                      nested: set[str],
                      module_funcs: set[str]) -> list[Finding]:
        bad: str | None = None
        ident = where or "boundary"
        if isinstance(target, ast.Lambda):
            bad = "a lambda"
        elif isinstance(target, ast.Attribute):
            bad = f"a bound method (`{ast.unparse(target)}`)"
            ident = f"{ident}:{target.attr}"
        elif isinstance(target, ast.Name):
            ident = f"{ident}:{target.id}"
            if target.id in nested and target.id not in module_funcs:
                bad = f"a nested function (`{target.id}`)"
        if bad is None:
            return []
        f = self.finding(
            ctx, call,
            f"process-boundary callable passed to {where} is {bad}; "
            "hand a module-level function (results come back via the "
            "store, not pickled state)",
            ident=ident)
        return [f] if f is not None else []

    def _check_args(self, ctx: FileContext, call: ast.Call,
                    where: str | None) -> list[Finding]:
        arg_exprs: list[ast.expr] = list(call.args[1:]) \
            if where == "submit" else []
        for kw in call.keywords:
            if kw.arg == "args" and isinstance(kw.value, (ast.Tuple,
                                                          ast.List)):
                arg_exprs.extend(kw.value.elts)
        out: list[Finding] = []
        for expr in arg_exprs:
            if isinstance(expr, ast.Lambda) \
                    or isinstance(expr, _FUNC_DEFS):
                f = self.finding(
                    ctx, expr,
                    f"unpicklable argument (lambda) crosses the process "
                    f"boundary via {where}",
                    ident=f"{where}:arg-lambda")
                if f is not None:
                    out.append(f)
        return out


class WorkerEnvRule(Rule):
    """F103: worker-side env reads restricted to ``REPRO_*``."""

    id = "F103"
    title = "worker-side code reads only REPRO_* environment variables"

    def finalize(self, engine: LintEngine) -> list[Finding]:
        graph = CallGraph.for_engine(engine)
        worker_funcs = self._worker_closure(engine, graph)
        if not worker_funcs:
            return []
        findings: list[Finding] = []
        for ctx in engine.files:
            consts = module_str_constants(ctx.tree)
            for node, name_expr, enclosing in _env_reads(ctx):
                if enclosing is None or \
                        (ctx.relpath, *enclosing) not in worker_funcs:
                    continue
                name = self._env_name(name_expr, consts, engine)
                if name is None or name.startswith(ENV_ALLOWED_PREFIX):
                    continue
                qual = ".".join(p for p in enclosing if p)
                f = self.finding(
                    ctx, node,
                    f"worker-side code (`{qual}`) reads env var "
                    f"{name!r} outside the forwarded "
                    f"{ENV_ALLOWED_PREFIX}* namespace",
                    ident=name)
                if f is not None:
                    findings.append(f)
        return findings

    @staticmethod
    def _env_name(expr: ast.expr | None, consts: dict[str, str],
                  engine: LintEngine) -> str | None:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value
        if isinstance(expr, ast.Name):
            if expr.id in consts:
                return consts[expr.id]
            # Imported constant: resolve by unique module-level name.
            hits = set()
            for other in engine.files:
                value = module_str_constants(other.tree).get(expr.id)
                if value is not None:
                    hits.add(value)
            if len(hits) == 1:
                return hits.pop()
        return None

    @staticmethod
    def _worker_closure(engine: LintEngine,
                        graph: CallGraph) -> set[FuncKey]:
        """Transitive callees of every process-boundary target."""
        roots: list[FuncKey] = []
        for ctx in engine.files:
            module_funcs = {n.name for n in ctx.tree.body
                            if isinstance(n, _FUNC_DEFS)}
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                target, _ = ProcessBoundaryRule._boundary_target(node)
                if isinstance(target, ast.Name) \
                        and target.id in module_funcs:
                    roots.append((ctx.relpath, "", target.id))
        closure: set[FuncKey] = set()
        queue = [k for k in roots if k in graph.functions]
        while queue:
            key = queue.pop()
            if key in closure:
                continue
            closure.add(key)
            for site in graph.functions[key].calls:
                if site.callee not in closure:
                    queue.append(site.callee)
        return closure


def _nested_function_names(tree: ast.Module) -> set[str]:
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, _FUNC_DEFS):
            for inner in ast.walk(node):
                if inner is not node and isinstance(inner, _FUNC_DEFS):
                    out.add(inner.name)
    return out


def _env_reads(ctx: FileContext) \
        -> list[tuple[ast.AST, ast.expr | None,
                      tuple[str, str] | None]]:
    """(node, env-name expression, enclosing (class, func)) per read.

    Matches ``os.environ.get/pop``, ``os.environ[...]``, and
    ``os.getenv`` through any ``import os as X`` alias, plus bare
    ``environ``/``getenv`` member imports.
    """
    os_aliases = {"os"}
    member_aliases = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "os":
                    os_aliases.add(alias.asname or "os")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ("environ", "getenv"):
                    member_aliases.add(alias.asname or alias.name)

    def is_environ(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Attribute) and expr.attr == "environ" \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id in os_aliases:
            return True
        return isinstance(expr, ast.Name) and expr.id in member_aliases

    out: list[tuple[ast.AST, ast.expr | None,
                    tuple[str, str] | None]] = []

    def scan(node: ast.AST, cls: str, func: str) -> None:
        for child in ast.iter_child_nodes(node):
            c_cls, c_func = cls, func
            if isinstance(child, ast.ClassDef):
                c_cls, c_func = child.name, ""
            elif isinstance(child, _FUNC_DEFS) and not func:
                c_func = child.name
            enclosing = (cls, func) if func else None
            if isinstance(child, ast.Call):
                f = child.func
                if isinstance(f, ast.Attribute) \
                        and f.attr in ("get", "pop") \
                        and is_environ(f.value) and child.args:
                    out.append((child, child.args[0], enclosing))
                elif isinstance(f, ast.Attribute) and f.attr == "getenv" \
                        and isinstance(f.value, ast.Name) \
                        and f.value.id in os_aliases and child.args:
                    out.append((child, child.args[0], enclosing))
                elif isinstance(f, ast.Name) and f.id in member_aliases \
                        and f.id.startswith("getenv") and child.args:
                    out.append((child, child.args[0], enclosing))
            elif isinstance(child, ast.Subscript) \
                    and is_environ(child.value) \
                    and isinstance(child.ctx, ast.Load):
                out.append((child, child.slice, enclosing))
            scan(child, c_cls, c_func)

    scan(ctx.tree, "", "")
    return out


def rules() -> list[Rule]:
    return [FaultSiteRule(), ProcessBoundaryRule(), WorkerEnvRule()]
