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
* **F103** -- every environment read under the scan root, module
  level included, must name a variable in the ``REPRO_*`` namespace.
  Forked and spawned workers inherit the coordinator's whole
  environment, so any other read (``HOME``, ``HOSTNAME``, ...) makes a
  run depend on host state that no run spec records.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.lint.engine import (Finding, Rule, assigned_value,
                               module_str_constants)

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.engine import FileContext, LintEngine

_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: The one environment-variable namespace the tree may read (F103).
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


class EnvNamespaceRule(Rule):
    """F103: environment reads name only ``REPRO_*`` variables."""

    id = "F103"
    title = "environment reads name only REPRO_* variables"

    def finalize(self, engine: LintEngine) -> list[Finding]:
        # An imported name resolves when exactly one module binds it.
        bound: dict[str, set[str]] = {}
        for ctx in engine.files:
            for name, value in module_str_constants(ctx.tree).items():
                bound.setdefault(name, set()).add(value)
        imported = {name: next(iter(values))
                    for name, values in bound.items() if len(values) == 1}
        findings: list[Finding] = []
        for ctx in engine.files:
            consts = {**imported, **module_str_constants(ctx.tree)}
            for node, expr in _env_reads(ctx.tree):
                if isinstance(expr, ast.Name):
                    name = consts.get(expr.id)
                elif isinstance(expr, ast.Constant):
                    name = expr.value
                else:
                    continue  # a computed name cannot be checked statically
                if not isinstance(name, str) \
                        or name.startswith(ENV_ALLOWED_PREFIX):
                    continue
                f = self.finding(
                    ctx, node,
                    f"reads env var {name!r} outside the "
                    f"{ENV_ALLOWED_PREFIX}* namespace (workers inherit "
                    "the whole host environment)",
                    ident=name)
                if f is not None:
                    findings.append(f)
        return findings


def _nested_function_names(tree: ast.Module) -> set[str]:
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, _FUNC_DEFS):
            for inner in ast.walk(node):
                if inner is not node and isinstance(inner, _FUNC_DEFS):
                    out.add(inner.name)
    return out


def _env_reads(tree: ast.AST) -> list[tuple[ast.AST, ast.expr]]:
    """(node, env-name expression) for every environment read.

    Matches ``os.environ.get/pop``, ``os.environ[...]`` and
    ``os.getenv`` through any ``import os as X`` alias, plus
    ``from os import environ, getenv`` under any alias.
    """
    os_names = {"os"}
    environ_names: set[str] = set()
    getenv_names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_names.update(alias.asname or "os" for alias in node.names
                            if alias.name == "os")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name == "environ":
                    environ_names.add(alias.asname or alias.name)
                elif alias.name == "getenv":
                    getenv_names.add(alias.asname or alias.name)

    def is_os_member(expr: ast.expr, member: str, names: set[str]) -> bool:
        if isinstance(expr, ast.Attribute):
            return expr.attr == member and isinstance(expr.value, ast.Name) \
                and expr.value.id in os_names
        return isinstance(expr, ast.Name) and expr.id in names

    out: list[tuple[ast.AST, ast.expr]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if is_os_member(func, "getenv", getenv_names) or (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("get", "pop")
                    and is_os_member(func.value, "environ", environ_names)):
                out.append((node, node.args[0]))
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Load) \
                and is_os_member(node.value, "environ", environ_names):
            out.append((node, node.slice))
    return out


def rules() -> list[Rule]:
    return [FaultSiteRule(), ProcessBoundaryRule(), EnvNamespaceRule()]
