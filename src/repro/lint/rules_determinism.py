"""D-rules: host nondeterminism in simulation code paths.

The determinism contract (tests/test_determinism.py) is that one
config+seed produces byte-identical probe snapshots.  Anything that lets
host state leak into simulated state -- the process-global ``random``
module, wall-clock reads, hash-randomized set iteration order, unsorted
directory listings, ``id()``-based orderings -- breaks that contract in
ways that only surface as flaky diffs much later.  These rules flag the
idioms at the source.

============  =========================================================
D101          call into the process-global ``random`` module (unseeded;
              simulation code must draw from a per-run
              ``random.Random(seed)`` instance)
D102          wall-clock read (``time.time``/``perf_counter``/
              ``datetime.now``/...) outside the allowlisted host-side
              modules (profiling, benchmarking, live telemetry, the
              run engine)
D103          iteration over a ``set``/``frozenset`` value (string-hash
              randomization makes the order vary per process), including
              a set passed to ``sorted``/``min``/``max`` with ``key=``
D104          iteration over ``os.listdir``/``glob``/``iterdir``
              results without sorting (filesystem order is arbitrary)
D105          ``id()`` used as a sort key (CPython addresses vary
              per process)
============  =========================================================
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Any

from repro.lint.engine import FileContext, Finding, Rule

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.engine import LintEngine

#: Host-side modules where wall-clock reads are the whole point:
#: self-profiling, perf baselining, live progress, and worker timing.
WALLCLOCK_ALLOWLIST = (
    "obs/profile.py",
    "obs/baseline.py",
    "obs/live.py",
    # analysis/queue.py is deliberately NOT allowlisted: journal records
    # must stay wall-clock-free so replay is byte-deterministic.
    "analysis/service.py",
    # The chaos harness polls real subprocesses against a kill deadline;
    # its transcripts and reports carry no wall-clock values.
    "faults/chaos.py",
)

#: time-module functions that read host clocks.
_TIME_FNS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
})

#: datetime class methods that read host clocks.
_DATETIME_FNS = frozenset({"now", "utcnow", "today"})

#: Builtins whose consumption of an iterable is order-insensitive, so a
#: set/glob feeding them directly is deterministic.
_ORDER_INSENSITIVE = frozenset({
    "sorted", "set", "frozenset", "len", "sum", "any", "all",
    "min", "max",
})


def _import_aliases(tree: ast.AST) \
        -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """Module aliases in a file.

    Returns ``(modules, members)``: ``modules`` maps a local name to the
    module it denotes (``import random as r`` -> ``{"r": "random"}``);
    ``members`` maps a local name to ``(module, attr)`` for
    ``from X import Y as Z``.
    """
    modules: dict[str, str] = {}
    members: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                modules[alias.asname or top] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                members[alias.asname or alias.name] = (node.module, alias.name)
    return modules, members


def _call_target(node: ast.Call, modules: dict[str, str],
                 members: dict[str, tuple[str, str]]) \
        -> tuple[str, str] | None:
    """Resolve a call to ``(module, attr)`` when statically possible.

    Handles ``mod.fn()``, ``mod.cls.fn()`` (returned as
    ``(module.cls, fn)``), and from-imported ``fn()`` /
    ``Cls.fn()``.
    """
    func = node.func
    if isinstance(func, ast.Name):
        if func.id in members:
            return members[func.id]
        return None
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Name):
        if value.id in modules:
            return modules[value.id], func.attr
        if value.id in members:
            mod, attr = members[value.id]
            return f"{mod}.{attr}", func.attr
        return None
    if (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)
            and value.value.id in modules):
        return f"{modules[value.value.id]}.{value.attr}", func.attr
    return None


class UnseededRandomRule(Rule):
    """D101: calls into the process-global ``random`` module."""

    id = "D101"
    title = "unseeded global random"

    def __init__(self) -> None:
        self.findings: list[Finding] = []

    def visit_file(self, ctx: FileContext) -> None:
        modules, members = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _call_target(node, modules, members)
            if target is None:
                continue
            module, attr = target
            if module == "random" and attr not in ("Random", "SystemRandom"):
                self.findings.append(self.finding(
                    ctx, node,
                    f"random.{attr}() draws from the process-global RNG; "
                    "use the per-run random.Random(seed) instance",
                    ident=f"random.{attr}"))

    def finalize(self, engine: LintEngine) -> list[Finding]:
        return self.findings


class WallClockRule(Rule):
    """D102: host clock reads outside the allowlisted host-side modules."""

    id = "D102"
    title = "wall-clock read in simulation path"

    def __init__(self, allowlist: tuple[str, ...] = WALLCLOCK_ALLOWLIST) -> None:
        self.allowlist = allowlist
        self.findings: list[Finding] = []

    def visit_file(self, ctx: FileContext) -> None:
        if any(ctx.relpath == a or ctx.relpath.endswith("/" + a)
               for a in self.allowlist):
            return
        modules, members = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _call_target(node, modules, members)
            if target is None:
                continue
            module, attr = target
            hit = (
                (module == "time" and attr in _TIME_FNS)
                or (module in ("datetime.datetime", "datetime.date")
                    and attr in _DATETIME_FNS)
            )
            if hit:
                self.findings.append(self.finding(
                    ctx, node,
                    f"{module}.{attr}() reads the host clock in a "
                    "simulation code path (allowlisted host-side modules: "
                    + ", ".join(self.allowlist) + ")",
                    ident=f"{module}.{attr}"))

    def finalize(self, engine: LintEngine) -> list[Finding]:
        return self.findings


def _is_set_expr(node: ast.AST) -> bool:
    """Is this expression statically a set/frozenset value?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _is_listing_call(node: ast.AST, modules: dict, members: dict) -> bool:
    """Is this a filesystem-listing call with arbitrary result order?"""
    if not isinstance(node, ast.Call):
        return False
    target = _call_target(node, modules, members)
    if target is not None:
        module, attr = target
        if module == "os" and attr in ("listdir", "scandir"):
            return True
        if module == "glob" and attr in ("glob", "iglob"):
            return True
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in (
            "glob", "rglob", "iterdir"):
        # pathlib-style listing on any receiver.
        return not (isinstance(func.value, ast.Name)
                    and func.value.id in modules)
    return False


class _IterationRule(Rule):
    """Shared scaffolding: flag ``for``/comprehension iteration over
    expressions matched by :meth:`matches`, unless the loop feeds an
    order-insensitive consumer (``sorted(...)``, ``len(...)``, ...)."""

    def __init__(self) -> None:
        self.findings: list[Finding] = []

    def matches(self, node: ast.AST, ctx_state: Any) -> bool:  # pragma: no cover
        raise NotImplementedError

    def describe(self, node: ast.AST) -> tuple[str, str]:  # pragma: no cover
        raise NotImplementedError

    def _state(self, ctx: FileContext) -> Any:
        return None

    def visit_file(self, ctx: FileContext) -> None:
        state = self._state(ctx)
        shielded: set[int] = set()
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_INSENSITIVE):
                for arg in node.args:
                    shielded.add(id(arg))
        iter_sites: list[tuple[ast.AST, ast.AST]] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_sites.append((node.iter, node))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                if id(node) in shielded:
                    continue
                for gen in node.generators:
                    iter_sites.append((gen.iter, node))
        for expr, site in iter_sites:
            if id(expr) in shielded:
                continue
            if self.matches(expr, state):
                message, ident = self.describe(expr)
                self.findings.append(self.finding(ctx, site, message, ident))

    def finalize(self, engine: LintEngine) -> list[Finding]:
        return self.findings


class SetIterationRule(_IterationRule):
    """D103: iterating a set orders elements by randomized hash."""

    id = "D103"
    title = "iteration over unordered set"

    def matches(self, node: Any, state: Any) -> bool:
        return _is_set_expr(node)

    def describe(self, node: Any) -> tuple[str, str]:
        return ("iterating a set/frozenset value: element order varies "
                "with hash randomization; wrap in sorted(...)",
                "set-iteration")

    def visit_file(self, ctx: FileContext) -> None:
        super().visit_file(ctx)
        # sorted/min/max shield their argument only without ``key=``:
        # elements the key ties keep (or pick by) input order, which for
        # a set is the hash-randomized one.
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("sorted", "min", "max")
                    and any(kw.arg == "key" for kw in node.keywords)
                    and any(_is_set_expr(arg) for arg in node.args)):
                self.findings.append(self.finding(
                    ctx, node,
                    f"{node.func.id}(<set>, key=...): elements with equal "
                    "keys keep hash-randomized set order; sort the set "
                    "first or break ties in the key",
                    "keyed-set-sort"))


class FsOrderRule(_IterationRule):
    """D104: filesystem listings come back in arbitrary order."""

    id = "D104"
    title = "unsorted filesystem listing"

    def _state(self, ctx: FileContext) -> Any:
        return _import_aliases(ctx.tree)

    def matches(self, node: Any, state: Any) -> bool:
        modules, members = state
        return _is_listing_call(node, modules, members)

    def describe(self, node: Any) -> tuple[str, str]:
        name = node.func.attr if isinstance(node.func, ast.Attribute) \
            else getattr(node.func, "id", "listing")
        return (f"iterating {name}(...) results directly: filesystem "
                "order is arbitrary; wrap in sorted(...)",
                f"fs-{name}")


class IdSortRule(Rule):
    """D105: ``id()`` as an ordering key varies per process."""

    id = "D105"
    title = "id()-based sort key"

    def __init__(self) -> None:
        self.findings: list[Finding] = []

    @staticmethod
    def _key_uses_id(value: ast.AST) -> bool:
        if isinstance(value, ast.Name) and value.id == "id":
            return True
        if isinstance(value, ast.Lambda):
            return any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "id"
                for n in ast.walk(value.body))
        return False

    def visit_file(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            is_sorter = (
                (isinstance(node.func, ast.Name)
                 and node.func.id in ("sorted", "min", "max"))
                or (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sort"))
            if not is_sorter:
                continue
            for kw in node.keywords:
                if kw.arg == "key" and self._key_uses_id(kw.value):
                    self.findings.append(self.finding(
                        ctx, node,
                        "id()-based sort key: CPython object addresses "
                        "vary per process; key on stable data instead",
                        ident="id-sort-key"))

    def finalize(self, engine: LintEngine) -> list[Finding]:
        return self.findings


def rules() -> list[Rule]:
    return [UnseededRandomRule(), WallClockRule(), SetIterationRule(),
            FsOrderRule(), IdSortRule()]
