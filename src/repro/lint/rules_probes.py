"""P-rules: probe-name hygiene against the committed probe manifest.

The probe registry (:mod:`repro.obs.registry`) is addressed by string
literals, and ``registry.counter(name)`` is register-or-fetch: a typo'd
name does not fail, it silently creates a fresh zero counter.  The
committed ``lint/probe_manifest.json`` lists every probe name the
canonical machines register -- concrete names plus the prefixes of
derived-probe families -- as a dump of their live registries (:func:`live_manifest`, written by ``repro lint --update``).
The rules check the tree's probe-name literals against that file, so
checking stays pure :mod:`ast`:

============  =========================================================
P101          probe-name literal read somewhere in the tree that the
              committed manifest does not list (a typo'd read)
P102          ``counter()``/``histogram()`` registration whose handle is
              discarded: nothing can ever bump it (dead probe)
============  =========================================================

A stale manifest fails ``tests/test_lint.py``, which rebuilds the dump
and names every ``+added`` / ``-removed`` probe.  Names outside the
``mem``/``branch``/``os``/``core`` hierarchy never register at all
(:meth:`repro.obs.registry.ProbeRegistry._check_name`).
"""

from __future__ import annotations

import ast
import json
import pathlib
import re
from typing import TYPE_CHECKING, Any

from repro.lint.engine import FileContext, Finding, Rule
from repro.obs.registry import HIERARCHY_ROOTS

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.engine import LintEngine

#: Committed manifest location, relative to the scan root.
MANIFEST_RELPATH = "lint/probe_manifest.json"

_READ_RE = re.compile(rf"^({'|'.join(HIERARCHY_ROOTS)})\.[a-z0-9_.:-]+$")
#: Aggregate suffixes computed from histogram snapshots read the
#: underlying probe (``os.syscall_latency_cycles.p95``).
_PERCENTILE_RE = re.compile(r"\.p\d{2}$")


def live_manifest() -> dict[str, Any]:
    """The probe manifest as the live registries define it.

    Builds (never runs) the eight canonical simulations one at a time
    and unions their registered names and derived-family prefixes; each
    machine is freed when the next one rebinds ``sim``.  Imports the
    simulator lazily: checking the tree never needs it.
    """
    from repro.analysis.experiments import CANONICAL_SPECS, build_simulation

    names: set[str] = set()
    families: set[str] = set()
    for spec in CANONICAL_SPECS:
        sim = build_simulation(*spec)
        names.update(sim.obs.names())
        families.update(sim.obs.families())
    return {"version": 2, "names": sorted(names),
            "families": sorted(families)}


def write_manifest() -> pathlib.Path:
    """Write :func:`live_manifest` into the imported package's tree."""
    path = pathlib.Path(__file__).parent.parent / MANIFEST_RELPATH
    path.write_text(json.dumps(live_manifest(), indent=2, sort_keys=True)
                    + "\n")
    return path


def _probe_reads(ctx: FileContext) -> list[tuple[ast.AST, str]]:
    """Probe-name literals this file reads.

    ``x.get("...")`` / ``x.raw("...")`` arguments, ``x["..."]`` loads,
    and the string elements of module-level ``*PROBE*`` tuples.
    """
    out: list[tuple[ast.AST, str]] = []

    def read(node: ast.AST) -> None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _READ_RE.match(node.value):
            out.append((node, node.value))

    assert isinstance(ctx.tree, ast.Module)
    for stmt in ctx.tree.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        value = getattr(stmt, "value", None)
        if isinstance(value, (ast.Tuple, ast.List)) and any(
                isinstance(t, ast.Name) and "PROBE" in t.id.upper()
                for t in targets):
            for elt in value.elts:
                read(elt)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("get", "raw") and node.args:
            read(node.args[0])
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            read(node.slice)
    return out


class UnknownProbeRule(Rule):
    """P101: probe-name reads the committed manifest does not list."""

    id = "P101"
    title = "unknown probe name"

    def __init__(self) -> None:
        self.reads: list[tuple[FileContext, ast.AST, str]] = []

    def visit_file(self, ctx: FileContext) -> None:
        self.reads.extend((ctx, node, name) for node, name in _probe_reads(ctx))

    def finalize(self, engine: LintEngine) -> list[Finding]:
        path = engine.root / MANIFEST_RELPATH
        if not path.is_file():
            return []  # no probe manifest in this tree (e.g. a fixture)
        try:
            manifest = json.loads(path.read_text())
            names = set(manifest["names"])
            families = tuple(f"{f}." for f in manifest["families"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [Finding(self.id, MANIFEST_RELPATH, 0,
                            f"committed probe manifest unreadable: {exc!r}",
                            ident="manifest-unreadable")]
        out: list[Finding] = []
        for ctx, node, name in self.reads:
            base = _PERCENTILE_RE.sub("", name)
            if base in names or base.startswith(families):
                continue
            f = self.finding(
                ctx, node,
                f"probe name {name!r} is read here but the probe manifest "
                "does not list it (typo'd reads silently create new "
                "counters; after adding a probe, `repro lint --update`)",
                ident=name)
            if f is not None:
                out.append(f)
        return out


class DeadProbeRule(Rule):
    """P102: registered counters whose handle is discarded."""

    id = "P102"
    title = "dead probe"

    def __init__(self) -> None:
        self.read_names: set[str] = set()
        #: (file, call, registry method, probe name)
        self.discarded: list[tuple[FileContext, ast.Call, str, str]] = []

    def visit_file(self, ctx: FileContext) -> None:
        self.read_names.update(name for _, name in _probe_reads(ctx))
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)):
                continue
            call = node.value
            if isinstance(call.func, ast.Attribute) \
                    and call.func.attr in ("counter", "histogram") \
                    and call.args and isinstance(call.args[0], ast.Constant) \
                    and isinstance(call.args[0].value, str):
                self.discarded.append(
                    (ctx, call, call.func.attr, call.args[0].value))

    def finalize(self, engine: LintEngine) -> list[Finding]:
        out: list[Finding] = []
        for ctx, call, method, name in self.discarded:
            if name in self.read_names:
                continue
            f = self.finding(
                ctx, call,
                f"{method}({name!r}) discards its handle and the name is "
                "never read elsewhere: the probe can never be bumped "
                "(dead)", ident=name)
            if f is not None:
                out.append(f)
        return out


def rules() -> list[Rule]:
    return [UnknownProbeRule(), DeadProbeRule()]
