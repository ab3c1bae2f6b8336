"""S-rules: fingerprint coverage.

The run store is content-addressed: an artifact's identity is a hash
over ``SCHEMA_VERSION``, ``CODE_VERSION``, and the full simulation
config.  A configuration knob that never reaches the fingerprint makes
two runs with different behavior collide on one store key, so stale
artifacts masquerade as current measurements.

============  =========================================================
S101          a config field / simulator knob is not statically
              reachable from the fingerprint computation
              (``sim_params`` must cover every ``*Config`` dataclass
              field and every ``Simulation.__init__`` knob)
============  =========================================================

The other silent failure mode -- what a run simulates or stores changes
while both version constants stay put -- is caught at run time, not
here: ``tests/test_golden_trajectories.py`` pins the digests of six
stored artifacts, so any such change fails tier-1 until the right
version is bumped and the digests re-pinned.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.lint.engine import FileContext, Finding, Rule, assigned_value

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.engine import LintEngine

#: ``Simulation.__init__`` parameters that are identity, not knobs.
NON_KNOB_PARAMS = frozenset({"self", "workload", "machine", "os_mode", "seed"})


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        name = dec
        if isinstance(name, ast.Call):
            name = name.func
        if isinstance(name, ast.Name) and name.id == "dataclass":
            return True
        if isinstance(name, ast.Attribute) and name.attr == "dataclass":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> list[str]:
    """The declared field names of a dataclass, ``ClassVar``\\ s excluded."""
    return [stmt.target.id for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and "ClassVar" not in ast.unparse(stmt.annotation)]


class SchemaRules(Rule):
    """Whole-program S101 analysis: collect, then check coverage."""

    id = "S101"
    title = "fingerprint coverage"

    def __init__(self) -> None:
        #: class name -> declared field names
        self.config_classes: dict[str, list[str]] = {}
        self.knob_defaults: tuple | None = None   # (ctx, node, keys)
        self.sim_params_fn: tuple | None = None   # (ctx, node)
        self.sim_init: tuple | None = None        # (ctx, node)

    # -- collection --------------------------------------------------------

    def visit_file(self, ctx: FileContext) -> None:
        for node in ctx.tree.body:
            knobs = assigned_value(node, "SIM_KNOB_DEFAULTS")
            if isinstance(node, ast.ClassDef):
                self._visit_class(ctx, node)
            elif isinstance(node, ast.FunctionDef) \
                    and node.name == "sim_params":
                self.sim_params_fn = (ctx, node)
            elif isinstance(knobs, ast.Dict):
                keys = tuple(
                    k.value for k in knobs.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str))
                self.knob_defaults = (ctx, node, keys)

    def _visit_class(self, ctx: FileContext, node: ast.ClassDef) -> None:
        if node.name.endswith("Config") and _is_dataclass(node):
            self.config_classes[node.name] = _dataclass_fields(node)
        if node.name == "Simulation":
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef) \
                        and stmt.name == "__init__":
                    self.sim_init = (ctx, stmt)

    # -- checks ------------------------------------------------------------

    def finalize(self, engine: LintEngine) -> list[Finding]:
        out: list[Finding] = []
        if self.sim_params_fn is not None:
            out.extend(self._check_machine_fields())
        if self.sim_init is not None:
            out.extend(self._check_init_knobs())
        return out

    def _check_machine_fields(self) -> list[Finding]:
        """Every ``*Config`` field must flow into the params dict --
        either wholesale via ``asdict(machine)`` or field by field."""
        ctx, fn = self.sim_params_fn
        uses_asdict = any(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id == "asdict"
            for n in ast.walk(fn))
        if uses_asdict:
            return []
        mentioned = set()
        for n in ast.walk(fn):
            if isinstance(n, ast.Attribute):
                mentioned.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                mentioned.add(n.value)
        out = []
        for cls_name, fields in sorted(self.config_classes.items()):
            for field_name in fields:
                if field_name not in mentioned:
                    out.append(self.finding(
                        ctx, fn,
                        f"config field {cls_name}.{field_name} is not "
                        "reachable from the fingerprint params (sim_params "
                        "neither calls asdict(machine) nor references it); "
                        "runs differing only in this field collide in the "
                        "run store",
                        ident=f"{cls_name}.{field_name}"))
        return out

    def _check_init_knobs(self) -> list[Finding]:
        """Every Simulation.__init__ knob must be declared in
        SIM_KNOB_DEFAULTS *and* forwarded into the sim_params call."""
        ctx, init = self.sim_init
        args = init.args
        params = [a.arg for a in args.args + args.kwonlyargs
                  if a.arg not in NON_KNOB_PARAMS]
        declared = set(self.knob_defaults[2]) if self.knob_defaults else set()
        forwarded: set[str] = set()
        for n in ast.walk(init):
            if isinstance(n, ast.Call) and (
                    (isinstance(n.func, ast.Name)
                     and n.func.id == "sim_params")
                    or (isinstance(n.func, ast.Attribute)
                        and n.func.attr == "sim_params")):
                forwarded.update(kw.arg for kw in n.keywords
                                 if kw.arg is not None)
        out = []
        for name in params:
            problems = []
            if self.knob_defaults is not None and name not in declared:
                problems.append("missing from SIM_KNOB_DEFAULTS")
            if name not in forwarded:
                problems.append("not forwarded to sim_params() in __init__")
            if problems:
                out.append(self.finding(
                    ctx, init,
                    f"simulator knob {name!r} skips the fingerprint: "
                    + " and ".join(problems)
                    + "; runs differing only in this knob collide in the "
                    "run store", ident=f"knob.{name}"))
        if self.knob_defaults is not None:
            kctx, knode, keys = self.knob_defaults
            for name in keys:
                if name not in {a.arg for a in args.args + args.kwonlyargs}:
                    out.append(self.finding(
                        kctx, knode,
                        f"SIM_KNOB_DEFAULTS declares {name!r} but "
                        "Simulation.__init__ has no such parameter "
                        "(dead knob)", ident=f"dead-knob.{name}"))
        return out


def rules() -> list[Rule]:
    return [SchemaRules()]
