"""The lint engine: file walking, rule protocol, findings, suppression.

The engine parses every Python file under the scan roots exactly once
and hands the trees to a set of *rules*.  A rule sees each file via
``visit_file`` (accumulating whatever cross-file state it needs) and
reports at the end via ``finalize`` -- whole-program rules (probe-name
reads, the fingerprint-coverage check) fall out naturally, and
per-file rules simply report as they go.

Findings carry a *stable identity key* (rule + path + detail token,
deliberately excluding line numbers) that SARIF exports as a partial
fingerprint, so code scanning keeps matching a finding after unrelated
edits shift code around.  An inline comment ``# lint: ignore[D103]``
(or a bare ``# lint: ignore``) on the offending line suppresses a
finding at the source.
"""

from __future__ import annotations

import ast
import json
import pathlib
import re
from dataclasses import dataclass, field

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Z0-9, ]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one site."""

    rule: str           #: rule id, e.g. ``D101``
    path: str           #: path relative to the scan root, posix separators
    line: int           #: 1-based line number (0 = whole-file finding)
    message: str        #: human-readable description
    ident: str = ""     #: stable detail token (symbol / probe / call name)

    @property
    def key(self) -> str:
        """Line-independent identity, exported as SARIF's
        ``partialFingerprints.reproLintKey``."""
        return f"{self.rule}|{self.path}|{self.ident or self.message}"

    def to_json_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message, "key": self.key}

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


class FileContext:
    """One parsed source file as rules see it."""

    def __init__(self, path: pathlib.Path, relpath: str, source: str,
                 tree: ast.AST) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree

    def suppressed(self, rule: str, line: int) -> bool:
        """True when *line* carries a ``# lint: ignore`` for *rule*."""
        if not 1 <= line <= len(self.lines):
            return False
        m = _IGNORE_RE.search(self.lines[line - 1])
        if not m:
            return False
        rules = m.group(1)
        if rules is None:
            return True
        return rule in {r.strip() for r in rules.split(",")}


class Rule:
    """Base class for lint rules.

    ``id`` and ``title`` identify the rule in reports and the catalogue;
    subclasses override :meth:`visit_file` (called once per parsed file)
    and :meth:`finalize` (called once, after every file has been seen).
    """

    id = "X000"
    title = "untitled rule"

    def visit_file(self, ctx: FileContext) -> None:  # pragma: no cover
        pass

    def finalize(self, engine: "LintEngine") -> list[Finding]:
        return []

    # -- helpers for subclasses -------------------------------------------

    def finding(self, ctx: FileContext, node: ast.AST | None,
                message: str, ident: str = "") -> Finding | None:
        """Build a finding unless the site carries a suppression comment."""
        line = getattr(node, "lineno", 0) if node is not None else 0
        if ctx.suppressed(self.id, line):
            return None
        return Finding(rule=self.id, path=ctx.relpath, line=line,
                       message=message, ident=ident)


@dataclass
class ParseFailure:
    """A file the engine could not parse (reported as its own finding)."""

    relpath: str
    line: int
    error: str


@dataclass
class LintEngine:
    """Walk a source tree and run every rule over it.

    *root* is the directory the scan is anchored at (paths in findings
    are relative to it); *rules* defaults to the full built-in set.
    Rule state lives in the rule instances, so an engine (and its rules)
    is single-use: construct, :meth:`run`, read the findings.
    """

    root: pathlib.Path
    rules: list[Rule] = field(default_factory=list)
    files: list[FileContext] = field(default_factory=list, init=False)
    parse_failures: list[ParseFailure] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        self.root = pathlib.Path(self.root)
        if not self.rules:
            self.rules = default_rules()

    def select(self, rule_ids: list[str]) -> None:
        """Restrict the run to the given rule ids (exact or prefix, so
        ``--rule D`` selects the whole determinism family)."""
        wanted = []
        for rule in self.rules:
            if any(rule.id == r or rule.id.startswith(r) for r in rule_ids):
                wanted.append(rule)
        if not wanted:
            known = ", ".join(r.id for r in self.rules)
            raise ValueError(f"no rule matches {rule_ids!r} (known: {known})")
        self.rules = wanted

    def _collect_files(self) -> list[pathlib.Path]:
        if self.root.is_file():
            return [self.root]
        return sorted(p for p in self.root.rglob("*.py") if p.is_file())

    def run(self) -> list[Finding]:
        """Parse the tree, run every rule, return sorted findings."""
        for path in self._collect_files():
            relpath = path.relative_to(self.root).as_posix() \
                if path != self.root else path.name
            try:
                source = path.read_text()
                tree = ast.parse(source, filename=str(path))
            except (SyntaxError, UnicodeDecodeError, OSError) as exc:
                line = getattr(exc, "lineno", 0) or 0
                self.parse_failures.append(
                    ParseFailure(relpath, line, str(exc).splitlines()[0]))
                continue
            ctx = FileContext(path, relpath, source, tree)
            self.files.append(ctx)
            for rule in self.rules:
                rule.visit_file(ctx)
        findings: list[Finding] = []
        for failure in self.parse_failures:
            findings.append(Finding(
                rule="E000", path=failure.relpath, line=failure.line,
                message=f"file does not parse: {failure.error}",
                ident="parse-error"))
        for rule in self.rules:
            findings.extend(f for f in rule.finalize(self) if f is not None)
        return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.key))


# -- shared AST helpers -------------------------------------------------------


def module_str_constants(tree: ast.AST) -> dict[str, str]:
    """A parsed module's top-level ``NAME = "text"`` bindings."""
    out: dict[str, str] = {}
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            out[node.targets[0].id] = node.value.value
    return out


def assigned_value(node: ast.stmt, name: str) -> ast.expr | None:
    """The value of a module-level ``name = ...`` / ``name: T = ...``."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1 \
            and isinstance(node.targets[0], ast.Name) \
            and node.targets[0].id == name:
        return node.value
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) \
            and node.target.id == name:
        return node.value
    return None


#: Family prefix -> human name, used to group ``--list-rules`` output.
FAMILIES = {
    "D": "determinism",
    "E": "event kinds",
    "F": "process-boundary / fault discipline",
    "P": "probe hygiene",
    "S": "fingerprint coverage",
}


def default_rules() -> list[Rule]:
    """A fresh instance of every built-in rule, ordered by id."""
    from repro.lint import (rules_determinism, rules_events, rules_faults,
                            rules_probes, rules_schema)

    rules: list[Rule] = []
    for module in (rules_determinism, rules_events, rules_faults,
                   rules_probes, rules_schema):
        rules.extend(module.rules())
    return sorted(rules, key=lambda r: r.id)


def render_report(findings: list[Finding]) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [f.render() for f in findings]
    lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines)


def findings_to_json(findings: list[Finding]) -> str:
    payload = {
        "findings": [f.to_json_dict() for f in findings],
        "total": len(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
