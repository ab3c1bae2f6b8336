"""``repro lint`` command implementation.

Kept out of :mod:`repro.cli` so the engine stays importable without
argparse plumbing, and the top-level CLI stays a thin dispatcher.  The
engine, its rules and the SARIF writer load when ``repro lint`` runs,
so no other command pays for them.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Any

#: Default scan root, relative to the invocation directory.
DEFAULT_ROOT = "src/repro"


def add_parser(sub: Any) -> None:
    p = sub.add_parser(
        "lint",
        help="static invariant checks: determinism, probe hygiene, "
             "fingerprint coverage")
    p.add_argument("root", nargs="?", default=None,
                   help=f"directory (or file) to scan (default: "
                        f"{DEFAULT_ROOT}, falling back to the package "
                        "source when run elsewhere)")
    p.add_argument("--rule", action="append", default=None, metavar="IDS",
                   help="run only these rules: exact ids or family "
                        "prefixes, comma-separated (e.g. --rule D,F or "
                        "--rule D103,E102); repeatable")
    p.add_argument("--update", action="store_true",
                   help="regenerate the committed probe manifest from the "
                        "live registries of the imported package, then "
                        "lint")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write a machine-readable findings report "
                        "('-' for stdout)")
    p.add_argument("--sarif", default=None, metavar="FILE",
                   help="write a SARIF 2.1.0 report (for GitHub code "
                        "scanning / PR annotations)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.set_defaults(func=run_lint)


def _selected_rules(args: argparse.Namespace) -> list[str] | None:
    """Flatten repeatable, comma-separated ``--rule`` arguments."""
    if not args.rule:
        return None
    ids = [part.strip() for arg in args.rule for part in arg.split(",")
           if part.strip()]
    return ids or None


def _resolve_root(arg: str | None) -> pathlib.Path:
    if arg is not None:
        root = pathlib.Path(arg)
        if not root.exists():
            raise SystemExit(f"lint root {arg!r} does not exist")
        return root
    root = pathlib.Path(DEFAULT_ROOT)
    if root.is_dir():
        return root
    # Running from outside a checkout: lint the installed package tree.
    return pathlib.Path(__file__).resolve().parent.parent


def run_lint(args: argparse.Namespace) -> int:
    from repro.lint.engine import (FAMILIES, LintEngine, findings_to_json,
                                   render_report)
    from repro.lint.rules_probes import write_manifest
    from repro.lint.sarif import write_sarif

    if args.list_rules:
        groups: dict[str, list] = {}
        for rule in LintEngine(pathlib.Path(".")).rules:
            groups.setdefault(rule.id[0], []).append(rule)
        for family in sorted(groups):
            title = FAMILIES.get(family, "other")
            print(f"{family}: {title}")
            for rule in sorted(groups[family], key=lambda r: r.id):
                print(f"  {rule.id}  {rule.title}")
        return 0

    selected = _selected_rules(args)
    root = _resolve_root(args.root)
    engine = LintEngine(root)
    if selected:
        try:
            engine.select(selected)
        except ValueError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
    # The P rules read the manifest at finalize, so one pass sees the
    # fresh dump.
    if args.update and any(rule.id.startswith("P") for rule in engine.rules):
        print(f"wrote {write_manifest()}")
    findings = engine.run()

    if args.sarif:
        path = write_sarif(pathlib.Path(args.sarif), findings,
                           engine.rules, root)
        print(f"wrote {path}", file=sys.stderr)
    report_out = sys.stdout
    if args.json == "-":
        # Pure JSON on stdout; the human report moves to stderr.
        print(findings_to_json(findings))
        report_out = sys.stderr
    elif args.json:
        pathlib.Path(args.json).write_text(findings_to_json(findings) + "\n")
        print(f"wrote {args.json}", file=sys.stderr)
    if findings:
        print(render_report(findings), file=report_out)
    else:
        print(f"repro lint: clean ({len(engine.files)} files, "
              f"{len(engine.rules)} rules)", file=report_out)
    return 1 if findings else 0
