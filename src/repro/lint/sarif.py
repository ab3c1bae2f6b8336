"""SARIF 2.1.0 export for ``repro lint`` findings.

Minimal but valid: one run, one driver, a rule catalogue built from
the engine's rule set, and one result per finding.  GitHub's
``codeql-action/upload-sarif`` turns this into PR annotations, so the
``uri`` is emitted relative to the repository root (the scan root is
prefixed back on).
"""

from __future__ import annotations

import json
import pathlib

from repro.lint.engine import Finding, Rule


def findings_to_sarif(findings: list[Finding], rules: list[Rule],
                      scan_root: pathlib.Path) -> dict[str, object]:
    """Build the SARIF payload dict; every finding is a ``warning``."""
    try:
        prefix = scan_root.resolve().relative_to(pathlib.Path.cwd())
    except ValueError:
        prefix = pathlib.Path(scan_root)
    rule_descs = [
        {"id": rule.id,
         "shortDescription": {"text": rule.title}}
        for rule in sorted(rules, key=lambda r: r.id)
    ]
    rule_ids = {r["id"] for r in rule_descs}
    results: list[dict[str, object]] = []
    for f in findings:
        result: dict[str, object] = {
            "ruleId": f.rule,
            "level": "warning",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": (prefix / f.path).as_posix(),
                    },
                    "region": {"startLine": max(f.line, 1)},
                },
            }],
            "partialFingerprints": {"reproLintKey": f.key},
        }
        if f.rule not in rule_ids:  # e.g. E000 parse failures
            rule_descs.append({
                "id": f.rule,
                "shortDescription": {"text": "lint engine finding"}})
            rule_ids.add(f.rule)
        results.append(result)
    return {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri":
                        "https://example.invalid/repro/docs/"
                        "static-analysis.md",
                    "rules": sorted(rule_descs,
                                    key=lambda r: str(r["id"])),
                },
            },
            "results": results,
        }],
    }


def write_sarif(path: pathlib.Path, findings: list[Finding],
                rules: list[Rule], scan_root: pathlib.Path) -> pathlib.Path:
    payload = findings_to_sarif(findings, rules, scan_root)
    path = pathlib.Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
