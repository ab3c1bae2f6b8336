"""Tests for ``repro lint``: rule families, CLI, the probe manifest."""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from repro.lint.engine import LintEngine, default_rules
from repro.lint.rules_probes import MANIFEST_RELPATH, live_manifest

REPO = pathlib.Path(__file__).resolve().parent.parent
SCAN_ROOT = REPO / "src" / "repro"
FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"


def run_engine(root):
    engine = LintEngine(pathlib.Path(root))
    return engine, engine.run()


def rule_ids(findings):
    return {f.rule for f in findings}


def idents(findings, rule):
    return {f.ident for f in findings if f.rule == rule}


# -- fixture trees: one seeded violation per rule ---------------------------


def test_determinism_fixture_trips_every_d_rule():
    _, findings = run_engine(FIXTURES / "determinism")
    assert rule_ids(findings) == {"D101", "D102", "D103", "D104", "D105"}
    # one finding per rule: the suppressed call and the shielded
    # (sorted/len/sum-wrapped) uses must not be flagged
    assert len(findings) == 5


def test_d103_flags_keyed_sort_of_a_set():
    _, findings = run_engine(FIXTURES / "keyed_sort")
    assert rule_ids(findings) == {"D103"}
    # both keyed sorts of a set in flagged.py; nothing in clean.py
    assert sorted(f.path for f in findings) == ["flagged.py"] * 2


def test_probe_fixture_trips_every_p_rule():
    _, findings = run_engine(FIXTURES / "probes")
    assert rule_ids(findings) == {"P101", "P102"}
    # a listed name and a member of a listed family both resolve
    assert idents(findings, "P101") == {"mem.cache.hit"}
    assert idents(findings, "P102") == {"mem.cache.orphan"}


def test_schema_fixture_flags_unreachable_config_field():
    _, findings = run_engine(FIXTURES / "schema")
    assert rule_ids(findings) == {"S101"}
    assert idents(findings, "S101") == {"FixtureConfig.depth"}


def test_events_fixture_trips_every_e_rule():
    _, findings = run_engine(FIXTURES / "events")
    assert rule_ids(findings) == {"E102"}
    # the registered kind passes; only the seeded one fires
    assert idents(findings, "E102") == {"vmx"}


def test_faults_fixture_trips_every_f_rule():
    _, findings = run_engine(FIXTURES / "faults")
    assert rule_ids(findings) == {"F101", "F102", "F103"}
    # unknown site and the dead converse; lambda across the boundary;
    # host env reads on both sides of it, REPRO_SEED clean
    assert idents(findings, "F101") == {"mem.read.flop",
                                        "dead:sched.pick.stall"}
    assert idents(findings, "F102") == {"submit"}
    assert idents(findings, "F103") == {"USER", "HOME"}


def test_f103_flags_module_level_env_read(tmp_path):
    # an import-time read runs in every worker that imports the module
    (tmp_path / "worker.py").write_text(
        "import os\n"
        "from multiprocessing import Process\n"
        "\n"
        "HOST = os.environ.get('HOSTNAME', '')\n"
        "\n"
        "\n"
        "def job(spec):\n"
        "    return os.environ.get('REPRO_SEED', '0'), HOST\n"
        "\n"
        "\n"
        "def launch(spec):\n"
        "    return Process(target=job, args=(spec,))\n")
    engine = LintEngine(tmp_path)
    engine.select(["F103"])
    assert [(f.line, f.ident) for f in engine.run()] == [(4, "HOSTNAME")]


def test_rule_selection(tmp_path):
    engine = LintEngine(FIXTURES / "determinism")
    engine.select(["D103"])
    assert {f.rule for f in engine.run()} == {"D103"}


# -- the repository itself must be clean -------------------------------------


def test_repo_tree_is_clean():
    _, findings = run_engine(SCAN_ROOT)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_json_output_and_exit_zero_on_repo():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--json", "-"],
        capture_output=True, text=True, cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload == {"findings": [], "total": 0}
    assert "repro lint: clean" in proc.stderr


def test_cli_exit_nonzero_on_fixture_tree():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint",
         str(FIXTURES / "determinism")],
        capture_output=True, text=True, cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 1
    assert "D101" in proc.stdout


def lint_cli(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})


def test_cli_rule_comma_list_and_family_prefix(tmp_path):
    # exact ids, comma-separated: only those rules run
    lint_cli(str(FIXTURES / "determinism"),
             "--rule", "D101,D102", "--json", str(tmp_path / "f.json"))
    payload = json.loads((tmp_path / "f.json").read_text())
    assert {f["rule"] for f in payload["findings"]} == {"D101", "D102"}
    # family prefixes: an E/F-only run over the determinism fixture is
    # clean, so selection really excluded the D family
    proc = lint_cli(str(FIXTURES / "determinism"), "--rule", "E,F")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_list_rules_grouped_by_family():
    proc = lint_cli("--list-rules")
    assert proc.returncode == 0
    out = proc.stdout
    headers = [line for line in out.splitlines()
               if not line.startswith("  ")]
    assert headers == ["D: determinism", "E: event kinds",
                       "F: process-boundary / fault discipline",
                       "P: probe hygiene", "S: fingerprint coverage"]
    for rule_id in ("D101", "E102", "F101", "F102", "F103",
                    "P101", "P102", "S101"):
        assert rule_id in out
    # MiniDUX._push_span, ProbeRegistry, the manifest test,
    # ProbeTimeline, the golden digests and perfbench's layer table make
    # these checks
    for rule_id in ("E101", "E103", "H101", "P100", "P103", "P104",
                    "S100", "S102", "S103"):
        assert rule_id not in out
    assert sum(line.startswith("  ") for line in out.splitlines()) == 12
    assert "S101  fingerprint coverage" in out


def test_cli_unknown_rule_exits_2_naming_known_ids():
    # a deleted rule id and a deleted family prefix
    for rule in ("S102", "H"):
        proc = lint_cli("--rule", rule)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "Traceback" not in proc.stderr
        assert f"'{rule}'" in lines[0] and "known: D101," in lines[0]
        assert "S101" in lines[0]


def test_docs_rule_table_matches_registry():
    doc = (REPO / "docs" / "static-analysis.md").read_text()
    documented = re.findall(r"^\| ([A-Z]\d{3}) \|", doc, flags=re.MULTILINE)
    assert len(documented) == len(set(documented)), "a rule row repeats"
    assert sorted(documented) == [r.id for r in default_rules()]


def test_cli_sarif_output(tmp_path):
    sarif_path = tmp_path / "lint.sarif"
    proc = lint_cli(str(FIXTURES / "faults"), "--sarif", str(sarif_path))
    assert proc.returncode == 1
    doc = json.loads(sarif_path.read_text())
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    rule_index = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"F101", "F102", "F103"} <= rule_index
    results = run["results"]
    assert {r["ruleId"] for r in results} == {"F101", "F102", "F103"}
    assert {r["level"] for r in results} == {"warning"}
    for r in results:
        loc = r["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith(".py")
        assert loc["region"]["startLine"] >= 1
        assert r["partialFingerprints"]["reproLintKey"]


# -- the probe manifest is a dump of the live registries ---------------------


def manifest_drift(live, committed):
    """``+name`` for each probe only *live* has, ``-name`` for each only
    *committed* has (names and derived-family prefixes alike)."""
    drift = []
    for kind in ("names", "families"):
        have, want = set(live[kind]), set(committed[kind])
        drift += [f"+{n}" for n in sorted(have - want)]
        drift += [f"-{n}" for n in sorted(want - have)]
    return drift


def test_probe_manifest_matches_live_registries():
    committed = json.loads((SCAN_ROOT / MANIFEST_RELPATH).read_text())
    live = live_manifest()
    assert manifest_drift(live, committed) == [], \
        "probe manifest drifted; regenerate with `repro lint --update`"
    assert live == committed


# -- acceptance scenarios: typo'd probe, dead simulator knob ----------------


def copy_tree(tmp_path):
    dest = tmp_path / "repro"
    shutil.copytree(SCAN_ROOT, dest)
    return dest


def run_p101(root):
    engine = LintEngine(pathlib.Path(root))
    engine.select(["P101"])
    return engine.run()


def test_probe_name_typo_is_caught(tmp_path):
    dest = copy_tree(tmp_path)
    kernel = dest / "os_model" / "kernel.py"
    text = kernel.read_text()
    assert "os.syscall_latency_cycles" in text
    kernel.write_text(
        text.replace("os.syscall_latency_cycles", "os.syscal_latency_cycles"))
    manifest = dest / MANIFEST_RELPATH
    committed = json.loads(manifest.read_text())
    # regenerate the copy's manifest from the copy's own registries
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(dest), "--rule", "P",
         "--update"],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(tmp_path)})
    assert f"wrote {manifest}" in proc.stdout, proc.stdout + proc.stderr
    assert manifest_drift(json.loads(manifest.read_text()), committed) == [
        "+os.syscal_latency_cycles", "-os.syscall_latency_cycles"]
    # the reader of the old name (obs/baseline.py) now reads an unknown probe
    findings = run_p101(dest)
    assert any(f.rule == "P101" and f.ident == "os.syscall_latency_cycles"
               and f.path == "obs/baseline.py" for f in findings)


def test_typod_miss_cause_read_is_caught(tmp_path):
    dest = copy_tree(tmp_path)
    (dest / "analysis" / "typo.py").write_text(
        "def l1d_interthread(w):\n"
        "    return w[\"probes\"][\"mem.l1d.miss.interthraed.user\"]\n")
    findings = run_p101(dest)
    assert idents(findings, "P101") == {"mem.l1d.miss.interthraed.user"}


def test_dead_simulator_knob_is_caught(tmp_path):
    dest = copy_tree(tmp_path)
    sim = dest / "core" / "simulator.py"
    text = sim.read_text()
    assert '"spin_policy"' in text
    # declare a knob that Simulation.__init__ does not accept
    text = text.replace('"spin_policy"', '"spin_policyy"', 1)
    sim.write_text(text)
    _, findings = run_engine(dest)
    assert "S101" in rule_ids(findings)
    assert any(i.startswith("dead-knob.") or i.startswith("knob.")
               for i in idents(findings, "S101"))


def test_inline_suppression(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "mod.py").write_text(
        "import random\n\n\ndef f():\n"
        "    return random.random()  # lint: ignore[D101]\n")
    _, findings = run_engine(tree)
    assert findings == []


def test_parse_error_is_reported(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "broken.py").write_text("def f(:\n")
    _, findings = run_engine(tree)
    assert rule_ids(findings) == {"E000"}


# -- generic style gate (ruff) ----------------------------------------------


@pytest.mark.skipif(shutil.which("ruff") is None,
                    reason="ruff not installed in this environment")
def test_ruff_clean():
    proc = subprocess.run(
        ["ruff", "check", "src", "tests", "benchmarks", "examples"],
        capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("mypy") is None,
                    reason="mypy not installed in this environment")
def test_mypy_strict_on_typed_subtrees():
    # Mirrors the CI job: strict typing is scoped (via [tool.mypy] in
    # pyproject.toml) to the analysis substrate and the fault plumbing.
    proc = subprocess.run(
        ["mypy", "src/repro/lint", "src/repro/faults"],
        capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0, proc.stdout + proc.stderr
