"""Tests for ``repro lint``: rule families, baseline ratchet, CLI."""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from repro.lint.baseline import load_baseline, write_baseline
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


def test_hotpath_fixture_trips_every_h_rule():
    _, findings = run_engine(FIXTURES / "hotpath")
    assert rule_ids(findings) == {"H101", "H102", "H103", "H104", "H105",
                                  "H106"}
    # churn constructs inside both tier loops are hot; the loop roots'
    # prologues and the cold function must stay clean
    assert idents(findings, "H101") == {"Worker.step:x1", "_helper:x1"}
    assert idents(findings, "H102") == {"Worker.step:x1"}
    assert idents(findings, "H106") == {"Worker.step:x2"}  # loop-depth x2
    assert len(findings) == 7


def test_events_fixture_trips_every_e_rule():
    _, findings = run_engine(FIXTURES / "events")
    assert rule_ids(findings) == {"E101", "E102"}
    # lexical try/finally pairing and the completion-closure discipline
    # both pass; only the three seeded shapes fire
    assert idents(findings, "E101") == {
        "missing:os:fault:missing", "escape:os:tick:escape",
        "orphan:os:orphan:orphan"}
    assert idents(findings, "E102") == {"vmx"}


def test_faults_fixture_trips_every_f_rule():
    _, findings = run_engine(FIXTURES / "faults")
    assert rule_ids(findings) == {"F101", "F102", "F103"}
    # unknown site and the dead converse; lambda across the boundary;
    # the coordinator-side HOME read must not flag
    assert idents(findings, "F101") == {"mem.read.flop",
                                        "dead:sched.pick.stall"}
    assert idents(findings, "F102") == {"submit"}
    assert idents(findings, "F103") == {"USER"}


def test_rule_selection(tmp_path):
    engine = LintEngine(FIXTURES / "determinism")
    engine.select(["D103"])
    assert {f.rule for f in engine.run()} == {"D103"}


# -- the repository itself must be clean or baselined ------------------------


def test_repo_tree_is_clean_or_baselined():
    _, findings = run_engine(SCAN_ROOT)
    baseline = load_baseline(REPO / "lint-baseline.json")
    new, _old = baseline.split(findings)
    assert new == [], "\n".join(f.render() for f in new)
    # the ratchet only grandfathers hot-path debt: every other family
    # must be outright clean
    assert {f.rule[0] for f in findings} <= {"H"}, \
        "\n".join(f.render() for f in findings if not f.rule.startswith("H"))


def test_hot_set_spans_both_tier_loops():
    from repro.lint.callgraph import CallGraph
    from repro.lint.rules_hotpath import FUNC_ROOTS, LOOP_ROOTS

    engine, _ = run_engine(SCAN_ROOT)
    graph = CallGraph.for_engine(engine)
    hot = graph.hot_set(LOOP_ROOTS, FUNC_ROOTS)
    names = {(key[1], key[2]) for key in hot}
    # both tier-driver loop roots resolve...
    assert ("Simulation", "_run_once") in names
    assert ("", "_fast_once") in names
    # ...and the per-cycle machinery is reached transitively from them
    for expected in (("Processor", "cycle"), ("Processor", "_fetch"),
                     ("MiniDUX", "dispatch"), ("Scheduler", "pick_next"),
                     ("ContextStream", "next_fast"),
                     ("SimStats", "charge_cycle"),
                     ("ProbeTimeline", "tick")):
        assert expected in names, f"{expected} missing from the hot set"


def test_cli_json_output_and_exit_zero_on_repo():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--json", "-"],
        capture_output=True, text=True, cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout[proc.stdout.index("{"):])
    assert payload["new"] == 0
    assert all(not f["new"] for f in payload["findings"])


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
             "--rule", "D101,D102", "--json", str(tmp_path / "f.json"),
             "--baseline", str(tmp_path / "none.json"))
    payload = json.loads((tmp_path / "f.json").read_text())
    assert {f["rule"] for f in payload["findings"]} == {"D101", "D102"}
    # family prefixes: an E/F-only run over the determinism fixture is
    # clean, so selection really excluded the D family
    proc = lint_cli(str(FIXTURES / "determinism"), "--rule", "E,F",
                    "--baseline", str(tmp_path / "none.json"))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_list_rules_grouped_by_family():
    proc = lint_cli("--list-rules")
    assert proc.returncode == 0
    out = proc.stdout
    for header in ("D: determinism", "E: span/event discipline",
                   "F: process-boundary / fault discipline",
                   "H: hot-path performance", "P: probe hygiene",
                   "S: fingerprint coverage"):
        assert header in out, f"missing family header {header!r}"
    for rule_id in ("D101", "E101", "E102", "F101", "F102", "F103",
                    "H101", "H106", "P101", "P102", "S101"):
        assert rule_id in out
    # ProbeRegistry, the manifest test, ProbeTimeline and the golden
    # digests make these checks
    for rule_id in ("E103", "P100", "P103", "P104", "S100", "S102", "S103"):
        assert rule_id not in out
    assert sum(line.startswith("  ") for line in out.splitlines()) == 19
    assert "S101  fingerprint coverage" in out


def test_cli_unknown_rule_exits_2_naming_known_ids():
    proc = lint_cli("--rule", "S102")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr
    assert "'S102'" in lines[0] and "known: D101," in lines[0]
    assert "S101" in lines[0]


def test_docs_rule_table_matches_registry():
    doc = (REPO / "docs" / "static-analysis.md").read_text()
    documented = re.findall(r"^\| ([A-Z]\d{3}) \|", doc, flags=re.MULTILINE)
    assert len(documented) == len(set(documented)), "a rule row repeats"
    assert sorted(documented) == [r.id for r in default_rules()]


def test_cli_sarif_output(tmp_path):
    sarif_path = tmp_path / "lint.sarif"
    proc = lint_cli(str(FIXTURES / "faults"), "--sarif", str(sarif_path),
                    "--baseline", str(tmp_path / "none.json"))
    assert proc.returncode == 1
    doc = json.loads(sarif_path.read_text())
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    rule_index = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"F101", "F102", "F103"} <= rule_index
    results = run["results"]
    assert {r["ruleId"] for r in results} == {"F101", "F102", "F103"}
    # everything is new relative to the empty baseline -> warning level
    assert {r["level"] for r in results} == {"warning"}
    for r in results:
        loc = r["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith(".py")
        assert loc["region"]["startLine"] >= 1
        assert r["partialFingerprints"]["reproLintKey"]


def test_cli_dump_callgraph(tmp_path):
    dump_path = tmp_path / "callgraph.json"
    proc = lint_cli(str(FIXTURES / "hotpath"), "--rule", "H",
                    "--dump-callgraph", str(dump_path),
                    "--baseline", str(tmp_path / "none.json"))
    assert proc.returncode == 1  # the fixture's H findings still fail
    graph = json.loads(dump_path.read_text())
    assert "Simulation" in graph["classes"]
    funcs = graph["functions"]
    # receiver-type binding resolved the per-cycle edge
    assert "sim.py::Worker.step" in funcs["sim.py::Simulation._run_once"][
        "calls"]
    assert "sim.py::_helper" in funcs["sim.py::_fast_once"]["calls"]


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


# -- baseline ratchet -------------------------------------------------------


def test_baseline_roundtrip(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    bad = tree / "mod.py"
    bad.write_text("import random\n\n\ndef f():\n    return random.random()\n")
    _, findings = run_engine(tree)
    assert rule_ids(findings) == {"D101"}

    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, findings)
    baseline = load_baseline(baseline_path)

    # baselined: the same finding splits as old, nothing new
    new, old = baseline.split(findings)
    assert new == [] and len(old) == 1

    # a second occurrence of the same key is new (multiset semantics)
    new, old = baseline.split(findings + findings)
    assert len(new) == 1 and len(old) == 1

    # fixing the finding leaves the baseline stale but nothing fails
    bad.write_text("def f():\n    return 4\n")
    _, findings = run_engine(tree)
    assert findings == []
    new, old = baseline.split(findings)
    assert new == [] and old == []
    assert sum(baseline.counts.values()) == 1  # stale entry remains


def test_missing_baseline_is_empty(tmp_path):
    baseline = load_baseline(tmp_path / "nope.json")
    assert baseline.counts == {}


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
