"""Tests for perf baselines and the regression gate (repro.obs.baseline)."""

import json

import pytest

from repro import cli
from repro.analysis import experiments
from repro.obs import baseline


@pytest.fixture(autouse=True)
def _tiny_isolated(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.setenv("REPRO_BUDGET_MULT", "0.005")
    experiments.clear_cache()
    yield
    experiments.clear_cache()


BUDGET = 2_000  # instructions; enough for stable nonzero rates


# -- measurement ------------------------------------------------------------

def test_measure_sim_scenario_payload_shape():
    payload = baseline.measure("specint", instructions=BUDGET)
    assert payload["schema"] == baseline.BASELINE_SCHEMA
    assert payload["scenario"] == "specint"
    assert payload["instructions"] == BUDGET
    assert payload["host"]["wall_s"] > 0
    assert payload["host"]["ips"] > 0
    assert payload["host"]["build_s"] > 0
    assert payload["sim"]["retired"] >= BUDGET
    assert payload["sim"]["ipc"] > 0
    assert payload["sim"]["probes"]["core.fetched"] > 0
    assert "python" in payload["meta"]
    json.dumps(payload)  # BENCH files must be plain JSON


def test_measure_unknown_scenario_raises():
    with pytest.raises(ValueError, match="unknown scenario"):
        baseline.measure("quake")


def test_write_and_load_baseline_round_trip(tmp_path):
    payload = baseline.measure("specint", instructions=BUDGET)
    path = baseline.write_baseline(payload, tmp_path / "sub")
    assert path.name == "BENCH_specint.json"
    assert baseline.load_baseline("specint", tmp_path / "sub") == payload
    assert baseline.load_baseline("apache", tmp_path / "sub") is None


# -- the gate ---------------------------------------------------------------

def _payload(ips=10_000.0, rss=50_000, wall=1.0, instructions=BUDGET,
             cycles=900, ipc=2.2, build=0.2):
    return {"schema": 1, "scenario": "specint", "instructions": instructions,
            "host": {"build_s": build, "wall_s": wall, "ips": ips,
                     "max_rss_kb": rss},
            "sim": {"cycles": cycles, "retired": instructions, "ipc": ipc}}


def test_check_passes_inside_the_band():
    # build_s is reported, never gated: a 45x slower build passes.
    regressions, notes = baseline.check(_payload(ips=9_000, build=9.0),
                                        _payload(), tolerance=0.25)
    assert regressions == [] and notes == []


def test_check_flags_throughput_regression():
    regressions, _ = baseline.check(_payload(ips=5_000), _payload(),
                                    tolerance=0.25)
    assert len(regressions) == 1 and "ips" in regressions[0]


def test_check_flags_rss_regression_and_notes_improvement():
    regressions, notes = baseline.check(
        _payload(ips=20_000, rss=90_000), _payload(), tolerance=0.25)
    assert len(regressions) == 1 and "max_rss_kb" in regressions[0]
    assert any("improved" in n and "ips" in n for n in notes)


def test_check_notes_simulated_drift_without_gating():
    regressions, notes = baseline.check(_payload(cycles=1300, ipc=1.5),
                                        _payload(), tolerance=0.25)
    assert regressions == []
    assert any("not gated" in n for n in notes)


def test_check_different_budgets_skips_wall_and_drift():
    regressions, notes = baseline.check(
        _payload(instructions=4 * BUDGET, wall=9.0, cycles=4000),
        _payload(), tolerance=0.25)
    assert regressions == []
    assert any("budgets differ" in n for n in notes)


def test_check_gates_wall_clock_for_rateless_scenarios():
    base = {"scenario": "report", "host": {"wall_s": 1.0}, "sim": {}}
    slow = {"scenario": "report", "host": {"wall_s": 2.0}, "sim": {}}
    regressions, _ = baseline.check(slow, base, tolerance=0.25)
    assert len(regressions) == 1 and "wall_s" in regressions[0]
    regressions, _ = baseline.check(base, dict(base), tolerance=0.25)
    assert regressions == []


# -- CLI --------------------------------------------------------------------

def test_cli_bench_writes_trajectory_files(tmp_path, capsys):
    assert cli.main(["bench", "specint", "--instructions", str(BUDGET),
                     "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "BENCH_specint.json" in out
    payload = json.loads((tmp_path / "BENCH_specint.json").read_text())
    assert payload["scenario"] == "specint"


def test_cli_bench_measures_each_scenario_in_a_fresh_interpreter(
        tmp_path, capsys, monkeypatch):
    # ru_maxrss is a process's peak so far, so a scenario measured in
    # this process would carry the peaks of everything run before it.
    # The command must not measure here: a scenario patched in this
    # process is not the one that runs.
    monkeypatch.setitem(baseline.SCENARIOS, "specint", (
        "patched in the parent",
        lambda n: {"host": {"max_rss_kb": 1}, "sim": {}}))
    assert cli.main(["bench", "specint", "--instructions", str(BUDGET),
                     "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = baseline.load_baseline("specint", tmp_path)
    assert payload["description"] != "patched in the parent"
    assert payload["host"]["max_rss_kb"] > 1
    assert payload["sim"]["retired"] >= BUDGET


def test_cli_bench_check_seeds_passes_and_fails(tmp_path, capsys):
    """Acceptance: --check exits nonzero when a scenario regresses beyond
    the noise band (fabricated baseline), zero otherwise."""
    # Tiny budgets make host timings very noisy; a wide band keeps this
    # about the gate's mechanics, not the machine's mood.
    args = ["bench", "specint", "--instructions", str(BUDGET),
            "--dir", str(tmp_path), "--check", "--tolerance", "5.0"]
    # No baseline yet: --check seeds one and passes.
    assert cli.main(args) == 0
    assert "seeded" in capsys.readouterr().out

    # A fresh re-check against the just-seeded baseline passes.
    assert cli.main(args) == 0
    assert ": ok" in capsys.readouterr().out

    # Fabricate an impossibly fast baseline: the gate must trip even
    # through the wide band (-99.99..% throughput beats any sane band).
    path = baseline.baseline_path("specint", tmp_path)
    payload = json.loads(path.read_text())
    payload["host"]["ips"] = payload["host"]["ips"] * 1e6
    payload["host"]["max_rss_kb"] = 1  # and memory "exploded" too
    path.write_text(json.dumps(payload))
    assert cli.main(args[:-2] + ["--tolerance", "0.5"]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "ips" in out and "max_rss_kb" in out


def test_cli_bench_update_rewrites_on_pass(tmp_path, capsys):
    assert cli.main(["bench", "specint", "--instructions", str(BUDGET),
                     "--dir", str(tmp_path)]) == 0
    before = baseline.load_baseline("specint", tmp_path)
    assert cli.main(["bench", "specint", "--instructions", str(BUDGET),
                     "--dir", str(tmp_path), "--check", "--update",
                     "--tolerance", "5.0"]) == 0
    after = baseline.load_baseline("specint", tmp_path)
    assert after["meta"]["generated"] >= before["meta"]["generated"]
    capsys.readouterr()


def test_cli_bench_rejects_unknown_scenario(tmp_path):
    with pytest.raises(SystemExit, match="unknown scenario"):
        cli.main(["bench", "quake3", "--dir", str(tmp_path)])
