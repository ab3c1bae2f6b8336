"""Tests for the command-line interface."""

import pytest

from repro import cli
from repro.analysis import experiments


@pytest.fixture(autouse=True)
def small_budgets(monkeypatch):
    """Make CLI-triggered simulations tiny so these tests stay fast."""
    monkeypatch.setenv("REPRO_BUDGET_MULT", "0.02")
    experiments.clear_cache()
    yield
    experiments.clear_cache()


def test_cli_list(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "specint" in out and "apache" in out


def test_cli_leaves_lint_engine_unloaded():
    # Only `repro lint` needs the rule engine; every other command
    # registers the subparser without importing it.
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    script = ("import sys\n"
              "from repro.cli import main\n"
              "main(['list'])\n"
              "print(' '.join(sorted(m for m in sys.modules "
              "if m.startswith('repro.lint'))))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    loaded = out.splitlines()[-1].split()
    assert not [m for m in loaded
                if m in ("repro.lint.engine", "repro.lint.sarif")
                or m.startswith("repro.lint.rules_")], loaded


def test_cli_run_prints_metrics(capsys):
    assert cli.main(["run", "specint", "--cpu", "smt"]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out
    assert "L1D miss" in out


def test_cli_table(capsys):
    assert cli.main(["table", "2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "Load" in out


def test_cli_figure(capsys):
    assert cli.main(["figure", "3"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out


def test_cli_invalid_table():
    with pytest.raises(SystemExit):
        cli.main(["table", "1"])


def test_cli_invalid_figure():
    with pytest.raises(SystemExit):
        cli.main(["figure", "8"])


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        cli.main([])


def test_cli_report_writes_file(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert cli.main(["report", "--out", str(out),
                     "--exhibits-dir", str(tmp_path / "ex")]) == 0
    assert out.exists()
    assert (tmp_path / "ex" / "tab6.txt").exists()


def test_cli_compare_runs(capsys):
    assert cli.main(["compare"]) in (0, 1)
    out = capsys.readouterr().out
    assert "shape criteria hold" in out


def test_cli_counters_prints_probe_tree(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert cli.main(["counters", "specint"]) == 0
    out = capsys.readouterr().out
    assert "mem.l1d.accesses.user" in out
    assert "os.sched.switches" in out
    assert "probe(s)" in out


def test_cli_counters_grep_filters(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert cli.main(["counters", "specint", "--grep", "branch.",
                     "--window", "steady"]) == 0
    out = capsys.readouterr().out
    names = [line.split()[0] for line in out.splitlines()
             if line.startswith("  ")]
    assert names and all(n.startswith("branch.") for n in names)

    assert cli.main(["counters", "specint", "--grep", "nosuch."]) == 1
    assert "no probes match" in capsys.readouterr().out


def test_cli_counters_reads_a_stored_artifact_file(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert cli.main(["run", "specint", "--mode", "fast",
                     "--instructions", "20000"]) == 0
    [path] = tmp_path.glob("specint-smt-full-11-20000-*.json")
    capsys.readouterr()
    assert cli.main(["counters", str(path), "--grep", "^core.retired$"]) == 0
    out = capsys.readouterr().out
    assert "core.retired" in out and "20,004" in out
    assert out.rstrip().endswith(path.stem.split("-")[-1][:12] + ")")
    with pytest.raises(SystemExit, match="bad run 'specint-ss-full'"):
        cli.main(["counters", "specint-ss-full"])


def test_cli_trace_writes_chrome_json(tmp_path, monkeypatch, capsys):
    import json

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    out_path = tmp_path / "trace.json"
    assert cli.main(["trace", "specint", "--instructions", "20000",
                     "--out", str(out_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert payload["traceEvents"]

    jsonl_path = tmp_path / "trace.jsonl"
    assert cli.main(["trace", "specint", "--instructions", "20000",
                     "--out", str(jsonl_path), "--jsonl"]) == 0
    capsys.readouterr()
    first = json.loads(jsonl_path.read_text().splitlines()[0])
    assert {"ts", "kind", "name"} <= set(first)


def test_cli_profile_prints_table(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert cli.main(["profile", "specint", "--instructions", "20000"]) == 0
    out = capsys.readouterr().out
    assert "core.fetch" in out
    assert "self %" in out


def test_cli_prefetch_and_cache_lifecycle(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_BUDGET_MULT", "0.005")

    assert cli.main(["cache", "ls"]) == 0
    assert "empty" in capsys.readouterr().out

    assert cli.main(["prefetch", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "8 canonical runs ready" in out
    assert str(tmp_path) in out

    assert cli.main(["cache", "ls"]) == 0
    out = capsys.readouterr().out
    assert "apache-smt-full" in out
    assert "8 stored run(s)" in out
    from repro.analysis.artifact import SCHEMA_VERSION
    assert f"v{SCHEMA_VERSION} " in out  # per-entry schema version
    assert "stale" not in out

    # A second prefetch is store-served: no simulation may run.
    experiments.clear_cache()
    monkeypatch.setattr(
        experiments, "execute_spec",
        lambda spec, **kwargs: (_ for _ in ()).throw(
            AssertionError("prefetch re-ran a stored spec")))
    assert cli.main(["prefetch"]) == 0
    assert "8 canonical runs ready" in capsys.readouterr().out

    assert cli.main(["cache", "clear"]) == 0
    assert "removed 8" in capsys.readouterr().out
    assert cli.main(["cache", "ls"]) == 0
    assert "empty" in capsys.readouterr().out


def test_cli_cache_gc_removes_only_stale_schema_entries(
        tmp_path, monkeypatch, capsys):
    import json

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert cli.main(["run", "specint"]) == 0
    capsys.readouterr()

    # Nothing stale yet: gc is a no-op.
    assert cli.main(["cache", "gc"]) == 0
    assert "no stale entries" in capsys.readouterr().out

    # Fabricate a leftover from an older schema (a permanent store miss).
    current = next(tmp_path.glob("*.json"))
    old = json.loads(current.read_text())
    old["schema_version"] = old["schema_version"] - 1
    old["fingerprint"] = "0" * 64
    stale_path = tmp_path / "specint-smt-full-00000000000000000000.json"
    stale_path.write_text(json.dumps(old))

    assert cli.main(["cache", "gc", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "would remove 1 stale run(s)" in out
    assert stale_path.exists()  # dry run keeps the file

    assert cli.main(["cache", "gc"]) == 0
    assert "removed 1 stale run(s)" in capsys.readouterr().out
    assert not stale_path.exists()
    assert current.exists()  # current-schema entries are never touched


def test_cli_trace_refuses_to_overwrite_without_force(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    out_path = tmp_path / "trace.json"
    args = ["trace", "specint", "--instructions", "20000",
            "--out", str(out_path)]
    assert cli.main(args) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit, match="refusing to overwrite"):
        cli.main(args)
    assert cli.main(args + ["--force"]) == 0


def test_cli_profile_out_file_and_force(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    out_path = tmp_path / "profile.txt"
    args = ["profile", "specint", "--instructions", "20000",
            "--out", str(out_path)]
    assert cli.main(args) == 0
    assert "wrote" in capsys.readouterr().out
    assert "core.fetch" in out_path.read_text()
    with pytest.raises(SystemExit, match="refusing to overwrite"):
        cli.main(args)
    assert cli.main(args + ["--force"]) == 0


def test_cli_run_progress_out_writes_jsonl(tmp_path, monkeypatch, capsys):
    import json

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    beats_path = tmp_path / "beats.jsonl"
    assert cli.main(["run", "specint", "--progress-out",
                     str(beats_path)]) == 0
    assert "IPC" in capsys.readouterr().out
    assert beats_path.exists()
    # Tiny test budgets can finish inside one heartbeat interval; any
    # lines that did appear must be well-formed samples.
    for line in beats_path.read_text().splitlines():
        assert "cycle" in json.loads(line)


# -- supervised run engine surface ------------------------------------------


def test_cli_run_supervised_success(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert cli.main(["run", "specint", "--retries", "1"]) == 0
    assert "IPC" in capsys.readouterr().out


def test_cli_run_supervised_rejects_progress_out(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    with pytest.raises(SystemExit, match="--progress-out"):
        cli.main(["run", "specint", "--retries", "1",
                  "--progress-out", str(tmp_path / "beats.jsonl")])


def test_cli_run_supervised_failure_exit_code(tmp_path, monkeypatch, capsys):
    from repro import faults

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    plan = faults.FaultPlan(
        sites=(faults.FaultSite("worker.crash", times=0),))
    monkeypatch.setenv(faults.FAULT_PLAN_ENV, plan.dumps())
    monkeypatch.setattr(faults, "_PLAN", faults._UNSET)
    try:
        assert cli.main(["run", "specint", "--retries", "1"]) == 1
    finally:
        faults.clear()
    out = capsys.readouterr().out
    assert "run failed after 2 attempt(s)" in out
    assert "retrying in" in out


def test_cli_prefetch_supervised(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_BUDGET_MULT", "0.005")
    assert cli.main(["prefetch", "--retries", "1", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "8/8 canonical runs ready" in out
    assert "attempt(s)" in out or "store" in out


def test_cli_prefetch_permanent_failure_keeps_other_results(
        tmp_path, monkeypatch, capsys):
    from repro.analysis import service

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_BUDGET_MULT", "0.005")
    # Inline attempts, so the patched execute_spec is the one that runs.
    monkeypatch.setattr(service, "_PROC_AVAILABLE", False)
    original = experiments.execute_spec

    def poisoned(spec, **kwargs):
        if (spec["workload"], spec["cpu"], spec["os_mode"]) \
                == ("apache", "ss", "omit"):
            raise ValueError("poisoned spec")
        return original(spec, **kwargs)

    monkeypatch.setattr(experiments, "execute_spec", poisoned)
    assert cli.main(["prefetch"]) == 1
    out = capsys.readouterr().out
    assert "apache-ss-omit       FAILED [permanent]: ValueError: " \
        "poisoned spec" in out
    assert out.count(" instructions (") == 7
    assert "7/8 canonical runs ready" in out


def test_cli_cache_gc_collects_stranded_tmp(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    stranded = tmp_path / "dead.json.tmp.4242"
    stranded.write_text("half an artifact")

    assert cli.main(["cache", "gc", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "would remove 1 stranded temp file(s)" in out
    assert stranded.exists()

    assert cli.main(["cache", "gc"]) == 0
    assert "removed 1 stranded temp file(s)" in capsys.readouterr().out
    assert not stranded.exists()


def test_cli_cache_ls_reports_quarantine(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    qdir = tmp_path / "quarantine"
    qdir.mkdir()
    (qdir / "rotten.json").write_text("garbage")
    (qdir / "rotten.json.why").write_text("unparsable JSON")

    assert cli.main(["cache", "ls"]) == 0
    out = capsys.readouterr().out
    assert "1 quarantined corrupt file(s)" in out


def test_cli_chaos_list(capsys):
    assert cli.main(["chaos", "--list"]) == 0
    out = capsys.readouterr().out
    assert "worker-crash" in out and "torn-write" in out


def test_cli_chaos_unknown_scenario(tmp_path):
    with pytest.raises(SystemExit, match="unknown scenario"):
        cli.main(["chaos", "--scenario", "nope",
                  "--store", str(tmp_path / "m")])


def test_cli_chaos_single_scenario_json(tmp_path, capsys):
    import json

    out_path = tmp_path / "chaos.json"
    assert cli.main(["chaos", "--scenario", "worker-crash",
                     "--store", str(tmp_path / "m"),
                     "--instructions", "800", "--json", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "1/1 scenarios survived" in out
    payload = json.loads(out_path.read_text())
    assert payload["scenarios"][0]["name"] == "worker-crash"
    assert payload["scenarios"][0]["survived"] is True


# -- tiered execution surface ------------------------------------------------


def test_cli_run_fast_mode(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert cli.main(["run", "specint", "--mode", "fast"]) == 0
    out = capsys.readouterr().out
    assert "execution mode      fast" in out
    assert "leg plan" in out and "stride" in out


def test_cli_run_sampled_mode(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    args = ["run", "specint", "--instructions", "12000", "--mode", "sampled",
            "--warmup", "4000", "--sample", "4000:2000"]
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert "execution mode      sampled" in out
    assert "sampled windows" in out
    assert "+/-" in out  # extrapolated estimates carry error bars
    assert "~derived.cycles" in out


def test_cli_run_rejects_bad_sample(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    with pytest.raises(SystemExit, match="want N:M"):
        cli.main(["run", "specint", "--mode", "sampled", "--sample", "9"])
    with pytest.raises(SystemExit, match="integers"):
        cli.main(["run", "specint", "--mode", "sampled", "--sample", "a:b"])


def test_cli_cache_treats_leftover_ckpt_files_as_stale(
        tmp_path, monkeypatch, capsys):
    # Older trees stored warm-up replay recipes next to runs under
    # ckpt- names.  Nothing reads them now: every cache command must
    # see a stale entry, and get() must never serve one.
    import json

    from repro.analysis.artifact import SCHEMA_VERSION
    from repro.analysis.store import RunStore, content_hash

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert cli.main(["run", "specint", "--instructions", "12000",
                     "--mode", "fast"]) == 0
    capsys.readouterr()
    (run_path,) = tmp_path.glob("*.json")

    fingerprint = ("6673eb4170dc8599fd81722c80e2ecdd"
                   "0ab57b60d95bab6398ad82e25ce21219")
    payload = {
        "kind": "checkpoint", "schema_version": SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "params": {"workload": "specint", "os_mode": "full", "seed": 11},
        "plan": [["fast", 4000]], "stride": 8, "boundary": 4000,
        "cycle": 500,
        "digests": {"probes": "f0e0" * 16, "kernel": "a6ba" * 16,
                    "memory": "9183" * 16},
    }
    payload["content_hash"] = content_hash(payload)
    leftover = tmp_path / f"ckpt-specint-full-11@4000-{fingerprint[:20]}.json"

    def write_leftover():
        leftover.write_text(json.dumps(payload, sort_keys=True) + "\n")

    write_leftover()
    store = RunStore(tmp_path)
    assert store.get(fingerprint) is None
    assert leftover.exists() and store.quarantined == []

    assert cli.main(["cache", "ls"]) == 0
    out = capsys.readouterr().out
    (line,) = [ln for ln in out.splitlines() if leftover.name in ln]
    assert "*" in line
    assert "1 stored run(s)" in out
    assert "[1 stale" in out

    assert cli.main(["cache", "ls", "--verify"]) == 0
    out = capsys.readouterr().out
    (line,) = [ln for ln in out.splitlines() if leftover.name in ln]
    assert "SKIP" in line
    assert "1 verified, 0 problem(s)" in out

    assert cli.main(["cache", "gc", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert leftover.name in out
    assert "would remove 1 stale run(s)" in out
    assert leftover.exists()
    assert cli.main(["cache", "gc"]) == 0
    assert leftover.name in capsys.readouterr().out
    assert not leftover.exists() and run_path.exists()
    assert cli.main(["cache", "gc"]) == 0
    assert "no stale entries" in capsys.readouterr().out

    write_leftover()
    assert cli.main(["cache", "clear"]) == 0
    assert "removed 2 stored file(s)" in capsys.readouterr().out
    assert list(tmp_path.glob("*.json")) == []


def test_cli_cache_gc_quarantines_unreadable_files(tmp_path, monkeypatch,
                                                   capsys):
    from repro.analysis.store import RunStore

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    truncated = tmp_path / "specint-smt-full-11-9999-00000000000000000000.json"
    truncated.write_text('{"schema_version": 9, "spec": {"workload"')
    not_object = tmp_path / "apache-smt-full-11-9999-11111111111111111111.json"
    not_object.write_text("[1, 2]\n")

    assert cli.main(["cache", "ls"]) == 0
    out = capsys.readouterr().out
    assert "empty" not in out
    assert f"{truncated.name}: unparsable JSON" in out
    assert "0 stored run(s)" in out and "[2 unreadable" in out
    assert cli.main(["cache", "ls", "--verify"]) == 1
    capsys.readouterr()

    assert cli.main(["cache", "gc", "--dry-run"]) == 0
    assert "would move 2 unreadable file(s)" in capsys.readouterr().out
    assert truncated.exists() and not_object.exists()
    assert cli.main(["cache", "gc"]) == 0
    out = capsys.readouterr().out
    assert f"{not_object.name}: payload is not an object" in out
    assert "moved 2 unreadable file(s)" in out
    assert not truncated.exists() and not not_object.exists()
    # Kept as evidence, with the reason a read would have recorded.
    assert sorted((e.path.name, e.reason)
                  for e in RunStore(tmp_path).quarantine_entries()) == [
        (not_object.name, "payload is not an object"),
        (truncated.name, "unparsable JSON")]

    assert cli.main(["cache", "ls", "--verify"]) == 0
    assert cli.main(["cache", "gc"]) == 0
    assert "no stale entries" in capsys.readouterr().out


def test_cli_cache_clear_counts_removed_files(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    experiments.clear_cache()
    assert cli.main(["run", "specint", "--instructions", "12000",
                     "--mode", "sampled", "--warmup", "4000",
                     "--sample", "4000:2000"]) == 0
    assert cli.main(["run", "specint", "--instructions", "12000",
                     "--mode", "fast"]) == 0
    capsys.readouterr()
    assert cli.main(["cache", "ls"]) == 0
    assert "2 stored run(s)" in capsys.readouterr().out

    assert cli.main(["cache", "clear"]) == 0
    assert (f"removed 2 stored file(s) from {tmp_path}"
            in capsys.readouterr().out)
    assert cli.main(["cache", "ls"]) == 0
    assert "empty" in capsys.readouterr().out


# -- resilient service surface -----------------------------------------------


def _serve_specs():
    return [{"workload": "specint", "cpu": "smt", "os_mode": "app",
             "instructions": 800, "seed": s} for s in (1, 2)]


def test_cli_serve_spec_file(tmp_path, monkeypatch, capsys):
    import json

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    spec_file = tmp_path / "sweep.json"
    spec_file.write_text(json.dumps(_serve_specs()))
    assert cli.main(["serve", "--spec-file", str(spec_file),
                     "--isolation", "inline"]) == 0
    out = capsys.readouterr().out
    assert "service report" in out and "done=2" in out
    assert (tmp_path / "store" / "queue" / "journal.jsonl").exists()


def test_cli_serve_refuses_unfinished_journal_without_resume(
        tmp_path, monkeypatch):
    import json

    from repro.analysis.queue import JobQueue, queue_root
    from repro.analysis.service import resolve_item

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    # A dead incarnation left a pending job in the journal.
    JobQueue(queue_root(tmp_path / "store")).submit(
        resolve_item(_serve_specs()[0]))
    spec_file = tmp_path / "sweep.json"
    spec_file.write_text(json.dumps(_serve_specs()))
    with pytest.raises(SystemExit, match="--resume"):
        cli.main(["serve", "--spec-file", str(spec_file),
                  "--isolation", "inline"])
    assert cli.main(["serve", "--spec-file", str(spec_file),
                     "--isolation", "inline", "--resume"]) == 0


def test_cli_serve_json_report(tmp_path, monkeypatch, capsys):
    import json

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    spec_file = tmp_path / "sweep.json"
    spec_file.write_text(json.dumps(_serve_specs()[:1]))
    out_path = tmp_path / "service.json"
    assert cli.main(["serve", "--spec-file", str(spec_file),
                     "--isolation", "inline", "--json",
                     str(out_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert payload["counts"]["done"] == 1
    assert payload["clean"] is True
    assert payload["ledger"]


def test_cli_serve_rejects_bad_spec_file(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(SystemExit, match="non-empty JSON list"):
        cli.main(["serve", "--spec-file", str(bad)])
    with pytest.raises(SystemExit, match="cannot read spec file"):
        cli.main(["serve", "--spec-file", str(tmp_path / "absent.json")])
