"""Crash-recovery tests for ``repro serve`` (satellite of the resilient
service): SIGKILL a live service subprocess at deterministic fault
points -- after the 1st, 2nd, and 3rd journaled completion -- then
resume, and prove the recovered sweep is byte-identical to an
uninterrupted one (same ledger, same stored artifact fingerprints, no
lost or duplicated runs)."""

import json
import os
import subprocess
import sys
import time

import pytest

from repro import faults
from repro.analysis import experiments
from repro.analysis import queue as jobqueue
from repro.analysis.queue import JobQueue, queue_root
from repro.analysis.service import run_service
from repro.analysis.store import RunStore

#: Seconds to wait for the victim subprocess to reach its kill point.
_KILL_DEADLINE = 90.0


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default-store"))
    monkeypatch.setenv("REPRO_BUDGET_MULT", "0.02")
    experiments.clear_cache()
    faults.clear()
    yield
    experiments.clear_cache()
    faults.clear()


def _specs():
    return [{"workload": "specint", "cpu": "smt", "os_mode": "app",
             "instructions": 800, "seed": seed} for seed in (1, 2, 3, 4)]


def _baseline(tmp_path):
    """An uninterrupted sweep of the same specs in a sibling store."""
    store = RunStore(tmp_path / "baseline-store")
    report = run_service(_specs(), store=store, isolation="inline",
                         backoff_base=0.01)
    assert report.ok
    experiments.clear_cache()
    return store, report


def _serve_subprocess(store_root, spec_file):
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(store_root)
    # A fault plan armed by some other test must not leak into the child.
    env.pop(faults.FAULT_PLAN_ENV, None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--spec-file",
         str(spec_file), "--isolation", "inline"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _kill_after_completes(proc, journal, wanted):
    """SIGKILL *proc* once the journal shows *wanted* completions.

    Polling the journal (not the process) makes the fault point
    deterministic in *observable effect*: the kill always lands with
    exactly >= `wanted` durable completions, wherever the host happens
    to schedule it.  Returns how many completions were journaled when
    the process died.
    """
    deadline = time.monotonic() + _KILL_DEADLINE
    while time.monotonic() < deadline and proc.poll() is None:
        try:
            if journal.read_text().count('"op": "complete"') >= wanted:
                break
        except OSError:
            pass  # journal not created yet
        time.sleep(0.005)
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    try:
        return journal.read_text().count('"op": "complete"')
    except OSError:
        return 0


def _artifact_fingerprints(store):
    return sorted(entry.fingerprint for entry in store.entries())


@pytest.mark.parametrize("kill_after", [1, 2, 3])
def test_sigkill_then_resume_is_byte_identical(tmp_path, kill_after):
    baseline_store, baseline = _baseline(tmp_path)
    specs = _specs()
    victim = RunStore(tmp_path / "victim-store")
    spec_file = tmp_path / "sweep.json"
    spec_file.write_text(json.dumps(specs))
    journal = queue_root(victim.root) / jobqueue.JOURNAL_NAME

    proc = _serve_subprocess(victim.root, spec_file)
    completes = _kill_after_completes(proc, journal, kill_after)
    assert completes >= kill_after  # the fault point was really reached

    experiments.clear_cache()
    resumed = run_service(specs, store=victim, isolation="inline",
                          resume=True, backoff_base=0.01)
    assert resumed.ok
    assert resumed.counts[jobqueue.DONE] == len(specs)
    assert resumed.counts[jobqueue.PENDING] == 0
    assert resumed.counts[jobqueue.CLAIMED] == 0
    # No lost and no duplicated work: the queue ledger and the stored
    # artifact set are byte-identical to the uninterrupted run's.
    assert resumed.ledger == baseline.ledger
    assert _artifact_fingerprints(victim) \
        == _artifact_fingerprints(baseline_store)
    # The journal itself replays to the same terminal state.
    replayed = JobQueue(queue_root(victim.root))
    assert replayed.ledger() == baseline.ledger
    assert not replayed.replayed.orphans


def test_resume_after_clean_run_changes_nothing(tmp_path):
    """Control: resuming an *uninterrupted* sweep is a no-op."""
    baseline_store, baseline = _baseline(tmp_path)
    again = run_service(_specs(), store=baseline_store, isolation="inline",
                        resume=True, backoff_base=0.01)
    assert again.ok and again.warm_hits == 0  # journal says done already
    assert again.ledger == baseline.ledger
    assert again.replay["clean_shutdown"]
