"""Tests for the resilient simulation service (repro.analysis.service):
admission control, warm hits, circuit breaker, drain, retry exhaustion,
and resume semantics."""

import multiprocessing
import os
import shutil
import time

import pytest

from repro import faults
from repro.analysis import experiments
from repro.analysis import queue as jobqueue
from repro.analysis.service import (CLOSED, HALF_OPEN, OPEN, CircuitBreaker,
                                    ReproService, ServiceError, _Leg,
                                    processes_available, resolve_item,
                                    run_service)
from repro.analysis.store import RunStore


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default-store"))
    monkeypatch.setenv("REPRO_BUDGET_MULT", "0.02")
    experiments.clear_cache()
    faults.clear()
    yield
    experiments.clear_cache()
    faults.clear()


def _spec(seed=1, instructions=800):
    return {"workload": "specint", "cpu": "smt", "os_mode": "app",
            "instructions": instructions, "seed": seed}


def _serve(store, specs, **overrides):
    kwargs = dict(store=store, isolation="inline", backoff_base=0.01)
    kwargs.update(overrides)
    return run_service(specs, **kwargs)


# -- circuit breaker (pure unit) --------------------------------------------

def test_breaker_trips_after_threshold():
    moves = []
    b = CircuitBreaker(threshold=3, cooldown=2,
                       on_transition=lambda o, n, w: moves.append((o, n)))
    b.record_failure("one")
    b.record_failure("two")
    assert b.state == CLOSED and b.allow()
    b.record_failure("three")
    assert b.state == OPEN and b.trips == 1
    assert moves == [(CLOSED, OPEN)]


def test_breaker_success_resets_consecutive_count():
    b = CircuitBreaker(threshold=2, cooldown=2)
    b.record_failure("a")
    b.record_success()
    b.record_failure("b")
    assert b.state == CLOSED  # failures were not consecutive


def test_breaker_cooldown_counted_in_denials():
    b = CircuitBreaker(threshold=1, cooldown=3)
    b.record_failure("boom")
    assert b.state == OPEN
    assert not b.allow() and not b.allow()  # denials 1, 2
    assert b.allow()  # denial 3 admits the half-open probe
    assert b.state == HALF_OPEN
    assert not b.allow()  # only one probe in flight
    b.record_success()
    assert b.state == CLOSED and b.allow()


def test_breaker_probe_failure_reopens():
    b = CircuitBreaker(threshold=1, cooldown=1)
    b.record_failure("boom")
    assert b.allow() and b.state == HALF_OPEN
    b.record_failure("still broken")
    assert b.state == OPEN and b.trips == 2


def test_breaker_validation():
    with pytest.raises(ValueError, match="threshold"):
        CircuitBreaker(threshold=0)
    with pytest.raises(ValueError, match="cooldown"):
        CircuitBreaker(cooldown=0)


def test_breaker_json_shape():
    b = CircuitBreaker(threshold=2, cooldown=4)
    assert b.to_json_dict() == {"state": CLOSED, "trips": 0,
                                "threshold": 2, "cooldown": 4}


# -- end-to-end (inline) ----------------------------------------------------

def test_inline_sweep_completes(tmp_path):
    store = RunStore(tmp_path / "store")
    report = _serve(store, [_spec(1), _spec(2)])
    assert report.ok and report.clean
    assert report.counts[jobqueue.DONE] == 2
    assert report.counts[jobqueue.PENDING] == 0
    fingerprints = {job["fingerprint"] for job in report.jobs}
    assert all(store.get(fp) is not None for fp in fingerprints)
    assert "service report" in report.render()


def test_rerun_serves_from_journal_as_done(tmp_path):
    store = RunStore(tmp_path / "store")
    first = _serve(store, [_spec(1)])
    again = _serve(store, [_spec(1)])
    # The journal already knows the job: no re-execution, no warm copy.
    assert again.counts[jobqueue.DONE] == 1 and again.warm_hits == 0
    assert again.ledger == first.ledger


def test_fresh_journal_with_warm_store_serves_warm(tmp_path):
    store = RunStore(tmp_path / "store")
    _serve(store, [_spec(1)])
    # A new sweep (fresh journal) against the same warm store.
    shutil.rmtree(store.root / jobqueue.QUEUE_DIR)
    report = _serve(store, [_spec(1)])
    assert report.warm_hits == 1
    (job,) = report.jobs
    assert job["state"] == jobqueue.DONE and job["from_store"]
    assert "warm hit" in " ".join(report.transcript)


def test_duplicate_specs_coalesce(tmp_path):
    store = RunStore(tmp_path / "store")
    report = _serve(store, [_spec(1), _spec(1)])
    assert report.counts[jobqueue.DONE] == 1
    (job,) = report.jobs
    assert job["coalesced"] == 1


def test_backlog_limit_sheds_submit(tmp_path):
    store = RunStore(tmp_path / "store")
    report = _serve(store, [_spec(1), _spec(2)], queue_limit=1)
    assert report.counts["shed"] == 1
    assert report.counts[jobqueue.DONE] == 1
    assert any("shed" in line for line in report.transcript)


def test_retry_exhaustion_quarantines_job_not_sweep(tmp_path):
    store = RunStore(tmp_path / "store")
    # times=0 = unlimited: every attempt of the -s1 job loses its worker.
    faults.install(faults.FaultPlan(sites=(
        faults.FaultSite("service.worker.lost", times=0, match="-s1"),)),
        env=False)
    try:
        report = _serve(store, [_spec(1), _spec(2)], retries=1)
    finally:
        faults.clear()
    assert not report.ok
    assert report.counts[jobqueue.QUARANTINED] == 1
    assert report.counts[jobqueue.DONE] == 1  # the healthy job finished
    quarantined = [j for j in report.jobs
                   if j["state"] == jobqueue.QUARANTINED]
    assert quarantined[0]["attempts"] == 2  # first try + one retry


def test_drain_stops_claims_and_preserves_backlog(tmp_path):
    store = RunStore(tmp_path / "store")
    service = ReproService(store, isolation="inline", backoff_base=0.01)
    service.on_complete = lambda job: service.request_drain()
    for seed in (1, 2, 3):
        service.submit(resolve_item(_spec(seed)))
    report = service.run()
    assert report.drained
    assert report.counts[jobqueue.DONE] == 1
    assert report.counts[jobqueue.PENDING] == 2
    # The backlog is someone else's problem now -- but an explicit one.
    with pytest.raises(ServiceError, match="--resume"):
        _serve(store, [_spec(s) for s in (1, 2, 3)])
    resumed = _serve(store, [_spec(s) for s in (1, 2, 3)], resume=True)
    assert resumed.ok and resumed.counts[jobqueue.DONE] == 3


def test_resume_requires_flag_only_when_unfinished(tmp_path):
    store = RunStore(tmp_path / "store")
    _serve(store, [_spec(1)])
    # Everything finished: no --resume needed for a follow-up sweep.
    report = _serve(store, [_spec(1), _spec(2)])
    assert report.ok and report.counts[jobqueue.DONE] == 2


def test_startup_prunes_stale_worker_files(tmp_path):
    store = RunStore(tmp_path / "store")
    progress = jobqueue.queue_root(store.root) / "progress"
    progress.mkdir(parents=True)
    (progress / "worker-0.json").write_text("{}")
    (progress / "worker-3.json").write_text("{}")
    service = ReproService(store, isolation="inline")
    assert not list(progress.glob("worker-*.json"))
    assert any("pruned 2 stale worker state files" in line
               for line in service.transcript)


def test_breaker_trip_fault_degrades_then_recovers(tmp_path):
    store = RunStore(tmp_path / "store")
    faults.install(faults.FaultPlan(sites=(
        faults.FaultSite("store.breaker.trip", times=1),)), env=False)
    try:
        report = _serve(store, [_spec(1), _spec(2)], breaker_cooldown=2)
    finally:
        faults.clear()
    assert report.ok  # degraded, recovered, finished
    assert report.breaker["trips"] == 1
    assert report.breaker["state"] == CLOSED
    assert any("half-open -> closed" in line for line in report.transcript)


def test_half_open_orphan_claim_reopens_breaker(tmp_path):
    store = RunStore(tmp_path / "store")
    service = ReproService(store, isolation="inline", breaker_cooldown=1)
    service.queue.submit(resolve_item(_spec()))
    service.breaker.trip("storm")
    faults.install(faults.FaultPlan(sites=(
        faults.FaultSite("queue.claim.orphan", times=1),)), env=False)
    try:
        service._launch_phase(use_processes=False)
    finally:
        faults.clear()
    assert service.breaker.state == OPEN
    assert any("probe lost" in line for line in service.transcript)


def test_half_open_nonstore_failure_reopens_then_recovers(tmp_path):
    # A half-open probe whose worker dies with a non-store error must
    # re-open the circuit (else the service livelocks in HALF_OPEN);
    # cooldown-counted probing then resumes and closes it.
    store = RunStore(tmp_path / "store")
    faults.install(faults.FaultPlan(sites=(
        faults.FaultSite("store.breaker.trip", times=1),
        faults.FaultSite("service.worker.lost", times=1),)), env=False)
    try:
        report = _serve(store, [_spec(1)], breaker_cooldown=1)
    finally:
        faults.clear()
    assert report.ok, report.render()
    assert report.breaker["state"] == CLOSED
    assert report.breaker["trips"] == 2  # injected storm + lost probe
    assert any("probe lost" in line for line in report.transcript)


def test_constructor_validation(tmp_path):
    store = RunStore(tmp_path / "store")
    with pytest.raises(ValueError, match="workers"):
        ReproService(store, workers=0)
    with pytest.raises(ValueError, match="isolation"):
        ReproService(store, isolation="thread")


def test_report_json_roundtrips(tmp_path):
    store = RunStore(tmp_path / "store")
    report = _serve(store, [_spec(1)])
    data = report.to_json_dict()
    assert data["counts"][jobqueue.DONE] == 1
    assert data["ledger"] == report.ledger
    assert isinstance(data["transcript"], list)


@pytest.mark.skipif(not processes_available(),
                    reason="process isolation unavailable")
def test_process_mode_sweep_completes(tmp_path):
    store = RunStore(tmp_path / "store")
    report = run_service([_spec(1)], store=store, isolation="process",
                         backoff_base=0.01, timeout=60.0)
    assert report.ok and report.counts[jobqueue.DONE] == 1


@pytest.mark.skipif(not processes_available(),
                    reason="process isolation unavailable")
def test_process_mode_worker_lost_is_retried(tmp_path):
    store = RunStore(tmp_path / "store")
    faults.install(faults.FaultPlan(sites=(
        faults.FaultSite("service.worker.lost", times=1),)), env=False)
    try:
        report = run_service([_spec(1)], store=store, isolation="process",
                             backoff_base=0.01, timeout=60.0)
    finally:
        faults.clear()
    assert report.ok, report.render()
    (job,) = report.jobs
    assert job["attempts"] == 2
    assert any("worker lost" in line for line in report.transcript)


def test_lease_age_measured_on_wall_clock(tmp_path):
    # Heartbeat mtimes are epoch seconds; comparing them against the
    # monotonic clock would make every age hugely negative and the
    # lease check permanently false.
    store = RunStore(tmp_path / "store")
    service = ReproService(
        store, jobqueue.JobQueue(jobqueue.queue_root(store.root), lease_s=5.0),
        isolation="inline")
    job, _ = service.queue.submit(resolve_item(_spec()))
    heartbeat = tmp_path / "worker-0.json"
    heartbeat.write_text("{}")
    leg = _Leg(job, 0, progress_path=str(heartbeat))
    assert not service._lease_expired(leg)  # fresh heartbeat
    stale = time.time() - 60.0
    os.utime(heartbeat, (stale, stale))
    assert service._lease_expired(leg)
    assert not service._lease_expired(_Leg(job, 0))  # no heartbeat file
    missing = _Leg(job, 0, progress_path=str(tmp_path / "absent.json"))
    assert not service._lease_expired(missing)  # timeout governs


@pytest.mark.skipif(not processes_available(),
                    reason="process isolation unavailable")
def test_stalled_heartbeat_revokes_lease_and_requeues(tmp_path):
    store = RunStore(tmp_path / "store")
    service = ReproService(
        store, jobqueue.JobQueue(jobqueue.queue_root(store.root), lease_s=5.0),
        isolation="process", backoff_base=0.01)
    service.queue.submit(resolve_item(_spec()))
    claimed = service.queue.claim("w0")
    heartbeat = tmp_path / "worker-0.json"
    heartbeat.write_text("{}")
    proc = multiprocessing.get_context().Process(target=time.sleep,
                                                 args=(60,), daemon=True)
    proc.start()
    leg = _Leg(claimed, 0, proc=proc, progress_path=str(heartbeat))
    service._active[claimed.id] = leg
    service._free_slots = []
    service.breaker.trip("storm")  # pretend this leg is the probe
    while not service.breaker.allow():
        pass
    assert service.breaker.state == HALF_OPEN
    try:
        service._reap()  # fresh heartbeat: lease healthy, nothing reaped
        assert claimed.id in service._active
        stale = time.time() - 60.0
        os.utime(heartbeat, (stale, stale))
        service._reap()
    finally:
        if proc.is_alive():  # pragma: no cover - revocation failed
            proc.kill()
        proc.join()
    assert claimed.id not in service._active
    assert claimed.state == jobqueue.PENDING  # requeued, not lost
    assert service._free_slots == [0]
    assert service.breaker.state == OPEN  # revoked probe re-opens
    assert any("lease expired" in line for line in service.transcript)


def test_service_leaves_no_armed_plan(tmp_path):
    store = RunStore(tmp_path / "store")
    _serve(store, [_spec(1)])
    assert faults.active() is None
