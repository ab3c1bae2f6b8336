"""Supervised execution in the run engine: retry/backoff arithmetic,
error taxonomy, quarantine and partial results, timeouts, worker death,
and the simulator watchdog."""

import pytest

from repro import faults
from repro.analysis import experiments
from repro.analysis import service as sup
from repro.analysis.store import RunStore
from repro.core.simulator import NoProgressError
from repro.obs.events import ENGINE, EventBus


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default-store"))
    experiments.clear_cache()
    faults.clear()
    faults.set_attempt(1)
    yield
    experiments.clear_cache()
    faults.clear()
    faults.set_attempt(1)


def _item(cpu="smt", seed=29, instructions=2_000):
    return {"workload": "specint", "cpu": cpu, "os_mode": "app",
            "seed": seed, "instructions": instructions}


def _one(results):
    (result,) = results.values()
    return result


# -- pure arithmetic -------------------------------------------------------


def test_backoff_delay_is_exponential_and_capped():
    assert sup.backoff_delay(2, base=0.2) == pytest.approx(0.2)
    assert sup.backoff_delay(3, base=0.2) == pytest.approx(0.4)
    assert sup.backoff_delay(4, base=0.2) == pytest.approx(0.8)
    assert sup.backoff_delay(20, base=0.2) == sup.BACKOFF_CAP


def test_classify_error_taxonomy():
    assert sup.classify_error("ValueError") == sup.PERMANENT
    assert sup.classify_error("ArtifactError") == sup.PERMANENT
    assert sup.classify_error("OSError") == sup.TRANSIENT
    assert sup.classify_error("InjectedFault") == sup.TRANSIENT
    # An explicit hint wins over the type name.
    assert sup.classify_error("ValueError", transient_hint=True) \
        == sup.TRANSIENT
    assert sup.classify_error("OSError", transient_hint=False) \
        == sup.PERMANENT


def test_supervisor_rejects_bad_config(tmp_path):
    store = RunStore(tmp_path / "s")
    with pytest.raises(ValueError, match="retries"):
        sup.ReproService(store, retries=-1)
    with pytest.raises(ValueError, match="isolation"):
        sup.ReproService(store, isolation="magic")


# -- happy paths (inline isolation: fast, deterministic) -------------------


def test_clean_run_inline(tmp_path):
    store = RunStore(tmp_path / "s")
    r = _one(sup.run_many([_item()], isolation="inline", store=store))
    assert r.ok and r.attempts == 1 and not r.from_store
    assert r.label == "specint-smt-app-s29"
    assert store.get(r.artifact.fingerprint) == r.artifact
    assert r.transcript == ["complete specint-smt-app-s29 attempt 1"]


def test_second_sweep_served_from_store(tmp_path):
    store = RunStore(tmp_path / "s")
    sup.run_many([_item()], isolation="inline", store=store)
    experiments.clear_cache()
    r = _one(sup.run_many([_item()], isolation="inline", store=store))
    assert r.ok and r.from_store and r.attempts == 0
    assert r.transcript == ["warm hit specint-smt-app-s29"]


def test_retry_then_success_inline(tmp_path):
    faults.install(faults.FaultPlan(
        sites=(faults.FaultSite("worker.crash", attempt=1),)), env=False)
    r = _one(sup.run_many(
        [_item()], isolation="inline", backoff_base=0.01,
        store=RunStore(tmp_path / "s")))
    assert r.ok and r.attempts == 2 and not r.quarantined
    # One requeue, then one completion: nothing else happened to the job.
    assert len(r.transcript) == 2
    assert r.transcript[0].startswith(
        "requeue specint-smt-app-s29 attempt 1: [transient] InjectedFault")
    assert "retrying in 0.01s" in r.transcript[0]
    assert r.transcript[1] == "complete specint-smt-app-s29 attempt 2"


def test_permanent_error_fails_without_retry(tmp_path, monkeypatch):
    def boom(spec, **kwargs):
        raise ValueError("broken spec")

    monkeypatch.setattr(experiments, "execute_spec", boom)
    r = _one(sup.run_many([_item()], isolation="inline",
                          store=RunStore(tmp_path / "s")))
    assert not r.ok and r.quarantined
    assert r.attempts == 1
    assert r.error_kind == sup.PERMANENT
    assert "ValueError" in r.error


def test_transient_exhaustion_quarantines(tmp_path):
    faults.install(faults.FaultPlan(
        sites=(faults.FaultSite("worker.crash", times=0),)), env=False)
    r = _one(sup.run_many(
        [_item()], isolation="inline", retries=2, backoff_base=0.01,
        store=RunStore(tmp_path / "s")))
    assert not r.ok and r.quarantined
    assert r.attempts == 3  # 1 + retries
    assert r.error_kind == sup.TRANSIENT
    assert r.transcript[-1].startswith("quarantine specint-smt-app-s29 "
                                       "attempt 3")


def test_partial_results_with_keep_going(tmp_path):
    # Quarantining the job, never the sweep, is the only policy: the
    # healthy spec still finishes next to the failing one.
    faults.install(faults.FaultPlan(
        sites=(faults.FaultSite("worker.crash", times=0, match="-ss-"),)),
        env=False)
    results = sup.run_many(
        [_item("smt"), _item("ss")], isolation="inline", retries=1,
        backoff_base=0.01, store=RunStore(tmp_path / "s"))
    ok = [r for r in results.values() if r.ok]
    bad = [r for r in results.values() if not r.ok]
    assert len(ok) == 1 and "smt" in ok[0].label
    assert len(bad) == 1 and bad[0].quarantined and bad[0].attempts == 2


def test_engine_events_emitted(tmp_path):
    bus = EventBus()
    faults.install(faults.FaultPlan(
        sites=(faults.FaultSite("worker.crash", attempt=1),)), env=False)
    sup.run_many([_item()], isolation="inline", backoff_base=0.01,
                 store=RunStore(tmp_path / "s"), events=bus)
    names = [e.name for e in bus.by_kind(ENGINE)]
    assert names == ["service.submit", "service.claim", "service.requeue",
                     "service.claim", "service.complete"]
    steps = [e.ts for e in bus.by_kind(ENGINE)]
    assert steps == sorted(steps)


def test_corrupt_store_file_is_quarantined_and_reported(tmp_path):
    store = RunStore(tmp_path / "s")
    sup.run_many([_item()], isolation="inline", store=store)
    (stored,) = store.root.glob("*.json")
    stored.write_text("{torn")
    experiments.clear_cache()
    bus = EventBus()
    r = _one(sup.run_many([_item()], isolation="inline", store=store,
                          events=bus))
    assert r.ok and r.attempts == 1 and not r.from_store
    assert r.transcript[0].startswith(f"store quarantined {stored.name}: ")
    (event,) = [e for e in bus.by_kind(ENGINE)
                if e.name == "store.quarantine"]
    assert event.service == stored.name
    assert (store.root / "quarantine" / stored.name).exists()


def test_warm_sweep_does_not_probe_for_processes(tmp_path, monkeypatch):
    store = RunStore(tmp_path / "s")
    sup.run_many([_item()], isolation="inline", store=store)

    def probe():
        raise AssertionError("probed for worker processes")

    monkeypatch.setattr(sup, "processes_available", probe)
    r = _one(sup.run_many([_item()], store=store))
    assert r.ok and r.from_store and r.attempts == 0


# -- process isolation (timeouts, worker death) ----------------------------

needs_processes = pytest.mark.skipif(not sup.processes_available(),
                                     reason="no worker processes here")


@needs_processes
def test_clean_run_in_processes(tmp_path):
    store = RunStore(tmp_path / "s")
    r = _one(sup.run_many([_item()], isolation="process", store=store,
                          max_workers=2))
    assert r.ok and r.attempts == 1
    assert store.get(r.artifact.fingerprint) == r.artifact


@needs_processes
def test_worker_hard_exit_is_retried(tmp_path):
    faults.install(faults.FaultPlan(
        sites=(faults.FaultSite("worker.exit", attempt=1),)))
    r = _one(sup.run_many(
        [_item()], isolation="process", backoff_base=0.01,
        store=RunStore(tmp_path / "s")))
    assert r.ok and r.attempts == 2
    assert "exit code 13" in r.transcript[0]


@needs_processes
def test_hung_worker_times_out_and_recovers(tmp_path):
    faults.install(faults.FaultPlan(
        sites=(faults.FaultSite("sim.hang", attempt=1),)))
    r = _one(sup.run_many(
        [_item()], isolation="process", timeout=2.0, backoff_base=0.01,
        store=RunStore(tmp_path / "s")))
    assert r.ok and r.attempts == 2 and not r.quarantined
    assert len(r.transcript) == 2
    assert r.transcript[0].startswith("requeue specint-smt-app-s29 attempt 1")
    assert "timed out after 2s" in r.transcript[0]
    assert r.transcript[1] == "complete specint-smt-app-s29 attempt 2"


# -- simulator guardrails --------------------------------------------------


def test_watchdog_raises_diagnostic_on_stall():
    spec = experiments.run_spec("specint", "smt", "app",
                                instructions=2_000, seed=31)
    faults.install(faults.FaultPlan(
        sites=(faults.FaultSite("sim.stall", arg=2_000),)), env=False)
    with pytest.raises(NoProgressError) as info:
        experiments.execute_spec(spec)
    err = info.value
    assert err.retired == 0
    assert err.cycle >= 2_000
    assert isinstance(err.snapshot, dict) and err.snapshot
    assert "no instruction retired" in str(err)


def test_execute_spec_arms_the_watchdog(monkeypatch):
    # Every executed run arms the no-progress window, so a core that
    # retires nothing raises instead of spinning to the cycle limit.
    monkeypatch.setattr(experiments, "WATCHDOG_CYCLES", 3_000)
    build = experiments.build_simulation

    def starved(*args, **kwargs):
        sim = build(*args, **kwargs)
        sim.processor.cycle = lambda now: None
        return sim

    monkeypatch.setattr(experiments, "build_simulation", starved)
    spec = experiments.run_spec("specint", "smt", "app",
                                instructions=2_000, seed=31)
    with pytest.raises(NoProgressError) as info:
        experiments.execute_spec(spec)
    assert info.value.retired == 0
    assert "no instruction retired for 3,000 cycles" in str(info.value)


def test_watchdog_does_not_perturb_results():
    artifacts = []
    for stall_cycles in (None, 500):
        sim = experiments.build_simulation("specint", "smt", "app", seed=37)
        if stall_cycles is not None:
            sim.attach_watchdog(stall_cycles)
        windows = experiments.run_windowed(sim, 4_000)
        artifacts.append(sim.to_artifact(*windows))
    plain, watched = artifacts
    assert watched == plain  # chunked execution is result-identical


def test_untruncated_run_has_no_flags():
    spec = experiments.run_spec("specint", "smt", "app",
                                instructions=1_500, seed=43)
    assert experiments.execute_spec(spec).flags == []


# -- heartbeat stall wrapper ----------------------------------------------


def test_stalling_sink_goes_silent():
    seen = []
    sink = sup._StallingSink(seen.append, after_beats=2)
    for i in range(5):
        sink({"beat": i})
    assert seen == [{"beat": 0}, {"beat": 1}]
