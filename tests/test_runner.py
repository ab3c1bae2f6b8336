"""One-shot sweeps through the run engine: run_many/prefetch_all
resolution order, result labels, store population, and the inline
fallback."""

import pytest

from repro.analysis import experiments, service
from repro.analysis.store import RunStore


@pytest.fixture(autouse=True)
def _tiny_isolated(monkeypatch, tmp_path):
    """Per-test store dir and small budgets; memo cleared on both sides."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_BUDGET_MULT", "0.005")
    experiments.clear_cache()
    yield
    experiments.clear_cache()


def _artifacts(results):
    assert all(r.ok for r in results.values()), results
    return {label: r.artifact for label, r in results.items()}


def test_canonical_specs_cover_the_paper():
    assert len(service.CANONICAL_SPECS) == 8
    assert len(set(service.CANONICAL_SPECS)) == 8
    for wl, cpu, mode in service.CANONICAL_SPECS:
        assert wl in ("specint", "apache")
        assert cpu in ("smt", "ss")
        assert mode in ("full", "app", "omit")


def test_default_workers_bounds():
    assert 1 <= service.default_workers() <= len(service.CANONICAL_SPECS)


def test_labels_for_numbers_each_collision():
    items = [("specint", "smt", "app")] * 3
    resolved = [service.resolve_item(item) for item in items]
    assert service.labels_for(items, resolved) == [
        "specint-smt-app", "specint-smt-app#2", "specint-smt-app#3"]
    seeded = [{"workload": "specint", "cpu": "smt", "os_mode": "app",
               "seed": 5}] * 2
    resolved = [service.resolve_item(item) for item in seeded]
    assert service.labels_for(seeded, resolved) == [
        "specint-smt-app-s5", "specint-smt-app-s5#2"]


def test_run_many_serial_executes_and_stores():
    triples = [("specint", "smt", "full"), ("specint", "ss", "full")]
    result = _artifacts(service.run_many(triples, max_workers=1))
    assert set(result) == {"specint-smt-full", "specint-ss-full"}
    store = RunStore()
    for artifact in result.values():
        assert store.get(artifact.fingerprint) == artifact


def test_run_many_uses_store_instead_of_rerunning(monkeypatch):
    triples = [("specint", "smt", "full")]
    first = _artifacts(service.run_many(triples, max_workers=1))
    experiments.clear_cache()

    def boom(spec, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("execute_spec called despite a warm store")

    monkeypatch.setattr(experiments, "execute_spec", boom)
    again = service.run_many(triples, max_workers=1)
    assert _artifacts(again) == first
    (hit,) = again.values()
    assert hit.from_store and hit.attempts == 0


def test_run_many_force_reexecutes(monkeypatch):
    triples = [("specint", "smt", "full")]
    service.run_many(triples, max_workers=1)
    calls = []
    original = experiments.execute_spec

    def spy(spec, **kwargs):
        calls.append(spec["workload"])
        return original(spec, **kwargs)

    monkeypatch.setattr(experiments, "execute_spec", spy)
    (rerun,) = service.run_many(triples, max_workers=1, force=True,
                                isolation="inline").values()
    assert calls == ["specint"]
    assert rerun.ok and not rerun.from_store and rerun.attempts == 1


def test_run_many_coalesces_identical_specs(monkeypatch):
    calls = []
    original = experiments.execute_spec

    def spy(spec, **kwargs):
        calls.append(spec["workload"])
        return original(spec, **kwargs)

    monkeypatch.setattr(experiments, "execute_spec", spy)
    results = service.run_many([("specint", "smt", "app")] * 2,
                               isolation="inline")
    assert list(results) == ["specint-smt-app", "specint-smt-app#2"]
    first, second = _artifacts(results).values()
    assert first == second
    assert calls == ["specint"]  # one job, two labels


def test_prefetch_all_populates_all_eight():
    artifacts = _artifacts(service.prefetch_all(max_workers=2))
    assert len(artifacts) == 8
    labels = {f"{wl}-{cpu}-{mode}" for wl, cpu, mode in service.CANONICAL_SPECS}
    assert set(artifacts) == labels
    assert len(RunStore().entries()) == 8
    # Worker-produced artifacts resolve through get_run afterwards.
    a = experiments.get_run("apache", "smt", "omit")
    assert a == artifacts["apache-smt-omit"]


def test_run_many_falls_back_to_inline_without_processes(monkeypatch):
    monkeypatch.setattr(service, "_PROC_AVAILABLE", False)
    calls = []
    original = experiments.execute_spec

    def spy(spec, **kwargs):
        calls.append(spec["cpu"])
        return original(spec, **kwargs)

    # A spy in this process only sees inline attempts.
    monkeypatch.setattr(experiments, "execute_spec", spy)
    triples = [("specint", "smt", "full"), ("specint", "ss", "full")]
    result = _artifacts(service.run_many(triples, max_workers=4))
    assert set(result) == {"specint-smt-full", "specint-ss-full"}
    assert calls == ["smt", "ss"]
    store = RunStore()
    for artifact in result.values():
        assert store.get(artifact.fingerprint) == artifact


def test_run_many_carries_tier_keys_through_dict_items():
    item = {"workload": "specint", "cpu": "smt", "os_mode": "full",
            "instructions": 12_000, "mode": "sampled", "warmup": 4_000,
            "sample": (4_000, 2_000)}
    result = service.run_many([item], max_workers=1)
    (artifact,) = _artifacts(result).values()
    assert artifact.mode == "sampled"
    assert artifact.spec["mode"] == "sampled"
    assert artifact.spec["warmup"] == 4_000
    assert artifact.spec["sample"] == [4_000, 2_000]


def test_sweep_with_its_own_store_writes_nothing_to_the_default_store(
        tmp_path, monkeypatch):
    # The engine stores each run in the store it was handed, a warm-up
    # run included, never in the default store.
    default = tmp_path / "default"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(default))
    store = RunStore(tmp_path / "own")
    item = {"workload": "specint", "cpu": "smt", "os_mode": "full",
            "instructions": 12_000, "mode": "sampled", "warmup": 4_000,
            "sample": (4_000, 2_000)}
    (first,) = _artifacts(service.run_many(
        [item], store=store, isolation="inline")).values()
    assert [e.fingerprint for e in store.entries()] == [first.fingerprint]
    assert RunStore(default).entries() == []
    service.run_many([item], store=store, force=True, isolation="inline")
    assert RunStore(default).entries() == []
