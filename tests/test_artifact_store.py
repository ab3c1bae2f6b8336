"""Artifact and store layer tests: JSON round-trips, content-addressed
cache hits/misses, fingerprint coverage, and the warm-cache guarantee
(a warmed store serves runs with zero simulation)."""

import json
import warnings

import pytest

import repro.analysis.artifact as artifact_mod
from repro.analysis import experiments, figures, tables
from repro.analysis.artifact import (ArtifactError, RunArtifact,
                                     parse_run_label, run_fingerprint,
                                     run_label)
from repro.analysis.experiments import build_simulation, run_windowed
from repro.analysis.store import RunStore
from repro.core.simulator import Simulation, sim_params
from repro.os_model.kernel import OSMode


@pytest.fixture(scope="module")
def small_artifact():
    sim = build_simulation("specint", "smt", "full", seed=47)
    startup, steady, total = run_windowed(sim, budget=40_000)
    return sim.to_artifact(startup, steady, total,
                           spec_extra={"workload": "specint", "cpu": "smt",
                                       "os_mode": "full",
                                       "instructions": 40_000, "seed": 47})


# -- artifact round-trip ---------------------------------------------------


def test_artifact_is_plain_json_data(small_artifact):
    # Every field serializes without custom encoders.
    text = json.dumps(small_artifact.to_json_dict())
    assert json.loads(text)["fingerprint"] == small_artifact.fingerprint


def test_json_roundtrip_equality(small_artifact):
    clone = RunArtifact.loads(small_artifact.dumps())
    assert clone == small_artifact
    assert clone is not small_artifact
    assert clone.fingerprint == small_artifact.fingerprint
    assert clone.label == small_artifact.label
    assert clone.steady_boundary == small_artifact.steady_boundary


def test_from_json_rejects_wrong_schema(small_artifact):
    payload = small_artifact.to_json_dict()
    payload["schema_version"] += 1
    with pytest.raises(ArtifactError):
        RunArtifact.from_json_dict(payload)


def test_from_json_rejects_missing_field(small_artifact):
    payload = small_artifact.to_json_dict()
    del payload["steady"]
    with pytest.raises(ArtifactError):
        RunArtifact.from_json_dict(payload)


def test_loads_rejects_garbage():
    with pytest.raises(ArtifactError):
        RunArtifact.loads("not json at all {")


def test_window_accessor(small_artifact):
    assert small_artifact.window("steady") is small_artifact.steady
    with pytest.raises(ValueError):
        small_artifact.window("warmup")


def test_run_label_round_trips_canonical_runs():
    labels = []
    for workload, cpu, os_mode in experiments.CANONICAL_SPECS:
        spec = experiments.run_spec(workload, cpu, os_mode)
        label = run_label(spec)
        assert label == f"{workload}-{cpu}-{os_mode}"
        assert parse_run_label(label) == {"workload": workload, "cpu": cpu,
                                          "os_mode": os_mode}
        assert run_label(parse_run_label(label)) == label
        labels.append(label)
    assert len(set(labels)) == 8
    assert parse_run_label("apache") is None
    assert parse_run_label("apache-smt-full-11") is None
    assert run_label({"workload": "apache"}) == "apache"
    assert run_label(None) == run_label({}) == "run"


# -- probe snapshots inside artifacts (observability layer) ---------------


def test_artifact_windows_carry_probe_tree(small_artifact):
    for window in ("startup", "steady", "total"):
        probes = small_artifact.window(window).get("probes")
        assert isinstance(probes, dict) and probes, window
    probes = small_artifact.total["probes"]
    layers = {name.split(".", 1)[0] for name in probes}
    assert {"mem", "branch", "os", "core"} <= layers
    assert len(probes) >= 30
    assert probes["core.retired"] == small_artifact.total["retired"]


def test_probe_snapshot_byte_identical_store_vs_fresh(tmp_path, small_artifact):
    store = RunStore(tmp_path)
    store.put(small_artifact)
    stored = store.get(small_artifact.fingerprint)
    for window in ("startup", "steady", "total"):
        fresh = json.dumps(small_artifact.window(window)["probes"],
                           sort_keys=True)
        disk = json.dumps(stored.window(window)["probes"], sort_keys=True)
        assert fresh == disk


# -- fingerprint coverage (satellite 2: memo key covers every knob) -------


def test_fingerprint_changes_with_seed():
    a = experiments.run_spec("specint", "smt", "full", instructions=10_000, seed=1)
    b = experiments.run_spec("specint", "smt", "full", instructions=10_000, seed=2)
    assert run_fingerprint(a) != run_fingerprint(b)


def test_fingerprint_changes_with_any_sim_knob():
    base = experiments.run_spec("specint", "smt", "full", instructions=10_000)
    base_fp = run_fingerprint(base)
    for knob, value in (("quantum", 10_000), ("timer_interval", 50_000),
                        ("tick_interval", 4), ("omit_kernel_refs", True),
                        ("tlb_flush_on_switch", True),
                        ("spin_policy", "block")):
        spec = json.loads(json.dumps(base))
        assert knob in spec["params"], knob
        spec["params"][knob] = value
        assert run_fingerprint(spec) != base_fp, knob


def test_fingerprint_changes_with_machine_geometry():
    base = experiments.run_spec("specint", "smt", "full", instructions=10_000)
    other = experiments.run_spec("specint", "ss", "full", instructions=10_000)
    assert run_fingerprint(base) != run_fingerprint(other)


def test_simulation_params_match_run_spec():
    """Drift guard: the spec used for the store key must equal the params
    the live Simulation actually runs with."""
    spec = experiments.run_spec("apache", "smt", "omit",
                                instructions=5_000, seed=3)
    sim = build_simulation("apache", "smt", "omit", seed=3)
    assert sim.params == spec["params"]


def test_sim_params_rejects_unknown_knob():
    machine = experiments.canonical_machine("smt")
    with pytest.raises(TypeError):
        sim_params("specint", machine, os_mode=OSMode.FULL, seed=1,
                   warp_factor=9)


# -- store hits and misses -------------------------------------------------


def test_store_hit_on_identical_key(tmp_path, small_artifact):
    store = RunStore(tmp_path)
    assert store.get(small_artifact.fingerprint) is None
    store.put(small_artifact)
    loaded = store.get(small_artifact.fingerprint)
    assert loaded == small_artifact
    assert small_artifact.fingerprint in store


def test_store_put_is_idempotent(tmp_path, small_artifact):
    store = RunStore(tmp_path)
    p1 = store.put(small_artifact)
    p2 = store.put(small_artifact)
    assert p1 == p2
    assert len(store.entries()) == 1


def test_store_miss_on_changed_seed(tmp_path, small_artifact):
    store = RunStore(tmp_path)
    store.put(small_artifact)
    other = experiments.run_spec("specint", "smt", "full",
                                 instructions=40_000, seed=48)
    assert store.get(run_fingerprint(other)) is None


def test_store_miss_on_changed_config(tmp_path, small_artifact):
    store = RunStore(tmp_path)
    store.put(small_artifact)
    spec = json.loads(json.dumps(small_artifact.spec))
    spec["params"]["quantum"] = 12_345
    assert store.get(run_fingerprint(spec)) is None


def test_store_miss_on_schema_bump(tmp_path, small_artifact, monkeypatch):
    store = RunStore(tmp_path)
    store.put(small_artifact)
    old_fp = small_artifact.fingerprint
    monkeypatch.setattr(artifact_mod, "SCHEMA_VERSION",
                        artifact_mod.SCHEMA_VERSION + 1)
    # The new schema produces a different key for the same spec...
    assert run_fingerprint(small_artifact.spec) != old_fp
    # ...and the stale on-disk entry no longer parses as current-schema.
    assert store.get(old_fp) is None


def test_store_treats_corrupt_file_as_miss(tmp_path, small_artifact):
    store = RunStore(tmp_path)
    path = store.put(small_artifact)
    path.write_text("{ corrupted")
    assert store.get(small_artifact.fingerprint) is None
    assert store.entries() == []


def test_store_entries_report_schema_and_created(tmp_path, small_artifact):
    store = RunStore(tmp_path)
    store.put(small_artifact)
    entry = store.entries()[0]
    assert entry.schema_version == artifact_mod.SCHEMA_VERSION
    assert "T" in entry.created  # ISO-8601 timestamp
    # A stale-schema file is still listed (diagnosable via cache ls)
    # even though get() treats it as a miss.
    payload = small_artifact.to_json_dict()
    payload["schema_version"] = 1
    payload["fingerprint"] = "f" * 64
    (tmp_path / "old-run-ffffffffffffffffffff.json").write_text(
        json.dumps(payload))
    versions = sorted(e.schema_version for e in store.entries())
    assert versions == [1, artifact_mod.SCHEMA_VERSION]
    assert store.get("f" * 64) is None


def test_store_entries_and_clear(tmp_path, small_artifact):
    store = RunStore(tmp_path)
    store.put(small_artifact)
    entries = store.entries()
    assert len(entries) == 1
    assert entries[0].label == "specint-smt-full"
    assert entries[0].fingerprint == small_artifact.fingerprint
    assert entries[0].size > 0
    assert store.clear() == 1
    assert store.entries() == []
    assert store.clear() == 0


# -- warm-cache guarantee (acceptance: no simulation after warm) ----------


def test_warm_store_serves_runs_without_simulation(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    experiments.clear_cache()
    kwargs = dict(instructions=9_000, seed=97)
    warmed = experiments.get_run("specint", "smt", "full", **kwargs)

    # Drop the in-process memo so only the on-disk store can answer.
    experiments.clear_cache()

    def boom(self, *args, **kw):  # pragma: no cover - must never run
        raise AssertionError("Simulation.run called despite a warm store")

    monkeypatch.setattr(Simulation, "run", boom)
    served = experiments.get_run("specint", "smt", "full", **kwargs)
    assert served == warmed
    # Second lookup is a memo hit: identical object.
    assert experiments.get_run("specint", "smt", "full", **kwargs) is served
    experiments.clear_cache()


# -- stored artifacts render identically (acceptance: byte-identical) -----


def test_exhibits_byte_identical_live_vs_stored(tmp_path, small_artifact):
    store = RunStore(tmp_path)
    store.put(small_artifact)
    stored = store.get(small_artifact.fingerprint)
    live, disk = small_artifact, stored
    for build, make_args in (
        (tables.table2, lambda r: (r,)),
        (tables.table3, lambda r: (r,)),
        (tables.table5, lambda r: (r,)),
        (tables.table7, lambda r: (r,)),
        (tables.table4, lambda r: (r, r, r, r)),
        (tables.table6, lambda r: (r, r, r)),
        (tables.table8, lambda r: (r, r)),
        (tables.table9, lambda r: (r, r, r, r)),
        (figures.fig1, lambda r: (r,)),
        (figures.fig2, lambda r: (r,)),
        (figures.fig3, lambda r: (r,)),
        (figures.fig4, lambda r: (r,)),
        (figures.fig5, lambda r: (r,)),
        (figures.fig6, lambda r: (r, r)),
        (figures.fig7, lambda r: (r,)),
    ):
        assert build(*make_args(live))["text"] == build(*make_args(disk))["text"]


# -- satellite 1: REPRO_BUDGET_MULT misuse warns exactly once -------------


def test_budget_mult_warns_once_per_value(monkeypatch):
    experiments._WARNED_BUDGET_VALUES.clear()
    monkeypatch.setenv("REPRO_BUDGET_MULT", "three")
    with pytest.warns(RuntimeWarning, match="three"):
        assert experiments._budget_multiplier() == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a repeat warning would raise
        assert experiments._budget_multiplier() == 1.0
    monkeypatch.setenv("REPRO_BUDGET_MULT", "0")
    with pytest.warns(RuntimeWarning, match="'0'"):
        assert experiments._budget_multiplier() == 1.0
    experiments._WARNED_BUDGET_VALUES.clear()
