"""Store-backed checkpoints: content-addressed put/get, kind-aware
listing, verification, and garbage collection alongside run artifacts
(the ``repro cache`` satellite of the tiered engine)."""

import json

import pytest

from repro import faults
from repro.analysis import artifact, store as store_mod
from repro.analysis.artifact import SCHEMA_VERSION, RunArtifact
from repro.analysis.experiments import build_simulation, execute_spec, run_spec
from repro.analysis.store import RunStore, content_hash
from repro.core import checkpoint
from repro.core.engine import Leg, run_plan


@pytest.fixture(scope="module")
def ckpt_payload():
    plan = [Leg("fast", 4_000)]
    sim = build_simulation("specint", "smt", "full", seed=31)
    run_plan(sim, plan)
    return checkpoint.take(sim, plan)


@pytest.fixture(autouse=True)
def _disarmed():
    faults.clear()
    yield
    faults.clear()


def test_put_get_checkpoint_roundtrip(tmp_path, ckpt_payload):
    store = RunStore(tmp_path)
    path = store.put_checkpoint(ckpt_payload)
    assert path.name.startswith("ckpt-")
    got = store.get_checkpoint(ckpt_payload["fingerprint"])
    assert got == ckpt_payload


def test_get_checkpoint_misses_on_unknown_fingerprint(tmp_path):
    assert RunStore(tmp_path).get_checkpoint("0" * 64) is None


def test_get_checkpoint_treats_stale_schema_as_miss(tmp_path, ckpt_payload):
    store = RunStore(tmp_path)
    stale = dict(ckpt_payload, schema_version=SCHEMA_VERSION + 1)
    path = store.put_checkpoint(stale)
    assert store.get_checkpoint(ckpt_payload["fingerprint"]) is None
    assert path.exists()  # stale, not deleted: that is gc's job


def test_run_get_never_returns_a_checkpoint(tmp_path, ckpt_payload):
    store = RunStore(tmp_path)
    store.put_checkpoint(ckpt_payload)
    assert store.get(ckpt_payload["fingerprint"]) is None


def test_checkpoint_get_never_returns_a_run(tmp_path):
    store = RunStore(tmp_path)
    run = RunArtifact(spec={"workload": "specint", "cpu": "smt",
                            "os_mode": "full", "seed": 31},
                      n_contexts=8, cycles=0, marks=[], startup={},
                      steady={}, total={})
    path = store.put(run)
    assert store.get_checkpoint(run.fingerprint) is None
    assert store.quarantined == [] and store.quarantine_entries() == []
    assert path.exists()


# -- the store's fault sites and quarantine, as for run artifacts ----------


def test_torn_checkpoint_put_leaves_reclaimable_tmp(tmp_path, ckpt_payload):
    store = RunStore(tmp_path)
    faults.install(faults.FaultPlan(
        sites=(faults.FaultSite("store.put.torn", times=1),)), env=False)
    with pytest.raises(faults.InjectedFault):
        store.put_checkpoint(ckpt_payload)
    assert store.get_checkpoint(ckpt_payload["fingerprint"]) is None
    (found,) = store.collect_tmp()
    assert found[0].name.startswith("ckpt-") and ".tmp." in found[0].name
    assert list(tmp_path.iterdir()) == []
    # The retry (fault budget spent) completes and the store is whole.
    store.put_checkpoint(ckpt_payload)
    assert store.get_checkpoint(ckpt_payload["fingerprint"]) == ckpt_payload


def test_corrupt_checkpoint_get_quarantines_and_misses(tmp_path,
                                                       ckpt_payload):
    store = RunStore(tmp_path)
    path = store.put_checkpoint(ckpt_payload)
    faults.install(faults.FaultPlan(
        sites=(faults.FaultSite("store.get.corrupt", times=1),), seed=7),
        env=False)
    assert store.get_checkpoint(ckpt_payload["fingerprint"]) is None
    assert not path.exists()
    (entry,) = store.quarantine_entries()
    assert entry.path.name == path.name
    assert entry.reason in ("unparsable JSON", "content checksum mismatch")


def test_unreadable_checkpoint_is_a_miss_left_in_place(tmp_path,
                                                      ckpt_payload):
    store = RunStore(tmp_path)
    path = store.put_checkpoint(ckpt_payload)
    path.unlink()
    path.mkdir()  # reading it raises OSError (IsADirectoryError)
    assert store.get_checkpoint(ckpt_payload["fingerprint"]) is None
    assert path.is_dir()
    assert store.quarantined == [] and store.quarantine_entries() == []


def test_entries_report_checkpoint_kind(tmp_path, ckpt_payload):
    store = RunStore(tmp_path)
    store.put_checkpoint(ckpt_payload)
    (entry,) = store.entries()
    assert entry.kind == "checkpoint"
    assert entry.schema_version == SCHEMA_VERSION
    assert entry.label.startswith("ckpt:")
    assert entry.fingerprint == ckpt_payload["fingerprint"]


def test_verify_accepts_valid_checkpoint(tmp_path, ckpt_payload):
    store = RunStore(tmp_path)
    store.put_checkpoint(ckpt_payload)
    (record,) = store.verify()
    assert record["status"] == "ok"


def test_verify_flags_tampered_checkpoint(tmp_path, ckpt_payload):
    store = RunStore(tmp_path)
    path = store.put_checkpoint(ckpt_payload)
    payload = json.loads(path.read_text())
    payload["stride"] = payload["stride"] + 1  # changes what it reproduces
    path.write_text(json.dumps(payload))
    (record,) = store.verify()
    assert record["status"] in ("MISMATCH", "CHECKSUM")


def test_verify_skips_stale_checkpoint_schema(tmp_path, ckpt_payload):
    store = RunStore(tmp_path)
    stale = dict(ckpt_payload, schema_version=SCHEMA_VERSION + 1)
    store.put_checkpoint(stale)
    (record,) = store.verify()
    assert record["status"] == "SKIP"


def test_gc_removes_stale_checkpoints_only(tmp_path, ckpt_payload):
    store = RunStore(tmp_path)
    store.put_checkpoint(ckpt_payload)
    stale = dict(ckpt_payload, schema_version=SCHEMA_VERSION + 1,
                 boundary=ckpt_payload["boundary"] + 1)
    stale_path = store.put_checkpoint(stale)
    removed = store.gc()
    assert [e.path for e in removed] == [stale_path]
    assert store.get_checkpoint(ckpt_payload["fingerprint"]) == ckpt_payload


def test_schema_bump_retires_checkpoints(tmp_path, monkeypatch):
    # A checkpoint's probes digest hashes the whole probe tree, so one
    # saved under an older artifact layout cannot verify-restore under
    # the new one.  The layout version retires it: the run misses,
    # replays its warm-up and saves a fresh checkpoint.
    store = RunStore(tmp_path)
    spec = run_spec("specint", "smt", "full", 12_000, seed=37, mode="sampled",
                    warmup=6_000, sample=(3_000, 1_000))
    first = execute_spec(spec, checkpoint_store=store)
    assert first.sampling["checkpoint"]["restored"] is False
    (old_path,) = tmp_path.glob("ckpt-*.json")
    payload = json.loads(old_path.read_text())
    payload["digests"]["probes"] = "0" * 64  # the older layout's tree
    payload["content_hash"] = content_hash(payload)
    old_path.write_text(json.dumps(payload))

    for module in (artifact, store_mod):
        monkeypatch.setattr(module, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
    again = execute_spec(spec, checkpoint_store=store)
    assert again.sampling["checkpoint"]["restored"] is False
    assert again.total == first.total
    assert [entry.path for entry in store.gc(dry_run=True)] == [old_path]
    new_fingerprint = again.sampling["checkpoint"]["fingerprint"]
    assert store.get_checkpoint(new_fingerprint)["schema_version"] \
        == SCHEMA_VERSION + 1
