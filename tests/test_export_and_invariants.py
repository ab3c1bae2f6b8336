"""Tests for the export module plus cross-module consistency invariants."""

import json

import pytest

from repro.analysis import experiments
from repro.analysis.export import (
    record_to_json,
    summarize_window,
    sweep_to_csv,
    window_to_json,
)
from repro.analysis.sweeps import Sweep, SweepPoint
from repro.core.config import MachineConfig
from repro.os_model.kernel import KERNEL_SEGMENTS
from repro.os_model.syscalls import SYSCALL_CATALOG, catalog_segments


@pytest.fixture(scope="module")
def record():
    experiments.clear_cache()
    rec = experiments.get_run("specint", "smt", "full",
                              instructions=50_000, seed=93)
    yield rec
    experiments.clear_cache()


@pytest.fixture(scope="module")
def live_sim():
    """A small live simulation for invariants that need real OS handles
    (run artifacts are plain data and carry none)."""
    sim = experiments.build_simulation("specint", "smt", "full", seed=93)
    sim.run(max_instructions=20_000)
    return sim


def test_summarize_window_keys(record):
    summary = summarize_window(record.total)
    assert summary["instructions"] == record.total["retired"]
    assert 0 < summary["ipc"] <= 8
    assert set(summary["miss_rates"]) == {"L1I", "L1D", "L2", "DTLB", "ITLB", "BTB"}
    assert abs(sum(summary["class_shares"].values()) - 1.0) < 1e-9


def test_window_to_json_roundtrip(tmp_path, record):
    path = window_to_json(record.steady, tmp_path / "w.json")
    data = json.loads(path.read_text())
    assert data["cycles"] == record.steady["cycles"]


def test_record_to_json(tmp_path, record):
    path = record_to_json(record, tmp_path / "r.json")
    data = json.loads(path.read_text())
    assert set(data) == {"spec", "fingerprint", "startup", "steady", "total"}
    assert data["fingerprint"] == record.fingerprint
    assert (data["startup"]["instructions"] + data["steady"]["instructions"]
            == data["total"]["instructions"])


def test_sweep_to_csv(tmp_path):
    sweep = Sweep("s", "x", [SweepPoint(1, {"ipc": 2.0, "l1d_miss": 0.03})])
    path = sweep_to_csv(sweep, tmp_path / "s.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "x,ipc,l1d_miss"
    assert lines[1].startswith("1,2.0")


def test_sweep_to_csv_empty_rejected(tmp_path):
    with pytest.raises(ValueError):
        sweep_to_csv(Sweep("s", "x", []), tmp_path / "s.csv")


# -- cross-module invariants --------------------------------------------------


def test_every_catalog_segment_exists_in_kernel_text():
    kernel_segments = {spec.name for spec in KERNEL_SEGMENTS}
    assert catalog_segments() <= kernel_segments


def test_every_syscall_has_positive_cost():
    for spec in SYSCALL_CATALOG.values():
        assert spec.base_cost > 0
        assert spec.copy_factor > 0


def test_kernel_text_segments_are_control_flow_closed(live_sim):
    model = live_sim.os.kernel_text
    for seg in model.segments.values():
        for b in range(seg.start, seg.end):
            assert seg.start <= model.fallthrough[b] < seg.end


def test_paper_scale_machine_preset():
    machine = MachineConfig.paper_scale()
    assert machine.memory.l1i_size == 128 * 1024
    assert machine.memory.l2_size == 16 * 1024 * 1024
    assert machine.cpu.btb_entries == 1024


def test_kernel_lock_names_known(live_sim):
    os_ = live_sim.os
    for spec in SYSCALL_CATALOG.values():
        if spec.lock is not None:
            assert spec.lock in os_.locks.DEFAULT_LOCKS


def test_all_services_classified(live_sim):
    """Every attribution label seen in a real run maps to a mode class."""
    from repro.core.stats import service_class
    for service in live_sim.stats.service_cycles:
        assert service_class(service) in (0, 1, 2, 3)
