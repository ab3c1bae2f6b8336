"""Tests for machine configuration and statistics accounting."""

import random

import pytest

from repro.core.config import CPUConfig, MachineConfig
from repro.core.stats import (
    CLASS_IDLE,
    CLASS_KERNEL,
    CLASS_PAL,
    CLASS_USER,
    SimStats,
    service_class,
)
from repro.isa.instruction import Instruction
from repro.isa.types import InstrType, Mode
from repro.obs.registry import ProbeRegistry


def test_cpu_config_defaults_match_table1():
    cfg = CPUConfig()
    assert cfg.n_contexts == 8
    assert cfg.fetch_width == 8
    assert cfg.fetch_contexts == 2
    assert cfg.pipeline_stages == 9
    assert cfg.int_units == 6
    assert cfg.ls_units == 4
    assert cfg.sync_units == 2
    assert cfg.fp_units == 4
    assert cfg.retire_width == 12


def test_superscalar_variant():
    ss = CPUConfig.superscalar()
    assert ss.n_contexts == 1
    assert ss.pipeline_stages == 7  # two fewer stages
    assert ss.int_units == CPUConfig().int_units  # identical resources


def test_cpu_config_validation():
    with pytest.raises(ValueError):
        CPUConfig(n_contexts=0)
    with pytest.raises(ValueError):
        CPUConfig(fetch_contexts=9)
    with pytest.raises(ValueError):
        CPUConfig(ls_units=7)
    with pytest.raises(ValueError):
        CPUConfig(fetch_policy="magic")


def test_decode_delay_scales_with_depth():
    assert CPUConfig().decode_delay > CPUConfig.superscalar().decode_delay


def test_machine_presets():
    assert MachineConfig.smt().cpu.n_contexts == 8
    assert MachineConfig.superscalar().cpu.n_contexts == 1


def test_service_class_mapping():
    assert service_class("user") == CLASS_USER
    assert service_class("idle") == CLASS_IDLE
    assert service_class("pal:dtlb") == CLASS_PAL
    assert service_class("syscall:read") == CLASS_KERNEL
    assert service_class("netisr") == CLASS_KERNEL


def test_charge_cycle_accumulates_classes():
    stats = SimStats(2)
    stats.attrib.switch(0, "user")
    stats.attrib.switch(1, "syscall:read")
    stats.charge_cycle()
    stats.attrib.switch(1, "idle")
    stats.charge_cycle()
    assert stats.cycles == 2
    assert stats.class_cycles[CLASS_USER] == 2
    assert stats.class_cycles[CLASS_KERNEL] == 1
    assert stats.class_cycles[CLASS_IDLE] == 1
    assert stats.class_share(CLASS_USER) == pytest.approx(0.5)


class _SpanThread:
    """Stub software thread: a fixed chain of open kernel spans."""

    def __init__(self, *spans):
        self.spans = spans

    def service_path(self, service):
        if self.spans and self.spans[-1] == service:
            return ";".join(self.spans)
        return ";".join(self.spans + (service,))


def test_interval_charging_matches_per_cycle_reference():
    """Settling per interval charges exactly what charging every context
    on every cycle would, whenever the counters are read: the path
    account itself, and its service and mode-class folds."""
    rng = random.Random(5)
    services = ("user", "idle", "syscall:read", "pal:dtlb", "netisr")
    threads = {1: _SpanThread(), 2: _SpanThread("syscall:read"),
               3: _SpanThread("syscall:read", "tlb:refill"),
               4: _SpanThread("netisr")}
    n = 3
    stats = SimStats(n, threads_by_tid=threads)
    attrib = stats.attrib
    current = [("idle", "idle")] * n
    ref_paths: dict[str, int] = {}
    ref_services: dict[str, int] = {}
    ref_classes = [0, 0, 0, 0]
    for _ in range(400):
        for ctx in range(n):
            if rng.random() < 0.3:
                # tid 0 has no thread: its path is just the service.
                tid = rng.choice((0, 1, 2, 3, 4))
                service = rng.choice(services)
                path = attrib.path_of(tid, service)
                current[ctx] = (service, path)
                attrib.switch(ctx, path)
        count = rng.choice((1, 1, 1, 5))
        if count == 1:
            stats.charge_cycle()
        else:
            stats.charge_cycles(count)
        for svc, path in current:
            ref_paths[path] = ref_paths.get(path, 0) + count
            ref_services[svc] = ref_services.get(svc, 0) + count
            ref_classes[service_class(svc)] += count
        if rng.random() < 0.1:  # reads settle mid-run
            assert stats.service_cycles == ref_services
            assert attrib.snapshot() == ref_paths
    assert attrib.snapshot() == ref_paths
    assert stats.service_cycles == ref_services
    assert list(stats.service_cycles) == sorted(ref_services)
    assert stats.class_cycles == ref_classes
    assert sum(ref_services.values()) == n * stats.cycles
    assert any(";" in path for path in ref_paths)


def test_retire_accounting_by_mode_and_type():
    stats = SimStats(1)
    load = Instruction(InstrType.LOAD, Mode.KERNEL, "syscall:read", 0x0,
                       addr=0x10, phys=True)
    stats.retire(load)
    cond = Instruction(InstrType.COND_BRANCH, Mode.USER, "user", 0x4, taken=True)
    stats.retire(cond)
    assert stats.retired == 2
    assert stats.itype_by_mode == {(Mode.KERNEL, InstrType.LOAD): 1,
                                   (Mode.USER, InstrType.COND_BRANCH): 1}
    assert stats.phys_mem_by_mode == [0, 1, 0]
    assert stats.cond_taken_by_mode == [1, 0, 0]
    mix = stats.mode_instruction_mix(Mode.KERNEL)
    assert mix[InstrType.LOAD] == pytest.approx(1.0)
    # The same counts, as the probes a counter window stores.
    registry = ProbeRegistry()
    stats.register_probes(registry)
    probes = registry.snapshot()
    assert probes["core.mix.kernel.load"] == 1
    assert probes["core.mix.user.cond_branch"] == 1
    assert probes["core.phys_mem.kernel"] == 1
    assert probes["core.cond_taken.user"] == 1
    assert probes["core.retired"] == 2


def test_ipc_and_squash_fraction():
    stats = SimStats(1)
    stats.attrib.switch(0, "user")
    stats.charge_cycle()
    stats.charge_cycle()
    stats.retired = 5
    stats.fetched = 10
    stats.squashed = 2
    assert stats.ipc == pytest.approx(2.5)
    assert stats.squash_fraction == pytest.approx(0.2)


def test_cycle_share_prefix_matching():
    stats = SimStats(1)
    for service in ("syscall:read", "syscall:stat", "user"):
        stats.attrib.switch(0, service)
        stats.charge_cycle()
    assert stats.cycle_share("syscall:") == pytest.approx(2 / 3)


def test_empty_stats_are_zero():
    stats = SimStats(4)
    assert stats.ipc == 0.0
    assert stats.squash_fraction == 0.0
    assert stats.avg_fetchable_contexts == 0.0
    assert stats.class_share(CLASS_USER) == 0.0
    assert stats.mode_instruction_mix(Mode.USER) == {}
    assert stats.service_cycle_shares() == {}


def test_per_context_history_option_wires_through():
    import random as _random
    from repro.core.processor import Processor
    from repro.memory.hierarchy import MemoryHierarchy

    class _Empty:
        replay = ()
        current_service = "user"

        def next_instruction(self, now):
            return None

        def push_replay(self, instrs):
            pass

    cfg = CPUConfig(n_contexts=2, fetch_contexts=2, per_context_history=True)
    proc = Processor(cfg, [_Empty(), _Empty()], MemoryHierarchy(),
                     SimStats(2), _random.Random(0))
    assert proc.branch_unit.predictor.per_context_history
    assert len(proc.branch_unit.predictor._ghr) == 2
