"""End-to-end integration tests: small but complete simulations.

These run the full stack -- workload, MiniDUX, processor, memory system --
for a few tens of thousands of instructions each, checking cross-module
invariants the unit tests cannot see.
"""

import pytest

from repro.core.config import MachineConfig
from repro.core.simulator import Simulation
from repro.os_model.kernel import OSMode
from repro.workloads.apache import ApacheWorkload
from repro.workloads.specint import SpecIntWorkload

BUDGET = 120_000


def retired_in(stats, mode: int) -> int:
    """Instructions retired in *mode*: a fold of the per-type mix."""
    return sum(count for (m, _), count in stats.itype_by_mode.items()
               if m == mode)


@pytest.fixture(scope="module")
def specint_result():
    sim = Simulation(SpecIntWorkload(), seed=21)
    return sim.run(max_instructions=BUDGET)


@pytest.fixture(scope="module")
def apache_result():
    sim = Simulation(ApacheWorkload(), seed=22)
    return sim.run(max_instructions=BUDGET)


def test_specint_executes_all_modes(specint_result):
    stats = specint_result.stats
    assert stats.retired >= BUDGET
    assert retired_in(stats, 0) > 0  # user
    assert retired_in(stats, 1) > 0  # kernel
    assert retired_in(stats, 2) > 0  # PAL


def test_specint_reasonable_ipc(specint_result):
    assert 1.0 < specint_result.ipc <= 8.0


def test_cycle_accounting_consistent(specint_result):
    stats = specint_result.stats
    n = specint_result.machine.cpu.n_contexts
    assert sum(stats.service_cycles.values()) == stats.cycles * n
    assert sum(stats.class_cycles) == stats.cycles * n


def test_retired_never_exceeds_fetched(specint_result):
    stats = specint_result.stats
    assert stats.retired <= stats.fetched
    # Every fetched instruction either retires, is squashed, or is still in
    # flight (replayed instructions count a fetch per admission).
    assert stats.fetched >= stats.retired + stats.squashed


def test_memory_structures_saw_traffic(specint_result):
    h = specint_result.hierarchy
    assert sum(h.l1i.stats.accesses) > 0
    assert sum(h.l1d.stats.accesses) > 0
    assert sum(h.l2.stats.accesses) > 0
    assert sum(h.dtlb.stats.accesses) > 0
    assert sum(h.itlb.stats.accesses) > 0
    # Kernel code ran, so kernel-kind accesses exist.
    assert h.l1d.stats.accesses[1] > 0


def test_kernel_phys_accesses_bypass_dtlb(specint_result):
    stats = specint_result.stats
    # Some kernel memory operations used physical addressing...
    assert stats.phys_mem_by_mode[1] + stats.phys_mem_by_mode[2] > 0
    # ...and no user ones did.
    assert stats.phys_mem_by_mode[0] == 0


def test_page_allocations_happened(specint_result):
    assert specint_result.os.vm.incursions["page_allocation"] > 0


def test_syscalls_dispatched(specint_result):
    counts = specint_result.os.syscall_counts
    # Program starts are staggered; within this small budget at least some
    # programs must have exec'd, never more than the eight that exist.
    assert 1 <= counts.get("execve", 0) <= 8
    # File activity follows exec closely; at least the opens started.
    assert counts.get("read", 0) + counts.get("open", 0) > 0


def test_determinism_same_seed():
    a = Simulation(SpecIntWorkload(), seed=33).run(max_instructions=30_000)
    b = Simulation(SpecIntWorkload(), seed=33).run(max_instructions=30_000)
    assert a.stats.cycles == b.stats.cycles
    assert a.stats.itype_by_mode == b.stats.itype_by_mode
    assert a.hierarchy.l1d.stats.misses == b.hierarchy.l1d.stats.misses


def test_different_seeds_diverge():
    a = Simulation(SpecIntWorkload(), seed=33).run(max_instructions=30_000)
    b = Simulation(SpecIntWorkload(), seed=34).run(max_instructions=30_000)
    assert a.stats.cycles != b.stats.cycles


def test_app_only_mode_runs_without_kernel_instructions():
    sim = Simulation(SpecIntWorkload(), os_mode=OSMode.APP_ONLY, seed=23)
    result = sim.run(max_instructions=40_000)
    assert retired_in(result.stats, 1) == 0
    assert retired_in(result.stats, 2) == 0
    assert result.ipc > 1.0


def test_superscalar_runs_and_is_slower():
    smt = Simulation(SpecIntWorkload(), seed=24).run(max_instructions=40_000)
    ss = Simulation(SpecIntWorkload(), machine=MachineConfig.superscalar(),
                    seed=24).run(max_instructions=40_000)
    assert ss.machine.cpu.n_contexts == 1
    assert ss.ipc < smt.ipc


def test_apache_serves_requests(apache_result):
    wl = apache_result.workload
    assert wl.clients.requests_sent > 0
    assert wl.stack.packets_processed > 0
    assert apache_result.os.syscall_counts.get("accept", 0) > 0


def test_apache_is_kernel_dominated(apache_result):
    stats = apache_result.stats
    kernel = stats.class_share(1) + stats.class_share(2)
    assert kernel > 0.5


def test_apache_network_services_exercised(apache_result):
    shares = apache_result.stats.service_cycle_shares()
    assert shares.get("netisr", 0) > 0
    assert any(s.startswith("intr:net") for s in shares)


def test_omit_kernel_refs_keeps_structures_user_only():
    sim = Simulation(SpecIntWorkload(), seed=25, omit_kernel_refs=True)
    result = sim.run(max_instructions=40_000)
    assert result.hierarchy.l1d.stats.accesses[1] == 0
    assert result.hierarchy.l1d.stats.accesses[0] > 0
    # Kernel instructions still executed (this is not app-only mode).
    assert retired_in(result.stats, 1) > 0


def test_context_switches_and_asn_assignment(apache_result):
    sched = apache_result.os.scheduler
    assert sched.switches > 0
    assigned = {t.process.asn for t in apache_result.workload.threads
                if t.process.asn > 0}
    assert assigned  # processes received ASNs
