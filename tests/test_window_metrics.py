"""Window metrics reconcile with the live structures they summarize.

Every exhibit reads its inputs from a counter window's probe tree by
name (:mod:`repro.analysis.metrics`).  These tests compute each metric
from ``capture(sim)`` -- the window from machine boot -- and compare it
with the same quantity read off the live caches, TLBs, BTB, MSHR files,
branch unit and statistics account, so a mistyped or misrouted probe
name in the metrics fails here.
"""

import pytest

from repro.analysis import metrics as M
from repro.analysis.experiments import build_simulation
from repro.analysis.snapshot import capture
from repro.core.stats import CLASS_NAMES
from repro.isa.types import InstrType, Mode


@pytest.fixture(scope="module", params=["apache", "specint"])
def machine(request):
    sim = build_simulation(request.param, "smt", "full", seed=5)
    sim.run(max_instructions=30_000)
    return sim, capture(sim)


def _structures(sim):
    h = sim.hierarchy
    btb = sim.processor.branch_unit.btb
    return {"L1I": (h.l1i.stats, [0, 0]), "L1D": (h.l1d.stats, [0, 0]),
            "L2": (h.l2.stats, [0, 0]), "ITLB": (h.itlb.stats, [0, 0]),
            "DTLB": (h.dtlb.stats, [0, 0]),
            "BTB": (btb.stats, btb.target_mispredicts)}


def test_window_totals_match_the_machine(machine):
    sim, window = machine
    stats = sim.stats
    assert window["cycles"] == sim.now == stats.cycles
    assert window["retired"] == stats.retired
    assert M.ipc(window) == stats.ipc
    assert M.squash_fraction(window) == stats.squash_fraction
    assert M.avg_fetchable_contexts(window) == stats.avg_fetchable_contexts
    assert M.zero_fetch_share(window) == stats.zero_fetch_cycles / stats.cycles
    assert M.zero_issue_share(window) == stats.zero_issue_cycles / stats.cycles
    assert M.max_issue_share(window) == stats.max_issue_cycles / stats.cycles


def test_miss_metrics_match_miss_stats(machine):
    sim, window = machine
    for name, (st, extra) in _structures(sim).items():
        assert sum(st.misses) > 0, name
        for kind in (0, 1):
            acc = st.accesses[kind]
            expected = (st.misses[kind] + extra[kind]) / acc if acc else 0.0
            assert M.miss_rate(window, name, kind) == expected, (name, kind)
        assert M.miss_rate(window, name) == \
            (sum(st.misses) + sum(extra)) / sum(st.accesses), name
        total = sum(st.misses)
        causes = M.cause_distribution(window, name)
        assert {k: v for k, v in causes.items() if v} == \
            {k: v / total for k, v in st.causes.items() if v}, name
        avoided = M.avoided_distribution(window, name)
        assert {k: v for k, v in avoided.items() if v} == \
            {k: v / total for k, v in st.avoided.items() if v}, name
    itlb = sim.hierarchy.itlb.stats
    assert M.itlb_miss_per_instruction(window) == \
        sum(itlb.misses) / sim.stats.retired


def test_outstanding_misses_match_mshr_files(machine):
    sim, window = machine
    h = sim.hierarchy
    for level, mshr in (("L1I", h.l1i_mshr), ("L1D", h.l1d_mshr),
                        ("L2", h.l2_mshr)):
        assert M.avg_outstanding_misses(window, level) == \
            mshr.average_outstanding(sim.now), level


def test_branch_rate_matches_branch_unit(machine):
    sim, window = machine
    unit = sim.processor.branch_unit
    assert M.cond_mispredict_rate(window) == unit.misprediction_rate()
    for kind in (0, 1):
        assert M.cond_mispredict_rate(window, kind) == \
            unit.misprediction_rate(kind)


def test_instruction_mix_matches_retire_accounting(machine):
    sim, window = machine
    stats = sim.stats
    for mode, modes in ((Mode.USER, (Mode.USER,)),
                        (Mode.KERNEL, (Mode.KERNEL, Mode.PAL)),
                        (None, tuple(Mode))):
        counts = {t: sum(stats.itype_by_mode.get((m, t), 0) for m in modes)
                  for t in InstrType}
        total = sum(counts.values())
        mix = M.instruction_mix(window, mode)
        if not total:
            assert mix == {}
            continue
        mem = counts[InstrType.LOAD] + counts[InstrType.STORE] \
            + counts[InstrType.SYNC]
        phys = sum(stats.phys_mem_by_mode[m] for m in modes)
        cond = counts[InstrType.COND_BRANCH]
        taken = sum(stats.cond_taken_by_mode[m] for m in modes)
        assert mix["load"] == pytest.approx(
            counts[InstrType.LOAD] / total * 100)
        assert mix["store"] == pytest.approx(
            (counts[InstrType.STORE] + counts[InstrType.SYNC]) / total * 100)
        assert mix["floating_point"] == pytest.approx(
            counts[InstrType.FP_ALU] / total * 100)
        assert mix["remaining_integer"] == pytest.approx(
            counts[InstrType.INT_ALU] / total * 100)
        assert mix["phys_mem_pct"] == pytest.approx(
            phys / mem * 100 if mem else 0.0)
        assert mix["cond_taken_pct"] == pytest.approx(
            taken / cond * 100 if cond else 0.0)
    assert M.instruction_mix(window, Mode.KERNEL)["phys_mem_pct"] > 0


def test_class_shares_match_class_cycles(machine):
    sim, window = machine
    classes = sim.stats.class_cycles
    assert M.class_cycles(window) == classes
    shares = M.class_shares(window)
    for i, name in enumerate(CLASS_NAMES):
        assert shares[name] == classes[i] / sum(classes)
