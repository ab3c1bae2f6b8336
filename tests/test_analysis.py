"""Tests for the analysis layer: snapshots, windows, metrics, and the
table/figure builders, on one shared small run."""

import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro.analysis import figures, metrics as M, tables
from repro.analysis.experiments import build_simulation, run_windowed
from repro.analysis.snapshot import capture, diff
from repro.core.simulator import Simulation
from repro.isa.types import Mode
from repro.workloads.specint import SpecIntWorkload


@pytest.fixture(scope="module")
def small_record():
    sim = build_simulation("specint", "smt", "full", seed=41)
    startup, steady, total = run_windowed(sim, budget=120_000)
    return sim.to_artifact(startup, steady, total,
                           spec_extra={"workload": "specint", "cpu": "smt",
                                       "os_mode": "full",
                                       "instructions": 120_000, "seed": 41})


def test_capture_contains_core_counters():
    sim = Simulation(SpecIntWorkload(), seed=42)
    sim.run(max_instructions=5_000)
    snap = capture(sim)
    # The probe tree is the one counter record beside the machine totals
    # and the call-path cycle account with its per-service fold.
    assert set(snap) == {"cycles", "retired", "service_cycles",
                         "attribution", "probes"}
    assert snap["retired"] >= 5_000
    probes = snap["probes"]
    for name in ("core.fetched", "mem.l1d.miss.user", "branch.btb.miss.kernel",
                 "os.vm.incursion.page_allocation", "core.phys_mem.kernel",
                 "core.cond_taken.user", "mem.mshr.l2.occupancy_cycles"):
        assert name in probes
    assert sum(v for name, v in probes.items()
               if name.startswith("core.mix.")) == snap["retired"]


def test_diff_subtracts_recursively():
    a = {"x": 10, "nested": {"y": 5, "list": [1, 2]}, "only_after": 3}
    b = {"x": 4, "nested": {"y": 2, "list": [0, 1]}, "gone": 9}
    d = diff(a, b)
    assert d["x"] == 6
    assert d["nested"]["y"] == 3
    assert d["nested"]["list"] == [1, 1]
    assert d["only_after"] == 3
    assert "gone" not in d


def test_windows_partition_the_run(small_record):
    rec = small_record
    assert rec.startup["retired"] + rec.steady["retired"] == rec.total["retired"]
    assert rec.startup["cycles"] + rec.steady["cycles"] == rec.total["cycles"]


def test_window_counters_nonnegative(small_record):
    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        else:
            assert node >= 0

    walk(small_record.total)


def test_metrics_basic(small_record):
    w = small_record.total
    assert 0 < M.ipc(w) <= 8
    assert 0 <= M.squash_fraction(w) < 1
    assert 0 < M.avg_fetchable_contexts(w) <= 8
    assert 0 <= M.miss_rate(w, "L1D") <= 1
    assert 0 <= M.miss_rate(w, "BTB") <= 1
    assert 0 <= M.cond_mispredict_rate(w) <= 1


def test_class_shares_sum_to_one(small_record):
    shares = M.class_shares(small_record.total)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_service_shares_sum_to_one(small_record):
    shares = M.service_shares(small_record.total)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_kernel_categories_cover_kernel_time(small_record):
    w = small_record.total
    cats = M.kernel_category_shares(w)
    classes = M.class_shares(w)
    kernel_total = classes["kernel"] + classes["pal"]
    assert sum(cats.values()) == pytest.approx(kernel_total, abs=1e-6)


def test_cause_distribution_sums_to_one(small_record):
    for s in ("L1I", "L1D", "L2", "DTLB", "BTB"):
        dist = M.cause_distribution(small_record.total, s)
        if dist:
            assert sum(dist.values()) == pytest.approx(1.0)


def test_instruction_mix_rows_sum(small_record):
    mix = M.instruction_mix(small_record.total, Mode.USER)
    total = (mix["load"] + mix["store"] + mix["branch"]
             + mix["remaining_integer"] + mix["floating_point"])
    assert total == pytest.approx(100.0, abs=0.5)
    branch_subtypes = (mix["conditional"] + mix["unconditional"]
                       + mix["indirect"] + mix["pal_call_return"])
    assert branch_subtypes == pytest.approx(100.0, abs=0.5)


def test_table4_metrics_keys(small_record):
    m = M.table4_metrics(small_record.total, 8)
    assert set(m) >= {"ipc", "l1i_miss_pct", "dtlb_miss_pct", "zero_fetch_pct"}


def test_table_builders_produce_text(small_record):
    rec = small_record
    for build, args in (
        (tables.table2, (rec,)),
        (tables.table3, (rec,)),
        (tables.table5, (rec,)),
        (tables.table7, (rec,)),
        (tables.table4, (rec, rec, rec, rec)),
        (tables.table6, (rec, rec, rec)),
        (tables.table8, (rec, rec)),
        (tables.table9, (rec, rec, rec, rec)),
    ):
        out = build(*args)
        assert out["text"].strip()
        assert out["data"]


def test_figure_builders_produce_text(small_record):
    rec = small_record
    for build, args in (
        (figures.fig1, (rec,)),
        (figures.fig2, (rec,)),
        (figures.fig3, (rec,)),
        (figures.fig4, (rec,)),
        (figures.fig5, (rec,)),
        (figures.fig6, (rec, rec)),
        (figures.fig7, (rec,)),
    ):
        out = build(*args)
        assert out["text"].strip()
        assert out["data"]


def test_budget_mult_env(monkeypatch):
    from repro.analysis import experiments
    experiments._WARNED_BUDGET_VALUES.clear()
    monkeypatch.setenv("REPRO_BUDGET_MULT", "0.5")
    assert experiments._budget_multiplier() == 0.5
    monkeypatch.setenv("REPRO_BUDGET_MULT", "junk")
    with pytest.warns(RuntimeWarning, match="junk"):
        assert experiments._budget_multiplier() == 1.0
    monkeypatch.setenv("REPRO_BUDGET_MULT", "-2")
    with pytest.warns(RuntimeWarning, match="-2"):
        assert experiments._budget_multiplier() == 1.0
    experiments._WARNED_BUDGET_VALUES.clear()


def test_build_simulation_validates():
    with pytest.raises(ValueError):
        build_simulation("specint", "vliw", "full")
    with pytest.raises(ValueError):
        build_simulation("oracle", "smt", "full")
    with pytest.raises(ValueError):
        build_simulation("specint", "smt", "half")


def test_get_run_memoizes(monkeypatch):
    from repro.analysis import experiments
    experiments.clear_cache()
    calls = []
    original = experiments.run_windowed

    def spy(sim, budget):
        calls.append(budget)
        return original(sim, budget)

    monkeypatch.setattr(experiments, "run_windowed", spy)
    a = experiments.get_run("specint", "smt", "full", instructions=8_000, seed=91)
    b = experiments.get_run("specint", "smt", "full", instructions=8_000, seed=91)
    assert a is b
    assert len(calls) == 1
    experiments.clear_cache()


#: Renders Figures 2 and 6 from windows where most kernel categories tie
#: (at 0%), plus a service outside every category ("other").
_TIED_FIGURES = """
from types import SimpleNamespace
from repro.analysis import figures

def window(cycles):
    return {"service_cycles": cycles}

spec = SimpleNamespace(startup=window({"user": 90, "tlb:refill": 10}),
                       steady=window({"user": 98, "weird": 1, "netisr": 1}))
apache = SimpleNamespace(steady=window(
    {"user": 50, "syscall:read": 25, "intr:nic": 25}))
print(figures.fig2(spec)["text"])
print(figures.fig6(apache, spec)["text"])
"""


def test_fig2_fig6_tied_rows_ignore_hash_seed():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    outputs = set()
    for seed in ("0", "1", "2", "3"):
        proc = subprocess.run(
            [sys.executable, "-c", _TIED_FIGURES], capture_output=True,
            text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src),
                 "PYTHONHASHSEED": seed})
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    # Figure 2 rows: by share, then ties in KERNEL_CATEGORIES order (the
    # 1% netisr/other tie and the 0% rows), then by name ("other").
    fig2_rows = [line[len("start-up  "):].rsplit("%", 1)[0].rsplit(None, 1)[0]
                 for line in outputs.pop().splitlines()
                 if line.startswith("start-up  ")]
    zero = [cat for cat in M.KERNEL_CATEGORIES
            if cat not in ("tlb handling", "netisr")]
    assert fig2_rows == ["tlb handling", "netisr", "other"] + zero


def _tied_record(syscalls, incursions):
    """A record whose windows tie every syscall (and every VM incursion
    kind) at one share, with dicts filled in the given orders."""
    services = {"user": 60}
    for name in syscalls:
        services[f"syscall:{name}"] = 5
    window = {"service_cycles": services,
              "probes": {f"os.vm.incursion.{kind}": 3 for kind in incursions}}
    return SimpleNamespace(startup=window, steady=window, total=window)


def test_fig3_fig4_fig7_tied_rows_ignore_window_order():
    # A live window fills its dicts in first-charge order, a stored one
    # reads back key-sorted: tied rows must print the same either way,
    # in service-key order.
    syscalls = ["read", "preamble", "execve", "brk", "stat", "send",
                "close", "open"]
    incursions = ["page_alloc", "mmap_unmap", "fault"]
    texts = []
    for order in (1, -1):
        rec = _tied_record(syscalls[::order], incursions[::order])
        texts.append([build(rec)["text"]
                      for build in (figures.fig3, figures.fig4, figures.fig7)])
    assert texts[0] == texts[1]
    fig4_steady = [line.split()[1] for line in texts[0][1].splitlines()
                   if line.startswith("steady    ")]
    assert fig4_steady == ["brk", "close", "execve", "open", "kernel", "read"]
