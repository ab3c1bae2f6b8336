"""Tiered execution engine: plans, fast-forward invariants, sampling
extrapolation, and checkpoint replay (see docs/execution-modes.md).

The determinism side (byte-identical replays, checkpoint restore vs
straight-through) lives in test_determinism.py; this module covers the
engine's structural contracts.
"""

import pytest

from repro.analysis.artifact import SCHEMA_VERSION
from repro.analysis.experiments import build_simulation
from repro.analysis.snapshot import capture, diff, merge_windows
from repro.core import checkpoint
from repro.core.engine import (FF_STRIDE_DEFAULT, Leg, build_plan,
                               extrapolate, run_plan)


def _sim(workload="specint", seed=11):
    return build_simulation(workload, "smt", "full", seed=seed)


# -- build_plan --------------------------------------------------------------


def test_build_plan_full_is_one_detailed_leg():
    assert build_plan("full", 10_000) == [Leg("full", 10_000)]


def test_build_plan_warmup_prepends_fast_leg():
    assert build_plan("full", 10_000, warmup=2_000) == [
        Leg("fast", 2_000), Leg("full", 10_000)]
    assert build_plan("fast", 10_000, warmup=2_000) == [
        Leg("fast", 2_000), Leg("fast", 10_000)]


def test_build_plan_sampled_alternates_and_covers_budget():
    plan = build_plan("sampled", 10_000, warmup=1_000, sample=(3_000, 1_000))
    assert plan[0] == Leg("fast", 1_000)
    body = plan[1:]
    assert [leg.mode for leg in body] == ["fast", "full"] * 2 + ["fast"]
    # The warm-up is extra; the alternation covers exactly the budget.
    assert sum(leg.instructions for leg in body) == 10_000
    # The trailing fast leg is clipped to the remaining budget.
    assert body[-1].instructions == 2_000


def test_build_plan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_plan("warp", 1_000)
    with pytest.raises(ValueError):
        build_plan("full", 0)
    with pytest.raises(ValueError):
        build_plan("full", 1_000, warmup=-1)
    with pytest.raises(ValueError):
        build_plan("sampled", 1_000)  # no sample interval
    with pytest.raises(ValueError):
        build_plan("sampled", 1_000, sample=(1_000, 0))


# -- fast-forward invariants -------------------------------------------------


def test_fast_forward_pins_ipc_at_fetch_width():
    # The nominal clock consumes exactly fetch_width slots per cycle; a
    # pull whose weight exceeds its slot becomes width debt consuming
    # later cycles, so retired minus outstanding debt is pinned to
    # cycles * width at any stride (fast-mode cycle counts are
    # stride-stable to within the final cycle's debt).
    for stride in (1, 4, 16):
        sim = _sim()
        sim.run_fast(max_instructions=20_000, stride=stride)
        width = sim.processor.config.fetch_width
        assert (sim.stats.retired - sum(sim._ff_debt)
                == sim.stats.cycles * width)
        assert sim.stats.retired / sim.stats.cycles == pytest.approx(
            width, rel=0.01)


def test_fast_forward_stride_subsamples_but_accounts_fully():
    sim = _sim()
    sim.run_fast(max_instructions=20_000, stride=8)
    tier = sim.tier
    assert tier.fast_instructions >= 20_000
    assert tier.fast_materialized < tier.fast_instructions
    # Every retired instruction is accounted in the probe tree even when
    # not materialized.
    assert sim.stats.retired == tier.fast_instructions


def test_fast_forward_rejects_bad_stride():
    sim = _sim()
    with pytest.raises(ValueError):
        sim.run_fast(max_instructions=1_000, stride=0)


def test_fast_forward_warms_caches_and_predictor():
    sim = _sim()
    sim.run_fast(max_instructions=20_000)
    probes = capture(sim)["probes"]
    assert probes["mem.l1i.accesses.kernel"] > 0
    assert probes["mem.l1d.accesses.kernel"] > 0
    assert sum(sim.processor.branch_unit.cond_predictions) > 0
    # No pipeline ran: nothing was fetched into it or squashed.
    assert sim.stats.fetched == 0
    assert sim.stats.squashed == 0


# -- run_plan ----------------------------------------------------------------


def test_run_plan_records_legs_and_samples():
    sim = _sim()
    plan = build_plan("sampled", 12_000, warmup=4_000, sample=(4_000, 2_000))
    records, samples = run_plan(sim, plan)
    assert len(records) == len(plan)
    assert [r["mode"] for r in records] == [leg.mode for leg in plan]
    assert len(samples) == sum(1 for leg in plan if leg.mode == "full")
    for record in records:
        assert record["retired"] >= record["target"]
    for window in samples:
        assert window["retired"] > 0 and window["cycles"] > 0


def test_run_plan_full_to_fast_transition_flushes_pipeline():
    sim = _sim()
    records, _ = run_plan(sim, [Leg("full", 4_000), Leg("fast", 4_000)])
    assert sim.tier.pipeline_flushes == 1
    # The flushed in-flight instructions re-delivered in the fast leg;
    # nothing was lost: the total retired covers both leg targets.
    assert sim.stats.retired >= 8_000
    assert len(records) == 2


# -- window merging and extrapolation ---------------------------------------


def test_merge_windows_sums_counters_and_keeps_bounds():
    sim = _sim()
    a0 = capture(sim)
    sim.run(max_instructions=3_000)
    a1 = capture(sim)
    sim.run(max_instructions=6_000)
    a2 = capture(sim)
    w1, w2 = diff(a1, a0), diff(a2, a1)
    merged = merge_windows([w1, w2])
    whole = diff(a2, a0)
    assert merged["retired"] == whole["retired"]
    assert merged["cycles"] == whole["cycles"]
    assert merged["probes"]["core.retired"] == whole["probes"]["core.retired"]
    # Histogram bounds are metadata: carried, not summed.
    lat = merged["probes"]["os.syscall_latency_cycles"]
    assert lat["bounds"] == w1["probes"]["os.syscall_latency_cycles"]["bounds"]


def test_extrapolate_scales_counts_not_rates():
    windows = [
        {"retired": 1_000, "cycles": 500,
         "probes": {"core.retired": 1_000, "derived.ipc": 2.0}},
        {"retired": 1_000, "cycles": 500,
         "probes": {"core.retired": 1_000, "derived.ipc": 2.0}},
    ]
    est = extrapolate(windows, total_instructions=10_000)
    assert est["windows"] == 2
    assert est["measured_instructions"] == 2_000
    estimate, band = est["probes"]["core.retired"]
    assert estimate == pytest.approx(10_000)
    assert band == pytest.approx(0.0)
    ipc, _ = est["probes"]["derived.ipc"]
    assert ipc == pytest.approx(2.0)  # rates are never scaled


def test_extrapolate_needs_a_window():
    with pytest.raises(ValueError):
        extrapolate([], total_instructions=1_000)


# -- checkpoints -------------------------------------------------------------


def test_checkpoint_roundtrip_restores_identical_state():
    plan = [Leg("fast", 8_000)]
    saver = _sim()
    run_plan(saver, plan)
    ckpt = checkpoint.take(saver, plan)
    assert ckpt["kind"] == "checkpoint"
    assert ckpt["boundary"] == saver.stats.retired

    restorer = _sim()
    checkpoint.restore(restorer, ckpt)
    assert restorer.stats.retired == saver.stats.retired
    assert restorer.now == saver.now
    assert checkpoint.state_digests(restorer) == ckpt["digests"]


def test_checkpoint_restore_rejects_config_mismatch():
    plan = [Leg("fast", 4_000)]
    saver = _sim()
    run_plan(saver, plan)
    ckpt = checkpoint.take(saver, plan)
    other = build_simulation("specint", "smt", "app", seed=11)
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.restore(other, ckpt)


def test_checkpoint_restore_rejects_stale_schema_and_drift():
    plan = [Leg("fast", 4_000)]
    saver = _sim()
    run_plan(saver, plan)
    ckpt = checkpoint.take(saver, plan)

    stale = dict(ckpt, schema_version=SCHEMA_VERSION + 1)
    with pytest.raises(checkpoint.CheckpointError, match="schema"):
        checkpoint.restore(_sim(), stale)

    drifted = dict(ckpt, digests=dict(ckpt["digests"], kernel="0" * 64))
    with pytest.raises(checkpoint.CheckpointError, match="kernel"):
        checkpoint.restore(_sim(), drifted)


def test_checkpoint_fingerprint_covers_plan_and_stride():
    sim = _sim()
    base = checkpoint.checkpoint_fingerprint(
        sim.params, [Leg("fast", 1_000)], FF_STRIDE_DEFAULT)
    other_plan = checkpoint.checkpoint_fingerprint(
        sim.params, [Leg("fast", 2_000)], FF_STRIDE_DEFAULT)
    other_stride = checkpoint.checkpoint_fingerprint(
        sim.params, [Leg("fast", 1_000)], FF_STRIDE_DEFAULT + 1)
    assert len({base, other_plan, other_stride}) == 3
