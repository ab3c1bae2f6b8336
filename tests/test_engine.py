"""Tiered execution engine: plans, fast-forward invariants and sampling
extrapolation (see docs/execution-modes.md).

The determinism side (byte-identical replays, a split plan vs one call)
lives in test_determinism.py; this module covers the engine's
structural contracts.
"""

import hashlib

import pytest

from repro.analysis.artifact import canonical_json
from repro.analysis.experiments import build_simulation
from repro.analysis.snapshot import capture, diff, merge_windows
from repro.analysis.sweeps import build_context_sim
from repro.core.engine import (Leg, build_plan, extrapolate, fast_forward,
                               run_plan)


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
    # Each of n contexts owns per_ctx = max(1, fetch_width // n) slots
    # of a nominal cycle and the rest of the width goes unused, so for
    # n <= fetch_width the clock consumes n * per_ctx slots per cycle:
    # all 8 on 1 or 8 contexts, 6 on 3.  A pull whose weight exceeds its
    # slots becomes width debt consuming later cycles, so retired minus
    # outstanding debt is pinned to cycles * n * per_ctx at any stride
    # (fast-mode cycle counts are stride-stable to within the final
    # cycle's debt).
    for n in (1, 3, 8):
        for stride in (1, 4, 16):
            sim = build_context_sim("specint", n)
            fast_forward(sim, max_instructions=20_000, stride=stride)
            slots = n * max(1, sim.processor.config.fetch_width // n)
            assert (sim.stats.retired - sum(sim._ff_debt)
                    == sim.stats.cycles * slots)
            assert sim.stats.retired / sim.stats.cycles == pytest.approx(
                slots, rel=0.01)


def test_fast_forward_stride_subsamples_but_accounts_fully():
    sim = _sim()
    fast_forward(sim, max_instructions=20_000, stride=8)
    tier = sim.tier
    assert tier.fast_instructions >= 20_000
    assert tier.fast_materialized < tier.fast_instructions
    # Every retired instruction is accounted in the probe tree even when
    # not materialized.
    assert sim.stats.retired == tier.fast_instructions


def test_fast_forward_rejects_bad_stride():
    sim = _sim()
    with pytest.raises(ValueError):
        fast_forward(sim, max_instructions=1_000, stride=0)


def state_digests(sim) -> dict:
    """SHA-256 digests of *sim*'s current architectural state.

    Three independent digests so a verification failure localizes the
    drift: ``probes`` (the full counter tree), ``kernel`` (scheduler,
    threads, wait queues, RNG states), ``memory`` (cache and TLB
    contents in LRU order).

    The ``core.timeline.*`` counters are excluded from the probes
    digest: they mirror the interval telemetry sampler's progress
    (:mod:`repro.obs.timeline`), which is observation, not machine
    state.  The pinned digests below were taken without them, just as
    telemetry never enters run fingerprints.
    """

    def sha(payload) -> str:
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    probes = {k: v for k, v in capture(sim)["probes"].items()
              if not k.startswith("core.timeline.")}
    return {
        "probes": sha(probes),
        "kernel": sha(sim.os.state_summary()),
        "memory": sha(sim.hierarchy.content_state()),
    }


#: (workload, n_contexts) -> (sim.now, sim._ff_debt, state digests) at
#: seed 11 after a fast leg at stride 8, a detailed leg and a fast leg at
#: stride 4 (see test_fast_tier_state_is_pinned).
PINNED_FAST_STATE = {
    ("apache", 1): (
        7949, [0],
        {"probes": "54c6c61ff8c1ba5585fc47e4d2d11012141a8f2a546347c86fae68bb38f697f3",
         "kernel": "bea5918f12d6f052e4f569f1ec3bc41660eb17daf1e4f6bf0537b1efba5438b5",
         "memory": "0117a304639e7368ea9c23f99ebfeb64c48e42bb74f97d19aadf68167bab0a54"}),
    ("apache", 3): (
        7360, [0, 0, 2],
        {"probes": "ae3f8d24dfbdeda497c82426ad3dc2f3cb796703080ddc64c47dd333d4907235",
         "kernel": "9aba979dc6c80dbd8246b5df6c8747ed095b830a640d129130461cc1cff73378",
         "memory": "590d8d8c564deabac22de3b4dba3a721f72236ccd2f2c7a49bfc6c130cb34807"}),
    ("apache", 8): (
        5258, [0, 0, 0, 1, 0, 0, 0, 0],
        {"probes": "6949e3d5e0ccaf48f0669fc863992d047cd56482f541d70ccd0a59887b1626e8",
         "kernel": "41f9937c356f107814cfb0c858df0f9b400224a529deb7fdcbba493ec75a2caa",
         "memory": "c1da25c92f40e7b79e07796c5441a01ac00dd4c920660ceebd31ea45b71df4cc"}),
    ("apache", 12): (
        5258, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        {"probes": "5e883014f9032d11c937ca77b20cd1befdb062eeec666d349e70fc6408720ec1",
         "kernel": "53ef33e6a2e28bd914d58bf352490bf9578b47f242d16157d554b2e720db7df8",
         "memory": "4e3b4c66198052757e3a60d442e91a6cd45eb8ff1ad25a9a3c54965720df5532"}),
    ("specint", 1): (
        9644, [0],
        {"probes": "8bfbec4c9645b8f261cea6f45badad89bd53970bb79f10deba6fbc10c0dc7be0",
         "kernel": "baa9a549b9dfffb798c564f02d1ed817bb05a5bf32994ed290246f534e55c40b",
         "memory": "c919b964695382a86c5e45087d730f48638dda1f4b68097dddb899366ba1db99"}),
    ("specint", 3): (
        7529, [2, 1, 2],
        {"probes": "7414cafe54469f07e430b08c15598fa9bdaac6c34ac3fa12ea62495c53be776c",
         "kernel": "956b8632dfde4015b6cfecc74ce8ada5ab4cefd80b42f2c53d4b9a70ccfd9092",
         "memory": "dac503dde8202b2b53b73179fd0b493655053dad5ab942f04e48f46032f3d4c0"}),
    ("specint", 8): (
        5733, [3, 0, 1, 2, 3, 3, 3, 0],
        {"probes": "e42af189e7f122c9d29f2a6f67bbb74fae1f6e90d4c6c5e6837356a7ef04ba7e",
         "kernel": "c96edf6d23cd8e63321d87083505f1bbe0592faa49f45c67a0abfda4023d633b",
         "memory": "b4b9612a750f6c7d6c41d91aeaa7d10af69b365b7786403788730c0f3718ffb6"}),
    ("specint", 12): (
        5257, [3, 0, 0, 0, 0, 0, 2, 1, 0, 0, 2, 0],
        {"probes": "8106c1e0c63e04e0bd944147b9dd00d9ae200606f1cc64e939143aca00d4362e",
         "kernel": "61ade56af3146d7da929f0b648a6b3727a46c6c3bc524629161f1ca1b0a8528b",
         "memory": "45261aaa58d773764e75ed2acbe32900e461b96b59f3bd4f8811a3d78e5f6c8f"}),
}


@pytest.mark.parametrize("workload,n", sorted(PINNED_FAST_STATE))
def test_fast_tier_state_is_pinned(workload, n):
    # The golden digests run fast legs only on the 8-context SMT.  These
    # machines pin the width-debt cases it does not reach: one context's
    # residual debt (8 slots a cycle), three contexts' (2 slots each),
    # and 12 contexts on an 8-wide fetch, whose width runs out before
    # the rotation reaches every context.  Most end a leg in debt, so
    # the debt carried between legs is pinned too.
    sim = build_context_sim(workload, n)
    fast_forward(sim, max_instructions=20_000, stride=8)
    sim.run(max_instructions=22_000)
    sim.processor.flush_to_streams()
    fast_forward(sim, max_instructions=40_000, stride=4)
    now, debt, digests = PINNED_FAST_STATE[workload, n]
    assert sim.now == now
    assert sim._ff_debt == debt
    assert state_digests(sim) == digests


def test_fast_forward_warms_caches_and_predictor():
    sim = _sim()
    fast_forward(sim, max_instructions=20_000)
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
