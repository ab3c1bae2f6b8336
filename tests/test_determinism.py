"""Reproducibility guarantee: the same config and seed must produce a
byte-identical probe snapshot across fresh simulations.

Everything downstream leans on this -- the content-addressed store, the
diff engine's noise model (seed repeats are the *only* sanctioned source
of variation), and the perf gate's "simulated counters are deterministic"
assumption."""

from repro.analysis.artifact import canonical_json
from repro.analysis.experiments import build_simulation
from repro.analysis.snapshot import capture
from repro.core.engine import fast_forward


def _snapshot_bytes(workload, cpu, os_mode, seed, instructions):
    sim = build_simulation(workload, cpu, os_mode, seed=seed)
    sim.run(max_instructions=instructions)
    return canonical_json(capture(sim)["probes"]).encode()


def test_same_config_and_seed_is_byte_identical():
    a = _snapshot_bytes("specint", "smt", "full", seed=11, instructions=4_000)
    b = _snapshot_bytes("specint", "smt", "full", seed=11, instructions=4_000)
    assert a == b


def test_apache_full_is_byte_identical_too():
    a = _snapshot_bytes("apache", "smt", "full", seed=23, instructions=4_000)
    b = _snapshot_bytes("apache", "smt", "full", seed=23, instructions=4_000)
    assert a == b


def test_different_seeds_actually_differ():
    a = _snapshot_bytes("specint", "smt", "full", seed=11, instructions=4_000)
    b = _snapshot_bytes("specint", "smt", "full", seed=12, instructions=4_000)
    assert a != b  # otherwise the diff engine's noise bands are meaningless


# -- tiered execution (see docs/execution-modes.md) --------------------------
#
# The same contract extends to every execution tier: a config plus a
# *mode plan* is one deterministic trajectory, so fast-forward legs,
# sampled plans, and a plan run in two calls must all replay to
# byte-identical probe snapshots.


def _fast_snapshot_bytes(seed, instructions, stride):
    sim = build_simulation("specint", "smt", "full", seed=seed)
    fast_forward(sim, max_instructions=instructions, stride=stride)
    return canonical_json(capture(sim)["probes"]).encode()


def test_fast_mode_is_byte_identical():
    a = _fast_snapshot_bytes(seed=11, instructions=8_000, stride=8)
    b = _fast_snapshot_bytes(seed=11, instructions=8_000, stride=8)
    assert a == b


def test_fast_mode_stride_is_part_of_the_trajectory():
    # Different strides are different (each internally deterministic)
    # trajectories; the stride is therefore part of a run's identity.
    a = _fast_snapshot_bytes(seed=11, instructions=8_000, stride=8)
    b = _fast_snapshot_bytes(seed=11, instructions=8_000, stride=4)
    assert a != b


def test_sampled_plan_replays_byte_identical_windows():
    from repro.core.engine import build_plan, run_plan

    def windows():
        sim = build_simulation("specint", "smt", "full", seed=11)
        plan = build_plan("sampled", 12_000, warmup=4_000,
                         sample=(4_000, 2_000))
        _, samples = run_plan(sim, plan)
        return [canonical_json(w["probes"]) for w in samples]

    first, second = windows(), windows()
    assert first and first == second


def test_split_plan_matches_one_call():
    # _execute_tiered runs a warm-up leg, captures the warm boundary,
    # then runs the rest of the plan in a second call: the split must
    # not move the trajectory.
    from repro.core.engine import Leg, run_plan

    k = 6_000
    straight = build_simulation("specint", "smt", "full", seed=11)
    run_plan(straight, [Leg("fast", k), Leg("fast", k)])

    split = build_simulation("specint", "smt", "full", seed=11)
    run_plan(split, [Leg("fast", k)])
    capture(split)
    run_plan(split, [Leg("fast", k)])

    assert split.stats.retired == straight.stats.retired
    assert split.now == straight.now
    a = canonical_json(capture(straight)["probes"]).encode()
    b = canonical_json(capture(split)["probes"]).encode()
    assert a == b
