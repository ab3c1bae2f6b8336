"""Perf baselines and the regression gate (``repro bench``).

The ROADMAP's "fast as the hardware allows" north star needs a
measurement loop before it needs more optimizations: this module defines
standardized scenarios, measures the simulator's *own* speed on them
(host wall-clock, retired instructions per host second, peak RSS, and
for the simulation scenarios the machine build, timed apart from the
run) alongside key simulated probes, and persists each measurement as
``BENCH_<scenario>.json`` at the repository root -- the perf trajectory
files that track the simulator across PRs.

Scenarios:

* ``specint`` / ``apache`` -- a fresh 400k-instruction smt/full
  simulation, no store involvement, so the number is pure simulator
  speed;
* ``fast`` -- the same specint run through the fast-functional tier
  (:mod:`repro.core.engine`), tracking the warm-up path's speed;
* ``sampled`` -- a warm-up + interval-sampling plan over specint,
  tracking the end-to-end speed of the sampled measurement tier;
* ``report`` -- the full report build from a warm store (prefetch is
  excluded from the timing), i.e. the analysis layer's speed.

``repro bench`` measures each scenario in a fresh spawned interpreter
(:func:`measure_isolated`), so its peak RSS is its own, whatever ran
before it.

``repro bench --check`` re-measures and compares against the committed
baseline with a configurable noise band (host timings on shared machines
jitter; the default tolerance is deliberately generous), exiting nonzero
on regression -- the CI perf gate.  Simulated counters are compared too,
but only *reported*: a cycle-count change means simulator behavior
changed (which a code change may fully intend), not that it got slower.
"""

from __future__ import annotations

import datetime
import json
import pathlib
import platform
import time

#: Version of the BENCH_*.json layout.
BASELINE_SCHEMA = 1

#: Retired-instruction budget of the simulation scenarios.
DEFAULT_INSTRUCTIONS = 400_000

#: Default relative noise band for --check (fraction; 0.25 = 25%).
DEFAULT_TOLERANCE = 0.25

#: Scenarios measured by a bare ``repro bench``.
DEFAULT_SCENARIOS = ("specint", "apache", "fast", "sampled")

#: Gated host metrics and the direction that counts as a regression.
#: ``build_s`` (building the machine, outside ``wall_s``) is recorded
#: but not gated.
_GATE_METRICS = (
    ("ips", "lower"),        # fewer instructions per host second = slower
    ("max_rss_kb", "higher"),  # more peak memory = heavier
)

#: Simulated probes recorded alongside the host metrics (context for the
#: trajectory; never gated).
_KEY_PROBES = (
    "core.fetched",
    "core.squashed",
    "core.zero_fetch_cycles",
    "os.sched.switches",
    "mem.l2.accesses.user",
    "mem.l2.accesses.kernel",
)


def _max_rss_kb() -> int | None:
    """Peak RSS of this process in KB, or None where unavailable."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-Unix hosts
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _measure_sim(workload: str, instructions: int) -> dict:
    """Time one fresh smt/full simulation of *workload* (no store)."""
    from repro.analysis.experiments import build_simulation
    from repro.obs.registry import snapshot_percentile

    t0 = time.perf_counter()
    sim = build_simulation(workload, "smt", "full", seed=11)
    build = time.perf_counter() - t0
    t0 = time.perf_counter()
    sim.run(max_instructions=instructions)
    wall = time.perf_counter() - t0
    retired = sim.stats.retired
    cycles = sim.stats.cycles
    probes = sim.obs.snapshot()
    sim_section = {
        "cycles": cycles,
        "retired": retired,
        "ipc": round(retired / cycles, 4) if cycles else 0.0,
        "probes": {name: probes[name] for name in _KEY_PROBES
                   if name in probes},
    }
    latency = probes.get("os.syscall_latency_cycles")
    if isinstance(latency, dict):
        sim_section["probes"]["os.syscall_latency_cycles.p95"] = round(
            snapshot_percentile(latency, 0.95), 1)
    # Call-path attribution totals (repro.obs.flame): deterministic
    # context for the trajectory -- like all simulated values, reported
    # but never gated.
    attribution = sim.attrib.snapshot()
    sim_section["attribution"] = {
        "paths": len(attribution),
        "nested_paths": sum(1 for p in attribution if ";" in p),
        "nested_cycles": int(sum(
            v for p, v in attribution.items() if ";" in p)),
    }
    # Interval telemetry (repro.obs.timeline): always on, so every
    # bench run exercises it -- the host ips gate is what enforces its
    # <2% overhead budget.
    timeline = sim.probe_timeline
    sim_section["timeline"] = {
        "interval": timeline.interval,
        "samples": timeline.samples,
        "dropped": timeline.dropped,
        "columns": len(timeline.columns),
    }
    host = {"build_s": round(build, 3), "wall_s": round(wall, 3),
            "ips": round(retired / wall, 1) if wall > 0 else 0.0}
    rss = _max_rss_kb()
    if rss is not None:
        host["max_rss_kb"] = rss
    return {"host": host, "sim": sim_section}


def _measure_tiered(mode: str, instructions: int) -> dict:
    """Time one fresh tiered specint/smt/full plan (no store).

    ``fast`` runs the whole budget through the fast-functional tier;
    ``sampled`` runs a quarter-budget warm-up followed by 95:5
    fast:detailed interval sampling -- the same shape the sampled-smoke
    CI job executes, so its trajectory predicts that job's wall clock.
    """
    from repro.analysis.experiments import build_simulation
    from repro.core.engine import build_plan, run_plan

    warmup = 0
    sample = None
    if mode == "sampled":
        warmup = instructions // 4
        period = max(instructions // 10, 2_000)
        measure_leg = max(period // 20, 1_000)
        sample = (period - measure_leg, measure_leg)
    plan = build_plan(mode, instructions, warmup=warmup, sample=sample)
    t0 = time.perf_counter()
    sim = build_simulation("specint", "smt", "full", seed=11)
    build = time.perf_counter() - t0
    t0 = time.perf_counter()
    records, samples = run_plan(sim, plan)
    wall = time.perf_counter() - t0
    retired = sim.stats.retired
    cycles = sim.stats.cycles
    sim_section = {
        "cycles": cycles,
        "retired": retired,
        "ipc": round(retired / cycles, 4) if cycles else 0.0,
        "legs": len(records),
        "fast_instructions": sim.tier.fast_instructions,
        "fast_materialized": sim.tier.fast_materialized,
        "detailed_instructions": sim.tier.detailed_instructions,
    }
    if mode == "sampled":
        sim_section["sample_windows"] = len(samples)
        sim_section["measured_instructions"] = sum(
            w.get("retired", 0) for w in samples)
    host = {"build_s": round(build, 3), "wall_s": round(wall, 3),
            "ips": round(retired / wall, 1) if wall > 0 else 0.0}
    rss = _max_rss_kb()
    if rss is not None:
        host["max_rss_kb"] = rss
    return {"host": host, "sim": sim_section}


def _measure_report(instructions: int | None = None) -> dict:
    """Time the full report build from a warm store (prefetch untimed)."""
    from repro.analysis.report import build_report
    from repro.analysis.service import prefetch_all

    prefetch_all()  # warm; the gate times only the analysis layer
    t0 = time.perf_counter()
    report = build_report()
    wall = time.perf_counter() - t0
    host = {"wall_s": round(wall, 3)}
    rss = _max_rss_kb()
    if rss is not None:
        host["max_rss_kb"] = rss
    return {"host": host,
            "sim": {"shape_criteria_held": report.shape_criteria_held,
                    "shape_criteria_total": report.shape_criteria_total}}


#: scenario name -> (description, measurement function taking the
#: instruction budget).
SCENARIOS = {
    "specint": ("fresh specint/smt/full simulation, store-free",
                lambda n: _measure_sim("specint", n)),
    "apache": ("fresh apache/smt/full simulation, store-free",
               lambda n: _measure_sim("apache", n)),
    "fast": ("fast-functional specint/smt/full plan, store-free",
             lambda n: _measure_tiered("fast", n)),
    "sampled": ("warm-up + 95:5 interval-sampled specint/smt/full plan",
                lambda n: _measure_tiered("sampled", n)),
    "report": ("full report build from a warm run store",
               _measure_report),
}


def measure(scenario: str,
            instructions: int | None = None) -> dict:
    """Run one scenario and return the full BENCH payload."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r} "
                         f"(want one of {sorted(SCENARIOS)})")
    description, fn = SCENARIOS[scenario]
    budget = instructions if instructions is not None else DEFAULT_INSTRUCTIONS
    payload = {
        "schema": BASELINE_SCHEMA,
        "scenario": scenario,
        "description": description,
    }
    if scenario != "report":
        payload["instructions"] = budget
    payload.update(fn(budget if scenario != "report" else None))
    payload["meta"] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "generated": datetime.datetime.now().isoformat(timespec="seconds"),
    }
    return payload


def measure_isolated(scenario: str,
                     instructions: int | None = None) -> dict:
    """:func:`measure` in a fresh spawned interpreter.

    ``max_rss_kb`` is the peak resident memory of the process that ran
    the scenario, so a scenario measured after another one in the same
    process would report the larger peak of the two.  A spawned child
    starts from an empty interpreter, so its peak is the scenario's own
    as long as the caller's peak is lower (Linux carries a process's
    peak across ``exec``): ``repro bench`` runs no simulation itself.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=spawn) as pool:
        return pool.submit(measure, scenario, instructions).result()


def baseline_path(scenario: str, directory: str | pathlib.Path = ".") -> pathlib.Path:
    return pathlib.Path(directory) / f"BENCH_{scenario}.json"


def write_baseline(payload: dict,
                   directory: str | pathlib.Path = ".") -> pathlib.Path:
    path = baseline_path(payload["scenario"], directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(scenario: str,
                  directory: str | pathlib.Path = ".") -> dict | None:
    path = baseline_path(scenario, directory)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def check(measured: dict, baseline: dict,
          tolerance: float = DEFAULT_TOLERANCE) -> tuple[list[str], list[str]]:
    """Compare a fresh measurement against a stored baseline.

    Returns ``(regressions, notes)``: *regressions* are gate failures
    (host metric worse than the baseline beyond *tolerance*), *notes*
    are informational drifts (simulated counters changed, wall-clock
    moved on a different instruction budget, ...).
    """
    regressions: list[str] = []
    notes: list[str] = []
    m_host = measured.get("host", {})
    b_host = baseline.get("host", {})
    same_budget = measured.get("instructions") == baseline.get("instructions")
    gates = list(_GATE_METRICS)
    if "ips" not in b_host and same_budget:
        # The report scenario has no rate metric; gate wall-clock directly
        # (comparable because the workload is identical).
        gates.append(("wall_s", "higher"))
    for metric, bad_direction in gates:
        was = b_host.get(metric)
        now = m_host.get(metric)
        if not was or now is None:
            continue
        change = (now - was) / was
        worse = change > tolerance if bad_direction == "higher" \
            else change < -tolerance
        text = (f"{metric}: {was:,.1f} -> {now:,.1f} "
                f"({change * 100:+.1f}%, band ±{tolerance * 100:.0f}%)")
        if worse:
            regressions.append(text)
        elif abs(change) > tolerance:
            notes.append(f"improved {text}")
    m_sim = measured.get("sim", {})
    b_sim = baseline.get("sim", {})
    if same_budget:
        for key in ("cycles", "ipc"):
            was, now = b_sim.get(key), m_sim.get(key)
            if was and now is not None and now != was:
                notes.append(
                    f"simulated {key} drifted: {was:,} -> {now:,} "
                    "(behavior change, not gated)")
    elif "instructions" in measured or "instructions" in baseline:
        notes.append(
            f"instruction budgets differ "
            f"(baseline {baseline.get('instructions')}, "
            f"measured {measured.get('instructions')}); "
            "gating rate metrics only")
    return regressions, notes
