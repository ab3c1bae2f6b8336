"""Canonical experiment runs.

Every table and figure of the paper is extracted from one of eight runs:

=========  ===========  =========================================
workload   cpu          os_mode
=========  ===========  =========================================
specint    smt / ss     full  (OS executed)
specint    smt / ss     app   (app-only simulator: instant traps)
apache     smt / ss     full
apache     smt / ss     omit  (OS refs omitted from hardware
                              structures -- Table 9's mode)
=========  ===========  =========================================

:func:`get_run` resolves a run through three layers:

1. an in-process memo (object identity within one process),
2. the content-addressed on-disk :class:`~repro.analysis.store.RunStore`
   (persistence across processes; see ``repro prefetch`` / ``repro cache``),
3. actual execution, after which the artifact is written back to the store.

The store key is the artifact fingerprint: schema version, code version,
and the *full* simulation config (workload, machine geometry, os mode,
instruction budget, seed, and every simulator knob), so non-default
simulations can never collide with canonical ones.  Each artifact carries
three counter windows: *startup* (boot to workload warm-up), *steady*
(warm-up to end), and *total*.

Set the ``REPRO_BUDGET_MULT`` environment variable to scale every
instruction budget (e.g. ``0.25`` for a quick smoke pass, ``4`` for a long
calibration run).
"""

from __future__ import annotations

import os as _os
import warnings

from repro.analysis.artifact import RunArtifact, run_fingerprint, run_label
from repro.analysis.snapshot import capture, diff
from repro.analysis.store import RunStore
from repro.core.config import MachineConfig
from repro.core.simulator import Simulation, sim_params
from repro.os_model.kernel import OSMode
from repro.workloads.apache import ApacheWorkload
from repro.workloads.specint import SpecIntWorkload

#: Default retired-instruction budgets per (workload, cpu).  Scaled runs;
#: the paper simulated 0.65-1G+ instructions, and -- like us -- ran its
#: superscalar experiments shorter than its SMT ones (Section 2.3).
DEFAULT_INSTRUCTIONS = {
    ("specint", "smt"): 1_000_000,
    ("specint", "ss"): 700_000,
    ("apache", "smt"): 2_400_000,
    ("apache", "ss"): 1_200_000,
}

#: Fraction of the budget the start-up leg may consume before the steady
#: window is opened regardless (safety valve for superscalar runs, whose
#: start-up covers more of the instruction budget).
STARTUP_BUDGET_CAP = 0.75

_WARMUP_CHUNK = 25_000

#: The no-progress window every executed run arms (see
#: :meth:`~repro.core.simulator.Simulation.attach_watchdog`): a run
#: whose core retires nothing for this many cycles raises
#: :class:`~repro.core.simulator.NoProgressError` instead of spinning
#: on.  Far above any legitimate stretch without a retire: each
#: context's idle loop retires 48 instructions, then halts for 240
#: cycles.
WATCHDOG_CYCLES = 1_000_000

#: In-process memo: fingerprint -> artifact (layer above the disk store).
_MEMO: dict[str, RunArtifact] = {}

_WARNED_BUDGET_VALUES: set[str] = set()


def _budget_multiplier() -> float:
    raw = _os.environ.get("REPRO_BUDGET_MULT", "1")
    try:
        mult = float(raw)
    except ValueError:
        _warn_bad_budget(raw)
        return 1.0
    if mult <= 0:
        _warn_bad_budget(raw)
        return 1.0
    return mult


def _warn_bad_budget(raw: str) -> None:
    """Warn (once per distinct value) instead of silently using 1.0."""
    if raw in _WARNED_BUDGET_VALUES:
        return
    _WARNED_BUDGET_VALUES.add(raw)
    warnings.warn(
        f"ignoring invalid REPRO_BUDGET_MULT={raw!r} "
        "(expected a positive number); using 1.0",
        RuntimeWarning,
        stacklevel=3,
    )


def canonical_machine(cpu: str) -> MachineConfig:
    """The machine configuration behind a canonical cpu label."""
    if cpu == "smt":
        return MachineConfig.smt()
    if cpu == "ss":
        return MachineConfig.superscalar()
    raise ValueError(f"unknown cpu {cpu!r} (want 'smt' or 'ss')")


def resolve_instructions(workload: str, cpu: str,
                         instructions: int | None = None) -> int:
    """The effective instruction budget for one canonical run."""
    if instructions is not None:
        return instructions
    return int(DEFAULT_INSTRUCTIONS[(workload, cpu)] * _budget_multiplier())


def run_spec(
    workload: str,
    cpu: str,
    os_mode: str = "full",
    instructions: int | None = None,
    seed: int = 11,
    mode: str = "full",
    warmup: int = 0,
    sample: tuple[int, int] | None = None,
    stride: int | None = None,
) -> dict:
    """The full specification -- labels plus config fingerprint params --
    of one canonical run.  ``run_fingerprint(run_spec(...))`` is its store
    key; no simulation is constructed.

    *mode*, *warmup*, *sample* and *stride* select the execution tier
    (:mod:`repro.core.engine`).  They enter the spec -- and therefore
    the fingerprint -- only when non-default, so plain detailed specs
    are unchanged: ``mode`` when not ``"full"``, ``warmup`` when
    positive, ``sample=(N, M)`` for sampled runs, and the fast-forward
    ``stride`` whenever any fast leg exists.
    """
    from repro.core.engine import FF_STRIDE_DEFAULT, MODES, build_plan

    machine = canonical_machine(cpu)
    if workload not in ("specint", "apache"):
        raise ValueError(f"unknown workload {workload!r}")
    if os_mode not in ("full", "app", "omit"):
        raise ValueError(f"unknown os_mode {os_mode!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (want one of {MODES})")
    instructions = resolve_instructions(workload, cpu, instructions)
    params = sim_params(
        workload,
        machine,
        os_mode=OSMode.APP_ONLY if os_mode == "app" else OSMode.FULL,
        seed=seed,
        omit_kernel_refs=(os_mode == "omit"),
    )
    spec = {
        "workload": workload,
        "cpu": cpu,
        "os_mode": os_mode,
        "instructions": instructions,
        "seed": seed,
        "params": params,
    }
    if mode != "full":
        spec["mode"] = mode
    if warmup:
        spec["warmup"] = int(warmup)
    if mode == "sampled":
        if sample is None:
            raise ValueError("sampled mode requires sample=(N, M)")
        spec["sample"] = [int(sample[0]), int(sample[1])]
    if mode != "full" or warmup:
        spec["stride"] = int(stride) if stride is not None else FF_STRIDE_DEFAULT
    build_plan(mode, instructions, warmup=warmup, sample=sample)  # validate
    return spec


def spec_plan(spec: dict):
    """The leg plan and stride a spec executes (see
    :func:`repro.core.engine.build_plan`); derived purely from the spec,
    so equal specs always execute equal plans."""
    from repro.core.engine import FF_STRIDE_DEFAULT, build_plan

    sample = spec.get("sample")
    plan = build_plan(
        spec.get("mode", "full"),
        spec["instructions"],
        warmup=spec.get("warmup", 0),
        sample=tuple(sample) if sample is not None else None,
    )
    return plan, spec.get("stride", FF_STRIDE_DEFAULT)


def build_simulation(workload: str, cpu: str, os_mode: str, seed: int = 11) -> Simulation:
    """Assemble (but do not run) one canonical simulation."""
    machine = canonical_machine(cpu)
    if workload == "specint":
        wl = SpecIntWorkload()
    elif workload == "apache":
        wl = ApacheWorkload()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if os_mode not in ("full", "app", "omit"):
        raise ValueError(f"unknown os_mode {os_mode!r}")
    return Simulation(
        wl,
        machine=machine,
        os_mode=OSMode.APP_ONLY if os_mode == "app" else OSMode.FULL,
        omit_kernel_refs=(os_mode == "omit"),
        seed=seed,
    )


def run_windowed(sim: Simulation, budget: int) -> tuple[dict, dict, dict]:
    """Run *sim* for *budget* instructions, splitting at workload warm-up."""
    boot = capture(sim)
    cap = int(budget * STARTUP_BUDGET_CAP)
    while not sim.workload.warmed_up(sim.os) and sim.stats.retired < cap:
        sim.run(max_instructions=min(cap, sim.stats.retired + _WARMUP_CHUNK))
    mid = capture(sim)
    sim.run(max_instructions=budget)
    end = capture(sim)
    return diff(mid, boot), diff(end, mid), diff(end, boot)


def execute_spec(spec: dict, heartbeat=None) -> RunArtifact:
    """Execute one run spec and freeze it into an artifact (no caching).

    This is the unit of work the run engine ships to worker
    processes; :func:`get_run` calls it on a cache miss.  With
    *heartbeat* (a :class:`~repro.obs.live.Heartbeat`), the simulation
    emits live progress samples while it runs.  Every run arms the
    :data:`WATCHDOG_CYCLES` no-progress watchdog, so a machine that
    stops retiring raises a diagnostic
    :class:`~repro.core.simulator.NoProgressError` instead of spinning;
    watching never changes what a run computes.

    Specs carrying tier keys (``mode``/``warmup``/``sample``/``stride``,
    see :func:`run_spec`) execute their leg plan through
    :mod:`repro.core.engine` instead of the plain windowed run.
    """
    from repro import faults

    label = run_label(spec)
    if faults.fire("sim.hang", label) is not None:
        import time as _time
        while True:  # injected hang: only an engine timeout ends this
            _time.sleep(0.05)
    sim = build_simulation(spec["workload"], spec["cpu"], spec["os_mode"],
                           seed=spec["seed"])
    try:
        if heartbeat is not None:
            if heartbeat.target is None:
                heartbeat.target = spec["instructions"]
            sim.attach_heartbeat(heartbeat)
        sim.attach_watchdog(WATCHDOG_CYCLES)
        stall = faults.fire("sim.stall", label)
        if stall is not None:
            # Starve the core: cycles elapse, nothing retires.  A short
            # window keeps the scenario quick.
            sim.processor.cycle = lambda now: None
            sim.attach_watchdog(stall.arg or 20_000)
        boom = faults.fire("sim.exception", label)
        if boom is not None:
            sim.run(max_instructions=spec["instructions"],
                    max_cycles=boom.arg or 2_000)
            raise faults.InjectedFault(
                "sim.exception",
                f"injected mid-simulation exception at cycle {sim.now:,} "
                f"({label})",
                snapshot=sim.obs.snapshot())
        tiered = spec.get("mode", "full") != "full" or spec.get("warmup")
        if tiered:
            startup, steady, total, sampling = _execute_tiered(sim, spec)
        else:
            startup, steady, total = run_windowed(sim, spec["instructions"])
            sampling = None
        if heartbeat is not None:
            heartbeat.close()
        artifact = sim.to_artifact(
            startup, steady, total,
            spec_extra={k: spec[k] for k in
                        ("workload", "cpu", "os_mode", "instructions", "seed",
                         "mode", "warmup", "sample", "stride") if k in spec},
            mode=spec.get("mode", "full"),
            sampling=sampling,
        )
        if artifact.fingerprint != run_fingerprint(spec):  # pragma: no cover
            raise RuntimeError(
                "config fingerprint drift: Simulation.params disagrees with "
                "run_spec() for the same arguments")
        return artifact
    finally:
        sim.close()


def _execute_tiered(sim: Simulation, spec: dict):
    """Run a tiered spec's leg plan and assemble its counter windows.

    Window semantics for tiered runs: *startup* covers boot through the
    warm-up prefix (empty when the spec has no warm-up), *total* covers
    the whole run, and *steady* is the rest -- except for sampled runs,
    where it is the merged union of the detailed measurement legs (the
    only windows with real pipeline timing in them).

    Returns ``(startup, steady, total, sampling_meta)``; the metadata
    records the executed legs, the stride, and the extrapolated
    whole-run probe estimates for sampled mode.
    """
    from repro.core.engine import extrapolate, run_plan
    from repro.analysis.snapshot import merge_windows

    plan, stride = spec_plan(spec)
    mode = spec.get("mode", "full")
    split = 1 if spec.get("warmup") else 0  # the warm-up leg, if any
    boot = capture(sim)
    records, _ = run_plan(sim, plan[:split], stride=stride)
    mid = capture(sim)
    leg_records, samples = run_plan(sim, plan[split:], stride=stride)
    records.extend(leg_records)
    end = capture(sim)
    startup = diff(mid, boot)
    total = diff(end, boot)
    if mode == "sampled" and samples:
        steady = merge_windows(samples)
    else:
        steady = diff(end, mid)
    meta: dict = {"mode": mode, "stride": stride, "plan": records}
    if mode == "sampled" and samples:
        meta["extrapolated"] = extrapolate(samples, spec["instructions"])
    return startup, steady, total, meta


def cached_artifact(fingerprint: str, store: RunStore | None = None) -> RunArtifact | None:
    """Look a fingerprint up in the memo, then the store (filling the
    memo on a store hit).  Returns None on a full miss."""
    artifact = _MEMO.get(fingerprint)
    if artifact is not None:
        return artifact
    store = store or RunStore()
    artifact = store.get(fingerprint)
    if artifact is not None:
        _MEMO[fingerprint] = artifact
    return artifact


def register_artifact(artifact: RunArtifact) -> None:
    """Install an artifact (e.g. computed by a worker) into the memo."""
    _MEMO[artifact.fingerprint] = artifact


#: The eight canonical (workload, cpu, os_mode) combinations behind the
#: paper's Tables 2-9 and Figures 1-7.
CANONICAL_SPECS: tuple[tuple[str, str, str], ...] = (
    ("specint", "smt", "full"),
    ("specint", "smt", "app"),
    ("specint", "ss", "full"),
    ("specint", "ss", "app"),
    ("apache", "smt", "full"),
    ("apache", "smt", "omit"),
    ("apache", "ss", "full"),
    ("apache", "ss", "omit"),
)


def get_run(
    workload: str,
    cpu: str,
    os_mode: str = "full",
    instructions: int | None = None,
    seed: int = 11,
    mode: str = "full",
    warmup: int = 0,
    sample: tuple[int, int] | None = None,
    stride: int | None = None,
) -> RunArtifact:
    """Fetch a canonical run artifact: memo, then store, then execute.

    *mode*/*warmup*/*sample*/*stride* select the execution tier (they
    are part of the spec and therefore the store key).
    """
    spec = run_spec(workload, cpu, os_mode, instructions, seed,
                    mode=mode, warmup=warmup, sample=sample, stride=stride)
    fingerprint = run_fingerprint(spec)
    artifact = cached_artifact(fingerprint)
    if artifact is None:
        artifact = execute_spec(spec)
        RunStore().put(artifact)
        _MEMO[fingerprint] = artifact
    return artifact


def clear_cache() -> None:
    """Drop the in-process memo (tests use this for isolation).

    The on-disk store is unaffected; clear it with ``repro cache clear``
    or :meth:`repro.analysis.store.RunStore.clear`.
    """
    _MEMO.clear()
