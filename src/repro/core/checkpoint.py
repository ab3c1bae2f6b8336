"""Serializable mid-run checkpoints: verified deterministic replay recipes.

A simulation's live state is full of generators and closures (workload
behaviors, code-model walkers, kernel frames), so it cannot be pickled
into a resumable blob.  What *can* be serialized -- exactly because the
engine is deterministic -- is the recipe that reproduces a state:

* the full config fingerprint (``sim.params``),
* the executed leg plan and fast-forward stride
  (:mod:`repro.core.engine`),
* the instruction boundary and cycle the plan reached, and
* SHA-256 digests of the resulting state (probe tree, kernel execution
  state, cache/TLB contents).

Restoring re-executes the plan on a freshly built simulation and
*verifies* the digests, so silent nondeterminism (environment drift, a
semantics change that forgot to bump the artifact code version) is
caught as a hard :class:`CheckpointError` instead of contaminating
downstream measurements.  Checkpoints are content-addressed in the run
store (:mod:`repro.analysis.store`) by config + plan + stride, i.e. by
what they reproduce, never by when they were taken.

A checkpoint records the artifact layout version
(:data:`~repro.analysis.artifact.SCHEMA_VERSION`) under the same
``schema_version`` key run artifacts use, and its fingerprint covers
it: the probes digest hashes the whole probe tree, so a layout change
(a probe added or removed) retires old checkpoints as store misses
instead of failing their replay.
"""

from __future__ import annotations

import hashlib

from repro.core.engine import FF_STRIDE_DEFAULT, Leg, run_plan


class CheckpointError(RuntimeError):
    """A checkpoint could not be restored: schema/config mismatch, or the
    replayed state's digests drifted from the recorded ones."""


def state_digests(sim) -> dict:
    """SHA-256 digests of *sim*'s current architectural state.

    Three independent digests so a verification failure localizes the
    drift: ``probes`` (the full counter tree), ``kernel`` (scheduler,
    threads, wait queues, RNG states), ``memory`` (cache and TLB
    contents in LRU order).

    The ``core.timeline.*`` counters are excluded from the probes
    digest: they mirror the interval telemetry sampler's progress
    (:mod:`repro.obs.timeline`), which is observation, not machine
    state.  Stored checkpoints were digested without them, and a
    checkpoint verify-restores into a simulation whose sampler was
    replaced (another interval), just as telemetry never enters run
    fingerprints.
    """
    from repro.analysis.artifact import canonical_json
    from repro.analysis.snapshot import capture

    def sha(payload) -> str:
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    probes = {k: v for k, v in capture(sim)["probes"].items()
              if not k.startswith("core.timeline.")}
    return {
        "probes": sha(probes),
        "kernel": sha(sim.os.state_summary()),
        "memory": sha(sim.hierarchy.content_state()),
    }


def checkpoint_fingerprint(params: dict, plan: list[Leg],
                           stride: int = FF_STRIDE_DEFAULT) -> str:
    """Content address of the checkpoint reaching the end of *plan*.

    Covers the config fingerprint, the leg plan (mode + instruction
    boundary of every leg), the stride, and the artifact schema / code
    versions -- everything that determines the replayed state and its
    digests, and nothing (wall time, host) that does not.
    """
    from repro.analysis.artifact import (CODE_VERSION, SCHEMA_VERSION,
                                         canonical_json)

    payload = {
        "kind": "checkpoint",
        "schema": SCHEMA_VERSION,
        "code": CODE_VERSION,
        "params": params,
        "plan": [[leg.mode, leg.instructions] for leg in plan],
        "stride": stride,
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def take(sim, plan: list[Leg], stride: int = FF_STRIDE_DEFAULT) -> dict:
    """Freeze *sim* -- positioned at the end of *plan* -- into a
    JSON-safe checkpoint payload.

    The caller is responsible for *plan* actually having been executed
    on *sim* (normally via :func:`repro.core.engine.run_plan`); the
    recorded boundary/cycle are read from the simulation itself, so an
    overshooting leg is captured faithfully.
    """
    from repro.analysis.artifact import SCHEMA_VERSION

    return {
        "kind": "checkpoint",
        "schema_version": SCHEMA_VERSION,
        "fingerprint": checkpoint_fingerprint(sim.params, plan, stride),
        "params": sim.params,
        "plan": [[leg.mode, leg.instructions] for leg in plan],
        "stride": stride,
        "boundary": sim.stats.retired,
        "cycle": sim.now,
        "digests": state_digests(sim),
    }


def restore(sim, ckpt: dict):
    """Replay *ckpt*'s plan on a freshly built *sim* and verify it.

    Raises :class:`CheckpointError` if the checkpoint's schema or config
    does not match, if the replay lands on a different boundary/cycle,
    or if any state digest drifted.  On success the simulation sits at
    the checkpoint boundary with byte-identical state, ready for the
    remaining legs of its run.
    """
    from repro.analysis.artifact import SCHEMA_VERSION, canonical_json

    if ckpt.get("schema_version") != SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint schema {ckpt.get('schema_version')!r} != "
            f"{SCHEMA_VERSION} (stale checkpoint)")
    if canonical_json(ckpt["params"]) != canonical_json(sim.params):
        raise CheckpointError("checkpoint config does not match simulation")
    plan = [Leg(mode, instructions) for mode, instructions in ckpt["plan"]]
    run_plan(sim, plan, stride=ckpt["stride"])
    if sim.stats.retired != ckpt["boundary"] or sim.now != ckpt["cycle"]:
        raise CheckpointError(
            f"replay landed at retired={sim.stats.retired:,} "
            f"cycle={sim.now:,}, checkpoint recorded "
            f"retired={ckpt['boundary']:,} cycle={ckpt['cycle']:,}")
    got = state_digests(sim)
    drifted = sorted(k for k in got if got[k] != ckpt["digests"].get(k))
    if drifted:
        raise CheckpointError(
            f"state digest drift after replay: {', '.join(drifted)}")
    return sim
