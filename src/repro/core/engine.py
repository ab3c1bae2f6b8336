"""Tiered execution engine: the semantics/timing seam.

The simulator's *semantics* -- instruction streams composed by the OS
(:mod:`repro.os_model.stream`), memory footprints, TLB interception, and
kernel/scheduler state transitions -- are independent of its *timing*
model (pipeline slots, MSHR/bus/port latencies, per-cycle accounting in
:mod:`repro.core.processor`).  This module exploits that seam to offer
three execution tiers over one :class:`~repro.core.simulator.Simulation`:

* **full** -- the detailed cycle-driven pipeline (unchanged);
* **fast** -- :func:`fast_forward`: advance architectural and kernel
  state and *warm* the caches, TLBs and branch predictor without
  per-cycle pipeline simulation.  Instructions are pulled from the same
  context streams (so every kernel/scheduler/TLB semantic is preserved),
  retire immediately, and charge a nominal clock of
  ``max(1, fetch_width // n_contexts)`` instructions per context per
  cycle;
* **sampled** -- :func:`build_plan` + :func:`run_plan`: alternate
  fast-forward legs of N instructions with detailed measurement legs of
  M instructions, capture a counter window per measured leg, and
  :func:`extrapolate` whole-run probe totals with 2-sigma error bars
  routed through :func:`repro.obs.diff.mean_and_band`.

Determinism contract: a given config *and mode plan* is one
deterministic trajectory.  Because the cycle clock feeds kernel
semantics (timer interrupts, quanta, halts), fast and full runs are
*different* trajectories -- but any shared plan prefix is byte-identical
across runs, which is what makes sampled windows reproducible and lets
a run split its plan at the warm-up boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.processor import _BRANCH_SET, _LOAD, _STORE, _SYNC, _TRAINABLE
from repro.isa.instruction import ST_RETIRED
from repro.memory.classify import MODE_KIND

#: Execution tiers selectable per run (the ``sampled`` tier is a *plan*
#: alternating the other two, see :func:`build_plan`).
MODES = ("full", "fast", "sampled")

#: Default user-mode stride for fast-forward: materialize 1 in `stride`
#: user-code instructions and bulk-account the rest (see
#: :meth:`repro.os_model.stream.ContextStream.next_fast`).  Kernel, PAL,
#: spin and replayed instructions always materialize exactly, so OS
#: semantics are stride-independent within a thread's user bursts.
FF_STRIDE_DEFAULT = 8


class TierStats:
    """Counters for the tiered engine, exposed as ``core.mode.*`` probes.

    All counters are monotonic (snapshot/diff treats probes as counters);
    a plain full-mode run leaves every one at zero.
    """

    __slots__ = (
        "fast_instructions",
        "fast_materialized",
        "fast_cycles",
        "detailed_instructions",
        "detailed_cycles",
        "legs",
        "samples",
        "pipeline_flushes",
        "flushed_instructions",
    )

    def __init__(self) -> None:
        self.fast_instructions = 0
        self.fast_materialized = 0
        self.fast_cycles = 0
        self.detailed_instructions = 0
        self.detailed_cycles = 0
        self.legs = 0
        self.samples = 0
        self.pipeline_flushes = 0
        self.flushed_instructions = 0

    def register_probes(self, registry) -> None:
        """Register the engine's probe subtree (``core.mode.*``)."""
        for name in ("fast_instructions", "fast_materialized", "fast_cycles",
                     "detailed_instructions", "detailed_cycles", "legs",
                     "samples", "pipeline_flushes", "flushed_instructions"):
            registry.derive(f"core.mode.{name}",
                            lambda t=self, n=name: getattr(t, n))


# -- fast-functional execution ----------------------------------------------


def fast_forward(sim, max_instructions: int, max_cycles: int | None = None,
                 stride: int = FF_STRIDE_DEFAULT):
    """Advance *sim* to *max_instructions* retired in fast-functional mode.

    Semantics run in full -- every instruction still comes from the
    context streams (scheduler decisions, kernel frames, TLB
    interception, spin locks), the OS still ticks on its normal cadence,
    branches still train the predictor/BTB/RAS, and cache/TLB contents
    are warmed via the hierarchy's warm-only path -- but no pipeline
    structure is modeled: instructions retire the cycle they are
    produced, up to ``max(1, fetch_width // n_contexts)`` per context
    per (nominal) cycle.

    *stride* subsamples user-mode code: 1 in *stride* user instructions
    is materialized (and probes caches/TLBs/predictor) while the rest
    are bulk-accounted against the same frame budget with full weight in
    every retired-instruction statistic *and* in the per-cycle width
    budget, so cycle counts and OS cadence per retired instruction are
    stride-independent to first order.  Kernel and PAL instructions are
    never subsampled.  ``stride=1`` materializes everything.

    Honors attached observers (the detailed loop's mask test) and the
    watchdog (the detailed loop's chunk loop), so supervised
    fast-forward phases stay observable and self-terminating.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return sim._watched(
        lambda instructions, cycles: _fast_once(sim, instructions, cycles,
                                                stride),
        max_instructions, max_cycles, "fast-forward cycles")


def _fast_once(sim, max_instructions: int, max_cycles: int | None,
               stride: int):
    os_ = sim.os
    os_tick = os_.tick
    streams = os_.streams
    n = len(streams)
    stats = sim.stats
    retire_bulk = stats.retire_bulk
    charge = stats.charge_cycles
    switch = sim.attrib.switch
    tier = sim.tier
    unit = sim.processor.branch_unit
    predict = unit.predict
    resolve = unit.resolve
    warm_inst = sim.hierarchy.warm_inst
    warm_data = sim.hierarchy.warm_data
    line_shift = sim.hierarchy.config.line_size.bit_length() - 1
    tick_interval = sim.tick_interval
    width = sim.processor.config.fetch_width
    # Each context owns per_ctx slots of a cycle; the rest of the width
    # goes unused (2 of 8 slots on 3 contexts).
    per_ctx = max(1, width // n)
    last_line = sim._ff_last_line
    # Width debt: the excess of a pull's weight over its context's slots
    # consumes that context's slots of the following cycles, so for
    # n <= width, retired minus outstanding debt advances by n * per_ctx
    # a cycle whatever the stride.  Between legs the debt is kept as
    # slots owed (sim._ff_debt).  Here each context keeps instead the
    # cycle of its next pull and the residual (< per_ctx) it pays on
    # that cycle, so a cycle passes over contexts still in debt without
    # touching them.  The two forms convert exactly at any cycle
    # boundary.
    debt = sim._ff_debt
    now = sim._now
    due = [now + d // per_ctx for d in debt]
    residual = [d % per_ctx for d in debt]
    # Rotation order of each cycle, by cycle % n.
    orders = [[(start + k) % n for k in range(n)] for start in range(n)]
    # Observers: same mask test as the detailed loop, and jump blocks
    # clip at its boundaries (like the OS-tick clip), so telemetry
    # samples land on exactly the same cycles in both tiers.
    observe = sim._observe
    mask = sim._observer_mask()
    # Interval charging, detailed-tier style: a context's call path is
    # settled only when its service changes (current_attrib walks
    # frames; doing it per charge costs ~10% of the fast loop).  The
    # service is read inline with ContextStream.current_attrib's
    # precedence: the CPU pseudo-thread's top frame, else the scheduled
    # thread's top frame, "user" without one, "idle" without a thread.
    # The pseudo-threads' frame lists and the scheduler's current-thread
    # list are never rebound, so they are bound once here.  None forces
    # a first switch for every context, which is also the alignment
    # sweep after a detailed leg ran in between.
    cpu_frames = [stream.cpu.frames for stream in streams]
    current = os_.scheduler.current
    ctxs = range(n)
    last_svc: list = [None] * n
    skip = stride - 1

    limit_cycles = max_cycles if max_cycles is not None else (1 << 62)
    while stats.retired < max_instructions and now < limit_cycles:
        if now % tick_interval == 0:
            os_tick(now)
        step = min(due) - now
        if step:
            # No context is due in the next `step` cycles: their slots
            # all pay debt and nothing is pulled, so no architectural
            # state changes and the service attribution is constant.
            # Advance them in one block, stopping at the next OS-tick
            # (and observer) boundary so cadence is unchanged.
            room = tick_interval - now % tick_interval
            if step > room:
                step = room
            if now + step > limit_cycles:
                step = limit_cycles - now
            room = mask + 1 - (now & mask)
            if step > room:
                step = room
        else:
            step = 1
            delivered = 0
            materialized = 0
            start = now % n
            # Ring positions this cycle's width reaches.  It can run out
            # before the ring only when n > width, where per_ctx is 1:
            # each position takes one slot, except a context whose pull
            # came back empty, which passes its slot on.  For n <= width
            # it starts at or past n and cuts nothing.
            reach = width
            for ctx in orders[start]:
                if due[ctx] != now:
                    continue  # still paying debt: per_ctx slots, no pull
                k = ctx - start
                if k < 0:
                    k += n
                if k >= reach:
                    break
                stream = streams[ctx]
                # The residual debt is paid first, then the context pulls
                # until its slots are used up.
                ctx_budget = per_ctx - residual[ctx]
                over = 0
                while True:
                    instr, weight = stream.next_fast(now, skip)
                    if instr is None:
                        reach += ctx_budget
                        break
                    itype = instr.itype
                    kind = MODE_KIND[instr.mode]
                    if itype in _BRANCH_SET:
                        # Replays (seq != -1: instructions a detailed leg
                        # flushed back) re-predict without counting,
                        # exactly like squash recovery in the detailed
                        # core.
                        prediction = predict(instr, ctx, count=instr.seq == -1)
                        instr.predicted_taken = prediction.taken
                        instr.predicted_target = prediction.next_pc
                        if itype in _TRAINABLE:
                            resolve(instr, ctx)
                    line = instr.pc >> line_shift
                    if line != last_line[ctx]:
                        last_line[ctx] = line
                        warm_inst(instr.pc, instr.thread_id, kind)
                    if itype is _LOAD:
                        warm_data(instr.addr, instr.thread_id, kind, False)
                    elif itype is _STORE or itype is _SYNC:
                        warm_data(instr.addr, instr.thread_id, kind, True)
                    instr.state = ST_RETIRED
                    retire_bulk(instr, weight)
                    delivered += weight
                    materialized += 1
                    if weight >= ctx_budget:
                        over = weight - ctx_budget
                        break
                    ctx_budget -= weight
                due[ctx] = now + 1 + over // per_ctx
                residual[ctx] = over % per_ctx
            if reach < n:
                # The width ran out before the ring did: the contexts it
                # did not reach neither pulled nor paid this cycle.
                order = orders[start]
                for k in range(reach, n):
                    due[order[k]] += 1
            tier.fast_instructions += delivered
            tier.fast_materialized += materialized
        for ctx in ctxs:
            frames = cpu_frames[ctx]
            if frames:
                svc = frames[-1].service
            else:
                thread = current[ctx]
                if thread is None:
                    svc = "idle"
                else:
                    frames = thread.frames
                    svc = frames[-1].service if frames else "user"
            if svc != last_svc[ctx]:
                # os_tick above may have delivered interrupts (new
                # frames + spans) to any context, pulled or not: settle
                # whenever the observed service moved, so each interval
                # matches the cycles charged.
                last_svc[ctx] = svc
                switch(ctx, streams[ctx].current_attrib[1])
        charge(step)
        tier.fast_cycles += step
        now += step
        if now & mask == 0:
            observe(now)
    sim._now = now
    for ctx in ctxs:
        debt[ctx] = (due[ctx] - now) * per_ctx + residual[ctx]
    return sim._result()


# -- mode plans --------------------------------------------------------------


@dataclass(frozen=True)
class Leg:
    """One contiguous stretch of execution in a single tier.

    ``instructions`` is the leg's *retired-instruction delta* target;
    like the detailed loop, a leg may overshoot by up to one cycle's
    worth of retires, deterministically.
    """

    mode: str  # "fast" | "full"
    instructions: int


def build_plan(mode: str, instructions: int, warmup: int = 0,
               sample: tuple[int, int] | None = None) -> list[Leg]:
    """The ordered leg plan for one run.

    * ``full``: optional fast warm-up leg, then one detailed leg;
    * ``fast``: optional fast warm-up leg, then one fast leg;
    * ``sampled``: fast warm-up, then alternate ``fast N`` / ``full M``
      (``sample=(N, M)``) until *instructions* are covered.

    The plan is part of a run's identity: it is derived purely from the
    spec (mode, warm-up, N:M), so equal specs always execute equal plans.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (want one of {MODES})")
    if instructions < 1:
        raise ValueError(f"instructions must be >= 1, got {instructions}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    legs: list[Leg] = []
    if warmup:
        legs.append(Leg("fast", warmup))
    if mode == "sampled":
        if sample is None:
            raise ValueError("sampled mode requires sample=(N, M)")
        n, m = sample
        if n < 0 or m < 1:
            raise ValueError(f"need sample N >= 0 and M >= 1, got {n}:{m}")
        remaining = instructions
        while remaining > 0:
            if n:
                ff = min(n, remaining)
                legs.append(Leg("fast", ff))
                remaining -= ff
                if remaining <= 0:
                    break
            meas = min(m, remaining)
            legs.append(Leg("full", meas))
            remaining -= meas
    else:
        legs.append(Leg("fast" if mode == "fast" else "full", instructions))
    return legs


def run_plan(sim, plan: list[Leg], stride: int = FF_STRIDE_DEFAULT):
    """Execute *plan* on *sim* leg by leg.

    Returns ``(records, samples)``: one record per executed leg
    (``{"mode", "target", "retired", "cycles"}``) and one counter window
    (:func:`repro.analysis.snapshot.diff`) per detailed leg.  A detailed
    leg followed by a fast leg has its in-flight pipeline contents
    flushed back to the context streams (they re-deliver and retire in
    the next leg), so no instruction is lost across a tier transition.
    """
    from repro.analysis.snapshot import capture, diff

    tier = sim.tier
    records: list[dict] = []
    samples: list[dict] = []
    prev_mode = None
    for leg in plan:
        if prev_mode == "full" and leg.mode == "fast":
            flushed = sim.processor.flush_to_streams()
            tier.pipeline_flushes += 1
            tier.flushed_instructions += flushed
        target = sim.stats.retired + leg.instructions
        leg_retired = sim.stats.retired
        leg_cycles = sim.now
        if leg.mode == "fast":
            fast_forward(sim, target, stride=stride)
        else:
            before = capture(sim)
            sim.run(max_instructions=target)
            samples.append(diff(capture(sim), before))
            tier.samples += 1
            tier.detailed_instructions += sim.stats.retired - leg_retired
            tier.detailed_cycles += sim.now - leg_cycles
        tier.legs += 1
        records.append({
            "mode": leg.mode,
            "target": leg.instructions,
            "retired": sim.stats.retired - leg_retired,
            "cycles": sim.now - leg_cycles,
        })
        prev_mode = leg.mode
    return records, samples


# -- sampled extrapolation ---------------------------------------------------


def extrapolate(samples: list[dict], total_instructions: int) -> dict:
    """Whole-run probe estimates from detailed sample windows.

    Each window's flattened probes are averaged across windows and count
    probes are scaled by ``total / mean window retired``; rate probes
    (IPC, histogram means/percentiles) are reported unscaled.  The error
    bar is the 2-sigma half-width across windows from
    :func:`repro.obs.diff.mean_and_band`, scaled the same way, so a
    single window yields zero-width (unknown) bands.

    Returns ``{"probes": {name: [estimate, band]}, "windows": k,
    "measured_instructions": ..., "measured_cycles": ...}``.
    """
    from repro.obs.diff import _is_rate, mean_and_band

    if not samples:
        raise ValueError("need at least one sample window to extrapolate")
    mean, band = mean_and_band(samples)
    measured = sum(w.get("retired", 0) for w in samples)
    measured_cycles = sum(w.get("cycles", 0) for w in samples)
    mean_retired = measured / len(samples)
    scale = (total_instructions / mean_retired) if mean_retired else 0.0
    probes = {}
    for name, value in mean.items():
        if _is_rate(name):
            probes[name] = [value, band.get(name, 0.0)]
        else:
            probes[name] = [value * scale, band.get(name, 0.0) * scale]
    return {
        "probes": probes,
        "windows": len(samples),
        "measured_instructions": measured,
        "measured_cycles": measured_cycles,
    }
