"""Top-level simulation driver.

A :class:`Simulation` assembles one machine -- memory hierarchy, MiniDUX
kernel, processor core -- boots a workload onto it, and runs for a given
number of retired instructions.  The returned :class:`SimResult` carries
references to every subsystem so the analysis layer can extract any of the
paper's metrics from a single run.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import asdict, dataclass

from repro.core.config import MachineConfig
from repro.core.engine import TierStats
from repro.core.processor import Processor
from repro.core.stats import SimStats
from repro.memory.hierarchy import MemoryHierarchy
from repro.os_model.kernel import MiniDUX, OSMode

#: Every tunable simulator knob beyond (workload, machine, os_mode, seed)
#: and its default.  This dict is the single source of truth for the
#: configuration fingerprint: a run's store key covers all of these, so a
#: non-default simulation can never collide with a canonical one.
SIM_KNOB_DEFAULTS: dict[str, object] = {
    "quantum": 20_000,
    "timer_interval": 100_000,
    "tick_interval": 8,
    "omit_kernel_refs": False,
    "tlb_flush_on_switch": False,
    "spin_policy": "spin",
}


class NoProgressError(RuntimeError):
    """The no-progress watchdog fired: the machine burned cycles without
    retiring a single instruction (livelock / deadlock), so the run was
    aborted with diagnostics instead of looping forever.

    Carries the cycle the watchdog fired at, the retired count, and a
    probe-tree snapshot taken at that moment.
    """

    def __init__(self, message: str, cycle: int, retired: int,
                 snapshot: dict | None = None) -> None:
        super().__init__(message)
        self.cycle = cycle
        self.retired = retired
        self.snapshot = snapshot


def sim_params(
    workload_name: str,
    machine: MachineConfig,
    os_mode: OSMode = OSMode.FULL,
    seed: int = 1,
    **knobs,
) -> dict:
    """The full, JSON-safe configuration fingerprint of one simulation.

    ``knobs`` may override any entry of :data:`SIM_KNOB_DEFAULTS`; unknown
    names raise so fingerprints cannot silently omit a new knob.
    """
    unknown = set(knobs) - set(SIM_KNOB_DEFAULTS)
    if unknown:
        raise TypeError(f"unknown simulator knob(s): {sorted(unknown)}")
    params = {
        "workload": workload_name,
        "machine": asdict(machine),
        "os_mode": os_mode.value,
        "seed": seed,
    }
    params.update(SIM_KNOB_DEFAULTS)
    params.update(knobs)
    return params


@dataclass
class SimResult:
    """Handles to every subsystem of a finished simulation."""

    machine: MachineConfig
    stats: SimStats
    hierarchy: MemoryHierarchy
    os: MiniDUX
    processor: Processor
    workload: object
    os_mode: OSMode
    cycles: int

    @property
    def ipc(self) -> float:
        return self.stats.ipc


def _release(kernel: MiniDUX, workload) -> None:
    """Drop the reference cycles of one machine (see
    :meth:`Simulation.close`).  A module function, so the finalizer that
    calls it holds the kernel and the workload but not the
    :class:`Simulation`."""
    kernel.close()
    workload.close()


class Simulation:
    """One simulated machine plus workload, ready to run."""

    def __init__(
        self,
        workload,
        machine: MachineConfig | None = None,
        os_mode: OSMode = OSMode.FULL,
        seed: int = 1,
        quantum: int = 20_000,
        timer_interval: int = 100_000,
        tick_interval: int = 8,
        omit_kernel_refs: bool = False,
        tlb_flush_on_switch: bool = False,
        spin_policy: str = "spin",
    ) -> None:
        self.machine = machine or MachineConfig.smt()
        self.workload = workload
        self.os_mode = os_mode
        self.tick_interval = tick_interval
        self.params = sim_params(
            getattr(workload, "name", type(workload).__name__),
            self.machine,
            os_mode=os_mode,
            seed=seed,
            quantum=quantum,
            timer_interval=timer_interval,
            tick_interval=tick_interval,
            omit_kernel_refs=omit_kernel_refs,
            tlb_flush_on_switch=tlb_flush_on_switch,
            spin_policy=spin_policy,
        )
        rng = random.Random(seed)
        # One probe registry per machine: every subsystem registers its
        # counters under a common tree (mem.* / branch.* / os.* / core.*)
        # that analysis snapshots fold into the run artifact.
        from repro.obs.registry import ProbeRegistry

        self.obs = ProbeRegistry()
        self.hierarchy = MemoryHierarchy(self.machine.memory,
                                         registry=self.obs)
        self.hierarchy.omit_kernel_refs = omit_kernel_refs
        self.os = MiniDUX(
            self.hierarchy,
            self.machine.cpu.n_contexts,
            rng,
            mode=os_mode,
            quantum=quantum,
            timer_interval=timer_interval,
            seed=seed,
            tlb_flush_on_switch=tlb_flush_on_switch,
            spin_policy=spin_policy,
            registry=self.obs,
        )
        # The stats own the call-path cycle account; with the kernel's
        # thread table, paths carry each thread's open span chain.
        self.stats = SimStats(self.machine.cpu.n_contexts,
                              threads_by_tid=self.os.threads_by_tid)
        self.attrib = self.stats.attrib
        # The probe closures registered here bind the components they
        # read, never ``self``: the registry is the machine's, so a
        # closure over the machine would make a reference cycle.
        #
        # The MSHR occupancy integrals behind Table 6's outstanding-miss
        # rows advance lazily to a cycle, so they register here, where
        # the clock is known: the cycle account, which both run loops
        # keep current (``_now`` is written back only when a loop ends).
        for level in ("l1i", "l1d", "l2"):
            mshr = getattr(self.hierarchy, f"{level}_mshr")
            self.obs.derive(f"mem.mshr.{level}.occupancy_cycles",
                            lambda m=mshr, s=self.stats: m.integral_at(s.cycles))
        self.processor = Processor(
            self.machine.cpu, self.os.streams, self.hierarchy, self.stats,
            rng, registry=self.obs)
        # Context switches invalidate the per-context return stacks.
        self.os.switch_listeners.append(self.processor.branch_unit.clear_context)
        # Event-ring truncation is part of the run's provenance: when this
        # probe is nonzero, trace/flame output covers a suffix of the run.
        self.obs.derive(
            "core.events.dropped",
            lambda p=self.processor:
                p.events.dropped if p.events is not None else 0)
        # Tiered-engine accounting (core.mode.* probes; all zero unless
        # fast-forward or sampling is used).
        self.tier = TierStats()
        self.tier.register_probes(self.obs)
        # Interval probe telemetry (repro.obs.timeline): snapshots the
        # headline probe subset every 2^k cycles in both tiers.  Always
        # on like attribution -- pure observation, no RNG draws, no
        # timing effects -- so, like the heartbeat and watchdog, it
        # never enters the fingerprint.  The sampler can be replaced
        # (see :attr:`probe_timeline`), so its probes read it from a
        # one-item slot.
        from repro.obs.timeline import ProbeTimeline

        self._timeline = [ProbeTimeline(self)]
        self.obs.derive("core.timeline.samples",
                        lambda slot=self._timeline: slot[0].samples)
        self.obs.derive("core.timeline.dropped",
                        lambda slot=self._timeline: slot[0].dropped)
        # Fast-forward I-line tracking and width-debt carry, one entry
        # per hardware context (the fast engine's analogues of the
        # pipeline's ctx.last_line and of slot occupancy).
        self._ff_last_line = [-1] * self.machine.cpu.n_contexts
        self._ff_debt = [0] * self.machine.cpu.n_contexts
        workload.setup(self.os, self.hierarchy, random.Random(seed + 7919))
        self._now = 0
        self.events = None
        self.heartbeat = None
        # Guardrail, not a config knob: attached after construction (see
        # attach_watchdog), so it never enters the fingerprint -- it
        # cannot change what a run computes, only whether a stuck run
        # dies with diagnostics instead of spinning forever.
        self.watchdog_cycles = None
        # Last: the machine releases itself when its last reference goes.
        self._finalizer = weakref.finalize(self, _release, self.os,
                                           self.workload)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` ran; a closed machine cannot run."""
        return not self._finalizer.alive

    @property
    def now(self) -> int:
        """Current simulation cycle (persists across chunked runs)."""
        return self._now

    @property
    def probe_timeline(self):
        """The interval telemetry sampler
        (:class:`~repro.obs.timeline.ProbeTimeline`).  Assign another one
        before running to sample another interval or probe set; the
        ``core.timeline.*`` probes follow the assignment."""
        return self._timeline[0]

    @probe_timeline.setter
    def probe_timeline(self, timeline) -> None:
        self._timeline[0] = timeline

    def attach_events(self, bus) -> None:
        """Wire one :class:`~repro.obs.events.EventBus` through every layer.

        Until this is called (the default), producers see ``None`` and
        event emission costs nothing.
        """
        self.events = bus
        self.processor.events = bus
        self.hierarchy.events = bus
        self.os.events = bus

    def attach_heartbeat(self, heartbeat) -> None:
        """Sample live progress every ``2^k`` cycles while running.

        *heartbeat* is a :class:`~repro.obs.live.Heartbeat`.  It shares
        the run loops' one per-cycle mask test with the interval
        telemetry sampler (see :meth:`_observer_mask`), so attaching one
        adds only a sample every ``heartbeat.interval`` cycles.  The
        heartbeat also gets a handle on that sampler, so progress lines
        show the latest interval's simulated IPC and kernel-cycle share
        alongside host rates.
        """
        heartbeat.timeline = self.probe_timeline
        self.heartbeat = heartbeat

    def attach_watchdog(self, stall_cycles: int) -> None:
        """Abort with :class:`NoProgressError` if *stall_cycles* elapse
        without a single instruction retiring.

        Detection is cycle-driven (the run proceeds in ``stall_cycles``
        chunks and compares retired counts between chunks), so it is
        deterministic and adds nothing to the per-cycle hot loop; a
        stall is reported within ``2 * stall_cycles`` cycles of onset.
        Until one is attached (the default) ``run()`` is unchanged.
        """
        if stall_cycles < 1:
            raise ValueError(
                f"watchdog stall_cycles must be >= 1, got {stall_cycles}")
        self.watchdog_cycles = stall_cycles

    def close(self) -> None:
        """Release the machine: drop the references that make it one
        reference cycle, so that it is freed by reference counting as
        soon as its owner lets go of it, not by a later pass of the
        cyclic garbage collector.

        A machine does this by itself when its last reference goes (a
        :func:`weakref.finalize` registered by ``__init__``), and at
        interpreter exit; call it to release a machine that something
        else still holds, such as a failed job's traceback.

        The kernel and the workload drop their back-references
        (:meth:`MiniDUX.close <repro.os_model.kernel.MiniDUX.close>`,
        :meth:`Workload.close <repro.workloads.base.Workload.close>`);
        nothing else is touched, so counters, results and artifacts
        read before or after stay as they were.  Running a closed
        machine raises.  Closing twice does nothing.
        """
        self._finalizer()

    def run(
        self,
        max_instructions: int = 300_000,
        max_cycles: int | None = None,
    ) -> SimResult:
        """Run until *max_instructions* retire (or *max_cycles* elapse).

        A mask test per cycle drives the attached observers, interval
        telemetry and heartbeat (see :meth:`_observer_mask`).  With a
        watchdog attached (:meth:`attach_watchdog`), the run is chunked
        at watchdog granularity -- chunked runs retire exactly the same
        instruction stream -- and raises :class:`NoProgressError` when a
        full chunk retires nothing.
        """
        return self._watched(self._run_once, max_instructions, max_cycles,
                             "cycles")

    def _watched(self, run_once, max_instructions: int,
                 max_cycles: int | None, unit: str) -> SimResult:
        """Drive ``run_once(max_instructions, max_cycles)`` under the
        watchdog: both tiers' run loops go through this one chunk loop.
        *unit* names the stalled cycles in the :class:`NoProgressError`
        message."""
        if self.closed:
            raise RuntimeError("cannot run a closed simulation")
        if self.watchdog_cycles is None:
            return run_once(max_instructions, max_cycles)
        limit_cycles = max_cycles if max_cycles is not None else (1 << 62)
        interval = self.watchdog_cycles
        while True:
            before = self.stats.retired
            chunk_limit = min(limit_cycles, self._now + interval)
            result = run_once(max_instructions, chunk_limit)
            if self.stats.retired >= max_instructions or self._now >= limit_cycles:
                return result
            if self.stats.retired == before:
                raise NoProgressError(
                    f"no instruction retired for {interval:,} {unit} "
                    f"(cycle {self._now:,}, retired {self.stats.retired:,})",
                    cycle=self._now, retired=self.stats.retired,
                    snapshot=self.obs.snapshot())

    def _observer_mask(self) -> int:
        """The mask of the run loops' one per-cycle test.

        Both run loops call :meth:`_observe` when ``now & mask == 0``.
        The interval telemetry sampler and the heartbeat both sample on
        power-of-two intervals, so the finer of their masks marks every
        boundary of either.
        """
        mask = self.probe_timeline.mask
        if self.heartbeat is not None:
            mask = min(mask, self.heartbeat.mask)
        return mask

    def _observe(self, now: int) -> None:
        """Sample whichever observer is due at cycle *now*."""
        timeline = self.probe_timeline
        if now & timeline.mask == 0:
            timeline.tick(now)
        heartbeat = self.heartbeat
        if heartbeat is not None and now & heartbeat.mask == 0:
            heartbeat.beat(now, self.stats)

    def _run_once(self, max_instructions: int,
                  max_cycles: int | None) -> SimResult:
        os_tick = self.os.tick
        cycle = self.processor.cycle
        stats = self.stats
        tick_interval = self.tick_interval
        now = self._now
        limit_cycles = max_cycles if max_cycles is not None else (1 << 62)
        observe = self._observe
        mask = self._observer_mask()
        # Align cycle charging with the detailed tier's view: the pipeline
        # charges ctx.current_path until the next _admit, so any fast-leg
        # intervals still open are settled and charging resumes on the
        # context's stored path.  Idempotent (one string compare per
        # context) when already aligned.
        switch = self.attrib.switch
        for c in self.processor.contexts:
            switch(c.index, c.current_path)
        while stats.retired < max_instructions and now < limit_cycles:
            if now % tick_interval == 0:
                os_tick(now)
            cycle(now)
            now += 1
            if now & mask == 0:
                observe(now)
        self._now = now
        return self._result()

    def _result(self) -> SimResult:
        return SimResult(
            machine=self.machine,
            stats=self.stats,
            hierarchy=self.hierarchy,
            os=self.os,
            processor=self.processor,
            workload=self.workload,
            os_mode=self.os_mode,
            cycles=self._now,
        )

    def to_artifact(self, startup: dict, steady: dict, total: dict,
                    spec_extra: dict | None = None,
                    mode: str = "full",
                    sampling: dict | None = None):
        """Freeze this simulation into a plain-data run artifact.

        ``startup``/``steady``/``total`` are the counter windows produced
        by :func:`repro.analysis.snapshot.diff`; ``spec_extra`` adds
        identifying labels (workload/cpu/os_mode names, instruction
        budget) on top of the full config fingerprint in ``self.params``.
        The artifact is flagged ``"timeline_truncated"`` when the
        interval telemetry hit its sample cap.  ``mode`` and
        ``sampling`` record the execution tier and its leg plan /
        extrapolation for tiered runs.
        """
        from repro.analysis.artifact import RunArtifact

        spec = dict(spec_extra or {})
        spec["params"] = self.params
        marks = sorted(
            [name, label, cycle]
            for (name, label), cycle in self.os.marks.items()
        )
        timeline = self.probe_timeline
        flags = ["timeline_truncated"] if timeline.dropped else []
        return RunArtifact(
            spec=spec,
            n_contexts=self.machine.cpu.n_contexts,
            cycles=self.stats.cycles,
            marks=marks,
            startup=startup,
            steady=steady,
            total=total,
            flags=flags,
            mode=mode,
            sampling=sampling,
            probe_timeline=timeline.to_record(),
        )
