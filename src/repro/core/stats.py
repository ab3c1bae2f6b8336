"""Simulation statistics.

Collects everything the paper's tables and figures need:

* retired-instruction counts by mode and category, plus physical-address
  memory ops and taken conditional branches by mode (Tables 2 and 5);
* *cycle* attribution: each cycle, each hardware context charges its
  cycle to the call path it is running (:class:`Attribution`), so slow
  (stall-heavy) services weigh more than their instruction counts
  (Figures 1-7); the per-service and per-mode-class totals are folds of
  that one account;
* fetch/issue utilization: 0-fetch, 0-issue and max-issue cycles, average
  fetchable contexts, squash counts (Tables 4 and 6).

The time-series figures (1 and 5) fold by mode class the per-service
columns that :class:`repro.obs.timeline.ProbeTimeline` samples every
interval.
"""

from __future__ import annotations

import weakref

from repro.isa.types import InstrType, Mode

#: Mode classes used by the time-series figures.
CLASS_USER = 0
CLASS_KERNEL = 1
CLASS_PAL = 2
CLASS_IDLE = 3

CLASS_NAMES = ("user", "kernel", "pal", "idle")

#: Probe-name segments of the execution modes and instruction types, in
#: enum order: ``core.mix.<mode>.<type>``, ``core.phys_mem.<mode>`` and
#: ``core.cond_taken.<mode>`` (see :meth:`SimStats.register_probes`).
MODE_NAMES = tuple(mode.name.lower() for mode in Mode)
ITYPE_NAMES = tuple(itype.name.lower() for itype in InstrType)

# Enum members bound once: retire() tests them per instruction.
_LOAD = InstrType.LOAD
_STORE = InstrType.STORE
_SYNC = InstrType.SYNC
_COND_BRANCH = InstrType.COND_BRANCH

_SERVICE_CLASS_CACHE: dict[str, int] = {}


def service_class(service: str) -> int:
    """Map an attribution label to user/kernel/pal/idle."""
    cls = _SERVICE_CLASS_CACHE.get(service)
    if cls is None:
        if service == "user":
            cls = CLASS_USER
        elif service == "idle":
            cls = CLASS_IDLE
        elif service.startswith("pal:"):
            cls = CLASS_PAL
        else:
            cls = CLASS_KERNEL
        _SERVICE_CLASS_CACHE[service] = cls
    return cls


def leaf_totals(paths: dict[str, float]) -> dict[str, float]:
    """Cycles grouped by each path's leaf frame (its charged service),
    sorted by service name.

    Every path's leaf is the service charged over the same cycles, so
    this fold of :attr:`Attribution.path_cycles` *is* the per-service
    cycle account (:attr:`SimStats.service_cycles`).
    """
    out: dict[str, float] = {}
    for path, cycles in paths.items():
        leaf = path.rsplit(";", 1)[-1]
        out[leaf] = out.get(leaf, 0) + cycles
    return dict(sorted(out.items()))


class SimStats:
    """Mutable statistics accumulator for one simulation.

    Cycle attribution lives in :attr:`attrib`, built here so that a
    processor driven without a :class:`~repro.core.simulator.Simulation`
    still charges every cycle.  *threads_by_tid* is the kernel's thread
    table; without one, a call path is just its service.
    """

    def __init__(self, n_contexts: int,
                 threads_by_tid: dict | None = None) -> None:
        self.n_contexts = n_contexts

        self.cycles = 0
        self.fetched = 0
        self.squashed = 0
        self.retired = 0

        # Retired-instruction breakdowns.  Per-mode totals, memory ops
        # and conditional branches are folds of ``itype_by_mode``.
        self.itype_by_mode: dict[tuple[int, int], int] = {}
        self.phys_mem_by_mode = [0, 0, 0]  # USER, KERNEL, PAL
        self.cond_taken_by_mode = [0, 0, 0]

        #: The one cycle account: context-cycles per call path.  The
        #: kernel's table fills as threads spawn, so it is kept, not copied.
        if threads_by_tid is None:
            threads_by_tid = {}
        self.attrib = Attribution(self, n_contexts, threads_by_tid)

        # Fetch/issue utilization.
        self.zero_fetch_cycles = 0
        self.zero_issue_cycles = 0
        self.max_issue_cycles = 0
        self.fetchable_context_sum = 0
        self.queue_full_stalls = 0
        self.inflight_limit_stalls = 0

    def register_probes(self, registry) -> None:
        """Register the counters of this account under ``core.*``.

        The retired-instruction mix is one probe per (mode, type) seen,
        ``core.mix.<mode>.<type>``; physical-address memory ops and taken
        conditional branches are ``core.phys_mem.<mode>`` and
        ``core.cond_taken.<mode>``.  Per-mode totals, memory ops and
        conditional branches are folds of the mix.
        """
        for name in ("retired", "fetched", "squashed", "zero_fetch_cycles",
                     "zero_issue_cycles", "max_issue_cycles",
                     "queue_full_stalls", "inflight_limit_stalls",
                     "fetchable_context_sum"):
            registry.derive(f"core.{name}",
                            lambda n=name: getattr(self, n))
        registry.derive_map("core.mix", lambda: {
            f"{MODE_NAMES[mode]}.{ITYPE_NAMES[itype]}": count
            for (mode, itype), count in self.itype_by_mode.items()})
        for mode, label in enumerate(MODE_NAMES):
            registry.derive(f"core.phys_mem.{label}",
                            lambda m=mode: self.phys_mem_by_mode[m])
            registry.derive(f"core.cond_taken.{label}",
                            lambda m=mode: self.cond_taken_by_mode[m])

    # -- cycle attribution ------------------------------------------------------

    @property
    def service_cycles(self) -> dict[str, int]:
        """Context-cycles per service, settled to :attr:`cycles`: the
        path account folded by leaf, sorted by service name."""
        self.attrib.flush()
        return leaf_totals(self.attrib.path_cycles)

    @property
    def class_cycles(self) -> list[int]:
        """Context-cycles per mode class, settled to :attr:`cycles`."""
        out = [0, 0, 0, 0]
        for service, cycles in self.service_cycles.items():
            out[service_class(service)] += cycles
        return out

    # -- per-cycle hooks ------------------------------------------------------

    def charge_cycle(self) -> None:
        """Charge one cycle to every context's open call path."""
        self.cycles += 1

    def charge_cycles(self, count: int) -> None:
        """Charge *count* cycles to every context's open call path.

        The fast-forward tier charges each nominal cycle and each block
        of width-debt cycles (where no architectural state changes)
        through this; equivalent to *count* calls of
        :meth:`charge_cycle`.
        """
        self.cycles += count

    # -- retirement -------------------------------------------------------------

    def retire(self, instr) -> None:
        """Account one retired instruction."""
        self.retired += 1
        mode = instr.mode
        itype = instr.itype
        key = (mode, itype)
        by_type = self.itype_by_mode
        by_type[key] = by_type.get(key, 0) + 1
        if itype is _LOAD or itype is _STORE or itype is _SYNC:
            if instr.phys:
                self.phys_mem_by_mode[mode] += 1
        elif itype is _COND_BRANCH and instr.taken:
            self.cond_taken_by_mode[mode] += 1

    def retire_bulk(self, instr, count: int) -> None:
        """Account *count* retired instructions represented by *instr*.

        The fast-functional tier's bulk accounting: a materialized
        instruction standing for ``count`` i.i.d. draws from the same
        code-model mix charges every breakdown ``count`` times.
        """
        if count == 1:
            self.retire(instr)
            return
        self.retired += count
        mode = instr.mode
        itype = instr.itype
        key = (mode, itype)
        self.itype_by_mode[key] = self.itype_by_mode.get(key, 0) + count
        if itype is _LOAD or itype is _STORE or itype is _SYNC:
            if instr.phys:
                self.phys_mem_by_mode[mode] += count
        elif itype is _COND_BRANCH and instr.taken:
            self.cond_taken_by_mode[mode] += count

    # -- derived metrics --------------------------------------------------------

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle."""
        return self.retired / self.cycles if self.cycles else 0.0

    @property
    def squash_fraction(self) -> float:
        """Squashed instructions as a fraction of instructions fetched."""
        return self.squashed / self.fetched if self.fetched else 0.0

    @property
    def avg_fetchable_contexts(self) -> float:
        """Mean number of contexts eligible to fetch per cycle."""
        return self.fetchable_context_sum / self.cycles if self.cycles else 0.0

    def cycle_share(self, service_prefix: str) -> float:
        """Fraction of context-cycles charged to services with a prefix."""
        services = self.service_cycles
        total = sum(services.values())
        if not total:
            return 0.0
        matched = sum(
            v for k, v in services.items() if k.startswith(service_prefix)
        )
        return matched / total

    def class_share(self, cls: int) -> float:
        """Fraction of context-cycles in a mode class (user/kernel/pal/idle)."""
        classes = self.class_cycles
        total = sum(classes)
        return classes[cls] / total if total else 0.0

    def mode_instruction_mix(self, mode: Mode) -> dict[InstrType, float]:
        """Retired-instruction category shares within one mode."""
        counts = {itype: count for (m, itype), count
                  in self.itype_by_mode.items() if m == mode}
        total = sum(counts.values())
        if not total:
            return {}
        return {itype: count / total for itype, count in counts.items()}

    def service_cycle_shares(self) -> dict[str, float]:
        """Every service's share of total context-cycles."""
        services = self.service_cycles
        total = sum(services.values())
        if not total:
            return {}
        return {k: v / total for k, v in services.items()}


class Attribution:
    """Simulated-cycle call-path attribution.

    Charges every context-cycle to a *call path*: the chain of open
    kernel-service spans on the running software thread
    (:meth:`repro.os_model.thread.SoftwareThread.service_path`) with the
    charged service as the leaf, joined with ``;`` -- e.g.
    ``syscall:read;tlb:refill;pal:dtlb``.  Folding :attr:`path_cycles`
    yields a flamegraph of simulated time (:mod:`repro.obs.flame`).

    This is the simulation's only cycle account.  The flat counters
    are its folds: :attr:`SimStats.service_cycles` groups paths by leaf
    (:func:`leaf_totals`) and :attr:`SimStats.class_cycles` groups those
    by :func:`service_class`.  That is exact because a path's leaf is
    always the service charged over the same cycles.

    Accounting is *interval-based*: a context's path is re-derived only
    when its charged service changes, at three sites -- the pipeline's
    admit stage, the fast tier's per-cycle service scan, and the
    alignment sweep that opens every detailed leg -- and the cycles in
    between are charged in one block using :attr:`SimStats.cycles`
    deltas.  Every charge call (:meth:`SimStats.charge_cycle` /
    :meth:`SimStats.charge_cycles`) advances ``cycles`` once and charges
    *every* context, so a per-context interval in ``cycles`` units is
    precisely the number of context-cycles charged to it.
    """

    def __init__(self, stats: SimStats, n_contexts: int,
                 threads_by_tid: dict) -> None:
        #: The clock (``cycles``) of the stats that own this account.  A
        #: weak proxy: a strong link back would make the pair a reference
        #: cycle, which only the cyclic garbage collector frees.
        self.stats = weakref.proxy(stats)
        self._threads = threads_by_tid
        #: Context-cycles charged per ``;``-joined call path.
        self.path_cycles: dict[str, int] = {}
        self._cur = ["idle"] * n_contexts
        self._start = [0] * n_contexts

    def path_of(self, tid: int, service: str) -> str:
        """The call path for *service* run by thread *tid* right now."""
        thread = self._threads.get(tid)
        if thread is None:
            return service
        return thread.service_path(service)

    def switch(self, ctx: int, path: str) -> None:
        """Settle the open interval of *ctx* and start charging *path*.

        The charged path is the one open at the end of a cycle: a switch
        made during a cycle covers that cycle.  Idempotent when the path
        is unchanged, so alignment sweeps at tier/leg boundaries cost one
        string compare per context.
        """
        cur = self._cur[ctx]
        if path == cur:
            return
        cycles = self.stats.cycles
        elapsed = cycles - self._start[ctx]
        if elapsed:
            pc = self.path_cycles
            pc[cur] = pc.get(cur, 0) + elapsed
        self._cur[ctx] = path
        self._start[ctx] = cycles

    def flush(self) -> None:
        """Settle every context's open interval at the current cycle."""
        cycles = self.stats.cycles
        pc = self.path_cycles
        start = self._start
        for ctx, cur in enumerate(self._cur):
            elapsed = cycles - start[ctx]
            if elapsed:
                pc[cur] = pc.get(cur, 0) + elapsed
                start[ctx] = cycles

    def snapshot(self) -> dict[str, int]:
        """Settled ``{path: context_cycles}``, sorted (determinism)."""
        self.flush()
        return dict(sorted(self.path_cycles.items()))
