"""Simulation statistics.

Collects everything the paper's tables and figures need:

* retired-instruction counts by mode, service, category, and addressing
  (Tables 2 and 5);
* per-service *cycle* attribution: each cycle, each hardware context charges
  its cycle share to the service it is working on, so slow (stall-heavy)
  services weigh more than their instruction counts (Figures 1-7);
* fetch/issue utilization: 0-fetch, 0-issue and max-issue cycles, average
  fetchable contexts, squash counts (Tables 4 and 6);
* a timeline of mode-class shares for the time-series figures.
"""

from __future__ import annotations

from repro.isa.types import InstrType, Mode

#: Mode classes used by the time-series figures.
CLASS_USER = 0
CLASS_KERNEL = 1
CLASS_PAL = 2
CLASS_IDLE = 3

CLASS_NAMES = ("user", "kernel", "pal", "idle")

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


class SimStats:
    """Mutable statistics accumulator for one simulation."""

    def __init__(self, n_contexts: int, timeline_interval: int = 8192) -> None:
        self.n_contexts = n_contexts
        self.timeline_interval = timeline_interval

        self.cycles = 0
        self.fetched = 0
        self.squashed = 0
        self.retired = 0

        # Retired-instruction breakdowns.
        self.retired_by_mode = [0, 0, 0]  # USER, KERNEL, PAL
        self.itype_by_mode: dict[tuple[int, int], int] = {}
        self.phys_mem_by_mode = [0, 0, 0]
        self.mem_by_mode = [0, 0, 0]
        self.cond_taken_by_mode = [0, 0, 0]
        self.cond_by_mode = [0, 0, 0]
        self.retired_by_service: dict[str, int] = {}

        # Cycle attribution: context-cycles charged per service, settled
        # per interval (see switch); read them through the
        # service_cycles / class_cycles properties, which settle first.
        self._service_cycles: dict[str, int] = {}
        self._class_cycles = [0, 0, 0, 0]
        #: Per context: the service being charged and the cycle its open
        #: interval started.  Contexts start idle, like the core's.
        self._open = ["idle"] * n_contexts
        self._open_start = [0] * n_contexts

        # Fetch/issue utilization.
        self.zero_fetch_cycles = 0
        self.zero_issue_cycles = 0
        self.max_issue_cycles = 0
        self.fetchable_context_sum = 0
        self.queue_full_stalls = 0
        self.inflight_limit_stalls = 0

        # Timeline for Figures 1 and 5: (cycle, per-class share) samples.
        self.timeline: list[tuple[int, tuple[float, float, float, float]]] = []
        self._window = [0, 0, 0, 0]
        self._next_sample = timeline_interval

    # -- cycle attribution ------------------------------------------------------

    @property
    def service_cycles(self) -> dict[str, int]:
        """Context-cycles charged per service, settled to :attr:`cycles`."""
        self.settle()
        return self._service_cycles

    @property
    def class_cycles(self) -> list[int]:
        """Context-cycles per mode class, settled to :attr:`cycles`."""
        self.settle()
        return self._class_cycles

    def switch(self, ctx: int, service: str) -> None:
        """Settle the open interval of *ctx* and start charging *service*.

        Every charge (:meth:`charge_cycle` / :meth:`charge_cycles`)
        advances :attr:`cycles` and charges every context its open
        service, so a context's interval in ``cycles`` units is exactly
        the context-cycles owed to that service.  The charged service
        is the one open at the end of a cycle: a switch made during a
        cycle covers that cycle.  Idempotent when *service* is already
        open.
        """
        cur = self._open[ctx]
        if service == cur:
            return
        cycles = self.cycles
        elapsed = cycles - self._open_start[ctx]
        if elapsed:
            self._charge(cur, elapsed)
        self._open[ctx] = service
        self._open_start[ctx] = cycles

    def settle(self) -> None:
        """Settle every context's open interval at the current cycle."""
        cycles = self.cycles
        start = self._open_start
        for ctx, cur in enumerate(self._open):
            elapsed = cycles - start[ctx]
            if elapsed:
                self._charge(cur, elapsed)
                start[ctx] = cycles

    def _charge(self, service: str, count: int) -> None:
        sc = self._service_cycles
        sc[service] = sc.get(service, 0) + count
        cls = service_class(service)
        self._class_cycles[cls] += count
        self._window[cls] += count

    # -- per-cycle hooks ------------------------------------------------------

    def charge_cycle(self) -> None:
        """Charge one cycle to every context's open service."""
        self.cycles += 1
        if self.cycles >= self._next_sample:
            self._sample()

    def charge_cycles(self, count: int) -> None:
        """Charge *count* cycles to every context's open service.

        The fast-forward tier charges each nominal cycle and each block
        of width-debt cycles (where no architectural state changes)
        through this; equivalent to *count* calls of
        :meth:`charge_cycle` up to timeline-sample alignment (the sample
        lands at the end of the block instead of mid-block).
        """
        self.cycles += count
        if self.cycles >= self._next_sample:
            self._sample()

    def _sample(self) -> None:
        """Append one mode-class share sample and open the next window."""
        self.settle()
        window = self._window
        total = window[0] + window[1] + window[2] + window[3] or 1
        self.timeline.append((self.cycles, (
            window[0] / total, window[1] / total,
            window[2] / total, window[3] / total)))
        window[0] = window[1] = window[2] = window[3] = 0
        self._next_sample = self.cycles + self.timeline_interval

    # -- retirement -------------------------------------------------------------

    def retire(self, instr) -> None:
        """Account one retired instruction."""
        self.retired += 1
        mode = instr.mode
        itype = instr.itype
        self.retired_by_mode[mode] += 1
        key = (mode, itype)
        by_type = self.itype_by_mode
        by_type[key] = by_type.get(key, 0) + 1
        svc = instr.service
        by_service = self.retired_by_service
        by_service[svc] = by_service.get(svc, 0) + 1
        if itype is _LOAD or itype is _STORE or itype is _SYNC:
            self.mem_by_mode[mode] += 1
            if instr.phys:
                self.phys_mem_by_mode[mode] += 1
        elif itype is _COND_BRANCH:
            self.cond_by_mode[mode] += 1
            if instr.taken:
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
        self.retired_by_mode[mode] += count
        key = (mode, instr.itype)
        self.itype_by_mode[key] = self.itype_by_mode.get(key, 0) + count
        svc = instr.service
        self.retired_by_service[svc] = self.retired_by_service.get(svc, 0) + count
        itype = instr.itype
        if itype is _LOAD or itype is _STORE or itype is _SYNC:
            self.mem_by_mode[mode] += count
            if instr.phys:
                self.phys_mem_by_mode[mode] += count
        elif itype is _COND_BRANCH:
            self.cond_by_mode[mode] += count
            if instr.taken:
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
        total = sum(self.service_cycles.values())
        if not total:
            return 0.0
        matched = sum(
            v for k, v in self.service_cycles.items() if k.startswith(service_prefix)
        )
        return matched / total

    def class_share(self, cls: int) -> float:
        """Fraction of context-cycles in a mode class (user/kernel/pal/idle)."""
        total = sum(self.class_cycles)
        return self.class_cycles[cls] / total if total else 0.0

    def mode_instruction_mix(self, mode: Mode) -> dict[InstrType, float]:
        """Retired-instruction category shares within one mode."""
        total = self.retired_by_mode[mode]
        if not total:
            return {}
        return {
            itype: count / total
            for (m, itype), count in self.itype_by_mode.items()
            if m == mode
        }

    def service_cycle_shares(self) -> dict[str, float]:
        """Every service's share of total context-cycles."""
        total = sum(self.service_cycles.values())
        if not total:
            return {}
        return {k: v / total for k, v in self.service_cycles.items()}


class Attribution:
    """Simulated-cycle call-path attribution.

    Charges every context-cycle to a *call path*: the chain of open
    kernel-service spans on the running software thread
    (:meth:`repro.os_model.thread.SoftwareThread.service_path`) with the
    charged service as the leaf, joined with ``;`` -- e.g.
    ``syscall:read;tlb:refill;pal:dtlb``.  Folding :attr:`path_cycles`
    yields a flamegraph of simulated time (:mod:`repro.obs.flame`).

    Accounting is *interval-based*: a context's current path is only
    re-derived when its charged service changes (detailed tier) or once
    per nominal cycle (fast tier), and the cycles in between are charged
    in one block using :attr:`SimStats.cycles` deltas.  That is exact
    because every charge call (:meth:`SimStats.charge_cycle` /
    :meth:`SimStats.charge_cycles`) advances ``cycles`` once and charges
    *every* context, so a per-context interval in ``cycles`` units is
    precisely the number of context-cycles charged to it.

    Invariant (asserted by tests): for every path, the leaf component
    equals the service charged over the same interval, so summing
    ``path_cycles`` grouped by leaf reproduces ``service_cycles``
    exactly.
    """

    def __init__(self, stats: SimStats, n_contexts: int,
                 threads_by_tid: dict) -> None:
        self.stats = stats
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

        Idempotent when the path is unchanged, so alignment sweeps at
        tier/leg boundaries cost one string compare per context.
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
