"""The cycle-driven SMT / superscalar core.

Each cycle runs, in reverse pipeline order:

1. **resolve** -- branch mispredictions whose execution completed this cycle
   squash all younger instructions of their context; the squashed
   correct-path instructions are handed back to the context stream for
   replay (our wrong-path model: the front end keeps fetching and the work
   is thrown away at resolution, costing exactly the fetch/queue/execute
   bandwidth the paper's squash statistics measure);
2. **retire** -- in order per context, up to 12 total per cycle;
3. **issue** -- ready instructions leave the shared 32-entry integer/FP
   queues for the functional units (6 integer of which 4 load/store and 2
   synchronization, 4 FP); memory operations access the cache hierarchy at
   issue and complete when the hierarchy says so;
4. **fetch** -- the ICOUNT-2.8 policy picks the two least-loaded fetchable
   contexts and fetches up to 8 instructions total, stopping a context's
   fetch block at a predicted-taken branch, an I-cache miss, a full queue,
   or the renaming-register limit.
"""

from __future__ import annotations

import heapq
import random

from repro.branch.unit import BranchUnit
from repro.core.config import CPUConfig
from repro.core.stats import SimStats
from repro.isa.instruction import (
    Instruction,
    ST_COMPLETED,
    ST_FETCHED,
    ST_QUEUED,
    ST_RETIRED,
    ST_SQUASHED,
)
from repro.isa.types import InstrType
from repro.memory.classify import MODE_KIND
from repro.memory.hierarchy import MemoryHierarchy

# Enum members bound once: looking one up on its class costs several
# times a module-global read, and the hot path does it per instruction.
_LOAD = InstrType.LOAD
_STORE = InstrType.STORE
_SYNC = InstrType.SYNC
_FP_ALU = InstrType.FP_ALU


class _HWContext:
    """Per-hardware-context pipeline state."""

    __slots__ = (
        "index",
        "stream",
        "rob",
        "blocked_until",
        "fetch_buffer",
        "last_line",
        "queued",
        "current_service",
        "current_path",
    )

    def __init__(self, index: int, stream) -> None:
        self.index = index
        self.stream = stream
        self.rob: list[Instruction] = []
        self.blocked_until = 0
        self.fetch_buffer: Instruction | None = None
        self.last_line = -1
        self.queued = 0
        self.current_service = "idle"
        #: Call path being charged for this context's cycles; its leaf is
        #: always ``current_service`` (see repro.core.stats.Attribution).
        self.current_path = "idle"


class Processor:
    """The simulated CPU core (see module docstring)."""

    def __init__(
        self,
        config: CPUConfig,
        streams,
        hierarchy: MemoryHierarchy,
        stats: SimStats,
        rng: random.Random,
        registry=None,
    ) -> None:
        if len(streams) != config.n_contexts:
            raise ValueError("one instruction stream per hardware context required")
        self.config = config
        self.hierarchy = hierarchy
        self.stats = stats
        self.rng = rng
        self.branch_unit = BranchUnit(config.n_contexts, config.ras_depth,
                                      config.btb_entries, config.btb_assoc,
                                      config.per_context_history)
        self.contexts = [_HWContext(i, s) for i, s in enumerate(streams)]
        #: Derived config values, computed once (both are properties).
        self._decode_delay = config.decode_delay
        self._inflight_limit = config.inflight_limit
        #: Contexts eligible to fetch this cycle, refilled by _fetch.
        self._eligible: list[_HWContext] = []
        #: Fetch-priority policy: ICOUNT, or round robin (ablation).
        self._icount = config.fetch_policy == "icount"
        self.int_queue: list[Instruction] = []
        self.fp_queue: list[Instruction] = []
        self.int_count = 0
        self.fp_count = 0
        self.inflight = 0
        self._resolves: list[tuple[int, int, Instruction]] = []
        self._event_id = 0
        self._seq = 0
        self._line_shift = hierarchy.config.line_size.bit_length() - 1
        self._rr_cursor = 0  # round-robin fetch rotation (ablation policy)
        #: Optional EventBus (see repro.obs.events); None = no events.
        self.events = None
        #: The cycle account (see repro.core.stats.Attribution).
        self.attrib = stats.attrib
        if registry is not None:
            self.register_probes(registry)

    def register_probes(self, registry) -> None:
        """Register the core's probe subtree (``core.*`` and ``branch.*``)."""
        self.stats.register_probes(registry)
        self.branch_unit.register_probes(registry)

    # -- top level -----------------------------------------------------------

    def cycle(self, now: int) -> None:
        """Advance the machine by one cycle."""
        if self._resolves:
            self._resolve(now)
        self._retire(now)
        self._issue(now)
        self._fetch(now)
        self.stats.charge_cycle()

    # -- branch resolution / squash --------------------------------------------

    def _resolve(self, now: int) -> None:
        resolves = self._resolves
        while resolves and resolves[0][0] <= now:
            _, _, instr = heapq.heappop(resolves)
            if instr.state == ST_SQUASHED:
                continue
            self._squash_after(instr, now)

    def _squash_after(self, branch: Instruction, now: int) -> None:
        """Squash every instruction younger than *branch* in its context."""
        ctx = self.contexts[branch.ctx]
        rob = ctx.rob
        # Find the branch position from the tail (younger instructions are
        # nearer the end and squashes are usually shallow from the back).
        idx = len(rob) - 1
        while idx >= 0 and rob[idx] is not branch:
            idx -= 1
        if idx < 0:
            return  # branch already retired (resolution raced retirement)
        replay = rob[idx + 1:]
        del rob[idx + 1:]
        for v in replay:
            if v.state == ST_QUEUED:
                ctx.queued -= 1
                if v.itype is _FP_ALU:
                    self.fp_count -= 1
                else:
                    self.int_count -= 1
            # Leave the state as SQUASHED: the stale issue-queue entry is
            # dropped lazily at the next scan (re-admission assigns a fresh
            # seq, so even an already-replayed object is recognizably stale).
            v.state = ST_SQUASHED
            v.completion = -1
            self.inflight -= 1
        # Squash statistics count fetched-then-discarded instructions; a
        # buffered-but-never-admitted instruction is replayed but was never
        # fetched into the pipeline, so it does not count.
        self.stats.squashed += len(replay)
        if self.events is not None and replay:
            self.events.emit(now, "pipeline", "squash", ctx=ctx.index,
                             service=branch.service,
                             args={"count": len(replay)})
        if ctx.fetch_buffer is not None:
            victim = ctx.fetch_buffer
            victim.state = ST_SQUASHED
            victim.completion = -1
            replay.append(victim)
            ctx.fetch_buffer = None
        if replay:
            ctx.stream.push_replay(replay)

    # -- tier transitions ---------------------------------------------------------

    def flush_to_streams(self) -> int:
        """Drain every in-flight instruction back to its context stream.

        Used at a detailed-to-fast tier transition (see
        :mod:`repro.core.engine`): un-retired instructions in the ROBs,
        issue queues and fetch buffers are marked squashed and pushed back
        for replay -- the next leg re-delivers and retires them, so the
        retired instruction stream stays gap-free across the transition.
        Unlike a misprediction squash this is bookkeeping, not a modeled
        hardware event, so ``stats.squashed`` is not charged (the engine
        counts it under ``core.mode.flushed_instructions`` instead).
        Returns the number of instructions handed back.
        """
        flushed = 0
        for ctx in self.contexts:
            replay = []
            for v in ctx.rob:
                v.state = ST_SQUASHED
                v.completion = -1
                replay.append(v)
            ctx.rob.clear()
            if ctx.fetch_buffer is not None:
                v = ctx.fetch_buffer
                v.state = ST_SQUASHED
                v.completion = -1
                replay.append(v)
                ctx.fetch_buffer = None
            ctx.queued = 0
            ctx.last_line = -1
            ctx.blocked_until = 0
            if replay:
                ctx.stream.push_replay(replay)
                flushed += len(replay)
        self.int_queue.clear()
        self.fp_queue.clear()
        self.int_count = 0
        self.fp_count = 0
        self.inflight = 0
        self._resolves.clear()
        return flushed

    # -- retirement ---------------------------------------------------------------

    def _retire(self, now: int) -> None:
        budget = self.config.retire_width
        resolve = self.branch_unit.resolve
        retire = self.stats.retire
        for ctx in self.contexts:
            rob = ctx.rob
            done = 0
            for instr in rob:
                if budget == 0 or instr.state != ST_COMPLETED \
                        or instr.completion > now:
                    break
                instr.state = ST_RETIRED
                retire(instr)
                if instr.itype in _TRAINABLE:
                    resolve(instr, ctx.index)
                done += 1
                budget -= 1
            if done:
                del rob[:done]
                self.inflight -= done
            if budget == 0:
                break

    # -- issue ------------------------------------------------------------------

    def _issue(self, now: int) -> None:
        """Issue ready instructions from the integer and FP queues.

        Both queues are in fetch order (``_admit`` appends with
        ``fetch_cycle = now`` and each scan keeps survivors in order), so
        a scan stops at the first live entry still in decode -- every
        later entry is younger -- or once every unit is used, and the
        unscanned tail carries over unchanged.  Survivors are compacted
        in place.  Stale entries (squashed, or replayed and re-admitted
        under a new seq) are dropped when a scan passes them.
        """
        cfg = self.config
        int_units = cfg.int_units
        ls_units = cfg.ls_units
        ready_by = now - self._decode_delay  # fetched no later than this
        issued_int = issued_ls = issued_sync = issued_fp = 0
        hierarchy = self.hierarchy
        contexts = self.contexts

        queue = self.int_queue
        kept = 0
        scanned = 0
        for entry in queue:
            tag, instr = entry
            if instr.seq != tag or instr.state != ST_QUEUED:
                scanned += 1
                continue  # stale (squashed or replayed-and-readmitted)
            if instr.fetch_cycle > ready_by:
                break
            scanned += 1
            producer = instr.producer
            if producer is not None and (
                producer.state in (ST_QUEUED, ST_FETCHED, ST_SQUASHED)
                or (producer.state == ST_COMPLETED and producer.completion > now)
            ):
                queue[kept] = entry
                kept += 1
                continue
            itype = instr.itype
            if itype is _LOAD:
                if issued_ls >= ls_units:
                    queue[kept] = entry
                    kept += 1
                    continue
                latency = hierarchy.data_access(
                    now, instr.addr, instr.thread_id, MODE_KIND[instr.mode],
                    False).latency
                instr.completion = now + instr.latency + latency
                issued_ls += 1
            elif itype is _STORE:
                if issued_ls >= ls_units:
                    queue[kept] = entry
                    kept += 1
                    continue
                hierarchy.data_access(
                    now, instr.addr, instr.thread_id, MODE_KIND[instr.mode],
                    True)
                instr.completion = hierarchy.store_complete(now)
                issued_ls += 1
            elif itype is _SYNC:
                if issued_sync >= cfg.sync_units or issued_ls >= ls_units:
                    queue[kept] = entry
                    kept += 1
                    continue
                latency = hierarchy.data_access(
                    now, instr.addr, instr.thread_id, MODE_KIND[instr.mode],
                    True).latency
                instr.completion = now + instr.latency + latency
                issued_sync += 1
                issued_ls += 1
            else:
                instr.completion = now + instr.latency
            instr.state = ST_COMPLETED
            contexts[instr.ctx].queued -= 1
            self.int_count -= 1
            if instr.predicted_target != instr.target and itype in _BRANCHES:
                self._event_id += 1
                heapq.heappush(self._resolves,
                               (instr.completion, self._event_id, instr))
            issued_int += 1
            if issued_int >= int_units:
                break
        if kept < scanned:
            del queue[kept:scanned]

        queue = self.fp_queue
        if queue:
            fp_units = cfg.fp_units
            kept = 0
            scanned = 0
            for entry in queue:
                tag, instr = entry
                if instr.seq != tag or instr.state != ST_QUEUED:
                    scanned += 1
                    continue
                if instr.fetch_cycle > ready_by:
                    break
                scanned += 1
                producer = instr.producer
                if producer is not None and (
                    producer.state in (ST_QUEUED, ST_FETCHED, ST_SQUASHED)
                    or (producer.state == ST_COMPLETED and producer.completion > now)
                ):
                    queue[kept] = entry
                    kept += 1
                    continue
                instr.completion = now + instr.latency
                instr.state = ST_COMPLETED
                contexts[instr.ctx].queued -= 1
                self.fp_count -= 1
                issued_fp += 1
                if issued_fp >= fp_units:
                    break
            if kept < scanned:
                del queue[kept:scanned]

        total = issued_int + issued_fp
        if total == 0:
            self.stats.zero_issue_cycles += 1
        elif total >= int_units:
            self.stats.max_issue_cycles += 1

    # -- fetch ------------------------------------------------------------------

    def _fetch(self, now: int) -> None:
        cfg = self.config
        stats = self.stats
        eligible = self._eligible
        eligible.clear()
        for c in self.contexts:
            if c.blocked_until <= now:
                eligible.append(c)
        stats.fetchable_context_sum += len(eligible)
        if not eligible or self.inflight >= self._inflight_limit:
            if self.inflight >= self._inflight_limit:
                stats.inflight_limit_stalls += 1
            stats.zero_fetch_cycles += 1
            return
        # Rotate the tie-break every cycle: with a stable sort alone, equal
        # ICOUNTs would always elect the same two contexts, starving others
        # (e.g. a context whose peers currently produce no instructions).
        self._rr_cursor = (self._rr_cursor + 1) % cfg.n_contexts
        # Contexts spinning in the kernel idle loop are fetched only when
        # nothing else is eligible: the idle loop's short dependence-free
        # stream would otherwise win ICOUNT priority and starve real work --
        # exactly the SMT resource waste the paper flags ("the idle loop ...
        # can waste resources on an SMT").
        # The key is bound per cycle, not stored: a bound method kept on
        # the processor would make it a reference cycle.
        eligible.sort(key=self._icount_key if self._icount else self._rr_key)
        slots = cfg.fetch_width
        fetched = 0
        providers = 0
        for ctx in eligible:
            if providers >= cfg.fetch_contexts:
                break
            slots_used, stop = self._fetch_from(ctx, now, slots)
            if slots_used:
                providers += 1  # only delivering contexts consume a port
                fetched += slots_used
                slots -= slots_used
            if slots <= 0 or stop:
                break
        stats.fetched += fetched
        if fetched == 0:
            stats.zero_fetch_cycles += 1

    def _icount_key(self, c: _HWContext) -> tuple[bool, int, int]:
        return (c.current_service == "idle", c.queued,
                (c.index - self._rr_cursor) % self.config.n_contexts)

    def _rr_key(self, c: _HWContext) -> tuple[bool, int]:  # ablation policy
        return (c.current_service == "idle",
                (c.index - self._rr_cursor) % self.config.n_contexts)

    def _fetch_from(self, ctx: _HWContext, now: int, slots: int) -> tuple[int, bool]:
        """Fetch up to *slots* instructions from one context.

        Returns (instructions fetched, global-stop flag).  The global stop
        is raised when the in-flight limit is reached.
        """
        cfg = self.config
        hierarchy = self.hierarchy
        inflight_limit = self._inflight_limit
        fetched = 0
        while fetched < slots:
            if self.inflight >= inflight_limit:
                return fetched, True
            instr = ctx.fetch_buffer
            if instr is not None:
                ctx.fetch_buffer = None
            else:
                instr = ctx.stream.next_instruction(now)
                if instr is None:
                    break
            # Queue admission check before anything else.
            if instr.itype is _FP_ALU:
                if self.fp_count >= cfg.fp_queue:
                    ctx.fetch_buffer = instr
                    self.stats.queue_full_stalls += 1
                    break
            elif self.int_count >= cfg.int_queue:
                ctx.fetch_buffer = instr
                self.stats.queue_full_stalls += 1
                break
            # Instruction cache access on line crossing.
            line = instr.pc >> self._line_shift
            if line != ctx.last_line:
                latency = hierarchy.inst_access(
                    now, instr.pc, instr.thread_id, MODE_KIND[instr.mode]).latency
                ctx.last_line = line
                if latency > 0:
                    ctx.blocked_until = now + latency
                    ctx.fetch_buffer = instr
                    break
            self._admit(ctx, instr, now)
            fetched += 1
            if instr.itype in _BRANCH_SET and instr.predicted_taken:
                break  # fetch block ends at a predicted-taken branch
        return fetched, False

    def _admit(self, ctx: _HWContext, instr: Instruction, now: int) -> None:
        first_fetch = instr.seq == -1
        self._seq += 1
        instr.seq = self._seq
        instr.ctx = ctx.index
        instr.state = ST_QUEUED
        instr.fetch_cycle = now
        if instr.itype in _BRANCH_SET:
            prediction = self.branch_unit.predict(instr, ctx.index, count=first_fetch)
            instr.predicted_taken = prediction.taken
            instr.predicted_target = prediction.next_pc
        else:
            instr.predicted_taken = False
            instr.predicted_target = instr.target  # never "mispredicted"
        # Probabilistic dependence on the previous instruction of the same
        # context's ROB tail models the register dataflow chain.
        rob = ctx.rob
        instr.producer = rob[-1] if (instr.dep and rob) else None
        rob.append(instr)
        if instr.itype is _FP_ALU:
            self.fp_queue.append((instr.seq, instr))
            self.fp_count += 1
        else:
            self.int_queue.append((instr.seq, instr))
            self.int_count += 1
        ctx.queued += 1
        self.inflight += 1
        if instr.service != ctx.current_service:
            if self.events is not None:
                # Per-context service-occupancy spans: close the old
                # service's span and open the new one (exported as one
                # track per ctx).
                self.events.emit(now, "pipeline", ctx.current_service, "E",
                                 ctx=ctx.index, service=ctx.current_service)
                self.events.emit(now, "pipeline", instr.service, "B",
                                 ctx=ctx.index, service=instr.service)
            ctx.current_service = instr.service
            # Re-derive the call path only when the charged service
            # changes; the cycles since the last change all belong to the
            # previous path, which switch() settles.
            attrib = self.attrib
            path = attrib.path_of(instr.thread_id, instr.service)
            ctx.current_path = path
            attrib.switch(ctx.index, path)


_BRANCH_SET = frozenset(
    {
        InstrType.COND_BRANCH,
        InstrType.UNCOND_BRANCH,
        InstrType.INDIRECT_JUMP,
        InstrType.CALL,
        InstrType.RETURN,
        InstrType.PAL_CALL,
        InstrType.PAL_RETURN,
    }
)
_BRANCHES = _BRANCH_SET
_TRAINABLE = frozenset(
    {
        InstrType.COND_BRANCH,
        InstrType.UNCOND_BRANCH,
        InstrType.CALL,
        InstrType.INDIRECT_JUMP,
    }
)
