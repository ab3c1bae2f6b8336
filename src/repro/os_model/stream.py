"""Per-hardware-context instruction streams.

A :class:`ContextStream` is what the fetch unit sees: one instruction feed
per hardware context with *everything* already spliced in --

* squash-recovery replays (correct-path instructions the core squashed on a
  mispredict are re-delivered first),
* interrupt and context-switch frames hosted on the context's CPU
  pseudo-thread,
* the scheduler's choice of software thread, including the idle thread,
* TLB interception: every generated instruction probes the shared ITLB (on
  PC page change) and DTLB (virtual memory operations); a miss defers the
  instruction and splices the refill/allocation handler in front of it,
* spin-lock contention: a thread whose next kernel frame needs a held lock
  emits load-locked/branch spin pairs until the lock frees.
"""

from __future__ import annotations

from collections import deque

from repro.isa.data import PAGE_SHIFT
from repro.isa.instruction import Instruction
from repro.isa.types import InstrType, Mode
from repro.memory.classify import MODE_KIND
from repro.memory.tlb import KERNEL_ASN
from repro.os_model.address_space import is_kernel_address
from repro.os_model.thread import SoftwareThread, ThreadState

# Enum members bound once (a class lookup costs several module-global
# reads; the delivery path does them per instruction).
_KERNEL = Mode.KERNEL
_PAL = Mode.PAL
_SYNC = InstrType.SYNC
_COND_BRANCH = InstrType.COND_BRANCH
_READY = ThreadState.READY
_RUNNING = ThreadState.RUNNING

#: What ``next`` returns for a thread whose behavior generator finished.
_EXHAUSTED = object()


class ContextStream:
    """The OS-composed instruction feed for one hardware context."""

    def __init__(self, os, ctx: int) -> None:
        self.os = os
        self.ctx = ctx
        self.cpu = os.cpu_threads[ctx]
        #: Correct-path instructions squashed by the core, awaiting replay.
        self.replay: deque[Instruction] = deque()
        self._spin_toggle = False

    # -- public feed -------------------------------------------------------

    def next_instruction(self, now: int) -> Instruction | None:
        """Produce the next instruction for this context, or None if the
        context has nothing runnable this cycle."""
        if self.replay:
            return self.replay.popleft()
        os = self.os
        cpu = self.cpu
        if cpu.frames or cpu.pending:
            instr = self._thread_next(cpu, now)
            if instr is not None:
                return instr
        sched = os.scheduler
        if sched.should_resched(self.ctx, now):
            new = sched.pick_next(self.ctx)
            sched.install(self.ctx, new, now)
            if cpu.frames:  # context-switch frames pushed by the OS hook
                instr = self._thread_next(cpu, now)
                if instr is not None:
                    return instr
        thread = sched.current[self.ctx]
        if thread is None:
            return None
        state = thread.state
        if state is not _RUNNING and state is not _READY:
            return None
        return self._thread_next(thread, now)

    def next_fast(self, now: int, skip: int) -> tuple[Instruction | None, int]:
        """Fast-functional feed: one materialized instruction plus the
        *weight* it stands for (see :mod:`repro.core.engine`).

        Identical to :meth:`next_instruction` except that an instruction
        drawn from a started frame may consume up to *skip* additional
        instructions of that frame's budget without materializing them
        -- the returned instruction is an i.i.d. draw from the same
        code-model mix, so weighting it by ``1 + skipped`` keeps every
        retired-instruction statistic unbiased.  Frame *dynamics* are
        stride-independent: locks are acquired at frame start and
        released at completion, and completion (dispatch, wake-ups,
        syscall returns) triggers when the budget reaches zero, which
        skipping reaches with the identical retired-instruction count.
        PAL, spin, replayed and TLB-deferred instructions always
        materialize one-for-one.
        """
        if self.replay:
            return self.replay.popleft(), 1
        os = self.os
        cpu = self.cpu
        if cpu.frames or cpu.pending:
            instr = self._thread_next(cpu, now)
            if instr is not None:
                return instr, 1
        sched = os.scheduler
        if sched.should_resched(self.ctx, now):
            new = sched.pick_next(self.ctx)
            sched.install(self.ctx, new, now)
            if cpu.frames:
                instr = self._thread_next(cpu, now)
                if instr is not None:
                    return instr, 1
        thread = sched.current[self.ctx]
        if thread is None:
            return None, 0
        state = thread.state
        if state is not _RUNNING and state is not _READY:
            return None, 0
        instr = self._thread_next(thread, now)
        if instr is None:
            return None, 0
        if skip and instr.mode is not _PAL and not thread.pending:
            frames = thread.frames
            fr = frames[-1] if frames else None
            if fr is not None and fr.started and fr.budget > skip:
                fr.budget -= skip
                thread.instructions_generated += skip
                return instr, 1 + skip
        return instr, 1

    def push_replay(self, instructions) -> None:
        """Queue squashed correct-path instructions for redelivery, oldest
        first (called by the core on a misprediction squash)."""
        self.replay.extend(instructions)

    @property
    def current_attrib(self) -> tuple[str, str]:
        """``(service, call_path)`` for cycle attribution: the service of
        the CPU pseudo-thread's top frame, else of the scheduled thread's
        top frame ("user" without one, "idle" without a thread), plus
        the owning thread's open span chain with that label as the leaf
        (see :meth:`~repro.os_model.thread.SoftwareThread.service_path`).
        The fast tier's service scan (:func:`repro.core.engine._fast_once`)
        reads the label inline with the same precedence."""
        if self.cpu.frames:
            fr = self.cpu.frames[-1]
            return fr.service, self.cpu.service_path(fr.service)
        thread = self.os.scheduler.current[self.ctx]
        if thread is None:
            return "idle", "idle"
        fr = thread.current_frame
        if fr is None:
            return "user", thread.service_path("user")
        return fr.service, thread.service_path(fr.service)

    # -- thread stepping ------------------------------------------------------

    def _thread_next(self, thread: SoftwareThread, now: int) -> Instruction | None:
        os = self.os
        if thread.halt_until > now:
            return None
        frames = thread.frames
        pending = thread.pending
        for _ in range(300):
            if pending:
                instr = pending.popleft()
                if self._intercept(thread, instr):
                    return instr
                continue
            if not frames:
                if thread.behavior is None:
                    return None
                directive = next(thread.behavior, _EXHAUSTED)
                if directive is _EXHAUSTED:
                    os.dispatch(thread, ("exit",), now)
                    return None
                os.dispatch(thread, directive, now)
                if not thread.runnable:
                    return None
                continue
            fr = frames[-1]
            if not fr.started:
                if fr.lock is not None and not fr.lock_held:
                    if os.locks.acquire(fr.lock, thread.tid):
                        fr.lock_held = True
                    elif os.spin_policy == "yield" and thread.behavior is not None:
                        # SMT-aware optimization: deschedule instead of
                        # burning issue slots; the release wakes us.  CPU
                        # pseudo-threads (scheduler/interrupt frames) are
                        # dispatch-level code and must always spin.
                        os.sleep_on(os.locks.wait_queue[fr.lock], thread)
                        return None
                    else:
                        instr = self._spin_instruction(thread, fr.lock)
                        if self._intercept(thread, instr):
                            return instr
                        continue
                fr.start()
            # One instruction of the frame (Frame.next_instruction, inline).
            if fr.budget <= 0:
                frames.pop()
                if fr.lock_held:
                    os.locks.release(fr.lock, thread.tid)
                    os.wakeup_one(os.locks.wait_queue[fr.lock])
                if fr.span is not None:
                    os.close_span(thread, fr.span)
                if fr.on_complete is not None:
                    fr.on_complete()
                if not thread.runnable:
                    return None
                continue
            fr.budget -= 1
            walker = fr.walker
            walker.service = fr.service
            if fr.transfer is None:
                instr = walker.next_instruction()
            else:
                instr = fr.transfer_instruction()
            thread.instructions_generated += 1
            if self._intercept(thread, instr):
                return instr
        raise RuntimeError(
            f"context {self.ctx}: no instruction after 300 steps "
            f"(thread {thread.name}, frames={len(thread.frames)})"
        )

    # -- TLB interception -----------------------------------------------------

    def _intercept(self, thread: SoftwareThread, instr: Instruction) -> bool:
        """Probe the shared TLBs for *instr*; False when it was deferred
        behind a refill handler."""
        mode = instr.mode
        if mode is _PAL:
            return True  # PAL runs physically addressed: no TLB involved
        os = self.os
        page = instr.pc >> PAGE_SHIFT
        if page != thread.last_pc_page:
            thread.last_pc_page = page
            asn = KERNEL_ASN if is_kernel_address(instr.pc) else thread.process.asn
            if not os.hierarchy.itlb.probe(page, asn, thread.tid, MODE_KIND[mode]):
                if os.handle_itlb_miss(thread, instr, page, asn):
                    return False
        if instr.addr is not None and not instr.phys and not instr.tlb_done:
            vpn = instr.addr >> PAGE_SHIFT
            asn = os.asn_for(thread, instr.addr)
            if not os.hierarchy.dtlb.probe(vpn, asn, thread.tid, MODE_KIND[mode]):
                if os.handle_dtlb_miss(thread, instr, vpn, asn):
                    return False
        return True

    # -- spin locks ----------------------------------------------------------

    def _spin_instruction(self, thread: SoftwareThread, lock_name: str) -> Instruction:
        """One beat of a spin loop: LDx_L/BXX pairs on the lock word."""
        os = self.os
        os.spin_counter.add()
        if thread.behavior is not None:
            os.thread_spin_counter.add()
        seg = os.kernel_text.segments["spinlock"]
        lock_index = os.locks.DEFAULT_LOCKS.index(lock_name)
        pc = os.kernel_text.block_pc[seg.start] + lock_index * 16
        self._spin_toggle = not self._spin_toggle
        # Positional arguments (see Instruction's parameter order): this
        # is a per-instruction constructor call.
        if self._spin_toggle:
            return Instruction(
                _SYNC, _KERNEL, "spinlock", pc, os.lock_word_address(lock_name),
                False, False, 0, False, 2, thread.tid, KERNEL_ASN)
        return Instruction(
            _COND_BRANCH, _KERNEL, "spinlock", pc + 4, None,
            False, True, pc, True, 1, thread.tid, KERNEL_ASN)
