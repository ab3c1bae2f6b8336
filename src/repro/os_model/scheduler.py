"""The SMP-style process scheduler, as modified for SMT.

Digital Unix schedules an SMT processor as if it were a shared-memory
multiprocessor: one run queue (guarded by a spin lock) feeding all hardware
contexts, a per-context idle thread, quantum-based preemption, and ASN
management over the *shared* TLB -- the paper's one real OS modification.
When the ASN space wraps, the recycled ASN's translations are flushed from
both TLBs, which surfaces later as OS-invalidation TLB misses.
"""

from __future__ import annotations

import random

from repro.memory.tlb import KERNEL_ASN
from repro.os_model.thread import SoftwareThread, ThreadState


_READY = ThreadState.READY
_RUNNING = ThreadState.RUNNING


def _holds_lock(thread: SoftwareThread) -> bool:
    """True while any of *thread*'s frames holds a kernel spin lock."""
    for fr in thread.frames:
        if fr.lock_held:
            return True
    return False


class Scheduler:
    """Single-run-queue scheduler over N hardware contexts."""

    def __init__(
        self,
        n_contexts: int,
        quantum: int,
        rng: random.Random,
        asn_count: int = 64,
    ) -> None:
        if n_contexts < 1:
            raise ValueError("need at least one hardware context")
        if asn_count < 2:
            raise ValueError("need at least two ASNs (kernel + one user)")
        self.n_contexts = n_contexts
        self.quantum = quantum
        self.rng = rng
        self.run_queue: list[SoftwareThread] = []
        self.current: list[SoftwareThread | None] = [None] * n_contexts
        self.idle: list[SoftwareThread | None] = [None] * n_contexts
        self.quantum_end = [0] * n_contexts
        # ASN allocation: slot 0 is the kernel's global ASN.
        self.asn_count = asn_count
        self._asn_owner: list[object | None] = [None] * asn_count
        self._next_asn = 1
        self.asn_recycles = 0
        self.switches = 0
        #: Count of priority-0 (software-interrupt-level) threads waiting.
        self._high_ready = 0
        #: Set by MiniDUX: called with (ctx, old, new) on every switch.
        self.on_switch = None
        #: Set by MiniDUX: flushes an ASN from the shared TLBs.
        self.flush_asn = None

    # -- thread admission -----------------------------------------------------

    def set_idle_thread(self, ctx: int, thread: SoftwareThread) -> None:
        """Install the per-context idle thread."""
        thread.bound_context = ctx
        self.idle[ctx] = thread

    def make_ready(self, thread: SoftwareThread) -> None:
        """Enqueue a runnable thread (idempotent)."""
        if thread.state is ThreadState.DONE:
            return
        if thread in self.run_queue or thread in self.current:
            thread.wake()
            return
        thread.wake()
        if thread.state is ThreadState.READY:
            self.run_queue.append(thread)
            if thread.priority == 0:
                self._high_ready += 1

    # -- ASN management --------------------------------------------------------

    def assign_asn(self, process) -> bool:
        """Ensure *process* holds a valid ASN; True when one was (re)assigned.

        Reassignment may recycle another process's ASN, flushing its entries
        from the shared TLBs (the SMT-aware assignment path the paper added).
        """
        if process.asn > 0 and self._asn_owner[process.asn] is process:
            return False
        # Pick the next slot whose owner is not currently on a context --
        # recycling a *running* process's ASN would corrupt its live
        # translations (this is the multi-thread-safe assignment the paper's
        # OS modification introduces).
        asn = None
        for _ in range(self.asn_count - 1):
            candidate = self._next_asn
            self._next_asn += 1
            if self._next_asn >= self.asn_count:
                self._next_asn = 1
            owner = self._asn_owner[candidate]
            if owner is None or not self._owner_running(owner):
                asn = candidate
                break
        if asn is None:  # every ASN is live; extremely oversubscribed
            asn = self._next_asn
            self._next_asn = 1 if self._next_asn + 1 >= self.asn_count else self._next_asn + 1
        victim = self._asn_owner[asn]
        if victim is not None and victim is not process:
            victim.asn = -1
            self.asn_recycles += 1
            if self.flush_asn is not None:
                self.flush_asn(asn)
        if asn == KERNEL_ASN:  # pragma: no cover - slot 0 never allocated
            raise RuntimeError("attempted to allocate the kernel ASN")
        self._asn_owner[asn] = process
        process.asn = asn
        return True

    def _owner_running(self, process) -> bool:
        """True when some context is currently running *process*."""
        return any(t is not None and t.process is process for t in self.current)

    # -- dispatch ---------------------------------------------------------------

    def should_resched(self, ctx: int, now: int) -> bool:
        """Cheap per-delivery check for whether *ctx* needs a new thread."""
        thread = self.current[ctx]
        if thread is None:
            return True
        state = thread.state
        if state is not _RUNNING and state is not _READY:
            return True
        if thread is self.idle[ctx] and self.run_queue:
            return True
        if (
            self._high_ready > 0
            and thread.priority > 0
            and not _holds_lock(thread)
        ):
            # A software-interrupt-level thread (netisr) preempts timeshare
            # work immediately, as on Digital Unix.
            return True
        if now >= self.quantum_end[ctx] and self.run_queue:
            # Preempt only outside spinlock-protected frames.
            return not _holds_lock(thread)
        return False

    def pick_next(self, ctx: int) -> SoftwareThread:
        """Pop the next runnable thread for *ctx* (the idle thread if none)."""
        queue = self.run_queue
        if self._high_ready > 0:
            for i, thread in enumerate(queue):
                if thread.runnable and thread.priority == 0 and thread.bound_context in (None, ctx):
                    del queue[i]
                    self._high_ready -= 1
                    return thread
            self._high_ready = 0  # stale count (woken thread raced away)
        for i, thread in enumerate(queue):
            if thread.runnable and thread.bound_context in (None, ctx):
                del queue[i]
                if thread.priority == 0 and self._high_ready > 0:
                    self._high_ready -= 1
                return thread
        idle = self.idle[ctx]
        if idle is None:
            raise RuntimeError(f"context {ctx} has no idle thread installed")
        return idle

    def install(self, ctx: int, thread: SoftwareThread, now: int) -> SoftwareThread | None:
        """Make *thread* current on *ctx*; returns the displaced thread."""
        old = self.current[ctx]
        if old is thread:
            self.quantum_end[ctx] = now + self.quantum
            return None
        if old is not None:
            if old.state is ThreadState.RUNNING:
                old.state = ThreadState.READY
            if old.runnable and old is not self.idle[ctx]:
                self.run_queue.append(old)
        self.current[ctx] = thread
        thread.state = ThreadState.RUNNING
        self.quantum_end[ctx] = now + self.quantum
        self.switches += 1
        if self.on_switch is not None:
            self.on_switch(ctx, old, thread)
        return old
