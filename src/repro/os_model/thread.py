"""Software threads and execution frames.

A :class:`SoftwareThread` is a kernel-visible thread: an Apache server
process, one SPECInt program, a netisr protocol thread, or a per-context
idle thread.  Its dynamic execution is a stack of :class:`Frame` objects --
bounded slices of code-model walks -- plus a *behavior*: a generator of
directives (``("compute", n)``, ``("syscall", name, args)``, ...) that the
kernel's dispatcher turns into new frames when the stack drains.

The frame stack is also how every OS entry is spliced into the stream:

* a system call pushes PAL-entry, kernel-preamble, service-body and
  PAL-return frames;
* a DTLB/ITLB miss (detected here, at generation time, by probing the
  shared TLBs) defers the faulting instruction and pushes the refill
  handler -- plus the page-allocation path on first touch;
* a thread that blocks mid-syscall simply keeps its remaining frames and
  resumes them when woken, like a real kernel continuation.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Iterator

from repro.isa.code import CodeWalker
from repro.isa.instruction import Instruction
from repro.isa.types import InstrType


class ThreadState(enum.Enum):
    """Scheduler-visible thread states."""

    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


_READY = ThreadState.READY
_RUNNING = ThreadState.RUNNING


class Frame:
    """A bounded slice of a code-model walk.

    Parameters
    ----------
    walker:
        The :class:`~repro.isa.code.CodeWalker` to draw instructions from.
    budget:
        Number of instructions this frame emits before completing.
    service:
        Attribution label applied to the walker while this frame runs.
    segment:
        Optional code-model segment to jump to when the frame starts.
    on_start / on_complete:
        Callbacks run before the first instruction and after the last
        (e.g. install a copy burst; fill a TLB entry; block the thread).
    lock:
        Optional named kernel lock held for the frame's duration; when
        contended the thread spins (emitting synchronization instructions)
        before entering.

    A handler's last frame also carries the kernel-service :attr:`span`
    its dispatcher opened (see ``MiniDUX._push_span``); the stream
    closes it when that frame completes, after releasing the lock and
    before ``on_complete``.
    """

    __slots__ = (
        "walker",
        "budget",
        "service",
        "segment",
        "on_start",
        "on_complete",
        "lock",
        "started",
        "lock_held",
        "transfer",
        "span",
    )

    def __init__(
        self,
        walker: CodeWalker,
        budget: int,
        service: str,
        segment: str | None = None,
        on_start: Callable | None = None,
        on_complete: Callable | None = None,
        lock: str | None = None,
        transfer: InstrType | None = None,
    ) -> None:
        if budget < 0:
            raise ValueError("frame budget must be non-negative")
        self.walker = walker
        self.budget = budget
        self.service = service
        self.segment = segment
        self.on_start = on_start
        self.on_complete = on_complete
        self.lock = lock
        self.started = False
        self.lock_held = False
        #: Optional control-transfer instruction (PAL_CALL / PAL_RETURN)
        #: emitted as the frame's first instruction, modeling the trap entry
        #: or return-from-trap that redirects the stream into this frame.
        self.transfer = transfer
        #: ``(kind, name, label, ctx)`` of the span this frame closes on
        #: completion, or None.
        self.span: tuple | None = None

    def start(self) -> None:
        """Activate the frame: position the walker and run ``on_start``."""
        self.started = True
        self.walker.service = self.service
        if self.segment is not None:
            self.walker.jump_to(self.segment)
        if self.on_start is not None:
            self.on_start()

    def next_instruction(self) -> Instruction | None:
        """Emit one instruction, or None when the budget is exhausted.

        The delivery loop (``ContextStream._thread_next``) inlines this.
        """
        if self.budget <= 0:
            return None
        self.budget -= 1
        self.walker.service = self.service
        if self.transfer is not None:
            return self.transfer_instruction()
        return self.walker.next_instruction()

    def transfer_instruction(self) -> Instruction:
        """Consume :attr:`transfer`: the trap entry (or return) that lands
        on the walker's current block."""
        itype = self.transfer
        self.transfer = None
        walker = self.walker
        target = walker.model.block_pc[walker.block]
        return Instruction(
            itype, walker.mode, self.service, target - 4,
            taken=True, target=target, latency=1,
            thread_id=walker.thread_id, asn=walker.asn,
        )


class SoftwareThread:
    """One kernel-schedulable thread (see module docstring)."""

    def __init__(
        self,
        tid: int,
        name: str,
        process,
        behavior: Iterator | None = None,
        bound_context: int | None = None,
    ) -> None:
        self.tid = tid
        self.name = name
        self.process = process  # AddressSpace (kernel threads use the kernel AS)
        self.behavior = behavior
        self.state = ThreadState.READY
        self.frames: list[Frame] = []
        self.pending: deque[Instruction] = deque()
        #: Walkers installed by the kernel/workload factories.
        self.user_walker: CodeWalker | None = None
        self.kernel_walker: CodeWalker | None = None
        self.pal_walker: CodeWalker | None = None
        #: Page of the last generated PC, for ITLB probing on page change.
        self.last_pc_page = -1
        #: Diagnostic: why the thread is blocked ("accept", "select", ...).
        self.block_reason: str | None = None
        #: Hardware context this thread is pinned to (idle threads), or None.
        self.bound_context = bound_context
        #: Instructions generated on behalf of this thread (all modes).
        self.instructions_generated = 0
        #: Depth of in-flight TLB-miss handlers; nested misses beyond the
        #: limit take the instant PAL double-miss path.
        self.trap_depth = 0
        #: Scheduling priority: 0 = kernel daemon (netisr runs at software
        #: interrupt level and preempts user processes), 1 = timeshare.
        self.priority = 1
        #: Cycle until which the thread is halted (WTINT-style wait used by
        #: the idle loop so an idle context does not burn fetch bandwidth).
        self.halt_until = 0
        #: Open kernel-service span labels, innermost last (mirrors the
        #: frame-stack discipline: a span opened by a nested handler always
        #: closes before its parent's).  ``span_paths`` keeps the matching
        #: ``;``-joined prefix path per open span so attribution never
        #: rebuilds a join in the hot path.
        self.spans: list[str] = []
        self.span_paths: list[str] = []
        self._path_cache: dict[str, str] = {}

    # -- call-path spans -----------------------------------------------------

    def span_push(self, label: str) -> None:
        """Open a nested service span (syscall, TLB refill, interrupt...)."""
        paths = self.span_paths
        parent = paths[-1] if paths else ""
        paths.append(parent + ";" + label if parent else label)
        self.spans.append(label)
        self._path_cache.clear()

    def span_pop(self, label: str) -> None:
        """Close the innermost span if it matches *label* (defensive: the
        only caller, ``MiniDUX.close_span``, closes spans in the order
        their frames complete, so a mismatch -- ignored rather than
        corrupting the stack -- would be a pairing bug)."""
        if self.spans and self.spans[-1] == label:
            self.spans.pop()
            self.span_paths.pop()
            self._path_cache.clear()

    def service_path(self, service: str) -> str:
        """The call path charged when this thread runs *service*: the open
        span chain with *service* as the leaf (the leaf always equals the
        service label, which is what makes per-path cycle totals reconcile
        exactly with the flat per-service cycle counters)."""
        cache = self._path_cache
        path = cache.get(service)
        if path is None:
            paths = self.span_paths
            if not paths:
                path = service
            elif self.spans[-1] == service:
                path = paths[-1]
            else:
                path = paths[-1] + ";" + service
            cache[service] = path
        return path

    # -- frame stack ---------------------------------------------------------

    def push_frame(self, frame: Frame) -> None:
        """Push *frame* so it runs before everything currently stacked."""
        self.frames.append(frame)

    def push_frames(self, frames: list[Frame]) -> None:
        """Push *frames* so that ``frames[0]`` runs first."""
        self.frames.extend(reversed(frames))

    @property
    def current_frame(self) -> Frame | None:
        return self.frames[-1] if self.frames else None

    def defer(self, instr: Instruction) -> None:
        """Park a TLB-faulting instruction until its handler completes."""
        self.pending.append(instr)

    # -- state transitions -----------------------------------------------------

    def block(self, reason: str) -> None:
        """Mark the thread blocked (remaining frames resume on wake)."""
        self.state = ThreadState.BLOCKED
        self.block_reason = reason

    def wake(self) -> None:
        """Make a blocked thread runnable again."""
        if self.state is ThreadState.BLOCKED:
            self.state = ThreadState.READY
            self.block_reason = None

    @property
    def runnable(self) -> bool:
        state = self.state
        return state is _RUNNING or state is _READY

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Thread {self.tid} {self.name} {self.state.value} frames={len(self.frames)}>"
