"""MiniDUX: the synthetic kernel (see package docstring).

This module owns the kernel and PAL text models, the shared kernel data
regions, thread creation, and the dispatcher that turns workload directives,
TLB misses, and interrupts into execution frames.  It is the single point
where every OS code path the paper measures is spliced into the instruction
streams.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from typing import Callable

from repro.isa.code import CodeModel, CodeModelConfig, CodeWalker, SegmentSpec
from repro.isa.data import PAGE_SIZE, DataModel, Region
from repro.isa.mix import BranchProfile, InstructionMix
from repro.isa.types import InstrType, Mode
from repro.memory.classify import mode_kind
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.tlb import KERNEL_ASN
from repro.os_model.address_space import AddressSpace, KernelLayout, is_kernel_address
from repro.os_model.interrupts import InterruptController, InterruptRequest
from repro.os_model.locks import LockTable
from repro.os_model.scheduler import Scheduler
from repro.os_model.syscalls import SYSCALL_CATALOG, SyscallSpec
from repro.os_model.thread import Frame, SoftwareThread, ThreadState
from repro.os_model.vm import VMSystem

#: Kernel-text base PC (inside the kernel virtual range).
KERNEL_TEXT_BASE = 0xFFFF_F000_0000
#: PAL code lives in physical memory and bypasses both the ITLB and DTLB.
PAL_TEXT_BASE = 0x8_0000_F000_0000
COPY_TEXT_BASE = 0xFFFF_F800_0000

#: Kernel text layout: one control-flow-closed segment per OS service, so
#: that service diversity translates directly into I-cache footprint -- the
#: paper's SPECInt-vs-Apache kernel-locality contrast.
KERNEL_SEGMENTS = (
    SegmentSpec("preamble", 60, 14),
    SegmentSpec("tlb_refill", 40, 14),
    SegmentSpec("vm_alloc", 220, 30),
    SegmentSpec("sched", 200, 26),
    SegmentSpec("idle", 24, 8),
    SegmentSpec("spinlock", 8, 4),
    SegmentSpec("intr", 140, 20),
    SegmentSpec("netisr", 320, 42),
    SegmentSpec("nettx", 220, 30),
    SegmentSpec("driver", 260, 30),
    SegmentSpec("sys_rw", 300, 38),
    SegmentSpec("sys_stat", 220, 28),
    SegmentSpec("sys_open", 280, 34),
    SegmentSpec("sys_socket", 340, 42),
    SegmentSpec("sys_sockctl", 240, 30),
    SegmentSpec("sys_mmap", 180, 26),
    SegmentSpec("sys_fork", 400, 40),
    SegmentSpec("sys_fcntl", 60, 12),
    SegmentSpec("sys_misc", 80, 14),
)

PAL_SEGMENTS = (
    SegmentSpec("callsys", 12, 5),
    SegmentSpec("rti", 10, 4),
    SegmentSpec("dtlb", 30, 12),
    SegmentSpec("itlb", 22, 8),
    SegmentSpec("intr", 16, 6),
    SegmentSpec("swpctx", 14, 6),
    SegmentSpec("setipl", 8, 4),
)

#: Kernel instruction mix, calibrated to the kernel columns of the paper's
#: Tables 2 and 5 (no floating point, physical addressing on roughly half of
#: memory operations, markedly lower conditional-taken rate than user code).
KERNEL_MIX = InstructionMix(
    load=0.17,
    store=0.12,
    branch=0.16,
    fp=0.0,
    sync=0.01,
    phys_frac=0.45,
    branches=BranchProfile(
        uncond=0.15, indirect=0.09, call=0.04, ret=0.04,
        cond_taken=0.40, indirect_targets=3,
    ),
)

#: Copy-loop mix (uiomove/bcopy): memory-dominated, tight loops.
COPY_MIX = InstructionMix(
    load=0.30,
    store=0.30,
    branch=0.13,
    fp=0.0,
    branches=BranchProfile(uncond=0.05, indirect=0.0, call=0.0, ret=0.0, cond_taken=0.85),
)

#: PAL-code mix: short, physically-addressed handler sequences.
PAL_MIX = InstructionMix(
    load=0.20,
    store=0.12,
    branch=0.10,
    fp=0.0,
    phys_frac=1.0,
    branches=BranchProfile(uncond=0.30, indirect=0.05, call=0.0, ret=0.0, cond_taken=0.35),
)


class OSMode(enum.Enum):
    """Operating-system simulation mode.

    ``FULL`` executes every kernel and PAL instruction.  ``APP_ONLY``
    reproduces the paper's application-only simulator: system calls and
    traps complete instantly with no effect on the hardware state (their
    *semantic* effects -- blocking, wakeups, network delivery -- still
    happen, so workloads make progress).
    """

    FULL = "full"
    APP_ONLY = "app-only"


class MiniDUX:
    """The synthetic kernel instance driving one simulated machine."""

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        n_contexts: int,
        rng: random.Random,
        mode: OSMode = OSMode.FULL,
        quantum: int = 20_000,
        timer_interval: int = 100_000,
        seed: int = 0,
        tlb_flush_on_switch: bool = False,
        spin_policy: str = "spin",
        registry=None,
    ) -> None:
        self.hierarchy = hierarchy
        self.n_contexts = n_contexts
        self.rng = rng
        self.mode = mode
        self.timer_interval = timer_interval
        #: Ablation: flush the whole TLB on context switch instead of
        #: relying on ASN tags (what a TLB without address-space numbers
        #: would force).
        self.tlb_flush_on_switch = tlb_flush_on_switch
        #: Lock-wait policy.  "spin" is Digital Unix's SMP behavior (and the
        #: paper's measured configuration); "yield" deschedules the waiter
        #: until the holder releases -- the SMT-aware OS optimization the
        #: paper proposes as future work, since spinning burns issue slots
        #: other contexts could use.
        if spin_policy not in ("spin", "yield"):
            raise ValueError(f"unknown spin policy {spin_policy!r}")
        self.spin_policy = spin_policy
        self.layout = KernelLayout()

        self.kernel_text = CodeModel(
            CodeModelConfig("kernel", KERNEL_TEXT_BASE, KERNEL_MIX,
                            segments=KERNEL_SEGMENTS, indirect_switch=0.55, seed=seed)
        )
        self.copy_text = CodeModel(
            CodeModelConfig("kcopy", COPY_TEXT_BASE, COPY_MIX,
                            segments=(SegmentSpec("copy", 40, 10),), seed=seed)
        )
        self.pal_text = CodeModel(
            CodeModelConfig("pal", PAL_TEXT_BASE, PAL_MIX,
                            segments=PAL_SEGMENTS, seed=seed)
        )

        self._build_kernel_regions()
        self.kernel_as = AddressSpace(pid=-1, name="kernel", asn=KERNEL_ASN)
        self.vm = VMSystem(random.Random(rng.randrange(1 << 30)))
        self.locks = LockTable()
        self.scheduler = Scheduler(n_contexts, quantum, random.Random(rng.randrange(1 << 30)))
        self.scheduler.flush_asn = self._flush_asn
        self.scheduler.on_switch = self._on_switch
        self.interrupts = InterruptController(n_contexts)
        self.wait_queues: dict[str, deque[SoftwareThread]] = {}
        self.devices: list = []
        self.threads: list[SoftwareThread] = []
        #: Every software thread (workload, daemon, idle, CPU pseudo-thread)
        #: by tid -- the attribution layer resolves a running tid to its
        #: open span stack through this map.
        self.threads_by_tid: dict[int, SoftwareThread] = {}
        self._next_tid = 0
        self.marks: dict[tuple[str, str], int] = {}
        self.thread_phase: dict[str, str] = {}
        self.now = 0

        # Counters surfaced by the analysis layer.
        self.syscall_counts: dict[str, int] = {}
        #: Per-syscall wall-clock latency sums: name -> [invocations
        #: completed, total cycles dispatch->completion].  Timestamps come
        #: from the coarse OS clock (updated every tick), so individual
        #: samples carry a few cycles of quantization.
        self.syscall_latency: dict[str, list[int]] = {}
        # The kernel's event counters live in the probe registry (one
        # queryable tree, ``os.*``); the CounterGroup keeps the historical
        # dict idiom (``counters["x"] += 1``) working for call sites and
        # analysis code.  A kernel built without a registry gets its own.
        from repro.obs.registry import CounterGroup, ProbeRegistry

        obs = registry if registry is not None else ProbeRegistry()
        self.counters = CounterGroup(obs, "os", (
            "dtlb_miss_events",
            "itlb_miss_events",
            "icache_flushes",
            "spin_instructions",
            "thread_spin_instructions",
        ))
        # Direct counter handles for the spin loop (bumped per spin
        # instruction -- the mapping facade is too slow there).
        self.spin_counter = self.counters.raw("spin_instructions")
        self.thread_spin_counter = self.counters.raw("thread_spin_instructions")
        #: Wall-clock (cycle) latency distribution over completed syscalls.
        self.syscall_hist = obs.histogram("os.syscall_latency_cycles")
        obs.derive_map("os.syscall", self._syscall_probe_map)
        obs.derive_map("os.lock", self._lock_probe_map)
        obs.derive_map("os.vm.incursion", lambda: dict(self.vm.incursions))
        obs.derive("os.sched.switches", lambda: self.scheduler.switches)
        obs.derive("os.sched.asn_recycles",
                   lambda: self.scheduler.asn_recycles)
        #: Optional EventBus (see repro.obs.events); None = no events.
        self.events = None
        self.vm.on_incursion = self._vm_incursion
        #: Core-registered listeners called with (ctx,) on context switch.
        self.switch_listeners: list[Callable[[int], None]] = []

        # Per-context CPU pseudo-threads host interrupt and scheduler frames.
        self.cpu_threads = [self._make_cpu_thread(ctx) for ctx in range(n_contexts)]
        # Per-context idle threads (schedulable, lowest priority).
        for ctx in range(n_contexts):
            idle = self.create_kernel_thread(f"idle{ctx}", self._idle_behavior())
            idle.state = ThreadState.READY
            self.scheduler.set_idle_thread(ctx, idle)
        self._next_timer = timer_interval
        # One instruction stream per hardware context (what fetch sees).
        from repro.os_model.stream import ContextStream

        self.streams = [ContextStream(self, ctx) for ctx in range(n_contexts)]

    # -- construction helpers ----------------------------------------------

    def _build_kernel_regions(self) -> None:
        virt, phys = self.layout.virt, self.layout.phys
        # Hot sets are deliberately concentrated on few pages (many hot
        # lines per page): the shared 128-entry DTLB must fit the combined
        # kernel + user working set the way the paper's machine does, while
        # the caches still see a large line-granular kernel footprint.
        self.reg_vfs = Region("k:vfs", virt(0), 24, 6, hot_lines=48,
                              weight=0.5, p_hot=0.95, shared=True)
        self.reg_proc = Region("k:proc", virt(1), 12, 3, hot_lines=24,
                               weight=0.2, p_hot=0.95, shared=True)
        self.reg_net = Region("k:net", virt(2), 16, 5, hot_lines=36,
                              weight=0.3, p_hot=0.95, shared=True)
        self.reg_malloc = Region("k:malloc", virt(3), 24, 5, hot_lines=36,
                                 weight=0.35, p_hot=0.95, shared=True)
        self.reg_sockbuf = Region("k:sockbuf", virt(4), 24, 6, hot_lines=48,
                                  weight=0.3, p_hot=0.95, shared=True)
        self._kstack_base = virt(5)
        self.reg_lockwords = Region("k:locks", virt(6), 1, 1, hot_lines=8,
                                    weight=0.0, shared=True)
        self.reg_pagetable = Region("k:pt", phys(0), 32, 8, hot_lines=24,
                                    weight=0.3, p_hot=0.97, phys=True,
                                    shared=True)
        self.reg_filecache = Region("k:filecache", phys(1), 128, 24,
                                    hot_lines=64, weight=0.5, p_hot=0.97,
                                    phys=True, shared=True)
        self.reg_nicring = Region("k:nicring", phys(2), 8, 4, hot_lines=16,
                                  weight=0.12, p_hot=0.97, phys=True,
                                  shared=True)
        self.reg_pal = Region("k:pal", phys(3), 8, 4, hot_lines=16, phys=True)

    def _kstack_region(self, tid: int) -> Region:
        return Region(
            f"k:stack{tid}", self._kstack_base + tid * 2 * PAGE_SIZE, 2, 1,
            hot_lines=12, weight=1.0, p_seq=0.4, p_hot=0.97,
        )

    def _kernel_regions_for(self, tid: int) -> list[Region]:
        kstack = self._kstack_region(tid)
        return [
            kstack, self.reg_vfs, self.reg_proc, self.reg_net,
            self.reg_malloc, self.reg_sockbuf,
            self.reg_pagetable, self.reg_filecache, self.reg_nicring,
        ]

    def _attach_kernel_walkers(self, thread: SoftwareThread) -> None:
        krng = random.Random(self.rng.randrange(1 << 30))
        kdata = DataModel(self._kernel_regions_for(thread.tid), krng)
        pdata = DataModel([self.reg_pal, self.reg_pagetable], krng)
        thread.kernel_walker = CodeWalker(
            self.kernel_text, krng, kdata, Mode.KERNEL, "kernel", thread.tid, KERNEL_ASN)
        thread.copy_walker = CodeWalker(
            self.copy_text, krng, kdata, Mode.KERNEL, "kernel", thread.tid, KERNEL_ASN)
        thread.pal_walker = CodeWalker(
            self.pal_text, krng, pdata, Mode.PAL, "pal", thread.tid, KERNEL_ASN)
        # Trap handlers (TLB refill, page allocation) get a *separate* data
        # model so that a trap taken mid-copy never consumes the interrupted
        # service's copy burst -- which would re-fault on the same page and
        # recurse.  Its regions are wired kernel state only.
        trap_data = DataModel(
            [self._kstack_region(thread.tid), self.reg_pagetable,
             self.reg_malloc, self.reg_proc],
            krng,
        )
        thread.trap_walker = CodeWalker(
            self.kernel_text, krng, trap_data, Mode.KERNEL, "kernel", thread.tid, KERNEL_ASN)

    def _make_cpu_thread(self, ctx: int) -> SoftwareThread:
        thread = SoftwareThread(900 + ctx, f"cpu{ctx}", self.kernel_as)
        self._attach_kernel_walkers(thread)
        self.threads_by_tid[thread.tid] = thread
        return thread

    # -- thread creation -------------------------------------------------------

    def create_process(
        self,
        name: str,
        pid: int,
        code_model: CodeModel,
        address_space: AddressSpace,
        behavior_factory: Callable[[SoftwareThread], object],
        urng_seed: int | None = None,
    ) -> SoftwareThread:
        """Create a user process thread and admit it to the scheduler."""
        tid = self._alloc_tid()
        thread = SoftwareThread(tid, name, address_space)
        urng = random.Random(urng_seed if urng_seed is not None else self.rng.randrange(1 << 30))
        udata = DataModel(address_space.regions, urng)
        thread.user_walker = CodeWalker(
            code_model, urng, udata, Mode.USER, "user", tid, asn=0)
        self._attach_kernel_walkers(thread)
        thread.behavior = behavior_factory(thread)
        self.threads.append(thread)
        self.threads_by_tid[tid] = thread
        self.scheduler.make_ready(thread)
        return thread

    def create_kernel_thread(self, name: str, behavior) -> SoftwareThread:
        """Create a kernel daemon thread (netisr, idle, pagedaemon...)."""
        tid = self._alloc_tid()
        thread = SoftwareThread(tid, name, self.kernel_as)
        self._attach_kernel_walkers(thread)
        thread.behavior = behavior
        self.threads.append(thread)
        self.threads_by_tid[tid] = thread
        return thread

    def start_thread(self, thread: SoftwareThread) -> None:
        """Admit a (kernel) thread to the run queue."""
        self.scheduler.make_ready(thread)

    def _alloc_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def _idle_behavior(self):
        # The idle loop polls briefly, then waits for an interrupt --
        # spinning at full rate would consume SMT fetch/issue bandwidth that
        # belongs to real work (the resource waste the paper calls out).
        while True:
            yield ("idle", 48)
            yield ("halt", 240)

    # -- wait queues ------------------------------------------------------------

    def sleep_on(self, queue: str, thread: SoftwareThread) -> None:
        """Block *thread* on the named wait queue."""
        thread.block(queue)
        self.wait_queues.setdefault(queue, deque()).append(thread)

    def wakeup_one(self, queue: str) -> SoftwareThread | None:
        """Wake the oldest sleeper on *queue* (None when empty)."""
        q = self.wait_queues.get(queue)
        if not q:
            return None
        thread = q.popleft()
        self.scheduler.make_ready(thread)
        return thread

    def wakeup_all(self, queue: str) -> int:
        """Wake every sleeper on *queue*; returns the number woken."""
        q = self.wait_queues.get(queue)
        if not q:
            return 0
        n = 0
        while q:
            self.scheduler.make_ready(q.popleft())
            n += 1
        return n

    # -- observability -----------------------------------------------------------

    def _syscall_probe_map(self) -> dict:
        """Per-syscall probe family: ``os.syscall.<name>.{count,cycles}``."""
        out = {}
        for name, count in self.syscall_counts.items():
            out[f"{name}.count"] = count
        for name, (completions, cycles) in self.syscall_latency.items():
            out[f"{name}.completions"] = completions
            out[f"{name}.cycles"] = cycles
        return out

    def _vm_incursion(self, kind: str) -> None:
        """VMSystem observer: post each MM-code entry as an instant event
        (the frame-level span already covers the allocation *cycles*; the
        instant records the incursion *type* for Figure-3-style drill-down)."""
        if self.events is not None:
            svc = "vm:page_alloc" if kind == "page_allocation" else f"vm:{kind}"
            self.events.emit(self.now, "vm", kind, service=svc)

    def _lock_probe_map(self) -> dict:
        """Per-lock probe family: ``os.lock.<name>.{acquisitions,contentions}``."""
        out = {}
        for name, n in self.locks.acquisitions.items():
            out[f"{name}.acquisitions"] = n
        for name, n in self.locks.contentions.items():
            out[f"{name}.contentions"] = n
        return out

    # -- call-path spans ---------------------------------------------------------

    def _push_span(self, thread: SoftwareThread, frames: list[Frame],
                   kind: str, name: str, label: str,
                   ctx: int | None = None) -> None:
        """Open a service span on *thread* and push the handler *frames*
        (``frames[0]`` runs first); the last frame closes the span.

        The span stack (:meth:`SoftwareThread.span_push`) is what the
        cycle-attribution layer folds into call paths; the B/E event pair
        is the same structure on the trace timeline.  The span rides on
        the last frame as data and the stream hands it to
        :meth:`close_span` when that frame completes, so every opened
        span closes, and nested handlers -- pushed above the frame --
        close theirs first.
        """
        thread.span_push(label)
        if self.events is not None:
            self.events.emit(self.now, kind, name, "B", ctx=ctx,
                             tid=thread.tid, service=label)
        frames[-1].span = (kind, name, label, ctx)
        thread.push_frames(frames)

    def close_span(self, thread: SoftwareThread, span: tuple) -> None:
        """Emit the E event of *span* and pop it off *thread*'s stack."""
        kind, name, label, ctx = span
        if self.events is not None:
            self.events.emit(self.now, kind, name, "E", ctx=ctx,
                             tid=thread.tid, service=label)
        thread.span_pop(label)

    # -- cost helper -------------------------------------------------------------

    def _cost(self, mean: float, spread: float) -> int:
        """Draw a frame budget around *mean* (minimum 3 instructions)."""
        return max(3, int(self.rng.gauss(mean, spread)))

    # -- the dispatcher -----------------------------------------------------------

    def dispatch(self, thread: SoftwareThread, directive: tuple, now: int) -> None:
        """Turn one behavior directive into frames (or immediate effects)."""
        kind = directive[0]
        if kind == "compute":
            self._dispatch_compute(thread, directive)
        elif kind == "syscall":
            name = directive[1]
            args = directive[2] if len(directive) > 2 else {}
            self._dispatch_syscall(thread, SYSCALL_CATALOG[name], args)
        elif kind == "kwork":
            self._dispatch_kwork(thread, directive[1])
        elif kind == "idle":
            thread.push_frame(
                Frame(thread.kernel_walker, directive[1], "idle", "idle"))
        elif kind == "halt":
            # WTINT-style pause: the context stalls (no instructions) until
            # the deadline; wakeups implicitly end it via rescheduling.
            thread.halt_until = now + directive[1]
        elif kind == "sleep":
            self.sleep_on(directive[1], thread)
        elif kind == "mark":
            label = directive[1]
            self.marks[(thread.name, label)] = now
            self.thread_phase[thread.name] = label
        elif kind == "exit":
            thread.state = ThreadState.DONE
        else:
            raise ValueError(f"unknown directive {kind!r}")

    def _dispatch_compute(self, thread: SoftwareThread, directive: tuple) -> None:
        n = directive[1]
        opts = directive[2] if len(directive) > 2 else {}
        on_start = None
        if "scan" in opts:
            scan = opts["scan"]

            def on_start(scan=scan):
                base, nbytes = scan() if callable(scan) else scan
                thread.user_walker.data.set_scan(base, nbytes)

        thread.push_frame(
            Frame(thread.user_walker, n, "user", on_start=on_start))

    def _dispatch_syscall(self, thread: SoftwareThread, spec: SyscallSpec, args: dict) -> None:
        self.syscall_counts[spec.name] = self.syscall_counts.get(spec.name, 0) + 1
        dispatched_at = self.now
        full = self.mode is OSMode.FULL
        svc = f"syscall:{spec.name}"
        frames: list[Frame] = []

        if full:
            frames.append(Frame(thread.pal_walker, self._cost(12, 2), "pal:callsys",
                                "callsys", transfer=InstrType.PAL_CALL))
            frames.append(Frame(thread.kernel_walker, self._cost(140, 30),
                                "syscall:preamble", "preamble"))

        body_cost = self._cost(spec.base_cost, spec.base_cost * spec.cost_spread) if full else 0
        lock = spec.lock if full else None

        block_if = args.get("block_if")
        queue = args.get("queue", spec.name)
        # Locks guard a critical section, not the whole service body: real
        # kernels hold spin locks only around the shared-structure updates.
        if spec.blocking and block_if is not None:
            # Entry portion runs, then the call may sleep; the remainder of
            # the body resumes as a continuation after wakeup.
            entry = max(0, int(body_cost * 0.4))
            crit = int(body_cost * 0.12)
            rest = body_cost - entry - crit

            def maybe_block():
                if block_if():
                    self.sleep_on(queue, thread)

            frames.append(Frame(thread.kernel_walker, entry, svc,
                                spec.text_segment, on_complete=maybe_block))
            frames.append(Frame(thread.kernel_walker, crit, svc,
                                spec.text_segment, lock=lock))
            frames.append(Frame(thread.kernel_walker, rest, svc, spec.text_segment))
        else:
            crit = int(body_cost * 0.15)
            frames.append(Frame(thread.kernel_walker, crit, svc,
                                spec.text_segment, lock=lock))
            frames.append(Frame(thread.kernel_walker, body_cost - crit, svc,
                                spec.text_segment))

        copy = args.get("copy")
        if copy is not None:
            nbytes = args.get("nbytes", 0)
            copy_cost = int(nbytes / 8 * spec.copy_factor) if full else 0

            def install_copy(copy=copy):
                src, dst, src_phys, dst_phys = copy() if callable(copy) else copy
                data = thread.kernel_walker.data
                data.set_copy(src, dst, max(8, args.get("nbytes", 8)),
                              src_phys=src_phys, dst_phys=dst_phys)

            frames.append(Frame(thread.copy_walker, copy_cost, svc,
                                "copy", on_start=install_copy if full else None,
                                on_complete=None))

        if args.get("disk"):
            dma = args.get("dma")

            def dma_effect(dma=dma):
                if dma is not None:
                    addr, nbytes = dma() if callable(dma) else dma
                    self.hierarchy.dma_write(addr, nbytes)

            frames.append(Frame(thread.kernel_walker,
                                self._cost(1100, 250) if full else 0,
                                svc, "driver", on_complete=dma_effect))

        for extra in args.get("post_frames", ()):
            segment, cost, effect = extra
            frames.append(Frame(thread.kernel_walker, cost if full else 0,
                                svc, segment, on_complete=effect))

        on_done = args.get("on_done")

        def complete(name=spec.name, started=dispatched_at, on_done=on_done):
            record = self.syscall_latency.setdefault(name, [0, 0])
            latency = max(0, self.now - started)
            record[0] += 1
            record[1] += latency
            self.syscall_hist.observe(latency)
            if on_done is not None:
                on_done()

        if full:
            frames.append(Frame(thread.pal_walker, self._cost(8, 1), "pal:rti",
                                "rti", on_complete=complete,
                                transfer=InstrType.PAL_RETURN))
        else:
            frames.append(Frame(thread.kernel_walker, 0, svc,
                                on_complete=complete))
        self._push_span(thread, frames, "syscall", spec.name, svc)

    def _dispatch_kwork(self, thread: SoftwareThread, spec: dict) -> None:
        """Generic kernel work (used by netisr and daemon threads)."""
        full = self.mode is OSMode.FULL
        service = spec["service"]
        frames: list[Frame] = []
        on_start = None
        if "copy" in spec:
            copy = spec["copy"]

            def on_start(copy=copy):
                src, dst, src_phys, dst_phys, nbytes = copy() if callable(copy) else copy
                thread.kernel_walker.data.set_copy(
                    src, dst, max(8, nbytes), src_phys=src_phys, dst_phys=dst_phys)

        frames.append(Frame(thread.kernel_walker, spec["cost"] if full else 0,
                            service, spec["segment"],
                            on_start=on_start if full else None,
                            lock=spec.get("lock") if full else None))
        if "copy_cost" in spec and full:
            frames.append(Frame(thread.copy_walker, spec["copy_cost"], service, "copy"))
        frames.append(Frame(thread.kernel_walker, 0, service,
                            on_complete=spec.get("on_done")))
        thread.push_frames(frames)

    # -- TLB miss handling ----------------------------------------------------

    def handle_dtlb_miss(self, thread: SoftwareThread, instr, vpn: int, asn: int) -> bool:
        """Splice the DTLB refill (and allocation) path; True when deferred.

        In APP_ONLY mode the translation is installed instantly (the paper's
        "traps complete instantly with no effect on hardware state").
        """
        self.counters["dtlb_miss_events"] += 1
        kind = mode_kind(instr.mode)
        if self.mode is not OSMode.FULL or thread.trap_depth >= 1:
            # Application-only mode, or a miss taken *inside* a refill
            # handler: the Alpha handles nested TLB misses entirely in PAL
            # (physically addressed), so the fill is immediate -- an
            # instant event, not a span, since no handler cycles follow.
            if self.events is not None:
                self.events.emit(self.now, "tlb", "dtlb_refill",
                                 tid=thread.tid, service="tlb:refill")
            self.hierarchy.dtlb.fill(vpn, asn, thread.tid, kind)
            if self.vm.needs_allocation(thread.process.pid, instr.addr):
                if self.vm.allocate(thread.process.pid, instr.addr):
                    if self.mode is OSMode.FULL:
                        self.hierarchy.icache_flush()
                        self.counters["icache_flushes"] += 1
            return False

        pte = self.pte_address(vpn)
        tdata = thread.trap_walker.data

        def pte_scan(tdata=tdata, pte=pte):
            tdata.set_scan(pte, 24, phys=True)

        frames = [
            Frame(thread.pal_walker, self._cost(14, 2), "pal:dtlb", "dtlb",
                  transfer=InstrType.PAL_CALL),
            Frame(thread.trap_walker, self._cost(34, 6), "tlb:refill",
                  "tlb_refill", on_start=pte_scan),
        ]
        if self.vm.needs_allocation(thread.process.pid, instr.addr):

            def do_alloc(addr=instr.addr, pid=thread.process.pid):
                if self.vm.allocate(pid, addr):
                    self.hierarchy.icache_flush()
                    self.counters["icache_flushes"] += 1

            # Page allocation runs without a global lock: Digital Unix locks
            # VM objects at finer grain, so concurrent first-touch faults on
            # different processes' pages proceed in parallel.
            frames.append(Frame(thread.trap_walker, self._cost(260, 60),
                                "vm:page_alloc", "vm_alloc",
                                on_complete=do_alloc))

        def finish(instr=instr, vpn=vpn, asn=asn, kind=kind):
            self.hierarchy.dtlb.fill(vpn, asn, thread.tid, kind)
            instr.tlb_done = True
            thread.trap_depth -= 1
            thread.pending.append(instr)

        frames.append(Frame(thread.pal_walker, self._cost(8, 1), "pal:rti",
                            "rti", on_complete=finish,
                            transfer=InstrType.PAL_RETURN))
        thread.trap_depth += 1
        self._push_span(thread, frames, "tlb", "dtlb_refill", "tlb:refill")
        return True

    def handle_itlb_miss(self, thread: SoftwareThread, instr, vpn: int, asn: int) -> bool:
        """Splice the (PAL-only) ITLB refill; True when *instr* was deferred."""
        self.counters["itlb_miss_events"] += 1
        kind = mode_kind(instr.mode)
        if self.mode is not OSMode.FULL or thread.trap_depth >= 1:
            if self.events is not None:
                self.events.emit(self.now, "tlb", "itlb_refill",
                                 tid=thread.tid, service="tlb:refill")
            self.hierarchy.itlb.fill(vpn, asn, thread.tid, kind)
            return False

        def finish(instr=instr):
            self.hierarchy.itlb.fill(vpn, asn, thread.tid, kind)
            thread.trap_depth -= 1
            thread.pending.append(instr)

        thread.trap_depth += 1
        self._push_span(thread, [
            Frame(thread.pal_walker, self._cost(22, 4), "pal:itlb", "itlb",
                  on_complete=finish, transfer=InstrType.PAL_CALL),
        ], "tlb", "itlb_refill", "tlb:refill")
        return True

    def pte_address(self, vpn: int) -> int:
        """Physical address of the page-table entry mapping *vpn*."""
        return self.reg_pagetable.base + (vpn * 8) % self.reg_pagetable.size

    # -- interrupts & time -------------------------------------------------------

    def post_interrupt(self, label: str, cost: int, effect: Callable | None = None) -> None:
        """Queue a device interrupt for delivery to some context."""
        self.interrupts.post(InterruptRequest(label, cost, effect))

    def _deliver_interrupt(self, ctx: int, request: InterruptRequest) -> bool:
        if self.mode is not OSMode.FULL:
            if request.effect is not None:
                request.effect()
            return True
        cpu = self.cpu_threads[ctx]
        if len(cpu.frames) > 24:
            return False
        label = request.label
        self._push_span(cpu, [
            Frame(cpu.pal_walker, self._cost(14, 3), "pal:intr", "intr",
                  transfer=InstrType.PAL_CALL),
            Frame(cpu.kernel_walker, self._cost(request.cost, request.cost * 0.25),
                  label, "intr", on_complete=request.effect),
            Frame(cpu.pal_walker, self._cost(8, 1), "pal:rti", "rti",
                  transfer=InstrType.PAL_RETURN),
        ], "interrupt", label, label, ctx=ctx)
        return True

    def tick(self, now: int) -> None:
        """Per-cycle (or strided) housekeeping: devices, clock, delivery."""
        self.now = now
        for device in self.devices:
            device.tick(now)
        if now >= self._next_timer:
            self._next_timer = now + self.timer_interval
            self.post_interrupt("intr:clock", 180)
        if self.interrupts.pending:
            self.interrupts.dispatch(self._deliver_interrupt)

    def state_summary(self) -> dict:
        """Deterministic, JSON-safe summary of kernel execution state.

        Hashed into the state digests that
        ``tests/test_engine.py::test_fast_tier_state_is_pinned`` pins:
        two runs of the same config whose summaries match are at the
        same point of the same trajectory.
        RNG states are captured via ``repr`` -- exact, cheap, and only
        ever compared by hash.
        """
        sched = self.scheduler
        return {
            "threads": [
                [t.tid, t.name, t.state.name, t.halt_until, len(t.frames),
                 len(t.pending), t.instructions_generated, t.trap_depth]
                for t in self.threads
            ],
            "cpu_threads": [
                [t.tid, len(t.frames), len(t.pending)]
                for t in self.cpu_threads
            ],
            "scheduler": {
                "current": [t.tid if t is not None else None
                            for t in sched.current],
                "run_queue": [t.tid for t in sched.run_queue],
                "quantum_end": list(sched.quantum_end),
                "switches": sched.switches,
                "asn_recycles": sched.asn_recycles,
                "rng": repr(sched.rng.getstate()),
            },
            "wait_queues": {
                name: [t.tid for t in q]
                for name, q in sorted(self.wait_queues.items()) if q
            },
            "marks": sorted(
                [name, label, cycle]
                for (name, label), cycle in self.marks.items()
            ),
            "next_timer": self._next_timer,
            "syscalls": dict(sorted(self.syscall_counts.items())),
            "rng": repr(self.rng.getstate()),
        }

    def close(self) -> None:
        """Drop every reference that leads back to this kernel (see
        :meth:`repro.core.simulator.Simulation.close`).

        These are the streams' kernel links, the scheduler's and VM's
        hooks, each thread's behavior and in-flight frames (their
        callbacks close over the kernel and the devices), the pending
        interrupts and the device list.  Attributes are rebound, never
        cleared in place, so containers a result or an artifact holds
        stay intact.
        """
        for stream in self.streams:
            stream.os = None
        self.scheduler.on_switch = self.scheduler.flush_asn = None
        self.vm.on_incursion = None
        for thread in self.threads_by_tid.values():
            thread.behavior = None
            thread.frames = []
        self.interrupts.pending = deque()
        self.devices = []

    # -- context switching --------------------------------------------------------

    def _on_switch(self, ctx: int, old: SoftwareThread | None, new: SoftwareThread) -> None:
        if self.tlb_flush_on_switch and old is not None and old.process is not new.process:
            self.hierarchy.dtlb.flush_all()
            self.hierarchy.itlb.flush_all()
        if new.process.pid >= 0:
            self.scheduler.assign_asn(new.process)
            if new.user_walker is not None:
                new.user_walker.asn = new.process.asn
        if self.mode is OSMode.FULL:
            cpu = self.cpu_threads[ctx]
            self._push_span(cpu, [
                Frame(cpu.kernel_walker, self._cost(300, 60), "sched", "sched",
                      lock="runq"),
                Frame(cpu.pal_walker, self._cost(14, 3), "pal:swpctx", "swpctx",
                      transfer=InstrType.PAL_CALL),
            ], "sched", f"dispatch:{new.name}", "sched", ctx=ctx)
        elif self.events is not None:
            # APP_ONLY dispatch is instantaneous (no frames), so the event
            # stays an instant rather than a zero-width span.
            self.events.emit(self.now, "sched", f"dispatch:{new.name}",
                             ctx=ctx, tid=new.tid)
        for listener in self.switch_listeners:
            listener(ctx)

    def _flush_asn(self, asn: int) -> None:
        self.hierarchy.dtlb.flush_asn(asn)
        self.hierarchy.itlb.flush_asn(asn)

    # -- address helpers -----------------------------------------------------------

    def lock_word_address(self, name: str) -> int:
        """Kernel virtual address of the named lock's word (one line each,
        so contended spinning hammers a genuinely shared cache line)."""
        return self.reg_lockwords.base + self.locks.DEFAULT_LOCKS.index(name) * 64

    def asn_for(self, thread: SoftwareThread, addr: int) -> int:
        """ASN governing *addr* when referenced by *thread*."""
        if is_kernel_address(addr):
            return KERNEL_ASN
        return thread.process.asn
