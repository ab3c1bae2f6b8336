"""The full cache/memory hierarchy of Table 1, glued together.

Latency composition for a data access::

    L1 hit:            l1_hit_latency
    L1 miss, L2 hit:   l1 fill penalty + L1-L2 bus + L2 latency
    L2 miss:           ... + memory bus + memory latency

MSHR files bound the number of outstanding misses per level (a full file
stalls the new miss until the earliest completion), the store buffer bounds
outstanding stores, and the buses add queueing delay under load.  All
structures classify misses and record sharing as described in
:mod:`repro.memory.classify`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.bus import Bus
from repro.memory.cache import Cache
from repro.memory.mshr import MSHRFile, StoreBuffer
from repro.memory.tlb import TLB


@dataclass(frozen=True)
class MemoryConfig:
    """Geometry and latencies of the memory system.

    Defaults are the paper's Table 1 scaled by ``1/8`` in cache capacity
    (see DESIGN.md): workload footprints are scaled down by the same factor
    so that the *pressure regimes* -- and therefore miss-rate ratios,
    conflict shares and sharing effects -- match the paper's, while runs
    stay tractable in pure Python.  Use :meth:`paper_scale` for the
    unscaled geometry.
    """

    line_size: int = 64
    l1i_size: int = 16 * 1024
    l1i_assoc: int = 2
    l1d_size: int = 16 * 1024
    l1d_assoc: int = 2
    l1_hit_latency: int = 1
    l1_fill_penalty: int = 2
    l2_size: int = 2 * 1024 * 1024
    l2_assoc: int = 1
    l2_latency: int = 20
    mem_latency: int = 90
    l1_mshrs: int = 32
    l2_mshrs: int = 32
    store_buffer_entries: int = 32
    l1l2_bus_latency: int = 2
    mem_bus_latency: int = 4
    itlb_entries: int = 128
    dtlb_entries: int = 128
    dcache_ports: int = 2

    @classmethod
    def paper_scale(cls) -> "MemoryConfig":
        """The literal Table 1 geometry (128KB L1s, 16MB L2)."""
        return cls(
            l1i_size=128 * 1024,
            l1d_size=128 * 1024,
            l2_size=16 * 1024 * 1024,
        )


class AccessResult:
    """Outcome of one hierarchy access.

    Read-only by contract: the hierarchy hands out one shared instance
    for every L1 hit with the same latency instead of building one per
    access, so callers must never mutate a result.
    """

    __slots__ = ("latency", "l1_hit", "l2_hit")

    def __init__(self, latency: int, l1_hit: bool, l2_hit: bool) -> None:
        self.latency = latency
        self.l1_hit = l1_hit
        self.l2_hit = l2_hit

    def __repr__(self) -> str:
        return (f"AccessResult(latency={self.latency}, "
                f"l1_hit={self.l1_hit}, l2_hit={self.l2_hit})")


#: The instruction side's L1 hit: the line is there, no fill latency.
_INST_HIT = AccessResult(0, True, True)


class MemoryHierarchy:
    """L1 I/D + unified L2 + memory, with TLBs, MSHRs and buses.

    ``registry`` (a :class:`~repro.obs.registry.ProbeRegistry`) exposes
    every structure's counters under ``mem.*`` as snapshot-time derived
    probes; ``events`` (an :class:`~repro.obs.events.EventBus`, default
    ``None``) receives one ``cache`` event per L1/L2 miss.
    """

    def __init__(self, config: MemoryConfig | None = None,
                 registry=None) -> None:
        cfg = config or MemoryConfig()
        self.config = cfg
        self.l1i = Cache("L1I", cfg.l1i_size, cfg.l1i_assoc, cfg.line_size)
        self.l1d = Cache("L1D", cfg.l1d_size, cfg.l1d_assoc, cfg.line_size)
        self.l2 = Cache("L2", cfg.l2_size, cfg.l2_assoc, cfg.line_size)
        self.itlb = TLB("ITLB", cfg.itlb_entries)
        self.dtlb = TLB("DTLB", cfg.dtlb_entries)
        self.l1i_mshr = MSHRFile("L1I-MSHR", cfg.l1_mshrs)
        self.l1d_mshr = MSHRFile("L1D-MSHR", cfg.l1_mshrs)
        self.l2_mshr = MSHRFile("L2-MSHR", cfg.l2_mshrs)
        self.store_buffer = StoreBuffer(cfg.store_buffer_entries)
        self.l1l2_bus = Bus("L1-L2", cfg.l1l2_bus_latency)
        self.mem_bus = Bus("MEM", cfg.mem_bus_latency)
        #: The data side's L1 hit without port queueing.
        self._data_hit = AccessResult(cfg.l1_hit_latency, True, True)
        # D-cache port gate: at most `dcache_ports` accesses per cycle.
        self._port_cycle = -1
        self._port_used = 0
        #: When True, kernel/PAL references bypass (and do not perturb) the
        #: caches -- the paper's Table 9 "Apache only" measurement mode.
        self.omit_kernel_refs = False
        #: Optional EventBus receiving cache-miss events; None = no events.
        self.events = None
        if registry is not None:
            self.register_probes(registry)

    def register_probes(self, registry) -> None:
        """Register the memory layer's probe subtree (``mem.*``)."""
        self.l1i.register_probes(registry, "mem.l1i")
        self.l1d.register_probes(registry, "mem.l1d")
        self.l2.register_probes(registry, "mem.l2")
        self.itlb.register_probes(registry, "mem.itlb")
        self.dtlb.register_probes(registry, "mem.dtlb")
        self.l1i_mshr.register_probes(registry, "mem.mshr.l1i")
        self.l1d_mshr.register_probes(registry, "mem.mshr.l1d")
        self.l2_mshr.register_probes(registry, "mem.mshr.l2")
        self.l1l2_bus.register_probes(registry, "mem.bus.l1l2")
        self.mem_bus.register_probes(registry, "mem.bus.mem")
        registry.derive("mem.store_buffer.full_stalls",
                        lambda: self.store_buffer.full_stalls)

    # -- data side -----------------------------------------------------------

    def _port_start(self, now: int) -> int:
        """Earliest cycle >= now with a free D-cache port."""
        if now > self._port_cycle:
            self._port_cycle = now
            self._port_used = 1
            return now
        # Same (or earlier due to out-of-order issue bookkeeping) cycle.
        if self._port_used < self.config.dcache_ports:
            self._port_used += 1
            return self._port_cycle
        self._port_cycle += 1
        self._port_used = 1
        return self._port_cycle

    def data_access(self, now: int, addr: int, tid: int, kind: int,
                    write: bool = False) -> AccessResult:
        """Access the data side; returns total latency from *now*."""
        cfg = self.config
        if self.omit_kernel_refs and kind:  # ModeKind.KERNEL
            return self._data_hit
        start = self._port_start(now)
        if self.l1d.access(addr, tid, kind, write):
            if start == now:
                return self._data_hit
            return AccessResult(start - now + cfg.l1_hit_latency, True, True)
        if self.events is not None:
            self.events.emit(now, "cache", "l1d_miss", tid=tid)
        miss_start = self.l1d_mshr.acquire(start, cfg.l2_latency + cfg.l1l2_bus_latency)
        latency = (miss_start - now) + cfg.l1_fill_penalty
        latency += self.l1l2_bus.request(miss_start)
        if self.l2.access(addr, tid, kind, write):
            return AccessResult(latency + cfg.l2_latency, False, True)
        if self.events is not None:
            self.events.emit(now, "cache", "l2_miss", tid=tid)
        l2_start = self.l2_mshr.acquire(miss_start, cfg.mem_latency + cfg.mem_bus_latency)
        latency += (l2_start - miss_start) + cfg.l2_latency
        latency += self.mem_bus.request(l2_start)
        latency += cfg.mem_latency
        return AccessResult(latency, False, False)

    def store_complete(self, now: int) -> int:
        """Cycle at which a store issued at *now* can retire (buffer gate)."""
        return self.store_buffer.push(now) + 1

    # -- instruction side ---------------------------------------------------

    def inst_access(self, now: int, addr: int, tid: int, kind: int) -> AccessResult:
        """Fetch the line containing *addr*; returns fill latency on miss."""
        cfg = self.config
        if self.omit_kernel_refs and kind:
            return _INST_HIT
        if self.l1i.access(addr, tid, kind):
            return _INST_HIT
        if self.events is not None:
            self.events.emit(now, "cache", "l1i_miss", tid=tid)
        miss_start = self.l1i_mshr.acquire(now, cfg.l2_latency + cfg.l1l2_bus_latency)
        latency = (miss_start - now) + cfg.l1_fill_penalty
        latency += self.l1l2_bus.request(miss_start)
        if self.l2.access(addr, tid, kind):
            return AccessResult(latency + cfg.l2_latency, False, True)
        l2_start = self.l2_mshr.acquire(miss_start, cfg.mem_latency + cfg.mem_bus_latency)
        latency += (l2_start - miss_start) + cfg.l2_latency
        latency += self.mem_bus.request(l2_start)
        latency += cfg.mem_latency
        return AccessResult(latency, False, False)

    # -- warm-only path (fast-functional tier) -------------------------------

    def warm_inst(self, addr: int, tid: int, kind: int) -> None:
        """Instruction-side reference with state and miss accounting but no
        timing: fills L1I (and L2 on an L1 miss) without MSHR, bus, or
        latency modeling.  The fast-functional tier's I-side access."""
        if self.omit_kernel_refs and kind:
            return
        if not self.l1i.access(addr, tid, kind):
            self.l2.access(addr, tid, kind)

    def warm_data(self, addr: int, tid: int, kind: int,
                  write: bool = False) -> None:
        """Data-side reference with state and miss accounting but no
        timing (no port gate, MSHRs, buses, or store buffer)."""
        if self.omit_kernel_refs and kind:
            return
        if not self.l1d.access(addr, tid, kind, write):
            self.l2.access(addr, tid, kind, write)

    def content_state(self) -> dict:
        """Deterministic summary of every stateful structure's contents,
        hashed into the state digests that
        ``tests/test_engine.py::test_fast_tier_state_is_pinned`` pins."""
        return {
            "l1i": self.l1i.content_state(),
            "l1d": self.l1d.content_state(),
            "l2": self.l2.content_state(),
            "itlb": self.itlb.content_state(),
            "dtlb": self.dtlb.content_state(),
        }

    # -- OS operations -------------------------------------------------------

    def icache_flush(self) -> int:
        """OS instruction-cache flush (issued after instruction-page remaps).

        The paper identifies these flushes -- not index conflicts -- as the
        main source of the OS-induced I-cache miss increase for SPECInt.
        """
        return self.l1i.flush_all()

    def dma_write(self, addr: int, nbytes: int) -> None:
        """Model a device DMA write: invalidate overlapping cache lines.

        Matching the paper, network-interface DMA is *not* routed through
        the memory bus model; only its coherence effect on the caches is
        applied.
        """
        line = self.config.line_size
        for a in range(addr, addr + nbytes, line):
            self.l1d.flush_address(a)
            self.l2.flush_address(a)
