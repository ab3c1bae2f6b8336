"""Kernel virtual-memory system: page allocation and MM incursion counts.

The paper's Figure 3 counts *incursions into kernel memory-management code*
by type, with page allocation the majority during SPECInt start-up.  Here a
DTLB miss on a never-touched page takes the allocation path (a much longer
kernel service than a plain refill), so MM activity declines naturally as
working sets stop growing -- the start-up -> steady-state transition of
Figures 1-4 is emergent, not scripted.

Instruction-page remaps additionally force an I-cache flush, which the paper
identifies as the dominant source of OS-induced instruction misses for
SPECInt.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.isa.data import PAGE_SHIFT
from repro.os_model.address_space import is_kernel_address


class VMSystem:
    """Page-allocation state and memory-management accounting."""

    #: Incursion types reported for Figure 3.
    INCURSION_TYPES = (
        "page_allocation",
        "mmap_map",
        "mmap_unmap",
        "fault_other",
        "pageout",
    )

    def __init__(self, rng: random.Random, icache_flush_prob: float = 0.03) -> None:
        self.rng = rng
        #: Probability that a page allocation is an instruction-page remap
        #: that forces an I-cache flush.
        self.icache_flush_prob = icache_flush_prob
        self._allocated: set[tuple[int, int]] = set()
        self.incursions: dict[str, int] = {t: 0 for t in self.INCURSION_TYPES}
        self.pages_allocated = 0
        #: Observer called with the incursion kind on every MM-code entry;
        #: the kernel wires this to the event bus (``vm`` events on the
        #: trace timeline).  None = unobserved, zero cost.
        self.on_incursion: Callable[[str], None] | None = None

    def needs_allocation(self, pid: int, addr: int) -> bool:
        """True when *addr* belongs to a never-touched user page.

        Kernel pages are wired at boot and never take the allocation path.
        """
        if is_kernel_address(addr):
            return False
        return (pid, addr >> PAGE_SHIFT) not in self._allocated

    def allocate(self, pid: int, addr: int, kind: str = "page_allocation") -> bool:
        """Allocate the page under *addr*; returns True when an I-cache
        flush (instruction-page remap) should follow."""
        if kind not in self.incursions:
            raise ValueError(f"unknown MM incursion type {kind!r}")
        self._allocated.add((pid, addr >> PAGE_SHIFT))
        self.incursions[kind] += 1
        self.pages_allocated += 1
        if self.on_incursion is not None:
            self.on_incursion(kind)
        return self.rng.random() < self.icache_flush_prob

    def record_incursion(self, kind: str) -> None:
        """Count an MM entry that does not allocate (protection fault &c.)."""
        if kind not in self.incursions:
            raise ValueError(f"unknown MM incursion type {kind!r}")
        self.incursions[kind] += 1
        if self.on_incursion is not None:
            self.on_incursion(kind)

    def release_range(self, pid: int, base: int, n_pages: int) -> int:
        """munmap: forget allocations so re-maps re-fault (region reuse)."""
        released = 0
        vpn0 = base >> PAGE_SHIFT
        for vpn in range(vpn0, vpn0 + n_pages):
            if (pid, vpn) in self._allocated:
                self._allocated.discard((pid, vpn))
                released += 1
        self.incursions["mmap_unmap"] += 1
        if self.on_incursion is not None:
            self.on_incursion("mmap_unmap")
        return released
