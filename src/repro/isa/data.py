"""Synthetic data-address generators.

A :class:`DataModel` produces the effective-address stream of one software
thread.  It draws from a set of :class:`Region` descriptors -- named address
ranges with a working-set structure (hot pages, sequential runs, cold
excursions).  Regions may be shared between threads (e.g. the kernel file
cache or socket buffers), which is the mechanism behind both the destructive
interthread cache conflicts and the constructive interthread prefetching the
paper measures.

On top of the stochastic region mix, a data model supports explicit *copy
bursts*: the OS service models install a (source, destination, length)
triple before data-movement phases such as ``read``/``write`` buffer copies
and netisr packet processing, and subsequent loads/stores walk those extents
sequentially.  This puts genuinely shared, genuinely sequential traffic
through the cache hierarchy.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
import zlib
from dataclasses import dataclass

#: Alpha page size.
PAGE_SIZE = 8192
PAGE_SHIFT = 13
#: Access granularity (one quadword).
WORD = 8


@dataclass(frozen=True)
class Region:
    """A named address range with working-set parameters.

    Parameters
    ----------
    name:
        Identifier used in diagnostics.
    base:
        Starting virtual (or physical, when ``phys``) address; page aligned.
    n_pages:
        Total footprint in pages.
    hot_pages:
        Size of the hot working set, in pages (``<= n_pages``).  Hot jumps
        land on a fixed set of *hot lines* spread over these pages, so the
        region exerts page-granular TLB pressure but line-granular cache
        pressure -- like real programs, whose hot data is a few hundred
        addresses scattered over many pages.
    hot_lines:
        Number of distinct hot cache lines (default ``4 * hot_pages``).
    weight:
        Relative probability that an un-bursted access selects this region.
    p_seq:
        Probability of continuing the current sequential run.
    p_hot:
        Probability (given not sequential) of jumping within the hot set;
        the remainder goes to a cold page anywhere in the region.
    phys:
        True for physical-address regions that bypass the DTLB.
    shared:
        Documentation flag: the region is referenced by multiple threads.
    """

    name: str
    base: int
    n_pages: int
    hot_pages: int
    hot_lines: int | None = None
    weight: float = 1.0
    p_seq: float = 0.55
    p_hot: float = 0.92
    phys: bool = False
    shared: bool = False

    def __post_init__(self) -> None:
        if self.base % PAGE_SIZE:
            raise ValueError(f"region {self.name!r}: base not page aligned")
        if self.n_pages < 1:
            raise ValueError(f"region {self.name!r}: need at least one page")
        if not 1 <= self.hot_pages <= self.n_pages:
            raise ValueError(f"region {self.name!r}: hot_pages out of range")
        if self.weight < 0:
            raise ValueError(f"region {self.name!r}: negative weight")

    @property
    def size(self) -> int:
        """Region size in bytes."""
        return self.n_pages * PAGE_SIZE

    @property
    def limit(self) -> int:
        """One past the last byte of the region."""
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        """True when *addr* falls inside this region."""
        return self.base <= addr < self.limit

    @functools.cached_property
    def hot_addresses(self) -> tuple[int, ...]:
        """The fixed hot-line address set (one word per hot line).

        Derived deterministically from the region's name and geometry, so
        every thread sharing a region descriptor shares the same hot set --
        the substrate of constructive interthread prefetching.
        """
        n_lines = self.hot_lines if self.hot_lines is not None else 4 * self.hot_pages
        n_lines = max(1, n_lines)
        seed = zlib.crc32(self.name.encode()) ^ self.base ^ (self.hot_pages << 8) ^ n_lines
        rng = random.Random(seed & 0xFFFFFFFF)
        addresses = []
        for i in range(n_lines):
            page = i % self.hot_pages
            line_offset = rng.randrange(0, PAGE_SIZE, 64)
            addresses.append(self.base + page * PAGE_SIZE + line_offset
                             + rng.randrange(0, 64, WORD))
        return tuple(addresses)


def _cumulative_weights(regions: list[Region]) -> list[float]:
    """Cumulative region weights, as ``random.choices`` builds them, with
    its checks: a weighted draw needs a positive, finite total."""
    cum = list(itertools.accumulate(r.weight for r in regions))
    if len(cum) > 1:
        total = cum[-1] + 0.0
        if not total > 0.0:
            raise ValueError("Total of weights must be greater than zero")
        if not math.isfinite(total):
            raise ValueError("Total of weights must be finite")
    return cum


class DataModel:
    """Per-thread effective-address generator over a set of regions."""

    __slots__ = (
        "rng",
        "_virt",
        "_phys",
        "_virt_cum",
        "_phys_cum",
        "_cursor",
        "_copy_src",
        "_copy_dst",
        "_copy_src_left",
        "_copy_dst_left",
        "_copy_src_phys",
        "_copy_dst_phys",
    )

    def __init__(self, regions: list[Region], rng: random.Random) -> None:
        if not regions:
            raise ValueError("data model needs at least one region")
        self.rng = rng
        self._virt = [r for r in regions if not r.phys]
        self._phys = [r for r in regions if r.phys]
        self._virt_cum = _cumulative_weights(self._virt)
        self._phys_cum = _cumulative_weights(self._phys)
        # Per-region sequential cursor, keyed by region identity.
        self._cursor: dict[str, int] = {r.name: r.base for r in regions}
        self._copy_src = 0
        self._copy_dst = 0
        self._copy_src_left = 0
        self._copy_dst_left = 0
        self._copy_src_phys = False
        self._copy_dst_phys = False

    # -- copy bursts -------------------------------------------------------

    def set_copy(
        self,
        src: int,
        dst: int,
        nbytes: int,
        src_phys: bool = False,
        dst_phys: bool = False,
    ) -> None:
        """Install a sequential copy: loads walk *src*, stores walk *dst*.

        Any previously active burst is replaced.  The burst drains as the
        thread's memory instructions execute; either side may outlive the
        other if the instruction stream is load- or store-heavy.
        """
        if nbytes <= 0:
            raise ValueError("copy burst must move at least one byte")
        self._copy_src = src
        self._copy_dst = dst
        self._copy_src_left = nbytes
        self._copy_dst_left = nbytes
        self._copy_src_phys = src_phys
        self._copy_dst_phys = dst_phys

    def set_scan(self, base: int, nbytes: int, store: bool = False, phys: bool = False) -> None:
        """Install a one-sided sequential walk (e.g. checksum or zeroing)."""
        if nbytes <= 0:
            raise ValueError("scan burst must touch at least one byte")
        if store:
            self._copy_dst = base
            self._copy_dst_left = nbytes
            self._copy_dst_phys = phys
        else:
            self._copy_src = base
            self._copy_src_left = nbytes
            self._copy_src_phys = phys

    @property
    def burst_active(self) -> bool:
        """True while a copy/scan burst still has bytes to move."""
        return self._copy_src_left > 0 or self._copy_dst_left > 0

    # -- address generation --------------------------------------------------

    def next(self, is_store: bool, site_phys: bool) -> tuple[int, bool]:
        """Produce the next effective address and its actual phys-ness.

        ``site_phys`` is the static instruction-site request for a physical
        (DTLB-bypassing) address; an active copy burst overrides it with the
        burst's own addressing mode.  The returned address is word aligned.
        """
        if is_store and self._copy_dst_left > 0:
            addr = self._copy_dst
            self._copy_dst += WORD
            self._copy_dst_left -= WORD
            return addr, self._copy_dst_phys
        if not is_store and self._copy_src_left > 0:
            addr = self._copy_src
            self._copy_src += WORD
            self._copy_src_left -= WORD
            return addr, self._copy_src_phys
        if (site_phys or not self._virt) and self._phys:
            region = self._pick(self._phys, self._phys_cum)
        else:
            region = self._pick(self._virt, self._virt_cum)
        return self._region_next(region), region.phys

    def _pick(self, regions: list[Region], cum: list[float]) -> Region:
        """One weighted draw: ``rng.choices(regions, weights)[0]`` with the
        cumulative weights built once (same single ``random()`` draw)."""
        n = len(regions)
        if n == 1:
            return regions[0]
        return regions[bisect.bisect(cum, self.rng.random() * cum[-1], 0, n - 1)]

    def _region_next(self, region: Region) -> int:
        rng = self.rng
        cursor = self._cursor[region.name]
        r = rng.random()
        if r < region.p_seq:
            addr = cursor + WORD
            if addr >= region.limit:
                addr = region.base
            # Keep sequential runs within a page: at a page boundary, wrap
            # back to the start of the page just walked half the time.
            if (
                (addr & (PAGE_SIZE - 1)) == 0
                and addr - PAGE_SIZE >= region.base
                and rng.random() < 0.5
            ):
                addr -= PAGE_SIZE
        elif r < region.p_seq + (1.0 - region.p_seq) * region.p_hot:
            # Two-tier hot distribution: most hot references go to a small
            # "core" (the top quarter of the hot lines), the rest anywhere
            # in the hot set.  Real working sets are strongly skewed; a
            # uniform hot set would thrash the cache far more than real
            # programs do.
            hot = region.hot_addresses
            if rng.random() < 0.75:
                addr = hot[rng.randrange(max(1, len(hot) // 4))]
            else:
                addr = hot[rng.randrange(len(hot))]
        else:
            page = rng.randrange(region.n_pages)
            addr = region.base + page * PAGE_SIZE + rng.randrange(0, PAGE_SIZE, WORD)
        self._cursor[region.name] = addr
        return addr
