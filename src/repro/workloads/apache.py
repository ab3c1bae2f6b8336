"""The Apache / SPECWeb96 workload model.

Sixty-four server processes (the paper's Apache configuration) share one
text segment and loop over the request cycle the paper profiles in its
Figure 7: ``accept`` -> read request -> parse -> ``stat`` (twice, the way
Apache walks the path) -> ``open`` -> read or ``smmap`` the file ->
``writev`` the response (with per-packet TCP transmit processing) -> append
to the access log -> ``close``.  Requests arrive from the closed-loop
SPECWeb client model through the NIC / interrupt / netisr path.

The mix of the user-mode portions is calibrated to the user column of the
paper's Table 5 (loads 21.8%, stores 10.1%, branches 16.7%, no floating
point, conditional-taken 54%).
"""

from __future__ import annotations

import random

from repro.isa.code import CodeModel, CodeModelConfig, SegmentSpec
from repro.isa.data import PAGE_SIZE, Region
from repro.isa.mix import BranchProfile, InstructionMix
from repro.net.packets import Packet, segment
from repro.net.stack import NetworkStack
from repro.os_model.address_space import AddressSpace
from repro.os_model.kernel import MiniDUX
from repro.workloads.base import Workload
from repro.workloads.specweb import SpecWebClients, SpecWebFileSet

#: Files at or above this (scaled) size are served via mmap + writev; the
#: rest via read + writev.  Drives the paper's smmap/munmap syscall share.
MMAP_THRESHOLD = 2048

APACHE_MIX = InstructionMix(
    load=0.218,
    store=0.101,
    branch=0.167,
    fp=0.0,
    branches=BranchProfile(
        uncond=0.129, indirect=0.103, call=0.03, ret=0.03, cond_taken=0.54,
        indirect_targets=3,
    ),
)


class ApacheWorkload(Workload):
    """Apache 1.3-like multi-process web server under SPECWeb96-like load."""

    name = "apache"

    def __init__(
        self,
        n_servers: int = 64,
        n_clients: int = 128,
        n_netisr: int = 4,
        think_mean: int = 20_000,
        scale_div: int = 8,
        netisr_cost: int = 2400,
        coalesce_interval: int = 4000,
        rampup: int = 120_000,
    ) -> None:
        self.n_servers = n_servers
        self.n_clients = n_clients
        self.n_netisr = n_netisr
        self.think_mean = think_mean
        self.scale_div = scale_div
        self.netisr_cost = netisr_cost
        self.coalesce_interval = coalesce_interval
        self.rampup = rampup
        self.stack: NetworkStack | None = None
        self.clients: SpecWebClients | None = None
        self.fileset: SpecWebFileSet | None = None
        self.threads = []
        #: Completed responses before the steady-state window opens.
        self.warmup_responses = 12

    def warmed_up(self, os) -> bool:
        """Apache has effectively no start-up: the steady window opens
        once a couple of dozen requests have completed end to end."""
        return (
            self.clients is not None
            and self.clients.responses_completed >= self.warmup_responses
        )

    def close(self) -> None:
        if self.stack is not None:
            # The NIC and the client model point back at the stack.
            self.stack.nic = None
            self.stack.remote_rx = None

    def setup(self, os: MiniDUX, hierarchy, rng: random.Random) -> None:
        self.stack = NetworkStack(
            os, random.Random(rng.randrange(1 << 30)),
            n_netisr=self.n_netisr, netisr_cost=self.netisr_cost,
            coalesce_interval=self.coalesce_interval,
        )
        self.fileset = SpecWebFileSet(os.reg_filecache, scale_div=self.scale_div)
        self.clients = SpecWebClients(
            os, self.stack, self.fileset, random.Random(rng.randrange(1 << 30)),
            n_clients=self.n_clients, think_mean=self.think_mean,
            rampup=self.rampup,
        )
        # Forked server processes share the Apache text and -- via
        # copy-on-write -- most static data (configuration, mime tables,
        # scoreboards).  One shared region models those pages; without it,
        # 64 disjoint per-process footprints would swamp the L2 in a way
        # real Apache does not.
        shared_static = Region(
            "apache:static", 0x8_1000_0000, 48, 8, hot_lines=64,
            weight=0.9, p_seq=0.35, p_hot=0.995, shared=True)
        text = CodeModel(CodeModelConfig(
            "apache", 0x8_0000_0000 + 0x1_0000, APACHE_MIX,
            segments=(SegmentSpec("main", 2600, 96),),
            cold_excursion=0.015,
            return_to_hot=0.75,
            seed=rng.randrange(1 << 30),
        ))
        log_extent = os.reg_filecache.base + int(os.reg_filecache.size * 0.45)
        for i in range(self.n_servers):
            address_space = AddressSpace(pid=i, name=f"httpd{i}")
            heap = address_space.region(
                "heap", 0x40_0000, 8, 5, hot_lines=12, weight=0.5,
                p_seq=0.3, p_hot=0.999)
            address_space.regions.append(shared_static)
            address_space.region(
                "stack", 0x1000_0000, 4, 2, hot_lines=8, weight=0.6,
                p_seq=0.3, p_hot=0.999)
            io = address_space.region(
                "io", 0x2000_0000, 4, 3, hot_lines=10, weight=0.4, p_hot=0.999)
            mmap_area = address_space.region(
                "mmap", 0x3000_0000, 32, 2, hot_lines=8, weight=0.0)
            brng = random.Random(rng.randrange(1 << 30))

            def factory(thread, heap=heap, io=io, mmap_area=mmap_area,
                        brng=brng, log_extent=log_extent):
                return _server_behavior(
                    thread, self.stack, self.fileset, os, io, mmap_area,
                    log_extent, brng)

            thread = os.create_process(f"httpd{i}", i, text, address_space, factory)
            self.threads.append(thread)


def _server_behavior(thread, stack: NetworkStack, fileset: SpecWebFileSet,
                     os: MiniDUX, io, mmap_area, log_extent: int,
                     rng: random.Random):
    """One Apache server process's request loop."""
    slot: dict = {}
    iteration = 0
    marked = False
    while True:
        iteration += 1
        if iteration % 6 == 0:
            yield ("syscall", "select", {})

        def grab(slot=slot):
            slot["conn"] = stack.pop_pending_accept()

        yield ("syscall", "accept", {
            "block_if": lambda: not stack.has_pending_accept(),
            "queue": "accept",
            "on_done": grab,
        })
        conn = slot.pop("conn", None)
        if conn is None:
            continue
        if not marked:
            marked = True
            yield ("mark", "steady")
        f = fileset.by_id(conn.file_id)
        sb = stack.socket_buffer_address(conn.conn_id)
        io_addr = io.base + (iteration % 4) * PAGE_SIZE

        # Read and parse the HTTP request.
        yield ("compute", max(120, int(rng.gauss(450, 120))))
        yield ("syscall", "sock_read", {
            "nbytes": conn.request_size,
            "copy": (sb, io_addr, False, False),
        })
        yield ("compute", max(300, int(rng.gauss(1600, 350))))

        # Path walk: Apache stats the translated filename (and often the
        # directory), then opens.
        yield ("syscall", "stat", {})
        yield ("syscall", "stat", {})
        yield ("syscall", "open", {})
        yield ("compute", max(150, int(rng.gauss(700, 180))))

        response = f.size + 300  # headers + body
        conn.bytes_to_send = response
        if f.size >= MMAP_THRESHOLD:
            map_addr = mmap_area.base + (f.file_id * 16 * PAGE_SIZE) % (
                mmap_area.size // 2)
            yield ("syscall", "smmap", {
                "on_done": lambda: os.vm.record_incursion("mmap_map"),
            })
            src = map_addr
        else:
            map_addr = None
            disk = rng.random() < 0.08
            yield ("syscall", "read", {
                "nbytes": f.size,
                "copy": (fileset.extent_address(f.file_id), io_addr, True, False),
                "disk": disk,
                "dma": (fileset.extent_address(f.file_id), f.size) if disk else None,
            })
            src = io_addr

        # Build the response headers in user mode, then transmit.
        yield ("compute", max(200, int(rng.gauss(1400, 320))))
        # Transmit: one TCP output pass per packet, then hand to the link.
        sizes = segment(response)
        post_frames = []
        for j, size in enumerate(sizes):
            pkt = Packet(conn.conn_id, size, "resp")
            post_frames.append((
                "nettx",
                max(80, int(rng.gauss(420, 100))),
                (lambda pkt=pkt: stack.transmit(pkt)),
            ))
        yield ("syscall", "writev", {
            "nbytes": response,
            "copy": (src, sb, False, False),
            "post_frames": post_frames,
        })
        if map_addr is not None:
            pages = (f.size + PAGE_SIZE - 1) // PAGE_SIZE

            def unmap(map_addr=map_addr, pages=pages, pid=thread.process.pid):
                os.vm.release_range(pid, map_addr, pages)

            yield ("syscall", "munmap", {"on_done": unmap})

        # Access-log append, then tear down.
        yield ("syscall", "write", {
            "nbytes": 96,
            "copy": (io_addr, log_extent, False, True),
        })
        yield ("syscall", "close", {
            "on_done": (lambda conn_id=conn.conn_id: stack.close(conn_id)),
        })
