"""Tests for the per-context instruction streams (TLB interception, spin
emission, replay, scheduling integration)."""

import random

import pytest

from repro.isa.code import CodeModel, CodeModelConfig, SegmentSpec
from repro.isa.instruction import Instruction
from repro.isa.mix import InstructionMix
from repro.isa.types import InstrType, Mode
from repro.memory.hierarchy import MemoryHierarchy
from repro.os_model.address_space import AddressSpace
from repro.os_model.kernel import MiniDUX, OSMode


@pytest.fixture
def osk():
    return MiniDUX(MemoryHierarchy(), n_contexts=2, rng=random.Random(2))


def add_process(osk, behavior_factory, pid=0):
    asp = AddressSpace(pid=pid, name=f"p{pid}")
    asp.region("heap", 0x40_0000, 8, 4)
    code = CodeModel(CodeModelConfig(
        f"p{pid}", asp.base + 0x1_0000, InstructionMix(),
        segments=(SegmentSpec("main", 40, 8),), seed=pid))
    return osk.create_process(f"p{pid}", pid, code, asp, behavior_factory)


def test_stream_runs_idle_thread_when_no_work(osk):
    # The idle loop's first instructions fault the ITLB (cold TLBs), so the
    # very first deliveries are PAL refills; idle work follows.
    stream = osk.streams[0]
    services = []
    for i in range(3000):
        instr = stream.next_instruction(i)
        if instr is not None:
            services.append(instr.service)
    assert "idle" in services


def test_stream_schedules_ready_process(osk):
    def gen():
        while True:
            yield ("compute", 50)

    add_process(osk, lambda t: gen())
    stream = osk.streams[0]
    seen_user = False
    for i in range(4000):
        instr = stream.next_instruction(i)
        if instr is not None and instr.service == "user":
            seen_user = True
            break
    assert seen_user


def test_stream_intercepts_dtlb_miss(osk):
    def gen():
        while True:
            yield ("compute", 100)

    add_process(osk, lambda t: gen())
    stream = osk.streams[0]
    services = [stream.next_instruction(i) for i in range(3000)]
    services = [s.service for s in services if s is not None]
    assert "tlb:refill" in services or "pal:dtlb" in services
    assert osk.counters["dtlb_miss_events"] > 0


def test_replay_delivered_first(osk):
    stream = osk.streams[0]
    stream.next_instruction(0)
    fake = Instruction(InstrType.INT_ALU, Mode.USER, "user", 0xAAAA)
    stream.push_replay([fake])
    assert stream.next_instruction(1) is fake


def test_spin_instruction_emitted_on_contention(osk):
    def gen():
        yield ("syscall", "stat", {})
        while True:
            yield ("compute", 10)

    a = add_process(osk, lambda t: gen(), pid=0)
    b = add_process(osk, lambda t: gen(), pid=1)
    # Acquire the vfs lock on behalf of an unrelated holder so both
    # processes contend immediately.
    assert osk.locks.acquire("vfs", 999)
    spins = 0
    for i in range(4000):
        for stream in osk.streams:
            instr = stream.next_instruction(i)
            if instr is not None and instr.service == "spinlock":
                spins += 1
        if spins:
            break
    assert spins > 0
    assert osk.counters["spin_instructions"] > 0


def test_stream_switches_away_from_blocked_thread(osk):
    def gen():
        yield ("sleep", "never")
        yield ("compute", 10)

    t = add_process(osk, lambda t: gen())
    stream = osk.streams[0]
    for i in range(3000):
        stream.next_instruction(i)
    # The process blocked; the context must have moved on (idle thread).
    assert osk.scheduler.current[0] is not t


def test_current_service_reflects_frames(osk):
    # The attributed service: the CPU pseudo-thread's top frame, else the
    # scheduled thread's top frame, "user" without one, "idle" without a
    # thread; the call path always ends in it.
    stream = osk.streams[0]
    seen = set()
    for i in range(3000):
        stream.next_instruction(i)
        service, path = stream.current_attrib
        thread = osk.scheduler.current[0]
        if stream.cpu.frames:
            assert service == stream.cpu.frames[-1].service
        elif thread is None:
            assert service == "idle"
        elif thread.frames:
            assert service == thread.frames[-1].service
        else:
            assert service == "user"
        assert path.split(";")[-1] == service
        seen.add(service)
    assert len(seen) > 1


def test_app_only_stream_never_emits_kernel():
    osk = MiniDUX(MemoryHierarchy(), n_contexts=1, rng=random.Random(3),
                  mode=OSMode.APP_ONLY)

    def gen():
        while True:
            yield ("compute", 40)
            yield ("syscall", "getpid", {})

    asp = AddressSpace(pid=0, name="p0")
    asp.region("heap", 0x40_0000, 8, 4)
    code = CodeModel(CodeModelConfig(
        "p0", asp.base + 0x1_0000, InstructionMix(),
        segments=(SegmentSpec("main", 40, 8),), seed=0))
    osk.create_process("p0", 0, code, asp, lambda t: gen())
    stream = osk.streams[0]
    for i in range(2000):
        instr = stream.next_instruction(i)
        if instr is None:
            continue
        assert instr.service in ("user", "idle")
