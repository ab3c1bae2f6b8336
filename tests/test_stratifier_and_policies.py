"""Tests for the low-discrepancy stratifier and the fetch-policy ablation."""

import random
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import CPUConfig
from repro.core.processor import Processor
from repro.core.stats import SimStats
from repro.isa.code import _Stratifier
from repro.isa.instruction import Instruction
from repro.isa.types import InstrType, Mode
from repro.memory.hierarchy import MemoryConfig, MemoryHierarchy


def test_stratifier_rejects_empty():
    with pytest.raises(ValueError):
        _Stratifier([("a", 0.0)], random.Random(0))


def test_stratifier_exact_for_uniform_weights():
    s = _Stratifier([("a", 1), ("b", 1)], random.Random(0))
    window = s.take(10)
    assert window.count("a") == 5
    assert window.count("b") == 5


def test_stratifier_small_windows_track_weights():
    s = _Stratifier([("x", 0.7), ("y", 0.2), ("z", 0.1)], random.Random(1))
    draws = s.take(1000)
    for start in range(0, 1000, 50):
        window = Counter(draws[start:start + 50])
        assert abs(window["x"] / 50 - 0.7) < 0.1
        assert abs(window["y"] / 50 - 0.2) < 0.1


@settings(max_examples=25, deadline=None)
@given(weights=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6),
       n=st.integers(50, 400))
def test_stratifier_long_run_frequencies(weights, n):
    items = list(range(len(weights)))
    s = _Stratifier(list(zip(items, weights)), random.Random(3))
    counts = Counter(s.take(n))
    total_w = sum(weights)
    for item, w in zip(items, weights):
        expected = w / total_w * n
        assert abs(counts[item] - expected) <= len(weights) + 1


class _Stream:
    def __init__(self, instrs):
        self.queue = deque(instrs)
        self.replay = deque()
        self.current_service = "user"

    def next_instruction(self, now):
        if self.replay:
            return self.replay.popleft()
        return self.queue.popleft() if self.queue else None

    def push_replay(self, instrs):
        self.replay.extend(instrs)


def _alu(pc):
    return Instruction(InstrType.INT_ALU, Mode.USER, "user", pc)


FAST = MemoryConfig(l1_fill_penalty=1, l2_latency=2, mem_latency=4,
                    l1l2_bus_latency=0, mem_bus_latency=0)


def _run_policy(policy):
    streams = [_Stream([_alu(0x1000 * (c + 1) + 4 * i) for i in range(50)])
               for c in range(4)]
    cfg = CPUConfig(n_contexts=4, fetch_contexts=2, fetch_policy=policy)
    stats = SimStats(4)
    proc = Processor(cfg, streams, MemoryHierarchy(FAST), stats, random.Random(0))
    for t in range(200):
        proc.cycle(t)
    return stats


def test_round_robin_policy_completes_work():
    stats = _run_policy("round_robin")
    assert stats.retired == 200


def test_icount_policy_completes_work():
    stats = _run_policy("icount")
    assert stats.retired == 200
