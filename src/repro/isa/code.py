"""Synthetic code models: static control-flow graphs walked at run time.

A :class:`CodeModel` is the stand-in for a program's (or kernel's) text
segment.  It is a set of basic blocks laid out at consecutive program-counter
values.  Each block carries a statically generated body (a tuple of
instruction categories and dependence flags) and ends in exactly one control
transfer whose behavior (taken bias, target set) was fixed when the model was
built -- just like static code.

Walking the graph therefore produces:

* a PC stream with genuine spatial and temporal locality (hot loop regions,
  cold excursions) that drives the instruction cache and ITLB;
* branch-site streams with stable per-site biases that a real McFarling
  predictor and BTB can learn (or fail to learn);
* instruction-category sequences matching a calibrated mix.

Models may be divided into *segments* -- disjoint block ranges whose control
transfers stay inside the segment.  The kernel model uses one segment per OS
service, which reproduces the paper's locality contrast: SPECInt kernel time
concentrates in the TLB-refill segment (good I-cache locality) while Apache
spreads across many services (poor locality).
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass

from repro.isa.instruction import Instruction
from repro.isa.mix import BASE_LATENCY, InstructionMix
from repro.isa.types import MEMORY_TYPES, InstrType, Mode

# Terminator encodings (plain ints for speed).
TERM_COND = 0
TERM_UNCOND = 1
TERM_INDIRECT = 2
TERM_CALL = 3
TERM_RETURN = 4

#: Terminator encoding -> instruction category (indexed by TERM_*).
_TERM_ITYPE = (
    InstrType.COND_BRANCH,
    InstrType.UNCOND_BRANCH,
    InstrType.INDIRECT_JUMP,
    InstrType.CALL,
    InstrType.RETURN,
)

# Enum members bound once: the walker tests them per instruction.
_LOAD = InstrType.LOAD
_STORE = InstrType.STORE
_SYNC = InstrType.SYNC

#: Every possible body slot ``(itype, dep, phys)``, built once so that block
#: bodies share them: at most 48 objects however many slots models hold.
_SLOT = {
    (itype, dep, phys): (itype, dep, phys)
    for itype in InstrType
    for dep in (False, True)
    for phys in (False, True)
}

#: Bimodal conditional-branch bias extremes.  The mixture weight between them
#: is solved from the mix's target taken rate.
_HI_BIAS = 0.96
_LO_BIAS = 0.06

_MAX_CALL_DEPTH = 16


@dataclass(frozen=True)
class SegmentSpec:
    """One contiguous, control-flow-closed region of a code model."""

    name: str
    n_blocks: int
    hot_blocks: int

    def __post_init__(self) -> None:
        if self.n_blocks < 2:
            raise ValueError(f"segment {self.name!r} needs >= 2 blocks")
        if not 1 <= self.hot_blocks <= self.n_blocks:
            raise ValueError(
                f"segment {self.name!r}: hot_blocks must be in [1, n_blocks]"
            )


@dataclass(frozen=True)
class CodeModelConfig:
    """Build-time parameters of a code model."""

    name: str
    base_pc: int
    mix: InstructionMix
    segments: tuple[SegmentSpec, ...] = (SegmentSpec("main", 256, 32),)
    #: Probability that a cold block's branch leads back toward the hot set.
    return_to_hot: float = 0.6
    #: Probability that a hot block's conditional branch targets the cold
    #: region (rare excursions out of the loop nest).
    cold_excursion: float = 0.04
    #: Probability that an executed indirect jump switches to another of its
    #: static targets (drives BTB target mispredictions).
    indirect_switch: float = 0.2
    #: Per-terminator probability of a random jump within the hot set.
    #: Static random targets can form tiny absorbing orbits (two blocks
    #: whose unconditional branches point at each other); this perturbation
    #: models the data-dependent control flow a real program has and keeps
    #: the walk ergodic over the hot region.
    ergodic_jump: float = 0.03
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("code model needs at least one segment")
        # _build keys segments by name: a repeated name would drop the
        # earlier segment and leave its blocks unbuilt.
        names = [segment.name for segment in self.segments]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ValueError(f"code model {self.name!r} repeats segment "
                             f"name(s) {repeated}")


@dataclass
class _Segment:
    """Resolved segment: block index range plus hot sub-range."""

    name: str
    start: int
    end: int  # exclusive
    hot_end: int  # exclusive; hot blocks are [start, hot_end)


class _Stratifier:
    """Low-discrepancy weighted assignment via Bresenham credit counters.

    Each draw credits every item its weight, returns the item whose
    accumulated credit is then highest (the first of equal maxima), and
    debits it one unit -- so every window of N consecutive draws contains
    each item close to ``weight * N`` times.  Initial credits are randomly
    phased so different models interleave items differently; after that the
    draws use no randomness, so a stream may be taken in batches of any size.
    """

    def __init__(self, weighted_items, rng: random.Random) -> None:
        items = [(item, w) for item, w in weighted_items if w > 0]
        if not items:
            raise ValueError("stratifier needs at least one positive weight")
        total = sum(w for _, w in items)
        self.items = [item for item, _ in items]
        self.weights = [w / total for _, w in items]
        self.credits = [rng.random() * w for w in self.weights]

    def take(self, k: int) -> list:
        """The next *k* items of the stream."""
        items = self.items
        credits = self.credits
        weights = self.weights
        n_items = range(len(credits))
        out = []
        for _ in range(k):
            best = 0
            for i in n_items:
                credits[i] += weights[i]
                if credits[i] > credits[best]:
                    best = i
            credits[best] -= 1.0
            out.append(items[best])
        return out


class CodeModel:
    """A built synthetic text segment (see module docstring)."""

    def __init__(self, config: CodeModelConfig) -> None:
        self.config = config
        self.name = config.name
        rng = random.Random((config.seed ^ zlib.crc32(config.name.encode())) & 0xFFFFFFFF)
        self._build(rng)

    # -- construction -----------------------------------------------------

    def _build(self, rng: random.Random) -> None:
        cfg = self.config
        mix = cfg.mix
        profile = mix.branches

        self.segments: dict[str, _Segment] = {}
        n_total = sum(s.n_blocks for s in cfg.segments)
        self.n_blocks = n_total

        # Per-block static data.
        self.block_pc: list[int] = [0] * n_total
        self.block_body: list[tuple[tuple[InstrType, bool, bool], ...]] = [()] * n_total
        self.term_type: list[int] = [0] * n_total
        self.taken_prob: list[float] = [0.0] * n_total
        self.target: list[int] = [0] * n_total
        self.indirect_targets: list[tuple[int, ...]] = [()] * n_total
        self.indirect_cursor: list[int] = [0] * n_total  # mutable run-time state
        self.fallthrough: list[int] = [0] * n_total

        # Solve the bimodal mixture weight for the target taken rate.
        want = min(max(profile.cond_taken, _LO_BIAS), _HI_BIAS)
        loop_frac = (want - _LO_BIAS) / (_HI_BIAS - _LO_BIAS)

        # Stratified assignment (Bresenham-style credit counters) for body
        # categories, terminator types, and conditional-branch biases.  A
        # walker visits only a segment's hot prefix, so the *composition of
        # every contiguous block window* must match the target mix; random
        # i.i.d. draws leave small, heavily-executed segments with wildly
        # skewed dynamic mixes (a 15-block TLB-refill handler could come out
        # all-loads or all-taken by chance).
        body_strat = _Stratifier(mix.body_weights(), rng)
        term_strat = _Stratifier(
            [
                (TERM_UNCOND, profile.uncond),
                (TERM_INDIRECT, profile.indirect),
                (TERM_CALL, profile.call),
                (TERM_RETURN, profile.ret),
                (TERM_COND, profile.cond),
            ],
            rng,
        )
        bias_strat = _Stratifier([(True, loop_frac), (False, 1.0 - loop_frac)], rng)

        pc = cfg.base_pc
        start = 0
        for spec in cfg.segments:
            seg = _Segment(spec.name, start, start + spec.n_blocks, start + spec.hot_blocks)
            self.segments[spec.name] = seg
            start = seg.end

        # One pass over every block and slot (a specint machine's models
        # hold ~19k blocks and ~107k slots), on locals.  The order of the
        # draws from *rng* is part of every model: each block's length,
        # then each slot's dependence flag and, for memory slots whatever
        # phys_frac is, its physical-addressing flag, then the terminator's
        # bias and targets.  Reordering a draw or a float operation changes
        # every model and trajectory (tests/test_code_model.py pins their
        # digests).  The stratifiers draw nothing after construction, so
        # terminators and biases are taken in one batch each.
        random_ = rng.random
        gauss = rng.gauss
        uniform = rng.uniform
        randrange = rng.randrange
        mean_len = mix.mean_block_len
        len_sigma = mean_len * 0.25
        phys_frac = mix.phys_frac
        cold_excursion = cfg.cold_excursion
        return_to_hot = cfg.return_to_hot
        n_indirect = max(1, profile.indirect_targets)
        block_pc = self.block_pc
        block_body = self.block_body
        term_type = self.term_type
        taken_prob = self.taken_prob
        target = self.target
        indirect_targets = self.indirect_targets
        fallthrough = self.fallthrough
        terms = term_strat.take(n_total)
        next_term = iter(terms).__next__
        next_loopy = iter(bias_strat.take(terms.count(TERM_COND))).__next__
        # Body categories by stratifier index: dependence probability,
        # whether the slot draws a physical-addressing flag, and its shared
        # slot tuples indexed [dep][phys].
        cats = body_strat.items
        dep_p = [mix.dep_prob.get(t, 0.3) for t in cats]
        is_mem = [t in MEMORY_TYPES for t in cats]
        slots = [((_SLOT[t, False, False], _SLOT[t, False, True]),
                  (_SLOT[t, True, False], _SLOT[t, True, True]))
                 for t in cats]
        # The body stratifier's step runs inline: the step of
        # `_Stratifier.take` (strict `>`, so the first of equal maxima
        # wins) on five credit/weight locals, as a mix has at most five
        # body categories.  Absent ones get a credit that never wins.
        pad = 5 - len(cats)
        c0, c1, c2, c3, c4 = body_strat.credits + [-math.inf] * pad
        w0, w1, w2, w3, w4 = body_strat.weights + [0.0] * pad

        for seg in self.segments.values():
            seg_start, hot_end, seg_end = seg.start, seg.hot_end, seg.end
            has_cold = seg_end > hot_end
            for b in range(seg_start, seg_end):
                length = max(3, round(gauss(mean_len, len_sigma)))
                body = []
                append = body.append
                for _ in range(length - 1):
                    c0 += w0
                    c1 += w1
                    c2 += w2
                    c3 += w3
                    c4 += w4
                    c = 0
                    top = c0
                    if c1 > top:
                        c = 1
                        top = c1
                    if c2 > top:
                        c = 2
                        top = c2
                    if c3 > top:
                        c = 3
                        top = c3
                    if c4 > top:
                        c = 4
                    if c == 0:
                        c0 -= 1.0
                    elif c == 1:
                        c1 -= 1.0
                    elif c == 2:
                        c2 -= 1.0
                    elif c == 3:
                        c3 -= 1.0
                    else:
                        c4 -= 1.0
                    pair = slots[c][random_() < dep_p[c]]
                    append(pair[random_() < phys_frac] if is_mem[c] else pair[0])
                block_pc[b] = pc
                block_body[b] = tuple(body)
                pc += length * 4

                term = next_term()
                term_type[b] = term
                fallthrough[b] = b + 1 if b + 1 < seg_end else seg_start
                if term == TERM_RETURN:
                    continue  # no target: the walker's call stack decides
                if term == TERM_COND:
                    p = (
                        uniform(_HI_BIAS - 0.03, _HI_BIAS + 0.03)
                        if next_loopy()
                        else uniform(_LO_BIAS - 0.04, _LO_BIAS + 0.06)
                    )
                    taken_prob[b] = min(0.99, max(0.01, p))
                # Targets stay inside the segment.  A hot block jumps
                # uniformly over the hot set -- so the walk visits hot blocks
                # near-uniformly and the dynamic mix stays close to the
                # static one -- and rarely out to the cold region; a cold
                # block usually heads back to the hot set.
                picks = []
                for _ in range(n_indirect if term == TERM_INDIRECT else 1):
                    if b < hot_end:
                        if has_cold and random_() < cold_excursion:
                            picks.append(randrange(hot_end, seg_end))
                        else:
                            picks.append(randrange(seg_start, hot_end))
                    elif random_() < return_to_hot:
                        picks.append(randrange(seg_start, hot_end))
                    else:
                        picks.append(randrange(hot_end, seg_end))
                if term == TERM_INDIRECT:
                    indirect_targets[b] = tuple(picks)
                else:
                    target[b] = picks[0]

        self.text_bytes = pc - cfg.base_pc

    # -- queries -----------------------------------------------------------

    def entry(self, segment: str = "main") -> int:
        """Entry block index of *segment*."""
        return self.segments[segment].start


class CodeWalker:
    """Per-thread execution cursor over a :class:`CodeModel`.

    Multiple walkers may share one model (Apache's 64 server processes share
    the Apache text; every kernel thread shares the kernel text), which is
    what creates shared-text instruction-cache behavior.  Each walker owns
    its position, call stack, and data-address generator.
    """

    __slots__ = (
        "model",
        "rng",
        "data",
        "mode",
        "service",
        "thread_id",
        "asn",
        "block",
        "slot",
        "call_stack",
        "_body",
        "_seg",
    )

    def __init__(
        self,
        model: CodeModel,
        rng: random.Random,
        data,
        mode: Mode,
        service: str,
        thread_id: int,
        asn: int,
        segment: str | None = None,
    ) -> None:
        self.model = model
        self.rng = rng
        self.data = data
        self.mode = mode
        self.service = service
        self.thread_id = thread_id
        self.asn = asn
        if segment is None:
            segment = next(iter(model.segments))
        seg = model.segments[segment]
        self._seg = seg
        self.block = seg.start
        self.slot = 0
        self.call_stack: list[int] = []
        self._body = model.block_body[self.block]

    def jump_to(self, segment: str) -> None:
        """Reset the walker to the entry of *segment* (service dispatch)."""
        seg = self.model.segments[segment]
        self._seg = seg
        self.block = seg.start
        self.slot = 0
        self.call_stack.clear()
        self._body = self.model.block_body[self.block]

    def next_instruction(self) -> Instruction:
        """Emit the next dynamic instruction of this thread's walk."""
        slot = self.slot
        body = self._body
        if slot < len(body):
            itype, dep, phys = body[slot]
            pc = self.model.block_pc[self.block] + slot * 4
            self.slot = slot + 1
            addr = None
            if itype is _LOAD or itype is _STORE or itype is _SYNC:
                addr, phys = self.data.next(itype is not _LOAD, phys)
            # Positional arguments, in Instruction's parameter order
            # (keywords cost more than twice as much per call).
            return Instruction(itype, self.mode, self.service, pc, addr,
                               phys, False, 0, dep, BASE_LATENCY[itype],
                               self.thread_id, self.asn)
        return self._terminator()

    def _terminator(self) -> Instruction:
        m = self.model
        b = self.block
        pc = m.block_pc[b] + self.slot * 4
        term = m.term_type[b]
        taken = True
        if term == TERM_COND:
            taken = self.rng.random() < m.taken_prob[b]
            nxt = m.target[b] if taken else m.fallthrough[b]
        elif term == TERM_UNCOND:
            nxt = m.target[b]
        elif term == TERM_INDIRECT:
            targets = m.indirect_targets[b]
            if len(targets) > 1 and self.rng.random() < m.config.indirect_switch:
                m.indirect_cursor[b] = (m.indirect_cursor[b] + 1) % len(targets)
            nxt = targets[m.indirect_cursor[b]]
        elif term == TERM_CALL:
            nxt = m.target[b]
            if len(self.call_stack) < _MAX_CALL_DEPTH:
                self.call_stack.append(m.fallthrough[b])
        else:  # TERM_RETURN
            if self.call_stack:
                nxt = self.call_stack.pop()
            else:
                nxt = m.fallthrough[b]
        if self.rng.random() < m.config.ergodic_jump:
            seg = self._seg
            nxt = self.rng.randrange(seg.start, seg.hot_end)
            if term == TERM_COND:
                taken = True
        itype = _TERM_ITYPE[term]
        instr = Instruction(
            itype, self.mode, self.service, pc, None, False, taken,
            m.block_pc[nxt],
            self.rng.random() < m.config.mix.dep_prob.get(itype, 0.3),
            1, self.thread_id, self.asn)
        self.block = nxt
        self.slot = 0
        self._body = m.block_body[nxt]
        return instr
