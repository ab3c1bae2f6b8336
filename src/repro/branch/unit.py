"""The front-end branch unit: predictor + BTB + return stacks combined.

The unit implements the paper's fetch-time prediction protocol:

* conditional branches get a direction from the McFarling predictor; a
  predicted-taken branch needs a BTB hit for its target, and **falls back to
  the fall-through path on a BTB miss** (which is why the kernel's high BTB
  miss rate does not translate into an equally high net misprediction rate);
* unconditional direct branches and calls resolve their target in decode --
  they exercise the BTB but do not cause squashes;
* indirect jumps require a correct BTB target; returns are predicted by the
  per-context return-address stack;
* PAL entry/return are precise trap redirections handled by the core, not
  predicted here.

Training happens at branch resolution, on correct-path instructions only.
"""

from __future__ import annotations

from repro.branch.btb import BranchTargetBuffer
from repro.branch.mcfarling import McFarlingPredictor
from repro.branch.ras import ReturnAddressStack
from repro.isa.instruction import Instruction
from repro.isa.types import InstrType
from repro.memory.classify import MODE_KIND

# Enum members bound once: predict/resolve run per fetched branch.
_COND_BRANCH = InstrType.COND_BRANCH
_UNCOND_BRANCH = InstrType.UNCOND_BRANCH
_CALL = InstrType.CALL
_RETURN = InstrType.RETURN
_INDIRECT_JUMP = InstrType.INDIRECT_JUMP
_BTB_TRAINED = frozenset({_UNCOND_BRANCH, _CALL, _INDIRECT_JUMP})


class Prediction:
    """Front-end prediction outcome for one control transfer (read-only)."""

    __slots__ = ("taken", "next_pc", "mispredicted", "conditional",
                 "direction_wrong")

    def __init__(self, taken: bool, next_pc: int, mispredicted: bool,
                 conditional: bool, direction_wrong: bool) -> None:
        self.taken = taken
        self.next_pc = next_pc
        self.mispredicted = mispredicted
        #: True when this was a conditional direction prediction (the
        #: population the paper's "branch misprediction rate" is computed
        #: over).
        self.conditional = conditional
        self.direction_wrong = direction_wrong

    def __repr__(self) -> str:
        return (f"Prediction(taken={self.taken}, next_pc={self.next_pc:#x}, "
                f"mispredicted={self.mispredicted}, "
                f"conditional={self.conditional}, "
                f"direction_wrong={self.direction_wrong})")


class BranchUnit:
    """Prediction and training facade used by the fetch stage."""

    def __init__(self, n_contexts: int, ras_depth: int = 12,
                 btb_entries: int = 1024, btb_assoc: int = 4,
                 per_context_history: bool = False) -> None:
        self.predictor = McFarlingPredictor(
            n_contexts=n_contexts, per_context_history=per_context_history)
        self.btb = BranchTargetBuffer(btb_entries, btb_assoc)
        self.ras = [ReturnAddressStack(ras_depth) for _ in range(n_contexts)]
        # Conditional direction-prediction stats split by user/kernel.
        self.cond_predictions = [0, 0]
        self.cond_mispredicts = [0, 0]

    def predict(self, instr: Instruction, ctx: int, count: bool = True) -> Prediction:
        """Predict the next PC for *instr* fetched by hardware context *ctx*.

        ``count=False`` suppresses statistics (used when re-predicting an
        instruction that was squashed and replayed, so squash recovery does
        not inflate prediction or BTB counters).
        """
        itype = instr.itype
        pc = instr.pc
        kind = MODE_KIND[instr.mode]
        fallthrough = pc + 4
        actual_next = instr.target

        if itype is _COND_BRANCH:
            pred_taken = self.predictor.predict(pc, ctx)
            # The BTB is probed for every branch at fetch (it is what
            # identifies the instruction as a branch and supplies the taken
            # target); only a predicted-taken branch *uses* the target.
            if count:
                target = self.btb.lookup(pc, instr.thread_id, kind)
            else:
                target = self.btb.peek(pc)
            if pred_taken:
                next_pc = target if target is not None else fallthrough
            else:
                next_pc = fallthrough
            direction_wrong = pred_taken != instr.taken
            if count:
                self.cond_predictions[kind] += 1
                if direction_wrong:
                    self.cond_mispredicts[kind] += 1
            return Prediction(pred_taken, next_pc, next_pc != actual_next, True, direction_wrong)

        if itype is _UNCOND_BRANCH or itype is _CALL:
            if count:
                self.btb.lookup(pc, instr.thread_id, kind)
            # Direct targets resolve in decode; no squash either way.
            if itype is _CALL:
                self.ras[ctx].push(fallthrough)
            return Prediction(True, actual_next, False, False, False)

        if itype is _RETURN:
            predicted = self.ras[ctx].pop()
            next_pc = predicted if predicted is not None else fallthrough
            return Prediction(True, next_pc, next_pc != actual_next, False, False)

        if itype is _INDIRECT_JUMP:
            if count:
                target = self.btb.lookup(pc, instr.thread_id, kind)
            else:
                target = self.btb.peek(pc)
            if target is None:
                return Prediction(True, fallthrough, fallthrough != actual_next, False, False)
            if target != actual_next:
                if count:
                    self.btb.record_target_mispredict(kind)
                return Prediction(True, target, True, False, False)
            return Prediction(True, target, False, False, False)

        # PAL entry/return: precise redirection by the trap hardware.
        return Prediction(True, actual_next, False, False, False)

    def resolve(self, instr: Instruction, ctx: int) -> None:
        """Train the predictor and BTB with a resolved, correct-path branch."""
        itype = instr.itype
        kind = MODE_KIND[instr.mode]
        if itype is _COND_BRANCH:
            self.predictor.update(instr.pc, instr.taken, ctx, instr.predicted_taken)
            if instr.taken:
                self.btb.insert(instr.pc, instr.target, instr.thread_id, kind)
        elif itype in _BTB_TRAINED:
            self.btb.insert(instr.pc, instr.target, instr.thread_id, kind)
        # Returns train nothing: the RAS was updated speculatively at fetch.

    def clear_context(self, ctx: int) -> None:
        """Reset per-context state when a context switches software threads."""
        self.ras[ctx].clear()

    def register_probes(self, registry) -> None:
        """Register the branch layer's probe subtree (``branch.*``)."""
        self.btb.register_probes(registry, "branch.btb")
        for k, kind in enumerate(("user", "kernel")):
            registry.derive(f"branch.cond.predictions.{kind}",
                            lambda k=k: self.cond_predictions[k])
            registry.derive(f"branch.cond.mispredicts.{kind}",
                            lambda k=k: self.cond_mispredicts[k])

    def misprediction_rate(self, kind: int | None = None) -> float:
        """Conditional direction misprediction rate."""
        if kind is None:
            preds = sum(self.cond_predictions)
            bad = sum(self.cond_mispredicts)
        else:
            preds = self.cond_predictions[kind]
            bad = self.cond_mispredicts[kind]
        return bad / preds if preds else 0.0
