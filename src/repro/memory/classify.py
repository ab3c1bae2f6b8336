"""Miss-cause taxonomy shared by caches, TLBs, and the BTB.

The paper distinguishes, for each hardware structure and separately for user
and kernel accesses, misses caused by:

* **intrathread conflicts** -- the accessor itself evicted the entry earlier;
* **interthread conflicts** -- a *different* thread running in the *same*
  mode class evicted it (user/user or kernel/kernel);
* **user-kernel conflicts** -- the evictor ran in the other mode class;
* **invalidation by the OS** -- explicit flushes (I-cache flush on page
  remap, TLB shootdown-style ASN recycling);
* **compulsory** -- first-ever reference to the entry.

PAL-mode activity counts as kernel for these tables, matching the paper's
two-column (user/kernel) presentation.
"""

from __future__ import annotations

import enum

from repro.isa.types import Mode


class MissCause(enum.IntEnum):
    """Why an access missed (see module docstring)."""

    COMPULSORY = 0
    INTRATHREAD = 1
    INTERTHREAD = 2
    USER_KERNEL = 3
    INVALIDATION = 4


class ModeKind(enum.IntEnum):
    """Two-way user/kernel classification used by the miss tables."""

    USER = 0
    KERNEL = 1


#: ``MODE_KIND[mode]``: the paper's user/kernel split of the three
#: execution modes (PAL counts as kernel).  A tuple indexed by the
#: ``Mode`` value, so hot paths read it without a call or an enum lookup.
MODE_KIND = (ModeKind.USER, ModeKind.KERNEL, ModeKind.KERNEL)


def mode_kind(mode: Mode) -> ModeKind:
    """Collapse the three execution modes into the paper's user/kernel split."""
    return MODE_KIND[mode]


def classify_conflict(
    accessor_tid: int,
    accessor_kind: ModeKind,
    evictor_tid: int,
    evictor_kind: ModeKind,
) -> MissCause:
    """Classify a conflict miss from the identities of accessor and evictor."""
    if accessor_kind != evictor_kind:
        return MissCause.USER_KERNEL
    if accessor_tid == evictor_tid:
        return MissCause.INTRATHREAD
    return MissCause.INTERTHREAD


class MissStats:
    """Per-structure miss accounting, split by user/kernel accessor.

    ``avoided[(misser_kind, filler_kind)]`` counts hits that would have been
    misses but for another thread's earlier fill (constructive sharing).
    """

    __slots__ = ("accesses", "misses", "causes", "avoided")

    def __init__(self) -> None:
        self.accesses = [0, 0]
        self.misses = [0, 0]
        self.causes: dict[tuple[int, int], int] = {}
        self.avoided: dict[tuple[int, int], int] = {}

    def record_access(self, kind: int) -> None:
        self.accesses[kind] += 1

    def record_miss(self, kind: int, cause: int) -> None:
        self.misses[kind] += 1
        key = (kind, cause)
        self.causes[key] = self.causes.get(key, 0) + 1

    def record_avoided(self, misser_kind: int, filler_kind: int) -> None:
        key = (misser_kind, filler_kind)
        self.avoided[key] = self.avoided.get(key, 0) + 1

    # -- derived metrics ----------------------------------------------------

    def miss_rate(self, kind: int | None = None) -> float:
        """Miss rate overall or for one accessor kind, as a fraction."""
        if kind is None:
            acc = sum(self.accesses)
            mis = sum(self.misses)
        else:
            acc = self.accesses[kind]
            mis = self.misses[kind]
        return mis / acc if acc else 0.0

    def cause_shares(self) -> dict[tuple[int, int], float]:
        """Each (kind, cause) bucket as a share of *all* misses (sums to 1)."""
        total = sum(self.misses)
        if not total:
            return {}
        return {k: v / total for k, v in self.causes.items()}

    def avoided_shares(self) -> dict[tuple[int, int], float]:
        """Avoided misses as a fraction of total *actual* misses (Table 8)."""
        total = sum(self.misses)
        if not total:
            return {}
        return {k: v / total for k, v in self.avoided.items()}

    def merge(self, other: "MissStats") -> None:
        """Accumulate *other* into self (used when aggregating windows)."""
        for i in range(2):
            self.accesses[i] += other.accesses[i]
            self.misses[i] += other.misses[i]
        for k, v in other.causes.items():
            self.causes[k] = self.causes.get(k, 0) + v
        for k, v in other.avoided.items():
            self.avoided[k] = self.avoided.get(k, 0) + v
