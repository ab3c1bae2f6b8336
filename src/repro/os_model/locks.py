"""Kernel spin locks.

Digital Unix is SMP-synchronized; on an SMT those spin locks serialize
kernel threads that now run *simultaneously*.  The paper reports spinning
below 1.2% of cycles for SPECInt and below 4.5% for Apache; here, a thread
whose next kernel frame needs a held lock emits synchronization-unit
instructions (load-locked/store-conditional loops) until the holder
releases, so the spin fraction is emergent and measurable.
"""

from __future__ import annotations


class LockTable:
    """Named kernel locks with simple test-and-set semantics."""

    #: Locks referenced by the syscall catalog and kernel services.
    DEFAULT_LOCKS = ("runq", "vfs", "socket", "vm", "proc", "net")

    def __init__(self, names: tuple[str, ...] = DEFAULT_LOCKS) -> None:
        self._holder: dict[str, int | None] = {n: None for n in names}
        self.acquisitions: dict[str, int] = {n: 0 for n in names}
        self.contentions: dict[str, int] = {n: 0 for n in names}
        #: Kernel wait-queue name per lock (threads that yield on a held
        #: lock sleep there until its release).
        self.wait_queue: dict[str, str] = {n: f"lock:{n}" for n in names}

    def acquire(self, name: str, tid: int) -> bool:
        """Try to take *name* for thread *tid*; False when held by another."""
        holder = self._holder[name]
        if holder is None or holder == tid:
            self._holder[name] = tid
            self.acquisitions[name] += 1
            return True
        self.contentions[name] += 1
        return False

    def release(self, name: str, tid: int) -> None:
        """Release *name*; a release by a non-holder is a model bug."""
        holder = self._holder[name]
        if holder != tid:
            raise RuntimeError(f"lock {name!r} released by {tid}, held by {holder}")
        self._holder[name] = None

    def holder(self, name: str) -> int | None:
        """Thread currently holding *name*, or None."""
        return self._holder[name]

    def contention_rate(self, name: str) -> float:
        """Fraction of acquisition attempts that found the lock held."""
        attempts = self.acquisitions[name] + self.contentions[name]
        return self.contentions[name] / attempts if attempts else 0.0
