"""Fixture: event-kind call sites, good and bad (E102)."""


def emit_ok(bus, now):
    bus.emit(now, "pipeline", "squash")


def emit_bad(bus, now):
    bus.emit(now, "vmx", "flush")  # E102: kind not in KINDS
