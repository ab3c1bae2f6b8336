"""Deterministic fault injection (the arming half).

Hot paths call :func:`fire` with a site name; with no plan armed (the
default, and the only state production runs ever see) that is a single
``is None`` check.  A plan is armed either in-process via
:func:`install` or across process boundaries via the
``REPRO_FAULT_PLAN`` environment variable, which forked/spawned pool
workers re-parse lazily on their first ``fire`` call.

The run engine tells workers which attempt they are via
:func:`set_attempt`, so a :class:`FaultSite` with ``attempt=1`` fires
on the first try and lets the retry succeed -- the basic shape of every
recovery scenario in :mod:`repro.faults.chaos`.
"""

from __future__ import annotations

import os

from repro.faults.plan import (FAULT_PLAN_ENV, KNOWN_SITES, FaultPlan,
                               FaultSite, InjectedFault, corrupt_bytes)

__all__ = [
    "FAULT_PLAN_ENV", "KNOWN_SITES", "FaultPlan", "FaultSite",
    "InjectedFault", "corrupt_bytes", "install", "clear", "active",
    "fire", "set_attempt", "current_attempt", "reset_fired",
]

_UNSET = object()

#: The armed plan: _UNSET = not yet resolved (check the environment),
#: None = explicitly disarmed, else a FaultPlan.
_PLAN: object = _UNSET

#: Attempt number the current process is executing (engine-set).
_ATTEMPT: int = 1


def active() -> FaultPlan | None:
    """The armed plan, resolving ``REPRO_FAULT_PLAN`` on first use."""
    global _PLAN
    if _PLAN is _UNSET:
        raw = os.environ.get(FAULT_PLAN_ENV)
        try:
            _PLAN = FaultPlan.loads(raw) if raw else None
        except (ValueError, TypeError):
            _PLAN = None
    return _PLAN  # type: ignore[return-value]


def install(plan: FaultPlan, env: bool = True) -> None:
    """Arm *plan* in this process (and, with *env*, in future children)."""
    global _PLAN
    _PLAN = plan
    if env:
        os.environ[FAULT_PLAN_ENV] = plan.dumps()


def clear() -> None:
    """Disarm: no site fires until the next install (env var removed)."""
    global _PLAN
    _PLAN = None
    os.environ.pop(FAULT_PLAN_ENV, None)


def fire(site_name: str, context: str = "") -> FaultSite | None:
    """Hot-path hook: the armed site if *site_name* should fail now."""
    plan = active()
    if plan is None:
        return None
    return plan.fire(site_name, context, attempt=_ATTEMPT)


def set_attempt(attempt: int) -> None:
    """Record which supervised attempt this process is executing."""
    global _ATTEMPT
    _ATTEMPT = attempt


def current_attempt() -> int:
    return _ATTEMPT


def reset_fired() -> None:
    """Reset firing counters (workers inherit the parent's under fork)."""
    plan = active()
    if plan is not None:
        plan.reset()
