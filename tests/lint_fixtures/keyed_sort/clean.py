"""Fixture: order-safe sorts that D103 must not flag (see tests/test_lint.py)."""


def rows(a, b):
    # Sort the set itself first; the keyed sort then breaks ties stably.
    names = sorted(set(a) | set(b))
    return sorted(names, key=lambda c: -a.get(c, 0))


def plain(a, b):
    return sorted(set(a) | set(b)), min({3, 1, 2}), max(a, key=len)
