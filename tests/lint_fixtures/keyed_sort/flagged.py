"""Fixture: keyed sorts of a set, flagged by D103 (see tests/test_lint.py)."""


def rows(a, b):
    # Categories with equal shares print in hash-randomized order.
    return sorted(set(a) | set(b), key=lambda c: -a.get(c, 0))


def top(names):
    return max({n.lower() for n in names}, key=len)
