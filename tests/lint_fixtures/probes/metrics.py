"""Fixture: one seeded violation per P-rule (see tests/test_lint.py)."""


class Metrics:
    def __init__(self, registry):
        self.registry = registry
        self.hits = registry.counter("mem.cache.hits")
        registry.counter("mem.cache.orphan")  # P102: handle discarded

    def report(self):
        good = self.registry.get("mem.cache.hits")
        way = self.registry.get("mem.cache.way.0")  # member of a family
        typo = self.registry.get("mem.cache.hit")  # P101: not in manifest
        return good, way, typo
