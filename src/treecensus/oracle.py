"""Exhaustive tree enumeration and its subtree censuses.

This is the ground truth the series engine is checked against: every
tree of a family up to a size budget is generated explicitly, and the
resulting counts must match the generating-function coefficients
exactly.  Each family is a root over d trees, d in its set of child
counts, so the trees of one size (a level, as are the forests of one
length and total size) are a concatenation of segments: a level's trees
as forests of one, or the row-major product block of a level's trees,
each followed by each forest of another.  A level stores only its
elements' vertex and leaf counts, as bytes built as outer sums.  The
census of size n gives each size-n tree multiplicity 1 and walks the
levels downwards: a tree level adds its multiplicities to the histograms
of its counts, and a block passes its row sums to its first trees and
its column sums to the forests after them, instead of walking every
vertex of every tree.  Each census is a histogram ``{k: count}`` with
no zero counts.  One family's table is held at a time, and
``check_budget`` refuses a size outside the family's budget.  Nothing
here touches the series machinery except inside ``verify_family``,
which performs the comparison.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from operator import add
from typing import NamedTuple

from .families import (
    FamilyId,
    StatKind,
    census_coefficient,
    counting_coefficient,
    max_stat_value,
    total_leaves,
    total_vertices,
)

DEFAULT_BUDGETS: "dict[FamilyId, int]" = {
    FamilyId.MOTZKIN: 14,
    FamilyId.ORDERED: 12,
    FamilyId.FULL_BINARY: 12,
    FamilyId.SCHROEDER: 10,
}


class BudgetError(ValueError):
    """Requested size is outside the enumeration budget."""


def check_budget(family: FamilyId, n: int) -> None:
    """Refuse a size outside 1..``DEFAULT_BUDGETS[family]``, the sizes the
    oracle enumerates, rather than clamp it or check nothing."""
    family = FamilyId(family)
    budget = DEFAULT_BUDGETS[family]
    if not 1 <= n <= budget:
        raise BudgetError(f"size {n} is outside the {family.value} enumeration budget 1..{budget}")


# Each family as data: the size unit, and the child counts an internal
# vertex may have, listed exactly or (the third entry) as "d and more".
_CHILD_COUNTS: "dict[FamilyId, tuple[StatKind, tuple[int, ...], int | None]]" = {
    FamilyId.MOTZKIN: (StatKind.VERTICES, (1, 2), None),
    FamilyId.ORDERED: (StatKind.VERTICES, (), 1),
    FamilyId.FULL_BINARY: (StatKind.LEAVES, (2,), None),
    FamilyId.SCHROEDER: (StatKind.LEAVES, (), 2),
}


class _Level(NamedTuple):
    """Trees of one size (``tree``), or forests.  Segment ``(None, j)`` is
    level j's trees as forests of one; ``(i, j)`` is the row-major block of
    level i's trees, each followed by each of level j's forests.  The
    counts are the forest's, plus the root vertex in a tree."""

    segments: "tuple[tuple[int | None, int], ...]"
    vertices: bytes
    leaves: bytes
    tree: bool


class _Table:
    """One family's trees up to some size, as levels of product blocks:
    ``levels`` in creation order, each after the levels its segments name;
    ``trees[n]`` indexes the size-n trees' level."""

    def __init__(self, family: FamilyId) -> None:
        self.family = family
        self.levels = [_Level((), b"\x01", b"\x01", True)]  # the one-vertex tree
        self.trees: "list[int | None]" = [None, 0]
        self._forest_levels: "dict[tuple[int, bool, int], int]" = {}

    def level(self, n: int) -> int:
        """Index of the size-n trees' level; builds every level up to n."""
        while len(self.trees) <= n:
            self._build(len(self.trees))
        return self.trees[n]

    def _build(self, n: int) -> None:
        if n > 128:  # a size-n tree has at most 2n - 1 vertices, and counts are bytes
            raise BudgetError(f"size {n} is beyond what the enumeration can count")
        unit, exact, at_least = _CHILD_COUNTS[self.family]
        total = n - 1 if unit is StatKind.VERTICES else n  # the children's sizes together
        segments = [segment for d in exact for segment in self._segments(d, False, total)]
        if at_least:
            segments += self._segments(at_least, True, total)
        self.trees.append(self._add(segments, tree=True))

    def _segments(self, d: int, more: bool, total: int) -> "list[tuple[int | None, int]]":
        """Forests of d trees (with ``more``, of d or more) whose sizes sum to ``total``."""
        if d > 1:
            return [(self.trees[i], self._forests(d - 1, more, total - i)) for i in range(1, total)]
        singles = [(None, self.trees[total])]
        return self._segments(2, True, total) + singles if more else singles

    def _forests(self, d: int, more: bool, total: int) -> int:
        """Index of the level of ``_segments(d, more, total)``."""
        if d == 1 and not more:
            return self.trees[total]
        if (d, more, total) not in self._forest_levels:
            self._forest_levels[d, more, total] = self._add(self._segments(d, more, total), tree=False)
        return self._forest_levels[d, more, total]

    def _add(self, segments: "list[tuple[int | None, int]]", tree: bool) -> int:
        """Appends the level of these segments, with its counts; returns its index."""
        levels = self.levels
        vertices, leaves = (
            b"".join([levels[j][field] if i is None else _outer(levels[i][field], levels[j][field]) for i, j in segments])
            for field in (1, 2)
        )
        levels.append(_Level(tuple(segments), vertices.translate(_RAISE[1]) if tree else vertices, leaves, tree))
        return len(levels) - 1

    def census(self, n: int) -> "tuple[dict[int, int], dict[int, int]]":
        """Subtree occurrences over the size-n trees, by vertices and by leaves.

        Each size-n tree counts once.  Walking the levels downwards, a
        tree level adds its multiplicities to its counts' histograms, and
        a block passes its row sums to its first trees and its column sums
        to the forests after them, so a child repeated within one tree
        counts as often as it occurs.
        """
        top = self.level(n)
        levels = self.levels
        by_vertices, by_leaves = [0] * 256, [0] * 256  # every count is a byte
        pending = {top: [1] * len(levels[top].vertices)}
        for index in range(top, -1, -1):
            m = pending.pop(index, None)
            if m is None:
                continue
            level = levels[index]
            if level.tree:
                for counts, histogram in ((level.vertices, by_vertices), (level.leaves, by_leaves)):
                    for k in set(counts):  # on the top level every multiplicity is 1
                        histogram[k] += counts.count(k) if index == top else sum(compress(m, counts.translate(_MASK[k])))
            start = 0
            for head, tail in level.segments:
                w = len(levels[tail].vertices)
                if head is None:
                    _pass(pending, tail, m[start : start + w])
                    start += w
                    continue
                h = len(levels[head].vertices)
                stop = start + h * w
                if h <= w:  # the shorter loop: over the rows
                    lines = [m[i : i + w] for i in range(start, stop, w)]
                    rows, columns = list(map(sum, lines)), list(map(sum, zip(*lines)))
                else:
                    lines = [m[i:stop:w] for i in range(start, start + w)]
                    columns, rows = list(map(sum, lines)), list(map(sum, zip(*lines)))
                _pass(pending, head, rows)
                _pass(pending, tail, columns)
                start = stop
        return tuple({k: m for k, m in enumerate(histogram) if m} for histogram in (by_vertices, by_leaves))

def _outer(rows: bytes, columns: bytes) -> bytes:
    """Row-major rows[r] + columns[c], in the shorter loop."""
    if len(rows) <= len(columns):
        return b"".join([columns.translate(_RAISE[r]) for r in rows])
    out = bytearray(len(rows) * len(columns))
    for c, x in enumerate(columns):
        out[c :: len(columns)] = rows.translate(_RAISE[x])
    return bytes(out)


def _pass(pending: "dict[int, list[int]]", index: int, added: "list[int]") -> None:
    """Adds ``added`` to the multiplicities pending for level ``index``."""
    have = pending.get(index)
    pending[index] = added if have is None else list(map(add, have, added))


# _RAISE[c] maps a count byte x to x + c (mod 256); _build keeps every sum
# below 256.  _MASK[k] maps the byte k to 1 and every other byte to 0.
_BYTES_TWICE = bytes(range(256)) * 2
_RAISE = [_BYTES_TWICE[c : c + 256] for c in range(256)]
_MASK = [bytes(k) + b"\x01" + bytes(255 - k) for k in range(256)]


# The table of the family last asked for.  Switching families drops it,
# so a verify of every family holds the largest family's trees rather
# than all four.
_held: "_Table | None" = None


def _table(family: FamilyId) -> _Table:
    global _held
    family = FamilyId(family)
    if _held is None or _held.family is not family:
        _held = _Table(family)
    return _held


@lru_cache(maxsize=None)
def _aggregate(family: FamilyId, n: int) -> "tuple[dict[int, int], dict[int, int]]":
    return _table(family).census(n)


def _clear_caches() -> None:
    """Drop the census cache and the held table (``clear_caches``)."""
    global _held
    _aggregate.cache_clear()
    _held = None


def aggregate_census(family: FamilyId, n: int, stat: StatKind) -> "dict[int, int]":
    """Brute-force vertex counts over all size-n trees, as ``{k: count}``
    by subtree statistic value k; zero counts are omitted.  The dict is a
    copy, so a caller may change it without touching the cache."""
    family, stat = FamilyId(family), StatKind(stat)
    check_budget(family, n)
    by_vertices, by_leaves = _aggregate(family, n)
    return dict(by_leaves if stat is StatKind.LEAVES else by_vertices)


class Mismatch(NamedTuple):
    family: FamilyId
    stat: "StatKind | None"
    n: int
    k: "int | None"
    quantity: str
    expected: int  # brute-force value
    actual: int  # series value


class VerificationReport(NamedTuple):
    family: FamilyId
    n_max: int
    checks: int
    mismatches: "tuple[Mismatch, ...]"

    @property
    def passed(self) -> bool:
        return not self.mismatches


def verify_family(family: FamilyId, n_max: "int | None" = None) -> VerificationReport:
    """Compare every census coefficient, tree count and total against
    brute force for all sizes up to n_max.  Mismatches are collected in
    the report rather than raised."""
    family = FamilyId(family)
    n_max = DEFAULT_BUDGETS[family] if n_max is None else n_max
    check_budget(family, n_max)
    checks = 0
    mismatches: "list[Mismatch]" = []

    def record(stat, n, k, quantity, expected, actual):
        nonlocal checks
        checks += 1
        if expected != actual:
            mismatches.append(Mismatch(family, stat, n, k, quantity, expected, actual))

    for n in range(1, n_max + 1):
        held = _table(family)
        record(None, n, None, "tree count", len(held.levels[held.level(n)].vertices), counting_coefficient(family, n))
        vertex_total = total_vertices(family, n)
        histograms = {stat: aggregate_census(family, n, stat) for stat in StatKind}
        # every leaf, and only a leaf, has a one-vertex subtree
        record(None, n, None, "leaf total", histograms[StatKind.VERTICES].get(1, 0), total_leaves(family, n))
        for stat, histogram in histograms.items():
            running = 0
            for k in range(1, max_stat_value(family, stat, n) + 1):
                expected = histogram.get(k, 0)
                running += expected
                record(stat, n, k, "census", expected, census_coefficient(family, stat, k, n))
            record(stat, n, None, "census partition", running, vertex_total)
    return VerificationReport(family, n_max, checks, tuple(mismatches))
