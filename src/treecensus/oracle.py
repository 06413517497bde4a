"""Exhaustive tree enumeration and direct per-vertex censuses.

This is the ground truth the series engine is checked against: every
tree of a family up to a size budget is generated explicitly, and the
resulting counts must match the generating-function coefficients
exactly.  The enumeration builds one index table per family.  Each tree
is the tuple of its children's indices into the table; the trees of
each size form a range of indices, sizes ascending, so every child
lies below its parent; and each tree's vertex and leaf counts are
stored once, from its children's, when it is built.  The census of
size n gives each size-n tree multiplicity 1 and walks the indices
downwards, adding each tree's multiplicity to its two counts and to
each of its child occurrences, instead of walking every vertex of
every tree (``census_tree`` keeps the per-vertex walk as the
reference).  The nested-tuple trees of ``enumerate_trees`` (a tree is
the tuple of its child trees, a leaf the empty tuple) are a view built
from the same table, in the same order, one object per subtree.  One
family's table is held at a time.  Nothing here touches the series
machinery except inside ``verify_family``, which performs the
comparison.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .families import (
    CensusTable,
    FamilyId,
    StatKind,
    census_coefficient,
    counting_coefficient,
    max_stat_value,
    total_leaves,
    total_vertices,
)

Tree = tuple  # a tree is the tuple of its child trees; a leaf is ()

DEFAULT_BUDGETS: "dict[FamilyId, int]" = {
    FamilyId.MOTZKIN: 14,
    FamilyId.ORDERED: 12,
    FamilyId.FULL_BINARY: 12,
    FamilyId.SCHROEDER: 10,
}


class BudgetError(ValueError):
    """Requested size exceeds the enumeration budget."""


class VertexCensus(NamedTuple):
    subtree_vertices: int
    subtree_leaves: int


def enumerate_trees(family: FamilyId, n: int, ceiling: "int | None" = None) -> "tuple[Tree, ...]":
    """All trees of size n (family's unit), each exactly once.

    Children compositions are produced in lexicographic order, so the
    output order is deterministic.  Sizes above the budget are refused.
    Each child of a listed tree is the object listed for its own size.
    """
    family = FamilyId(family)
    _check_size(family, n, ceiling)
    table = _table(family)
    level = table.level(n)
    nested, children = table.nested, table.children
    for index in range(len(nested), level.stop):
        nested.append(tuple([nested[child] for child in children[index]]))
    return tuple(nested[level.start : level.stop])


def _check_size(family: FamilyId, n: int, ceiling: "int | None") -> None:
    ceiling = DEFAULT_BUDGETS[family] if ceiling is None else ceiling
    if n > ceiling:
        raise BudgetError(
            f"size {n} exceeds the {family.value} enumeration budget of {ceiling}"
        )
    if n < 1:
        raise BudgetError(f"no {family.value} trees of size {n}")


# Forests as (child tuples, vertices, leaves): the counts are those of a
# tree that has each forest as its children.
_Forests = tuple[list[tuple[int, ...]], bytes, bytes]


class _Table:
    """One family's trees up to some size, as tuples of child indices.

    ``children[i]`` lists tree i's children; ``vertices[i]`` and
    ``leaves[i]`` are its counts.  Levels are built on demand, each in
    the enumeration's order.  A level's index list, and the forests of a
    total size, are built only once a larger tree takes them as
    children, so every reference to a tree is one ``int`` object and
    the top level's indices need none.  A list of forests comes with the
    vertex and leaf counts of a tree having each forest as its children.
    """

    def __init__(self, family: FamilyId) -> None:
        self.family = family
        self.children: "list[tuple[int, ...]]" = [()]  # tree 0 is the one-vertex tree
        self.vertices = bytearray([1])
        self.leaves = bytearray([1])
        self.starts = [0, 0, 1]  # level n is range(starts[n], starts[n + 1])
        self.nested: "list[Tree]" = []  # the enumerate_trees view, by index
        self._indices: "dict[int, list[int]]" = {}
        self._singles: "dict[int, _Forests]" = {}
        self._forests: "dict[int, _Forests]" = {}

    def level(self, n: int) -> range:
        """Indices of the size-n trees; builds every level up to n."""
        while len(self.starts) < n + 2:
            self._build(len(self.starts) - 1)
        return range(self.starts[n], self.starts[n + 1])

    def _build(self, n: int) -> None:
        if n > 128:  # a size-n tree has at most 2n - 1 vertices, and counts are bytes
            raise BudgetError(f"size {n} is beyond what the enumeration can count")
        family = self.family
        if family is FamilyId.MOTZKIN:  # one child of size n - 1, or two summing to n - 1
            built = _concat(self._single(n - 1), self._joined(n - 1, self._single))
        elif family is FamilyId.ORDERED:
            built = self._forest(n - 1)
        elif family is FamilyId.FULL_BINARY:
            built = self._joined(n, self._single)
        else:  # Schroeder: at least two children, sizes sum to n (leaves)
            built = self._joined(n, self._forest)
        self.children += built[0]
        self.vertices += built[1]
        self.leaves += built[2]
        self.starts.append(len(self.children))

    def census(self, n: int) -> "tuple[dict[int, int], dict[int, int]]":
        """Subtree occurrences over the size-n trees, by vertices and by leaves.

        Each size-n tree counts once; walking the indices downwards,
        every tree adds its multiplicity to its counts and passes it to
        each child occurrence, so a child repeated within one tree
        counts as often as it occurs.
        """
        top = self.level(n)
        children, vertices, leaves = self.children, self.vertices, self.leaves
        multiplicity = [0] * top.start + [1] * len(top)
        by_vertices = [0] * 256  # every count is a byte
        by_leaves = [0] * 256
        for index in reversed(range(top.stop)):
            m = multiplicity[index]
            if m:
                by_vertices[vertices[index]] += m
                by_leaves[leaves[index]] += m
                for child in children[index]:
                    multiplicity[child] += m
        return (
            {k: m for k, m in enumerate(by_vertices) if m},
            {k: m for k, m in enumerate(by_leaves) if m},
        )

    def _ids(self, size: int) -> "list[int]":
        """The size-``size`` indices as one list, whose ``int``s every tuple then shares."""
        found = self._indices.get(size)
        if found is None:
            found = self._indices[size] = list(self.level(size))
        return found

    def _single(self, size: int) -> _Forests:
        """Forests of one size-``size`` tree."""
        found = self._singles.get(size)
        if found is None:
            level = self.level(size)
            found = self._singles[size] = (
                [(tree,) for tree in self._ids(size)],
                self.vertices[level.start : level.stop].translate(_RAISE[1]),
                self.leaves[level.start : level.stop],
            )
        return found

    def _forest(self, total: int) -> _Forests:
        """Nonempty ordered forests with sizes summing to ``total``."""
        found = self._forests.get(total)
        if found is None:
            if self.family is not FamilyId.SCHROEDER:
                longer = self._joined(total, self._forest)
            elif total > 1:  # the Schroeder trees of that size have these children
                level = self.level(total)
                longer = (
                    self.children[level.start : level.stop],
                    self.vertices[level.start : level.stop],
                    self.leaves[level.start : level.stop],
                )
            else:
                longer = ([], b"", b"")
            found = self._forests[total] = _concat(longer, self._single(total))
        return found

    def _joined(self, total: int, rests_of) -> _Forests:
        """A tree followed by each forest of ``rests_of``, sizes summing to ``total``."""
        out: "list[tuple[int, ...]]" = []
        vertices, leaves = bytearray(), bytearray()
        for i in range(1, total):
            rests, rest_vertices, rest_leaves = rests_of(total - i)
            for first in self._ids(i):
                out += [(first, *rest) for rest in rests]
                vertices += rest_vertices.translate(_RAISE[self.vertices[first]])
                leaves += rest_leaves.translate(_RAISE[self.leaves[first]])
        return out, vertices, leaves


# _RAISE[c] maps a count byte x to x + c (mod 256); _build keeps every sum below 256.
_BYTES_TWICE = bytes(range(256)) * 2
_RAISE = [_BYTES_TWICE[c : c + 256] for c in range(256)]


def _concat(first: _Forests, second: _Forests) -> _Forests:
    return first[0] + second[0], first[1] + second[1], first[2] + second[2]


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


def tree_to_text(tree: Tree) -> str:
    """Canonical balanced-parenthesis serialization, children left to right."""
    return "(" + "".join(tree_to_text(child) for child in tree) + ")"


def census_tree(tree: Tree) -> "tuple[VertexCensus, ...]":
    """Per-vertex (subtree vertices, subtree leaves) in post-order."""
    out: "list[VertexCensus]" = []

    def walk(node: Tree) -> "tuple[int, int]":
        if not node:
            out.append(VertexCensus(1, 1))
            return 1, 1
        vertices, leaves = 1, 0
        for child in node:
            v, l = walk(child)
            vertices += v
            leaves += l
        out.append(VertexCensus(vertices, leaves))
        return vertices, leaves

    walk(tree)
    return tuple(out)


@lru_cache(maxsize=None)
def _aggregate(family: FamilyId, n: int) -> "dict[StatKind, CensusTable]":
    by_vertices, by_leaves = _table(family).census(n)
    return {
        StatKind.VERTICES: CensusTable(family, StatKind.VERTICES, {(n, k): m for k, m in by_vertices.items()}),
        StatKind.LEAVES: CensusTable(family, StatKind.LEAVES, {(n, k): m for k, m in by_leaves.items()}),
    }


def aggregate_census(family: FamilyId, n: int, stat: StatKind, ceiling: "int | None" = None) -> CensusTable:
    """Brute-force vertex counts by statistic value over all size-n trees."""
    family, stat = FamilyId(family), StatKind(stat)
    _check_size(family, n, ceiling)
    return _aggregate(family, n)[stat]


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
    if n_max > DEFAULT_BUDGETS[family]:
        raise BudgetError(
            f"n_max {n_max} exceeds the {family.value} budget of {DEFAULT_BUDGETS[family]}"
        )
    if n_max < 1:
        raise BudgetError(f"n_max {n_max} leaves nothing to verify; it must be at least 1")
    checks = 0
    mismatches: "list[Mismatch]" = []

    def record(stat, n, k, quantity, expected, actual):
        nonlocal checks
        checks += 1
        if expected != actual:
            mismatches.append(Mismatch(family, stat, n, k, quantity, expected, actual))

    for n in range(1, n_max + 1):
        record(None, n, None, "tree count", len(_table(family).level(n)), counting_coefficient(family, n))
        vertex_total = total_vertices(family, n)
        vertex_table = aggregate_census(family, n, StatKind.VERTICES, ceiling=n_max)
        # every leaf, and only a leaf, has a one-vertex subtree
        record(None, n, None, "leaf total", vertex_table.count(n, 1), total_leaves(family, n))
        for stat in StatKind:
            table = aggregate_census(family, n, stat, ceiling=n_max)
            top = max_stat_value(family, stat, n)
            running = 0
            for k in range(1, top + 1):
                expected = table.count(n, k)
                running += expected
                record(stat, n, k, "census", expected, census_coefficient(family, stat, k, n))
            record(stat, n, None, "census partition", running, vertex_total)
    return VerificationReport(family, n_max, checks, tuple(mismatches))
