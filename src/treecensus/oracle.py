"""Exhaustive tree enumeration and direct per-vertex censuses.

This is the ground truth the series engine is checked against: every
tree of a family up to a size budget is generated explicitly (as nested
tuples of children, leaf = empty tuple), and the resulting counts must
match the generating-function coefficients exactly.  A tree's children
are the very objects listed for the smaller sizes, so the trees up to
the budget form one shared DAG: the census of size n lists every tree
of size at most n and reads its child edges, carrying down how many
times each distinct subtree occurs instead of walking every vertex of
every tree (``census_tree`` keeps the per-vertex walk as the
reference).  The enumeration cache holds one family at a time.
Nothing here touches the series machinery except inside
``verify_family``, which performs the comparison.
"""

from __future__ import annotations

from functools import lru_cache, wraps
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
    """
    ceiling = DEFAULT_BUDGETS[family] if ceiling is None else ceiling
    if n > ceiling:
        raise BudgetError(
            f"size {n} exceeds the {family.value} enumeration budget of {ceiling}"
        )
    if n < 1:
        raise BudgetError(f"no {family.value} trees of size {n}")
    return _trees(family, n)


# The enumeration of the family last asked for, keyed (function name, size).
# Switching families drops it, so a verify of every family holds the
# largest family's trees rather than all four.
_held_family: "FamilyId | None" = None
_held: "dict[tuple[str, int], tuple]" = {}


def _one_family(build):
    """Cache ``build(family, n)`` in the one-family enumeration cache."""

    @wraps(build)
    def cached(family: FamilyId, n: int) -> tuple:
        global _held_family
        if family is not _held_family:
            _held.clear()
            _held_family = family
        key = (build.__name__, n)
        found = _held.get(key)
        if found is None:
            found = _held[key] = build(family, n)
        return found

    return cached


@_one_family
def _trees(family: FamilyId, n: int) -> "tuple[Tree, ...]":
    if n == 1:
        return ((),)
    if family is FamilyId.ORDERED:
        return _forests(family, n - 1)
    if family is FamilyId.SCHROEDER:  # at least two children, sizes sum to n (leaves)
        return _multi(family, n)
    out: "list[Tree]" = []
    if family is FamilyId.MOTZKIN:
        for child in _trees(family, n - 1):
            out.append((child,))
        for i in range(1, n - 1):
            for left in _trees(family, i):
                for right in _trees(family, n - 1 - i):
                    out.append((left, right))
    else:  # full binary
        for i in range(1, n):
            for left in _trees(family, i):
                for right in _trees(family, n - i):
                    out.append((left, right))
    return tuple(out)


@_one_family
def _multi(family: FamilyId, total: int) -> "tuple[tuple[Tree, ...], ...]":
    """Ordered forests of at least two trees with sizes summing to ``total``."""
    out: "list[tuple[Tree, ...]]" = []
    for i in range(1, total):
        for first in _trees(family, i):
            for rest in _forests(family, total - i):
                out.append((first,) + rest)
    return tuple(out)


@_one_family
def _forests(family: FamilyId, total: int) -> "tuple[tuple[Tree, ...], ...]":
    """Nonempty ordered forests with sizes summing to ``total``."""
    return _multi(family, total) + tuple((tree,) for tree in _trees(family, total))


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


def _shape(tree: Tree, shapes: "dict[int, tuple[int, int]]") -> "tuple[int, int]":
    """(vertices, leaves) of ``tree`` from those of its children, held by id."""
    if not tree:
        return 1, 1
    vertices, leaves = 1, 0
    for child in tree:
        v, l = shapes[id(child)]
        vertices += v
        leaves += l
    return vertices, leaves


def _subtree_counts(levels: "list[tuple[Tree, ...]]") -> "dict[tuple[int, int], int]":
    """Occurrences of each subtree (vertices, leaves) over the trees of ``levels[-1]``.

    Every child of a tree in ``levels[i]`` is an object listed in
    ``levels[:i]``.  Each distinct subtree's shape is computed once,
    bottom up; then each top tree counts once and every tree passes its
    multiplicity to each child occurrence, top down, so a child repeated
    within one tree is counted as often as it occurs.
    """
    shapes: "dict[int, tuple[int, int]]" = {}
    for level in levels[:-1]:
        for tree in level:
            shapes[id(tree)] = _shape(tree, shapes)
    counts: "dict[tuple[int, int], int]" = {}
    multiplicity: "dict[int, int]" = {}

    def consume(tree: Tree, shape: "tuple[int, int]", m: int) -> None:
        counts[shape] = counts.get(shape, 0) + m
        for child in tree:
            multiplicity[id(child)] = multiplicity.get(id(child), 0) + m

    for tree in levels[-1]:
        consume(tree, _shape(tree, shapes), 1)
    for level in reversed(levels[:-1]):
        for tree in level:
            m = multiplicity.pop(id(tree), 0)
            if m:
                consume(tree, shapes[id(tree)], m)
    return counts


@lru_cache(maxsize=None)
def _aggregate(family: FamilyId, n: int) -> "dict[StatKind, CensusTable]":
    by_vertices: "dict[tuple[int, int], int]" = {}
    by_leaves: "dict[tuple[int, int], int]" = {}
    levels = [_trees(family, i) for i in range(1, n + 1)]
    for (vertices, leaves), m in _subtree_counts(levels).items():
        by_vertices[n, vertices] = by_vertices.get((n, vertices), 0) + m
        by_leaves[n, leaves] = by_leaves.get((n, leaves), 0) + m
    return {
        StatKind.VERTICES: CensusTable(family, StatKind.VERTICES, by_vertices),
        StatKind.LEAVES: CensusTable(family, StatKind.LEAVES, by_leaves),
    }


def aggregate_census(family: FamilyId, n: int, stat: StatKind, ceiling: "int | None" = None) -> CensusTable:
    """Brute-force vertex counts by statistic value over all size-n trees."""
    ceiling = DEFAULT_BUDGETS[family] if ceiling is None else ceiling
    if n > ceiling:
        raise BudgetError(
            f"size {n} exceeds the {family.value} enumeration budget of {ceiling}"
        )
    if n < 1:
        raise BudgetError(f"no {family.value} trees of size {n}")
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
        trees = enumerate_trees(family, n, ceiling=n_max)
        record(None, n, None, "tree count", len(trees), counting_coefficient(family, n))
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
