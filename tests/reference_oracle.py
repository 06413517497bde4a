"""The enumerations as first written, as the tests' references.

``ref_trees`` is the earliest construction: nested tuples (a tree is
the tuple of its child trees, a leaf the empty tuple), one branch per
family, with its own cache of every family; it pins the order and shape
of the enumerated trees.  ``census_tree`` walks every vertex of one
such tree, the reference for the block table's census, and
``tree_to_text`` serializes one.  ``IndexTable`` is the index table the
package used before its block table: each tree a tuple of its
children's indices, Schroeder trees built as the forests of at least
two trees, and a census that walks every index downwards.  It pins the
block table's census and its per-level count bytes.
"""

from functools import lru_cache
from typing import NamedTuple

from treecensus import BudgetError, FamilyId


class VertexCensus(NamedTuple):
    subtree_vertices: int
    subtree_leaves: int


def tree_to_text(tree: tuple) -> str:
    """Canonical balanced-parenthesis serialization, children left to right."""
    return "(" + "".join(tree_to_text(child) for child in tree) + ")"


def census_tree(tree: tuple) -> "tuple[VertexCensus, ...]":
    """Per-vertex (subtree vertices, subtree leaves) in post-order."""
    out: "list[VertexCensus]" = []

    def walk(node: tuple) -> "tuple[int, int]":
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
def ref_trees(family: FamilyId, n: int) -> tuple:
    if n == 1:
        return ((),)
    out = []
    if family is FamilyId.MOTZKIN:
        for child in ref_trees(family, n - 1):
            out.append((child,))
        for i in range(1, n - 1):
            for left in ref_trees(family, i):
                for right in ref_trees(family, n - 1 - i):
                    out.append((left, right))
    elif family is FamilyId.ORDERED:
        for forest in ref_forests(family, n - 1):
            out.append(forest)
    elif family is FamilyId.FULL_BINARY:
        for i in range(1, n):
            for left in ref_trees(family, i):
                for right in ref_trees(family, n - i):
                    out.append((left, right))
    else:  # Schroeder: at least two children, sizes sum to n (leaves)
        for i in range(1, n):
            for first in ref_trees(family, i):
                for rest in ref_forests(family, n - i):
                    out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def ref_forests(family: FamilyId, total: int) -> tuple:
    """Nonempty ordered forests with sizes summing to ``total``."""
    out = []
    for i in range(1, total + 1):
        for first in ref_trees(family, i):
            if i == total:
                out.append((first,))
            else:
                for rest in ref_forests(family, total - i):
                    out.append((first,) + rest)
    return tuple(out)


# Forests as (child tuples, vertices, leaves): the counts are those of a
# tree that has each forest as its children.
_Forests = tuple[list[tuple[int, ...]], bytes, bytes]


class IndexTable:
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
