"""The enumeration as first written: one branch per family.

The package enumerates into an index table of child indices, builds
Schroeder trees as the forests of at least two trees and holds one
family's table at a time.  This is the earlier construction of nested
tuples, with its own cache of every family, as the tests' reference for
the order and shape of the enumerated trees.
"""

from functools import lru_cache

from treecensus import FamilyId


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
