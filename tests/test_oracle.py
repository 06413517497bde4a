"""Exhaustive enumeration: generation, censuses, and series cross-checks."""

from collections import Counter

import pytest
from reference_oracle import IndexTable, VertexCensus, census_tree, ref_trees, tree_to_text

from treecensus import (
    DEFAULT_BUDGETS,
    BudgetError,
    FamilyId,
    StatKind,
    aggregate_census,
    counting_coefficient,
    total_vertices,
    verify_family,
)
from treecensus import oracle

LEAF = ()
CHAIN3 = (((),),)  # three-vertex unary chain
CHERRY = ((), ())  # root with two leaf children


def _listed(table, n):
    """The (vertices, leaves) count bytes of the block table's size-n trees."""
    level = table.levels[table.level(n)]
    return level.vertices, level.leaves


def _root_counts(trees):
    """The same count bytes, walked from nested-tuple trees in their order."""
    roots = [census_tree(tree)[-1] for tree in trees]
    return bytes(root.subtree_vertices for root in roots), bytes(root.subtree_leaves for root in roots)


def test_enumeration_counts_small():
    assert len(_listed(oracle._Table(FamilyId.MOTZKIN), 3)[0]) == 2
    assert len(_listed(oracle._Table(FamilyId.SCHROEDER), 3)[0]) == 3
    assert len(_listed(oracle._Table(FamilyId.FULL_BINARY), 1)[0]) == 1
    assert len(_listed(oracle._Table(FamilyId.ORDERED), 4)[0]) == 5


@pytest.mark.parametrize("family", list(FamilyId))
def test_enumeration_matches_counting_series(family):
    table = oracle._Table(family)
    for n in range(1, 8):
        assert len(_listed(table, n)[0]) == counting_coefficient(family, n)


@pytest.mark.parametrize("family", list(FamilyId))
def test_no_duplicate_trees(family):
    for n in range(1, 8):
        trees = ref_trees(family, n)
        serialized = [tree_to_text(t) for t in trees]
        assert len(set(serialized)) == len(serialized)


def test_arity_constraints_hold():
    def arities(tree):
        yield len(tree)
        for child in tree:
            yield from arities(child)

    for tree in ref_trees(FamilyId.MOTZKIN, 6):
        assert all(a <= 2 for a in arities(tree))
    for tree in ref_trees(FamilyId.FULL_BINARY, 5):
        assert all(a in (0, 2) for a in arities(tree))
    for tree in ref_trees(FamilyId.SCHROEDER, 5):
        assert all(a == 0 or a >= 2 for a in arities(tree))


def test_leaf_counted_sizes():
    def leaves(tree):
        return 1 if not tree else sum(leaves(c) for c in tree)

    for n in range(1, 7):
        for tree in ref_trees(FamilyId.SCHROEDER, n):
            assert leaves(tree) == n
        for tree in ref_trees(FamilyId.FULL_BINARY, n):
            assert leaves(tree) == n


def test_budget_refusal_mentions_budget():
    with pytest.raises(BudgetError, match="outside the motzkin enumeration budget 1..14"):
        aggregate_census(FamilyId.MOTZKIN, 15, StatKind.VERTICES)
    with pytest.raises(BudgetError):
        aggregate_census(FamilyId.SCHROEDER, 11, StatKind.LEAVES)
    with pytest.raises(BudgetError):
        aggregate_census(FamilyId.ORDERED, 13, StatKind.VERTICES)


def test_census_tree_examples():
    assert census_tree(LEAF) == (VertexCensus(1, 1),)
    cherry = census_tree(CHERRY)
    assert cherry[-1] == VertexCensus(3, 2)
    assert sorted((c.subtree_vertices, c.subtree_leaves) for c in cherry) == [
        (1, 1),
        (1, 1),
        (3, 2),
    ]
    chain = census_tree(CHAIN3)
    assert sorted((c.subtree_vertices, c.subtree_leaves) for c in chain) == [
        (1, 1),
        (2, 1),
        (3, 1),
    ]


def test_census_self_consistency():
    for tree in ref_trees(FamilyId.SCHROEDER, 5):
        censuses = census_tree(tree)
        root = censuses[-1]
        assert root.subtree_vertices == len(censuses)
        leaf_count = sum(1 for c in censuses if c.subtree_vertices == 1)
        assert leaf_count == root.subtree_leaves
        for c in censuses:
            assert 1 <= c.subtree_leaves <= c.subtree_vertices


def test_aggregate_census_examples():
    motzkin = aggregate_census(FamilyId.MOTZKIN, 3, StatKind.VERTICES)
    assert motzkin == {1: 3, 2: 1, 3: 2}
    assert sum(motzkin.values()) == 3 * counting_coefficient(FamilyId.MOTZKIN, 3)
    motzkin[1] = 0  # a copy: the cached histogram is untouched
    assert aggregate_census(FamilyId.MOTZKIN, 3, StatKind.VERTICES) == {1: 3, 2: 1, 3: 2}
    binary = aggregate_census(FamilyId.FULL_BINARY, 3, StatKind.LEAVES)
    assert binary == {1: 6, 2: 2, 3: 2}
    for n in range(1, 7):
        ordered = aggregate_census(FamilyId.ORDERED, n, StatKind.VERTICES)
        assert ordered[n] == counting_coefficient(FamilyId.ORDERED, n)


def test_aggregate_partition_matches_totals():
    for family in FamilyId:
        for stat in StatKind:
            for n in range(1, 7):
                table = aggregate_census(family, n, stat)
                assert sum(table.values()) == total_vertices(family, n)


def test_serialization_round_shape():
    assert tree_to_text(LEAF) == "()"
    assert tree_to_text(CHERRY) == "(()())"
    assert tree_to_text(CHAIN3) == "((()))"


def test_verify_family_passes():
    assert verify_family(FamilyId.MOTZKIN, 10).passed
    assert verify_family(FamilyId.SCHROEDER, 8).passed


def test_verify_family_rejects_overbudget():
    with pytest.raises(BudgetError):
        verify_family(FamilyId.ORDERED, 40)


@pytest.mark.parametrize("n_max", [0, -3])
def test_verify_family_rejects_vacuous_request(n_max):
    # a report with zero checks must not read as a pass
    with pytest.raises(BudgetError, match=f"size {n_max} is outside the motzkin enumeration budget 1..14"):
        verify_family(FamilyId.MOTZKIN, n_max)


def test_full_binary_even_vertex_rows_are_empty():
    # no subtree of a full binary tree has an even vertex count
    table = aggregate_census(FamilyId.FULL_BINARY, 6, StatKind.VERTICES)
    for k, count in table.items():
        assert k % 2 == 1 and count > 0


@pytest.mark.parametrize("family", list(FamilyId))
def test_bivariate_matches_enumeration(family):
    """Coefficient (n, j) of the tests' bivariate series counts trees directly."""
    from collections import Counter

    from reference_bivariate import bivariate_series, bivariate_y

    from treecensus import max_stat_value

    y_stat = bivariate_y(family)
    for n in range(1, 7):
        profile = Counter()
        for tree in ref_trees(family, n):
            root = census_tree(tree)[-1]
            profile[root.subtree_leaves if y_stat is StatKind.LEAVES else root.subtree_vertices] += 1
        ny = max_stat_value(family, y_stat, n)
        bv = bivariate_series(family, n, ny)
        for j in range(1, ny + 1):
            assert bv.coefficient(n, j) == profile.get(j, 0), (family, n, j)


@pytest.mark.parametrize("family", list(FamilyId))
def test_aggregate_matches_per_tree_walk(family):
    """The shared-subtree census equals the per-vertex walk of every tree."""
    for n in range(1, DEFAULT_BUDGETS[family] - 1):
        vertices = [vertex for tree in ref_trees(family, n) for vertex in census_tree(tree)]
        walked = {
            StatKind.VERTICES: Counter(vertex.subtree_vertices for vertex in vertices),
            StatKind.LEAVES: Counter(vertex.subtree_leaves for vertex in vertices),
        }
        for stat in StatKind:
            assert aggregate_census(family, n, stat) == dict(walked[stat]), (family, n, stat)


def test_subtree_counts_count_repeated_child_objects():
    # one child level occurring twice in a block counts twice, however deep
    chain = (LEAF,)
    pair = (chain, chain)
    top = (chain, chain, LEAF)
    top2 = (pair, pair)
    table = oracle._Table(FamilyId.ORDERED)  # level 0 is LEAF
    chain_level = table._add([(None, 0)], tree=True)
    pair_level = table._add([(chain_level, chain_level)], tree=True)  # one tree, its child twice
    rest = table._add([(chain_level, 0)], tree=False)  # the forest (chain, LEAF)
    top_level = table._add([(chain_level, rest), (pair_level, pair_level)], tree=True)
    table.trees = [None, 0, chain_level, pair_level, top_level]  # the top level holds top and top2
    assert _listed(table, 4) == _root_counts([top, top2])
    walked = [vertex for tree in (top, top2) for vertex in census_tree(tree)]
    by_vertices = Counter(vertex.subtree_vertices for vertex in walked)
    assert table.census(4) == (by_vertices, Counter(vertex.subtree_leaves for vertex in walked))
    assert by_vertices[2] == 6  # chain: twice under top, twice under each pair


@pytest.mark.parametrize("family", list(FamilyId))
def test_block_table_matches_index_table(family):
    blocks, reference = oracle._Table(family), IndexTable(family)
    for n in range(1, DEFAULT_BUDGETS[family]):
        level, indices = blocks.levels[blocks.level(n)], reference.level(n)
        assert level.vertices == reference.vertices[indices.start : indices.stop], (family, n)
        assert level.leaves == reference.leaves[indices.start : indices.stop], (family, n)
        assert blocks.census(n) == reference.census(n), (family, n)


def test_census_below_the_top_takes_both_block_layouts():
    table = oracle._Table(FamilyId.ORDERED)
    small, large = table.level(3), table.level(4)  # 2 and 5 trees
    # rows <= columns, then rows > columns; under the top, each tree counts 40 times
    mixed = table._add([(small, large), (large, small)], tree=True)
    top = table._add([(mixed, mixed)], tree=True)
    table.trees += [mixed, top]  # census(5) and census(6) take them as the top
    small_trees, large_trees = ref_trees(FamilyId.ORDERED, 3), ref_trees(FamilyId.ORDERED, 4)
    mixed_trees = [(s, t) for s in small_trees for t in large_trees]
    mixed_trees += [(t, s) for t in large_trees for s in small_trees]
    top_trees = [(a, b) for a in mixed_trees for b in mixed_trees]
    for n, trees in ((5, mixed_trees), (6, top_trees)):
        assert _listed(table, n) == _root_counts(trees)
        walked = [vertex for tree in trees for vertex in census_tree(tree)]
        expected = (
            Counter(vertex.subtree_vertices for vertex in walked),
            Counter(vertex.subtree_leaves for vertex in walked),
        )
        assert table.census(n) == expected
    assert len(table.levels[top].vertices) == 20 * 20


@pytest.mark.parametrize("family", list(FamilyId))
def test_enumeration_matches_reference_construction(family):
    table = oracle._Table(family)
    for n in range(1, 9):
        assert _listed(table, n) == _root_counts(ref_trees(family, n)), (family, n)


def test_interleaved_families_enumerate_unchanged():
    def counts(family):
        return [_listed(oracle._table(family), n) for n in range(1, 9)]

    first = counts(FamilyId.MOTZKIN)
    between = counts(FamilyId.SCHROEDER)
    again = counts(FamilyId.MOTZKIN)
    for family, listed in ((FamilyId.MOTZKIN, first), (FamilyId.SCHROEDER, between), (FamilyId.MOTZKIN, again)):
        for n, row in enumerate(listed, start=1):
            assert len(row[0]) == counting_coefficient(family, n)
            assert row == _root_counts(ref_trees(family, n)), (family, n)


def test_enumeration_cache_holds_one_family():
    schroeder = oracle._table(FamilyId.SCHROEDER)
    listed = [_listed(schroeder, n) for n in range(1, 7)]
    oracle._table(FamilyId.MOTZKIN).level(6)
    assert oracle._held is not schroeder and oracle._held.family is FamilyId.MOTZKIN
    motzkin_trees = sum(counting_coefficient(FamilyId.MOTZKIN, n) for n in range(1, 7))
    held = oracle._held
    assert len(held.trees) == 7  # the levels of sizes 1 to 6, and no more
    assert sum(len(held.levels[index].vertices) for index in held.trees[1:]) == motzkin_trees
    # the Schroeder table was dropped, so asking again builds its levels anew
    rebuilt = oracle._table(FamilyId.SCHROEDER)
    assert rebuilt is not schroeder and oracle._held is rebuilt
    assert [_listed(rebuilt, n) for n in range(1, 7)] == listed


@pytest.mark.parametrize("family", list(FamilyId))
def test_verify_family_counts_every_listed_tree(family, monkeypatch):
    # a series count no tree count can equal turns each tree count into a mismatch
    monkeypatch.setattr(oracle, "counting_coefficient", lambda family, n: -1)
    report = verify_family(family, 8)
    counted = {m.n: m.expected for m in report.mismatches if m.quantity == "tree count"}
    assert counted == {n: len(ref_trees(family, n)) for n in range(1, 9)}


@pytest.mark.parametrize("family", list(FamilyId))
def test_child_counts_agree_with_descriptor(family):
    from treecensus import descriptor

    unit, exact, at_least = oracle._CHILD_COUNTS[family]
    desc = descriptor(family)
    assert unit is desc.size_unit
    # T = x(1 + T + psi(T)) by vertices, T = x + psi(T) by leaves; psi is t^2, or t^2/(1 - t) if geometric
    for d in range(13):
        allowed = d in exact or (at_least is not None and d >= at_least)
        from_spec = (d == 1 and unit is StatKind.VERTICES) or d == 2 or (d > 2 and desc.geometric_psi)
        assert allowed == from_spec, (family, d)
