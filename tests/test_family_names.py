"""Family and statistic names passed as plain strings.

``FamilyId`` and ``StatKind`` are ``str`` enums, so a cache keyed on
them treats ``"motzkin"`` and ``FamilyId.MOTZKIN`` as one key.  Every
function that branches on a family or a statistic must therefore give a
string the member's value, or a string call would both answer wrongly
and hand its answer to later enum calls.
"""

import pytest
from reference_bivariate import _bivariate_bucketed, bivariate_series
from reference_families import census_table_from_series

from treecensus import (
    FamilyId,
    StatKind,
    aggregate_census,
    census_coefficient,
    census_series,
    clear_caches,
    descriptor,
    finite_probability,
    fixed_point_solve,
    limit_probability,
    max_stat_value,
    root_stat_gf,
    tightness_report,
    total_leaves,
    total_vertices,
    verify_family,
)

# Each public call that reaches a branch on a family or a statistic, and
# the tests' own bivariate solver and census table; the second element
# says whether it takes a statistic.
CALLS = {
    "root_stat_gf": (lambda f, s: root_stat_gf(f, s, 3), True),
    "limit_probability": (lambda f, s: limit_probability(f, s, 3).exact_value, True),
    "tightness_report": (lambda f, s: tightness_report(f, s, 4).partial_sum, True),
    "fixed_point_solve": (lambda f, s: fixed_point_solve(f, 12), False),
    "max_stat_value": (lambda f, s: max_stat_value(f, s, 5), True),
    "total_vertices": (lambda f, s: total_vertices(f, 6), False),
    "total_leaves": (lambda f, s: total_leaves(f, 6), False),
    "bivariate_series": (lambda f, s: bivariate_series(f, 8, 8), False),
    "census_series": (lambda f, s: census_series(f, s, 2, 12), True),
    "census_coefficient": (lambda f, s: census_coefficient(f, s, 2, 9), True),
    "finite_probability": (lambda f, s: finite_probability(f, s, 2, 9), True),
    "census_table_from_series": (lambda f, s: census_table_from_series(f, s, 6), True),
    "aggregate_census": (lambda f, s: aggregate_census(f, 5, s), True),
    "verify_family": (lambda f, s: verify_family(f, 5), False),
}


def clear_all():
    clear_caches()
    _bivariate_bucketed.cache_clear()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_string_names_give_the_enum_values(name):
    call, takes_stat = CALLS[name]
    for family in FamilyId:
        for stat in list(StatKind) if takes_stat else [StatKind.VERTICES]:
            clear_all()
            expected = call(family, stat)
            clear_all()
            assert call(family.value, stat.value) == expected, (family, stat)
            assert call(family.value, stat) == expected, (family, stat)
            assert call(family, stat.value) == expected, (family, stat)
            assert call(family, stat) == expected, (family, stat)


def test_records_carry_the_members():
    by_name = census_table_from_series("motzkin", "leaves", 4)
    assert by_name == census_table_from_series(FamilyId.MOTZKIN, StatKind.LEAVES, 4)
    assert aggregate_census("ordered", 4, "vertices") == aggregate_census(FamilyId.ORDERED, 4, StatKind.VERTICES)
    assert verify_family("fullbinary", 3).family is FamilyId.FULL_BINARY
    limit = limit_probability("motzkin", "leaves", 3)
    assert limit.family is FamilyId.MOTZKIN and limit.stat is StatKind.LEAVES
    report = tightness_report("ordered", "leaves", 2)
    assert report.family is FamilyId.ORDERED and report.stat is StatKind.LEAVES


UNKNOWN_NAMES = {
    "descriptor": lambda: descriptor("binary"),
    "fixed_point_solve": lambda: fixed_point_solve("binary", 5),
    "root_stat_gf": lambda: root_stat_gf("motzkin", "edges", 2),
    "max_stat_value": lambda: max_stat_value("motzkin", "edges", 5),
    "total_vertices": lambda: total_vertices("binary", 3),
    "bivariate_series": lambda: bivariate_series("binary", 4, 4),
    "verify_family": lambda: verify_family("binary", 3),
}


@pytest.mark.parametrize("name", sorted(UNKNOWN_NAMES))
def test_unknown_names_raise_value_error(name):
    with pytest.raises(ValueError, match="is not a valid"):
        UNKNOWN_NAMES[name]()
