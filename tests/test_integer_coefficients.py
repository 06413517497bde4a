"""Every series the package computes holds its integer coefficients as ``int``s.

The counting series, the multiplier, the census series, the fixed point,
the root-statistic GFs and the tests' bivariate rows all have integer
coefficients.  Each entry must be exactly an ``int`` (no ``Fraction``
built per coefficient, no ``bool``), and each series must still equal
its test-side ``Fraction`` reference.
"""

from fractions import Fraction

import pytest
from reference_bivariate import bivariate_series
from reference_families import ref_bivariate, ref_counting, ref_multiplier, ref_root_expansion, ref_root_stat_gf
from reference_series import ref_mul

from treecensus import (
    FamilyId,
    PowerSeries,
    StatKind,
    census_series,
    clear_caches,
    counting_series,
    families,
    fixed_point_solve,
    max_stat_value,
    multiplier_gf,
    root_stat_gf,
)


def assert_ints(values, what):
    wrong = sorted({type(c).__name__ for c in values if type(c) is not int})
    assert not wrong, f"{what} holds {wrong}"


@pytest.mark.parametrize("family", list(FamilyId))
@pytest.mark.parametrize("order", [64, 640])
def test_counting_series_and_multiplier_hold_ints(family, order):
    counting, multiplier = counting_series(family, order), multiplier_gf(family, order)
    assert_ints(counting.coefficients, "counting series")
    assert_ints(multiplier.coefficients, "multiplier")
    assert counting == ref_counting(family, order)
    assert multiplier == ref_multiplier(family, order)


@pytest.mark.parametrize("family", list(FamilyId))
@pytest.mark.parametrize("stat", list(StatKind))
def test_census_series_hold_ints(family, stat):
    order = 64
    multiplier = ref_multiplier(family, order)
    beyond = max_stat_value(family, stat, order) + 1  # the zero shortcut
    for k in (1, 2, 3, 7, beyond):
        census = census_series(family, stat, k, order)
        assert_ints(census.coefficients, f"census k = {k}")
        expansion = PowerSeries([Fraction(c) for c in ref_root_expansion(family, stat, k, order)])
        assert census == ref_mul(expansion, multiplier, order), k
    assert not any(census.coefficients)


@pytest.mark.parametrize("family", list(FamilyId))
def test_fixed_point_holds_ints_after_a_cold_solve_an_extension_and_a_slice(family):
    clear_caches()
    for order, how in ((40, "cold solve"), (80, "extension"), (80, "held solve"), (25, "slice")):
        solved = fixed_point_solve(family, order)
        assert_ints(solved.coefficients, f"fixed point ({how})")
        assert solved == ref_counting(family, order), how
    checked = families._phi_terms(families.descriptor(family), solved.coefficients, [1], 1, 25)
    assert_ints(checked, "Phi(s)")
    assert checked == list(solved.coefficients[1:])


@pytest.mark.parametrize("family", list(FamilyId))
@pytest.mark.parametrize("stat", list(StatKind))
def test_root_stat_gf_numerators_and_denominators_hold_ints(family, stat):
    for k in range(1, 9):
        root = root_stat_gf(family, stat, k)
        assert_ints(root.numerator, f"root GF numerator k = {k}")
        assert type(root.exponent) is int, f"root GF denominator k = {k}"
        assert root == ref_root_stat_gf(family, stat, k), k


@pytest.mark.parametrize("family", list(FamilyId))
def test_bivariate_rows_hold_ints(family):
    for order_x, order_y in ((64, 24), (20, 12)):  # a whole bucket, then a slice of it
        series = bivariate_series(family, order_x, order_y)
        for n, row in enumerate(series.rows):
            assert_ints(row, f"bivariate row {n}")
        assert_ints(series.at_y_one().coefficients, "bivariate at y = 1")
        assert_ints(series.dy_at_y_one().coefficients, "bivariate d/dy at y = 1")
        assert series == ref_bivariate(family, order_x, order_y)
