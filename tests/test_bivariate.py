"""The tests' bivariate series: fixed points, closed-form validation, extraction."""

from fractions import Fraction

import pytest
from reference_bivariate import ReferenceBivariate, bivariate_series, bivariate_y

from treecensus import (
    FamilyId,
    StatKind,
    TruncationError,
    counting_series,
    max_stat_value,
)


def poly2(rows, nx, ny):
    return ReferenceBivariate([[Fraction(c) for c in row] for row in rows], nx, ny)


def test_motzkin_small_coefficients():
    m = bivariate_series(FamilyId.MOTZKIN, 6, 4)
    assert m.coefficient(3, 1) == 1  # the unary-unary chain
    assert m.coefficient(3, 2) == 1  # binary root over two leaves
    assert m.coefficient(1, 1) == 1
    assert not any(m.coeff_y(0).coefficients)  # every tree has at least one leaf


def test_ordered_marginal_recovers_catalan():
    t = bivariate_series(FamilyId.ORDERED, 6, 5)
    assert sum(t.coefficient(4, j) for j in range(6)) == 5


def test_schroeder_vertex_slices():
    r = bivariate_series(FamilyId.SCHROEDER, 6, 8)
    assert r.coefficient(3, 5) == 2
    assert r.coefficient(3, 4) == 1
    assert r.coefficient(4, 5) == 1  # the 4-leaf star has 5 vertices


def test_full_binary_leaf_vertex_lock():
    b = bivariate_series(FamilyId.FULL_BINARY, 6, 11)
    for n in range(1, 7):
        for j in range(12):
            value = b.coefficient(n, j)
            if j == 2 * n - 1:
                assert value == counting_series(FamilyId.FULL_BINARY, 6).coefficient(n)
            else:
                assert value == 0


def test_marginals_match_counting_series():
    for family in FamilyId:
        ny = max_stat_value(family, bivariate_y(family), 12)
        bv = bivariate_series(family, 12, ny)
        assert bv.at_y_one() == counting_series(family, 12)


def test_marginals_keep_the_top_y_degree_of_a_bucket():
    # the y truncation equals a bucket size, so the slices' top degree counts
    for family, n in ((FamilyId.MOTZKIN, 48), (FamilyId.ORDERED, 25)):
        ny = max_stat_value(family, StatKind.LEAVES, n)
        assert ny == 24
        assert bivariate_series(family, n, ny).at_y_one() == counting_series(family, n)


def test_coeff_y_range_error():
    m = bivariate_series(FamilyId.MOTZKIN, 4, 2)
    with pytest.raises(TruncationError):
        m.coeff_y(3)


# -- closed forms ------------------------------------------------------------
#
# The closed forms are validated at small order against the fixed points.
# For ordered trees the printed radicand is corrected: it must equal
# (xy - x + 1)^2 - 4xy (see the errata ledger).


def _sqrt_closed_form(radicand_rows, nx, ny):
    return poly2(radicand_rows, nx, ny).sqrt()


def test_motzkin_closed_form():
    nx, ny = 8, 4
    # radicand 1 - 2x + x^2 - 4x^2 y
    root = _sqrt_closed_form([[1], [-2], [1, -4]] + [[]] * (nx - 2), nx, ny)
    numerator = poly2([[1], [-1]] + [[]] * (nx - 1), nx, ny) - root
    closed = numerator.shift_x_down(1).scale(Fraction(1, 2))
    iterated = bivariate_series(FamilyId.MOTZKIN, nx - 1, ny)
    assert closed == iterated


def test_ordered_closed_form_corrected_radicand():
    nx, ny = 8, 6
    linear = poly2([[1], [-1, 1]] + [[]] * (nx - 1), nx, ny)  # 1 - x + xy
    radicand = linear.mul(linear) - poly2([[], [0, 4]] + [[]] * (nx - 1), nx, ny)
    closed = (linear - radicand.sqrt()).scale(Fraction(1, 2))
    assert closed == bivariate_series(FamilyId.ORDERED, nx, ny)


def test_ordered_printed_radicand_is_wrong():
    nx, ny = 8, 6
    # as printed: x^2 y^2 - 2x y^2 + x^2 - 2xy - 2x + 1
    printed = poly2(
        [[1], [0, -2, -2], [1, 0, 1]] + [[]] * (nx - 2), nx, ny
    )
    linear = poly2([[1], [-1, 1]] + [[]] * (nx - 1), nx, ny)
    closed = (linear - printed.sqrt()).scale(Fraction(1, 2))
    assert closed != bivariate_series(FamilyId.ORDERED, nx, ny)


def test_schroeder_closed_form():
    nx, ny = 8, 8
    # radicand (xy)^2 + 2xy + 1 - 4xy(y+1) = 1 - 2xy - 4xy^2 + x^2 y^2
    radicand = poly2([[1], [0, -2, -4], [0, 0, 1]] + [[]] * (nx - 2), nx, ny)
    numerator = poly2([[1], [0, 1]] + [[]] * (nx - 1), nx, ny) - radicand.sqrt()
    closed = numerator.div(poly2([[2, 2]] + [[]] * nx, nx, ny))
    assert closed == bivariate_series(FamilyId.SCHROEDER, nx, ny)


def test_rectangle_access_bounds():
    m = bivariate_series(FamilyId.MOTZKIN, 4, 3)
    with pytest.raises(TruncationError):
        m.coefficient(5, 0)
    with pytest.raises(TruncationError):
        m.coefficient(0, 4)


def test_single_leaf_column_is_the_chain_series():
    # [y^1] of the Motzkin refinement counts unary chains: x/(1-x)
    column = bivariate_series(FamilyId.MOTZKIN, 8, 3).coeff_y(1)
    assert list(column.coefficients) == [0] + [1] * 8


def test_ordered_three_leaf_column_expansion():
    # (x^4 + x^5)/(1-x)^5 expands to x^4 + 6x^5 + 20x^6 + 50x^7 + ...
    column = bivariate_series(FamilyId.ORDERED, 9, 4).coeff_y(3)
    assert [int(column.coefficient(n)) for n in range(4, 10)] == [1, 6, 20, 50, 105, 196]
