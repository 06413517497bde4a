"""Rational functions P/(1-x)**m, exact evaluation, and the reference fit."""

import random
from fractions import Fraction
from math import comb

import pytest
from reference_ratfunc import (
    FitError,
    ReferenceRationalFunction,
    _binomial_power_match,
    fit_rational,
    one_minus_x_power,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_scale,
    rational_is_polynomial,
    rational_zero,
)
from reference_bivariate import bivariate_series
from reference_series import Series

from treecensus import (
    FamilyId,
    PoleError,
    PowerSeries,
    QuadraticNumber,
    RationalFunction,
    TruncationError,
)
from treecensus.ratfunc import (
    poly_eval,
    poly_from,
    poly_text,
)


def test_fit_geometric():
    ones = PowerSeries([1] * 20)
    r = fit_rational(ones, 0, 1)
    assert r.numerator == (Fraction(1),)
    assert r.denominator == (Fraction(1), Fraction(-1))


def test_fit_motzkin_two_leaf_column():
    column = bivariate_series(FamilyId.MOTZKIN, 24, 4).coeff_y(2)
    r = fit_rational(column, 3, 3)
    assert str(r) == "x^3/(1-x)^3"


def test_fit_ordered_four_leaf_column():
    column = bivariate_series(FamilyId.ORDERED, 30, 6).coeff_y(4)
    r = fit_rational(column, 7, 7)
    assert str(r) == "(x^5 + 3*x^6 + x^7)/(1-x)^7"


def test_fit_polynomial_series():
    poly = Series.from_polynomial([0, 0, 5, 9, 1], 20)
    r = fit_rational(poly, 6, 0)
    assert r.is_polynomial()
    assert r.numerator == (Fraction(0), Fraction(0), Fraction(5), Fraction(9), Fraction(1))


def test_fit_zero_series():
    assert fit_rational(PowerSeries.zero(20), 2, 2).is_zero()


def test_fit_requires_margin():
    with pytest.raises(TruncationError):
        fit_rational(PowerSeries([1] * 10), 4, 4)


def test_fit_failure_when_degrees_too_small():
    # coefficients of 1/((1-x)(1-2x)) are not degree-(0,1) rational
    target = ReferenceRationalFunction((1,), (1, -3, 2))
    with pytest.raises(FitError):
        fit_rational(target.expand(20), 0, 1)


def test_fit_reexpansion_roundtrip_random():
    rng = random.Random(17)
    for _ in range(25):
        num = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))]
        den = [Fraction(1)] + [Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))]
        target = ReferenceRationalFunction(num, den)
        order = len(num) + len(den) + 12
        series = target.expand(order)
        fitted = fit_rational(series, len(num), len(den))
        assert fitted == target
        assert fitted.expand(order) == series


def test_reduction_to_lowest_terms():
    # (x - x^2)/(1 - x) is x: the package holds P/(1-x)^m only in lowest
    # terms, P(1) != 0 when m > 0, which the reference class reaches by a gcd
    for numerator, exponent in (((0, 1, -1), 1), ((1, -1), 1), ((0, 2, -3, 1), 4), ((), 2)):
        with pytest.raises(ValueError, match="lowest terms"):
            RationalFunction(numerator, exponent)
    with pytest.raises(ValueError, match="negative"):
        RationalFunction((1,), -1)
    reduced = ReferenceRationalFunction((0, 1, -1), (1, -1))
    r = RationalFunction(reduced.numerator, reduced.one_minus_x_exponent())
    assert rational_is_polynomial(r)
    assert r.numerator == (Fraction(0), Fraction(1))


def test_eval_examples():
    third = QuadraticNumber(Fraction(1, 3))
    r = RationalFunction((0, 1), 1)  # x/(1-x)
    assert r.eval(third) == QuadraticNumber(Fraction(1, 2))
    cube = RationalFunction((0, 0, 0, 1), 3)  # x^3/(1-x)^3
    assert cube.eval(QuadraticNumber(Fraction(1, 4))) == QuadraticNumber(Fraction(1, 27))
    identity = RationalFunction((0, 1))
    b = QuadraticNumber(3, -2, 2)
    assert identity.eval(b) == b


def test_eval_pole():
    r = RationalFunction((1,), 1)
    with pytest.raises(PoleError):
        r.eval(QuadraticNumber(1))


def test_expand_matches_series_division():
    r = ReferenceRationalFunction((0, 1), (1, -2))
    x = Series.monomial(1, 1, 10)
    assert r.expand(10) == x.div(Series.from_polynomial([1, -2], 10))


def test_text_rendering():
    assert poly_text(()) == "0"
    assert poly_text((Fraction(0), Fraction(5))) == "5*x"
    assert str(rational_zero()) == "0"
    assert str(RationalFunction.monomial(21, 5)) == "21*x^5"
    assert str(RationalFunction((0, 0, 0, 0, 0, 0, 0, 5), 1)) == "5*x^7/(1-x)"
    assert (
        str(RationalFunction((0, 0, 0, 0, 5, 9, 1)))
        == "5*x^4 + 9*x^5 + x^6"
    )


def _reduced_by_gcd(num, den):
    """Lowest terms through a Euclid gcd over Q, denominator(0) scaled to 1."""
    num, den = poly_from(num), poly_from(den)
    g = poly_gcd(num, den)
    num, den = poly_divmod(num, g)[0], poly_divmod(den, g)[0]
    scale = Fraction(1) / den[0]
    return tuple(c * scale for c in num), tuple(c * scale for c in den)


def test_one_minus_x_power_reduction_matches_gcd():
    # the package refuses exactly the inputs a gcd would reduce
    rng = random.Random(23)
    for m in range(0, 7):
        den = one_minus_x_power(m)
        for order in range(0, m + 3):
            # numerators vanishing at x = 1 to every order, up to past m
            for _ in range(4):
                body = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
                if not any(body):
                    body[0] = Fraction(1)
                num = poly_mul(poly_from(body), one_minus_x_power(order))
                reduced = _reduced_by_gcd(num, den)
                if reduced[1] != den:
                    with pytest.raises(ValueError, match="lowest terms"):
                        RationalFunction(num, m)
                    continue
                r = RationalFunction(num, m)
                assert (r.numerator, one_minus_x_power(r.exponent)) == reduced, (num, m)


def test_binomial_power_match():
    for m in range(1, 8):
        assert _binomial_power_match(one_minus_x_power(m), m) == m
        assert _binomial_power_match(poly_scale(one_minus_x_power(m), Fraction(2)), m) is None
        assert _binomial_power_match(one_minus_x_power(m), m + 1) is None
    assert _binomial_power_match(poly_from([1, 2, 1]), 2) is None  # (1+x)^2
    assert _binomial_power_match(poly_from([1, 0, -1]), 2) is None  # 1-x^2


def test_eval_at_rational_point_matches_field_arithmetic():
    rng = random.Random(5)
    for _ in range(20):
        num = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 6))]
        den = [Fraction(1)] + [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))]
        r = ReferenceRationalFunction(num, den)
        point = QuadraticNumber(Fraction(rng.randint(-5, 5), rng.randint(6, 12)), 0, 3)
        in_field = poly_eval(r.numerator, point) / poly_eval(r.denominator, point)
        value = r.eval(point)
        assert value == in_field
        assert value.radicand == in_field.radicand == 3
    for _ in range(20):
        num = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 6))]
        reduced = ReferenceRationalFunction(num, one_minus_x_power(rng.randint(0, 6)))
        r = RationalFunction(reduced.numerator, reduced.one_minus_x_exponent())
        point = QuadraticNumber(Fraction(rng.randint(-5, 5), rng.randint(6, 12)), 0, 3)
        in_field = poly_eval(r.numerator, point) / poly_eval(one_minus_x_power(r.exponent), point)
        value = r.eval(point)
        assert value == in_field
        assert value.radicand == in_field.radicand == 3


def _one_minus_x_by_comb(m):
    return tuple(Fraction((-1) ** i * comb(m, i)) for i in range(m + 1))


def test_one_minus_x_power_is_the_binomial_expansion():
    for m in range(0, 40):
        assert one_minus_x_power(m) == _one_minus_x_by_comb(m), m


def test_numerator_and_exponent_are_read_only():
    r = RationalFunction((0, 0, 1), 3)
    assert (r.numerator, r.exponent) == ((0, 0, 1), 3)
    assert RationalFunction((1, -1)).exponent == 0  # a polynomial may vanish at 1
    with pytest.raises(AttributeError):
        r.numerator = (1,)
    with pytest.raises(AttributeError):
        r.exponent = 0


def test_one_minus_x_powers_match_the_reference_class():
    # numerators vanishing at x = 1 to several orders, over (1-x)**m, m <= 12;
    # the package takes the reference's lowest terms and refuses the rest
    rng = random.Random(41)
    root3 = QuadraticNumber(Fraction(1, 5), Fraction(1, 7), 3)
    for _ in range(200):
        m = rng.randint(0, 12)
        body = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        if not any(body):
            body[-1] = Fraction(1)
        numerator = poly_mul(poly_from(body), _one_minus_x_by_comb(rng.randint(0, m + 2)))
        reference = ReferenceRationalFunction(numerator, _one_minus_x_by_comb(m))
        if m and sum(numerator) == 0:
            with pytest.raises(ValueError, match="lowest terms"):
                RationalFunction(numerator, m)
        package = RationalFunction(reference.numerator, reference.one_minus_x_exponent())
        assert package.numerator == reference.numerator, (numerator, m)
        assert one_minus_x_power(package.exponent) == reference.denominator, (numerator, m)
        assert str(package) == str(reference), (numerator, m)
        assert package.eval(root3) == reference.eval(root3), (numerator, m)
