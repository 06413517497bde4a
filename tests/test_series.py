"""Truncated power series: the package's container and the tests' arithmetic."""

import random
from fractions import Fraction

import pytest

from treecensus import PowerSeries, TruncationError

from reference_series import ConstantTermError, Series, ValuationError, ref_div, ref_mul, ref_sqrt


def series(*coeffs):
    return Series([Fraction(c) for c in coeffs])


def random_series(rng, order, constant=None):
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(order + 1)]
    if constant is not None:
        coeffs[0] = Fraction(constant)
    return Series(coeffs)


def test_mul_basics():
    one_plus = series(1, 1, 0)
    one_minus = series(1, -1, 0)
    assert one_plus.mul(one_minus, 2) == series(1, 0, -1)
    a = series(2, -3, 5, 7)
    assert a.mul(Series.one(3)) == a


def test_mul_truncation_error():
    with pytest.raises(TruncationError):
        series(1, 1).mul(series(1, 1), 5)


def test_mul_commutative_associative_random():
    rng = random.Random(3)
    for _ in range(30):
        a = random_series(rng, 6)
        b = random_series(rng, 6)
        c = random_series(rng, 6)
        assert a.mul(b) == b.mul(a)
        assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_div_geometric():
    x = Series.monomial(1, 1, 4)
    geom = x.div(series(1, -1, 0, 0, 0))
    assert geom == series(0, 1, 1, 1, 1)


def test_div_cancels_common_powers():
    num = series(0, 0, 1, -1)  # x^2 - x^3
    den = series(0, 1, 0, 0)  # x
    assert num.div(den) == series(0, 1, -1)
    assert series(1, 0, -1).div(series(1, -1), 1) == series(1, 1)


def test_div_valuation_error():
    with pytest.raises(ValuationError):
        series(0, 1, 0).div(series(0, 0, 1))


def test_div_roundtrip_random():
    rng = random.Random(5)
    for _ in range(30):
        a = random_series(rng, 7)
        b = random_series(rng, 7, constant=rng.randint(1, 3))
        assert a.mul(b).div(b) == a
        assert a.div(b).mul(b) == a


def test_sqrt_known_expansion():
    # 1 - 2x - 2x^2 - 4x^3 - 10x^4 - 28x^5, then square back
    root = Series.from_polynomial([1, -4], 5).sqrt()
    assert root == series(1, -2, -2, -4, -10, -28)
    assert root.mul(root) == Series.from_polynomial([1, -4], 5)


def test_sqrt_perfect_square():
    assert Series.one(4).sqrt() == Series.one(4)
    square = series(1, 2, 1, 0, 0)
    assert square.sqrt() == series(1, 1, 0, 0, 0)


def test_sqrt_requires_unit_constant():
    with pytest.raises(ConstantTermError):
        series(2, 1).sqrt()
    with pytest.raises(ConstantTermError):
        series(0, 1).sqrt()


def test_sqrt_squares_back_random():
    rng = random.Random(9)
    for _ in range(30):
        a = random_series(rng, 8, constant=1)
        s = a.sqrt()
        assert s.mul(s) == a
        assert s.coefficient(0) == 1


def test_coefficient_access_and_truncation():
    a = series(1, 2, 3)
    assert a.coefficient(2) == 3
    with pytest.raises(TruncationError):
        a.coefficient(3)
    assert a.truncate(1) == series(1, 2)
    with pytest.raises(TruncationError):
        a.truncate(5)
    assert a.extended(4).coefficients[3:] == (0, 0)


def test_constructor_keeps_fractions_and_converts_the_rest():
    class Third(Fraction):
        pass

    half, big = Fraction(1, 2), 3 * 10**30  # big: not one of the interpreter's shared small ints
    s = PowerSeries([half, big, Third(1, 3), "1/4", True])
    assert s.coefficients == (Fraction(1, 2), Fraction(big), Fraction(1, 3), Fraction(1, 4), Fraction(1))
    assert s.coefficients[0] is half and s.coefficients[1] is big
    assert [type(c) for c in s.coefficients] == [Fraction, int, Fraction, Fraction, Fraction]
    head = s.truncate(1).coefficients
    assert head[0] is half and head[1] is big


def test_valuation():
    assert series(0, 0, 5).valuation() == 2
    assert Series.zero(3).valuation() is None
    assert Series.zero(3).is_zero()


def test_shift_and_scale():
    a = series(1, 1)
    assert a.shift(2) == series(0, 0, 1, 1)
    assert a.scale(Fraction(1, 2)) == series(Fraction(1, 2), Fraction(1, 2))


# -- integer kernels against the schoolbook Fraction reference --------------------

LEADS = [1, -1, 2, 3, Fraction(1, 2), Fraction(-5, 3)]


def rational_series(rng, order, constant=None, valuation=0):
    """Random series with denominators 1..7, about a quarter of its terms zero."""
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < 0.75 else Fraction(0)
        for _ in range(order + 1)
    ]
    coeffs[:valuation] = [Fraction(0)] * min(valuation, order + 1)
    if constant is not None and valuation <= order:
        coeffs[valuation] = Fraction(constant)
    return Series(coeffs)


def maybe_order(rng, available):
    return None if rng.random() < 0.5 else rng.randint(0, available)


def test_integer_mul_matches_reference():
    rng = random.Random(11)
    for _ in range(200):
        a = rational_series(rng, rng.randint(0, 24))
        b = rational_series(rng, rng.randint(0, 24))
        order = maybe_order(rng, min(a.truncation_order, b.truncation_order))
        assert a.mul(b, order) == ref_mul(a, b, order)


def test_integer_div_matches_reference():
    rng = random.Random(12)
    for _ in range(300):
        v = rng.choice([0, 0, 1, 2])
        b = rational_series(rng, rng.randint(v, 24), constant=rng.choice(LEADS), valuation=v)
        if rng.random() < 0.3:  # a short divisor, padded with zeros
            b = Series.from_polynomial(b.coefficients[: v + 2], b.truncation_order)
        a = rational_series(rng, rng.randint(v, 24), valuation=v + rng.choice([0, 0, 1]))
        available = min(a.truncation_order, b.truncation_order) - v
        order = maybe_order(rng, available)
        assert a.div(b, order) == ref_div(a, b, order)


def test_integer_sqrt_matches_reference():
    rng = random.Random(13)
    for _ in range(200):
        a = rational_series(rng, rng.randint(0, 24), constant=1)
        order = maybe_order(rng, a.truncation_order)
        assert a.sqrt(order) == ref_sqrt(a, order)


KERNELS = {"mul": (Series.mul, ref_mul), "div": (Series.div, ref_div),
           "sqrt": (Series.sqrt, ref_sqrt)}


@pytest.mark.parametrize(
    "op, args, error",
    [
        ("mul", (series(1, 1), series(1, 1), 5), TruncationError),
        ("div", (series(1, 1), series(1, 1), 5), TruncationError),
        ("div", (series(0, 1, 1), series(0, 1, 1), 2), TruncationError),
        ("div", (series(1, 1), Series.zero(3)), ConstantTermError),
        ("div", (series(0, 1, 0), series(0, 0, 1)), ValuationError),
        ("div", (series(Fraction(1, 3), 1), series(0, Fraction(2, 5))), ValuationError),
        ("sqrt", (series(1, 1), 3), TruncationError),
        ("sqrt", (series(2, 1),), ConstantTermError),
        ("sqrt", (series(0, 1),), ConstantTermError),
        ("sqrt", (series(-1, 1),), ConstantTermError),
        ("sqrt", (series(Fraction(1, 2), 1),), ConstantTermError),
    ],
)
def test_error_classes_match_reference(op, args, error):
    kernel, reference = KERNELS[op]
    with pytest.raises(error):
        kernel(*args)
    with pytest.raises(error):
        reference(*args)
