"""Rational functions P(x)/(1-x)**m over Q.

Polynomials are tuples of exact coefficients, each an ``int`` or a
``Fraction`` (``series.exact_tuple``: anything else becomes a
``Fraction``), in ascending powers with no trailing zeros (the zero
polynomial is the empty tuple); an integer polynomial stays on
``int``s.  Every
root-statistic GF the package builds is a numerator over a power of
(1-x), so ``RationalFunction`` holds exactly that shape: the numerator
and the exponent m, in lowest terms.  The exact evaluation at a point
of a quadratic field is the bridge from a GF to its limit probability.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .quadratic import QuadraticNumber
from .series import exact_tuple

Poly = "tuple[int | Fraction, ...]"


class PoleError(ZeroDivisionError):
    """Evaluation point is a pole of the rational function."""


# -- polynomial helpers --------------------------------------------------------


def poly_trim(coeffs: "Sequence[int | Fraction]") -> Poly:
    last = -1
    for i, c in enumerate(coeffs):
        if c:
            last = i
    return tuple(coeffs[: last + 1])


def poly_from(coeffs: Sequence[Union[int, Fraction]]) -> Poly:
    return poly_trim(exact_tuple(coeffs))


def poly_eval(p: Poly, point):
    """Horner evaluation; the point may be a Fraction or QuadraticNumber."""
    acc = point * 0
    for c in reversed(p):
        acc = acc * point + c
    return acc


def poly_text(p: Poly, variable: str = "x") -> str:
    """Plain-text rendering like ``5*x^4 + 9*x^5 + x^6`` (ascending powers)."""
    if not p:
        return "0"
    terms = []
    for power, c in enumerate(p):
        if not c:
            continue
        if power == 0:
            terms.append((str(c), c < 0))
            continue
        var = variable if power == 1 else f"{variable}^{power}"
        mag = abs(c)
        body = var if mag == 1 else f"{mag}*{var}"
        terms.append((body, c < 0))
    out = ""
    for i, (body, negative) in enumerate(terms):
        if i == 0:
            out = f"-{body}" if negative else body
        else:
            out += f" - {body}" if negative else f" + {body}"
    return out


# -- rational functions ----------------------------------------------------------


class RationalFunction:
    """P(x)/(1-x)**m in lowest terms: P(1) != 0 whenever m > 0.

    The constructor takes the numerator P and the exponent m >= 0; a
    negative m, or P(1) == 0 with m > 0 (a common factor 1-x), raises
    ``ValueError``, so equal functions have equal fields.
    """

    __slots__ = ("numerator", "exponent")

    def __init__(self, numerator: Sequence[Union[int, Fraction]], exponent: int = 0):
        num = poly_from(numerator)
        if exponent < 0:
            raise ValueError(f"exponent {exponent} is negative")
        if exponent and sum(num) == 0:
            raise ValueError(f"({poly_text(num)})/(1-x)^{exponent} is not in lowest terms: the numerator vanishes at 1")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "exponent", exponent)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def monomial(coefficient: Union[int, Fraction], power: int) -> "RationalFunction":
        return RationalFunction([0] * power + [coefficient])

    def is_zero(self) -> bool:
        return not self.numerator

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.numerator == other.numerator and self.exponent == other.exponent

    def __hash__(self):
        return hash((self.numerator, self.exponent))

    def eval(self, point) -> QuadraticNumber:
        """Exact value at a point of a quadratic field (or a rational)."""
        if not isinstance(point, QuadraticNumber):
            point = QuadraticNumber(Fraction(point))
        # a rational point is evaluated in Q, far cheaper than in the field
        x = point.rational_part if point.is_rational else point
        base = 1 - x
        if self.exponent and not base:
            raise PoleError(f"pole at {point}")
        if self.is_zero():
            return QuadraticNumber(0, 0, point.radicand)
        value = poly_eval(self.numerator, x) / base ** self.exponent
        if isinstance(value, QuadraticNumber):
            return value
        return QuadraticNumber(value, 0, point.radicand)

    def __str__(self):
        num, m = self.numerator, self.exponent
        if not num:
            return "0"
        num_text = poly_text(num)
        if m == 0:
            return num_text
        terms = sum(1 for c in num if c)
        if terms > 1 or num_text.startswith("-"):
            num_text = f"({num_text})"
        return f"{num_text}/(1-x)^{m}" if m > 1 else f"{num_text}/(1-x)"

    __repr__ = __str__
