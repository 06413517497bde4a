"""General rational functions over Q and exact Pade fitting, as a reference.

The package's ``RationalFunction`` holds only P(x)/(1-x)**m, the shape
of every root-statistic GF it builds.  ``ReferenceRationalFunction`` is
the general quotient of two polynomials, reduced by a Euclid gcd over Q
and normalised to denominator(0) = 1, with ``expand`` by the
denominator's linear recurrence.  ``fit_rational`` recovers such a
function from a truncated series by exact Gaussian elimination; the
tests fit the bivariate series' y-slices with it, an independent
derivation of the package's closed-form root GFs.  The polynomial
helpers the package keeps are imported, not copied; ``poly_scale`` and
the ``rational_*`` helpers, which no package path runs, live here.
"""

from fractions import Fraction
from math import comb
from typing import Sequence, Union

from treecensus.quadratic import QuadraticNumber
from treecensus.ratfunc import (
    PoleError,
    Poly,
    RationalFunction,
    poly_eval,
    poly_from,
    poly_text,
    poly_trim,
)
from treecensus.series import PowerSeries, TruncationError

_ZERO = Fraction(0)
_ONE = Fraction(1)

FIT_MARGIN = 8  # extra agreement coefficients demanded beyond the degrees


class FitError(Exception):
    """No rational function of the requested degrees matches the series."""


def one_minus_x_power(m: int) -> Poly:
    """(1-x)**m as the ``int``s (-1)**i * C(m, i), i = 0..m."""
    return tuple((-1) ** i * comb(m, i) for i in range(m + 1))


def poly_degree(p: Poly) -> int:
    """Degree, with the zero polynomial mapped to -1."""
    return len(p) - 1


def poly_scale(a: Poly, factor: Fraction) -> Poly:
    return poly_trim([factor * c for c in a])


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] += ca * cb
    return poly_trim(out)


def poly_divmod(a: Poly, b: Poly) -> "tuple[Poly, Poly]":
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [_ZERO] * max(len(a) - len(b) + 1, 0)
    rem = list(a)
    while len(rem) >= len(b) and poly_trim(rem):
        rem = list(poly_trim(rem))
        if len(rem) < len(b):
            break
        shift = len(rem) - len(b)
        factor = rem[-1] / b[-1]
        quot[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        rem = rem[:-1]
    return poly_trim(quot), poly_trim(rem)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return ()
    return poly_scale(a, _ONE / a[-1])


# -- the general rational function -------------------------------------------------


class ReferenceRationalFunction:
    """Reduced quotient of two polynomials with denominator(0) != 0.

    The denominator is normalised to constant term 1 and
    gcd(numerator, denominator) = 1, giving a canonical representative.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Sequence[Union[int, Fraction]], denominator: Sequence[Union[int, Fraction]] = (1,)):
        num = poly_from(numerator)
        den = poly_from(denominator)
        if not den:
            raise ZeroDivisionError("denominator polynomial is zero")
        if not num:
            den = (_ONE,)
        else:
            g = poly_gcd(num, den)
            if poly_degree(g) > 0:
                num = poly_divmod(num, g)[0]
                den = poly_divmod(den, g)[0]
        if den[0] == 0:
            raise ValueError("denominator must have nonzero constant term")
        if den[0] != 1:
            scale = _ONE / den[0]
            num = poly_scale(num, scale)
            den = poly_scale(den, scale)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    def __setattr__(self, name, value):
        raise AttributeError("ReferenceRationalFunction is immutable")

    @staticmethod
    def zero() -> "ReferenceRationalFunction":
        return ReferenceRationalFunction((), (1,))

    @staticmethod
    def monomial(coefficient: Union[int, Fraction], power: int) -> "ReferenceRationalFunction":
        return ReferenceRationalFunction([0] * power + [coefficient])

    def is_zero(self) -> bool:
        return not self.numerator

    def is_polynomial(self) -> bool:
        return self.denominator == (_ONE,)

    def one_minus_x_exponent(self) -> "int | None":
        """m when the denominator is (1-x)**m (0 for a polynomial), else None."""
        return _binomial_power_match(self.denominator, poly_degree(self.denominator))

    def __eq__(self, other):
        if not isinstance(other, ReferenceRationalFunction):
            return NotImplemented
        return self.numerator == other.numerator and self.denominator == other.denominator

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    def scale(self, factor: Union[int, Fraction]) -> "ReferenceRationalFunction":
        return ReferenceRationalFunction(poly_scale(self.numerator, Fraction(factor)), self.denominator)

    def expand(self, order: int) -> PowerSeries:
        """Taylor coefficients 0..order via the denominator's linear recurrence."""
        num, den = self.numerator, self.denominator
        out = [_ZERO] * (order + 1)
        for n in range(order + 1):
            acc = num[n] if n < len(num) else _ZERO
            for i in range(1, min(n, len(den) - 1) + 1):
                if den[i]:
                    acc -= den[i] * out[n - i]
            out[n] = acc  # den[0] == 1
        return PowerSeries(out)

    def eval(self, point) -> QuadraticNumber:
        """Exact value at a point of a quadratic field (or a rational)."""
        if not isinstance(point, QuadraticNumber):
            point = QuadraticNumber(Fraction(point))
        # a rational point is evaluated in Q, far cheaper than in the field
        x = point.rational_part if point.is_rational else point
        den_value = poly_eval(self.denominator, x)
        if not den_value:
            raise PoleError(f"pole at {point}")
        if self.is_zero():
            return QuadraticNumber(0, 0, point.radicand)
        value = poly_eval(self.numerator, x) / den_value
        if isinstance(value, QuadraticNumber):
            return value
        return QuadraticNumber(value, 0, point.radicand)

    def __str__(self):
        num, den = self.numerator, self.denominator
        if not num:
            return "0"
        num_text = poly_text(num)
        if self.is_polynomial():
            return num_text
        terms = sum(1 for c in num if c)
        if terms > 1 or num_text.startswith("-"):
            num_text = f"({num_text})"
        den_text = _denominator_text(den)
        return f"{num_text}/{den_text}"

    __repr__ = __str__


def _denominator_text(den: Poly) -> str:
    """Render a denominator, recognising the (1-x)^m shape used throughout."""
    m = poly_degree(den)
    if m >= 1:
        power = _binomial_power_match(den, m)
        if power is not None:
            return f"(1-x)^{m}" if m > 1 else "(1-x)"
    return f"({poly_text(den)})"


def _binomial_power_match(den: Poly, m: int) -> "int | None":
    """m if ``den`` is exactly (1-x)**m, else None."""
    if len(den) != m + 1:
        return None
    for i, c in enumerate(den):
        if c != (-1) ** i * comb(m, i):
            return None
    return m


# -- members of the package's P/(1-x)**m that only the tests use -------------------


def rational_zero() -> RationalFunction:
    return RationalFunction(())


def rational_is_polynomial(r: RationalFunction) -> bool:
    return r.exponent == 0


# -- rational reconstruction -----------------------------------------------------


def fit_rational(
    series: PowerSeries, max_num_deg: int, max_den_deg: int
) -> ReferenceRationalFunction:
    """Recover a rational function agreeing with ``series`` through its truncation.

    Solves the homogeneous Pade conditions for the denominator by exact
    Gaussian elimination (first nonzero entry in a column is the pivot,
    lowest row index wins), back-substitutes, and verifies the candidate
    by re-expansion.  The series must carry at least
    ``max_num_deg + max_den_deg + FIT_MARGIN`` coefficients; raising the
    degrees is the caller's remedy for ``FitError``.
    """
    trunc = series.truncation_order
    if trunc < max_num_deg + max_den_deg + FIT_MARGIN:
        raise TruncationError(
            f"need truncation >= {max_num_deg + max_den_deg + FIT_MARGIN}, have {trunc}"
        )
    coeffs = series.coefficients
    if not any(coeffs):
        return ReferenceRationalFunction.zero()

    dd = max_den_deg
    # rows n = max_num_deg+1 .. trunc of: sum_j den_j * s_{n-j} = 0 with den_0 = 1
    rows = []
    for n in range(max_num_deg + 1, trunc + 1):
        row = [coeffs[n - j] if n - j >= 0 else _ZERO for j in range(1, dd + 1)]
        row.append(-coeffs[n])
        rows.append(row)

    den_tail = _solve(rows, dd)
    if den_tail is None:
        raise FitError(
            f"no rational function with degrees ({max_num_deg}, {max_den_deg}) matches"
        )
    den = [_ONE] + den_tail
    num = []
    for n in range(max_num_deg + 1):
        acc = _ZERO
        for j in range(min(n, dd) + 1):
            if den[j]:
                acc += den[j] * coeffs[n - j]
        num.append(acc)

    candidate = ReferenceRationalFunction(num, den)
    if candidate.expand(trunc) != series:
        raise FitError(
            f"degrees ({max_num_deg}, {max_den_deg}) insufficient for the series"
        )
    return candidate


def _solve(rows: "list[list[Fraction]]", unknowns: int) -> "list[Fraction] | None":
    """Gaussian elimination over Q for an overdetermined augmented system.

    Free columns are pinned to zero, which keeps the procedure
    deterministic; inconsistency returns None.
    """
    pivot_row_of_col: "dict[int, int]" = {}
    rank = 0
    for col in range(unknowns):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pivot_row_of_col[col] = rank
        prow = rows[rank]
        inv = _ONE / prow[col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            if factor:
                factor *= inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], prow)]
        rank += 1

    solution = [_ZERO] * unknowns
    for col in sorted(pivot_row_of_col, reverse=True):
        row = rows[pivot_row_of_col[col]]
        acc = row[-1]
        for c in range(col + 1, unknowns):
            if row[c]:
                acc -= row[c] * solution[c]
        solution[col] = acc / row[col]
    # remaining rows must reduce to 0 = 0
    for r in range(rank, len(rows)):
        acc = rows[r][-1]
        for c in range(unknowns):
            if rows[r][c]:
                acc -= rows[r][c] * solution[c]
        if acc:
            return None
    return solution
