"""Truncated power-series arithmetic for the tests.

The package's ``PowerSeries`` is a container: it computes every series on
integer sequences and never combines two series.  The tests do, to check
functional equations and closed forms, so ``Series`` adds the truncated
ring arithmetic: ``+``, ``-``, negation, ``scale``, ``shift``, ``mul``,
``div`` and ``sqrt``, plus the constructors ``one``, ``monomial`` and
``from_polynomial`` and the helpers ``extended``, ``valuation`` and
``is_zero``.  A ``Series`` compares equal to a ``PowerSeries`` with the
same coefficients, and ``Series.of`` lifts a package series.  Binary
operations truncate at the smaller of the two input orders unless an
explicit ``order`` is requested; ``+`` and ``-`` also take a package
series on the left.

``mul``, ``div`` and ``sqrt`` scale each input to integer numerators over
its least common denominator, run their recurrence on ``int``s and build
each output ``Fraction`` once.  ``ref_mul``, ``ref_div`` and ``ref_sqrt``
run the same recurrences directly on ``Fraction`` coefficients; the tests
compare the two on random rational series.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul as _times
from typing import Sequence

from treecensus import PowerSeries, SeriesError, TruncationError

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ValuationError(SeriesError):
    """Quotient is not a power series (numerator valuation too small)."""


class ConstantTermError(SeriesError):
    """Constant term violates an operation's domain (sqrt, division)."""


def common_order(a: PowerSeries, b: PowerSeries, order: "int | None") -> int:
    available = min(a.truncation_order, b.truncation_order)
    if order is None:
        return available
    if order > available:
        raise TruncationError(f"order {order} exceeds available truncation {available}")
    return order


def valuation(a: PowerSeries) -> "int | None":
    """Index of the first nonzero coefficient, or None for the zero series."""
    return next((n for n, c in enumerate(a.coefficients) if c), None)


class Series(PowerSeries):
    __slots__ = ()

    # -- constructors --------------------------------------------------------

    @classmethod
    def of(cls, series: PowerSeries) -> "Series":
        return cls(series.coefficients)

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([1] + [0] * order)

    @classmethod
    def monomial(cls, coefficient, power: int, order: int) -> "Series":
        if power > order:
            return cls.zero(order)
        coeffs = [0] * (order + 1)
        coeffs[power] = coefficient
        return cls(coeffs)

    @classmethod
    def from_polynomial(cls, poly: Sequence, order: int) -> "Series":
        """Embed a polynomial (coefficient list, ascending) at a truncation."""
        coeffs = list(poly[: order + 1])
        coeffs += [0] * (order + 1 - len(coeffs))
        return cls(coeffs)

    # -- basics --------------------------------------------------------------

    def truncate(self, order: int) -> "Series":
        return Series.of(super().truncate(order))

    def extended(self, order: int) -> "Series":
        """Pad with zero coefficients up to ``order``."""
        if order <= self.truncation_order:
            return self.truncate(order)
        return Series(self.coefficients + (0,) * (order - self.truncation_order))

    def valuation(self) -> "int | None":
        return valuation(self)

    def is_zero(self) -> bool:
        return self.valuation() is None

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: PowerSeries) -> "Series":
        n = min(self.truncation_order, other.truncation_order)
        a, b = self.coefficients, other.coefficients
        return Series([a[i] + b[i] for i in range(n + 1)])

    __radd__ = __add__

    def __sub__(self, other: PowerSeries) -> "Series":
        return self + -Series.of(other)

    def __rsub__(self, other: PowerSeries) -> "Series":
        return -self + other

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coefficients])

    def scale(self, factor) -> "Series":
        f = Fraction(factor)
        return Series([f * c for c in self.coefficients])

    def shift(self, power: int) -> "Series":
        """Multiply by x**power; the known range extends accordingly."""
        if power < 0:
            raise ValueError("use div for negative shifts")
        return Series((0,) * power + self.coefficients)

    def mul(self, other: PowerSeries, order: "int | None" = None) -> "Series":
        """Cauchy product truncated at ``order`` (default: min of inputs)."""
        n = common_order(self, other, order)
        a, da = _numerators(self.coefficients[: n + 1])
        b, db = _numerators(other.coefficients[: n + 1])
        d = da * db
        return Series(Fraction(sum(map(_times, a[: k + 1], b[k::-1])), d) for k in range(n + 1))

    __mul__ = mul

    def div(self, other: PowerSeries, order: "int | None" = None) -> "Series":
        """Exact quotient q with q*other == self through the truncation.

        If ``other`` has zero constant term, the common factor x**v is
        cancelled first (v = valuation of the divisor); the numerator
        must then vanish to order at least v, otherwise the quotient is
        not a power series and ``ValuationError`` is raised.
        """
        v = valuation(other)
        if v is None:
            raise ConstantTermError("division by the zero series")
        if self.is_zero():
            n = max(0, common_order(self, other, order) - v) if order is None else order
            return Series.zero(n)
        if v > 0:
            va = self.valuation()
            if va is None or va < v:
                raise ValuationError(f"numerator valuation {va} below divisor valuation {v}")
            return Series(self.coefficients[v:]).div(Series(other.coefficients[v:]), order)
        n = common_order(self, other, order)
        a, da = _numerators(self.coefficients[: n + 1])
        b, db = _numerators(other.coefficients[: n + 1])
        content = gcd(*b)
        b0 = b[0] // content
        # Divide b by its content, so that b0 is its smallest possible
        # constant term.  With Q_k = q_k * b0**(k+1) the recurrence
        # b0*q_k = a_k - sum_i b_i q_(k-i) becomes
        #   Q_k = a_k * b0**k - sum_(i>=1) b_i * b0**(i-1) * Q_(k-i),
        # which stays in the integers; trailing zeros of b cost nothing.
        last = max(i for i, c in enumerate(b) if c)
        weights = []
        power = 1
        for bi in b[1 : last + 1]:
            weights.append(bi // content * power)
            power *= b0
        quotients = []
        out = []
        power = 1
        for k in range(n + 1):
            qk = a[k] * power - sum(map(_times, weights[:k], reversed(quotients)))
            quotients.append(qk)
            power *= b0
            out.append(Fraction(qk * db, power * da * content))
        return Series(out)

    __truediv__ = div

    def sqrt(self, order: "int | None" = None) -> "Series":
        """The square root with constant term +1.

        The argument must have constant term exactly 1; callers encode
        any other branch or prefactor explicitly.
        """
        n = self.truncation_order if order is None else order
        if order is not None and order > self.truncation_order:
            raise TruncationError(f"order {order} exceeds truncation {self.truncation_order}")
        if self.coefficients[0] != 1:
            raise ConstantTermError(f"sqrt needs constant term 1, got {self.coefficients[0]}")
        a, d = _numerators(self.coefficients[: n + 1])
        # With R_k = r_k * (4d)**k the recurrence 2 r_k = a_k - sum_(0<i<k) r_i r_(k-i)
        # becomes R_k = (4d)**k/(2d) * a_k - (sum_(0<i<k) R_i R_(k-i)) / 2.  Every
        # R_k with k >= 1 is even, so the halved middle square R_(k/2)**2 / 2 is
        # exact and the symmetric sum is taken once.
        scale = 4 * d
        roots = [1]
        out = [1]
        lead = 2
        power = scale
        for k in range(1, n + 1):
            rk = lead * a[k] - sum(map(_times, roots[1 : (k + 1) // 2], reversed(roots)))
            if k % 2 == 0:
                rk -= roots[k // 2] ** 2 >> 1
            roots.append(rk)
            out.append(Fraction(rk, power))
            lead *= scale
            power *= scale
        return Series(out)


def _numerators(coefficients: Sequence) -> "tuple[list[int], int]":
    """Integer numerators over the least common denominator, and that denominator."""
    d = lcm(*(c.denominator for c in coefficients))
    return [c.numerator * (d // c.denominator) for c in coefficients], d


# -- schoolbook Fraction references -------------------------------------------


def ref_mul(a: PowerSeries, b: PowerSeries, order=None) -> PowerSeries:
    n = common_order(a, b, order)
    x, y = a.coefficients, b.coefficients
    out = [_ZERO] * (n + 1)
    for i in range(min(len(x) - 1, n) + 1):
        xi = x[i]
        if not xi:
            continue
        for j in range(min(len(y) - 1, n - i) + 1):
            yj = y[j]
            if yj:
                out[i + j] += xi * yj
    return PowerSeries(out)


def ref_div(a: PowerSeries, b: PowerSeries, order=None) -> PowerSeries:
    v = valuation(b)
    if v is None:
        raise ConstantTermError("division by the zero series")
    if valuation(a) is None:
        n = max(0, common_order(a, b, order) - v) if order is None else order
        return PowerSeries.zero(n)
    if v > 0:
        va = valuation(a)
        if va < v:
            raise ValuationError(f"numerator valuation {va} below divisor valuation {v}")
        return ref_div(PowerSeries(a.coefficients[v:]), PowerSeries(b.coefficients[v:]), order)
    n = common_order(a, b, order)
    x, y = a.coefficients, b.coefficients
    y0 = y[0]
    out = [_ZERO] * (n + 1)
    for k in range(n + 1):
        acc = x[k] if k < len(x) else _ZERO
        for i in range(1, min(k, len(y) - 1) + 1):
            yi = y[i]
            if yi:
                acc -= yi * out[k - i]
        out[k] = acc / y0
    return PowerSeries(out)


def ref_sqrt(a: PowerSeries, order=None) -> PowerSeries:
    n = a.truncation_order if order is None else order
    if order is not None and order > a.truncation_order:
        raise TruncationError(f"order {order} exceeds truncation {a.truncation_order}")
    x = a.coefficients
    if x[0] != 1:
        raise ConstantTermError(f"sqrt needs constant term 1, got {x[0]}")
    out = [_ZERO] * (n + 1)
    out[0] = _ONE
    for k in range(1, n + 1):
        acc = x[k]
        for i in range(1, k):
            si = out[i]
            if si:
                acc -= si * out[k - i]
        out[k] = acc / 2
    return PowerSeries(out)
