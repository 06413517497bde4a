"""Truncated formal power series over exact rationals.

A ``PowerSeries`` stores coefficients 0..N as a tuple of exact values,
each an ``int`` or a ``Fraction``; N is the truncation order.  The
constructor keeps an entry whose type is exactly ``int`` or
``Fraction`` and converts anything else to a ``Fraction``
(``exact_tuple``), so an integer series, as every series the package
computes is, stays on ``int``s and a slice or a held series costs no
new objects.  The constructors and ``extended`` pad with ``int`` 0 and
1.  All operations are exact, pure, and return new objects, so series
are safe to cache and to share between threads.  Binary operations
truncate at the smaller of the two input orders unless an explicit
``order`` is requested.

``mul``, ``div`` and ``sqrt`` scale each input to integer numerators
over its least common denominator, run their recurrence on ``int``s and
build each output ``Fraction`` once; ``Fraction`` arithmetic stays at
the boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul as _times
from typing import Iterable, Sequence, Union

Coefficient = Union[int, Fraction]

_EXACT = frozenset((int, Fraction))


def exact_tuple(values: Iterable[Coefficient]) -> "tuple[Coefficient, ...]":
    """The values as a tuple: an exact ``int`` or ``Fraction`` is kept as
    it is (both are immutable), anything else becomes a ``Fraction``."""
    values = tuple(values)
    if _EXACT.issuperset(map(type, values)):
        return values
    return tuple(c if type(c) in _EXACT else Fraction(c) for c in values)


class SeriesError(Exception):
    """Base class for power-series failures."""


class TruncationError(SeriesError):
    """Requested order exceeds the coefficients actually available."""


class ValuationError(SeriesError):
    """Quotient is not a power series (numerator valuation too small)."""


class ConstantTermError(SeriesError):
    """Constant term violates an operation's domain (sqrt, division)."""


class PowerSeries:
    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[Coefficient]):
        coeffs = exact_tuple(coefficients)
        if not coeffs:
            raise ValueError("a series needs at least the constant term")
        object.__setattr__(self, "coefficients", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(order: int) -> "PowerSeries":
        return PowerSeries([0] * (order + 1))

    @staticmethod
    def one(order: int) -> "PowerSeries":
        return PowerSeries([1] + [0] * order)

    @staticmethod
    def monomial(coefficient: Coefficient, power: int, order: int) -> "PowerSeries":
        if power > order:
            return PowerSeries.zero(order)
        coeffs = [0] * (order + 1)
        coeffs[power] = coefficient
        return PowerSeries(coeffs)

    @staticmethod
    def from_polynomial(poly: Sequence[Coefficient], order: int) -> "PowerSeries":
        """Embed a polynomial (coefficient list, ascending) at a truncation."""
        coeffs = list(poly[: order + 1])
        coeffs += [0] * (order + 1 - len(coeffs))
        return PowerSeries(coeffs)

    # -- basics --------------------------------------------------------------

    @property
    def truncation_order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, n: int) -> "int | Fraction":
        if n < 0:
            raise IndexError("negative index")
        if n > self.truncation_order:
            raise TruncationError(
                f"coefficient {n} beyond truncation order {self.truncation_order}"
            )
        return self.coefficients[n]

    __getitem__ = coefficient

    def valuation(self) -> "int | None":
        """Index of the first nonzero coefficient, or None for the zero series."""
        for n, c in enumerate(self.coefficients):
            if c:
                return n
        return None

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.truncation_order:
            raise TruncationError(
                f"cannot extend truncation {self.truncation_order} to {order}"
            )
        return PowerSeries(self.coefficients[: order + 1])

    def extended(self, order: int) -> "PowerSeries":
        """Pad with zero coefficients up to ``order``."""
        if order <= self.truncation_order:
            return self.truncate(order)
        return PowerSeries(self.coefficients + (0,) * (order - self.truncation_order))

    def is_zero(self) -> bool:
        return self.valuation() is None

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coefficients[:8])
        if self.truncation_order >= 8:
            shown += ", ..."
        return f"PowerSeries([{shown}]; order={self.truncation_order})"

    # -- ring operations -------------------------------------------------------

    def _common_order(self, other: "PowerSeries", order: "int | None") -> int:
        available = min(self.truncation_order, other.truncation_order)
        if order is None:
            return available
        if order > available:
            raise TruncationError(f"order {order} exceeds available truncation {available}")
        return order

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.truncation_order, other.truncation_order)
        a, b = self.coefficients, other.coefficients
        return PowerSeries([a[i] + b[i] for i in range(n + 1)])

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.truncation_order, other.truncation_order)
        a, b = self.coefficients, other.coefficients
        return PowerSeries([a[i] - b[i] for i in range(n + 1)])

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([-c for c in self.coefficients])

    def scale(self, factor: Coefficient) -> "PowerSeries":
        f = Fraction(factor)
        return PowerSeries([f * c for c in self.coefficients])

    def shift(self, power: int) -> "PowerSeries":
        """Multiply by x**power; the known range extends accordingly."""
        if power < 0:
            raise ValueError("use div for negative shifts")
        return PowerSeries((0,) * power + self.coefficients)

    def mul(self, other: "PowerSeries", order: "int | None" = None) -> "PowerSeries":
        """Cauchy product truncated at ``order`` (default: min of inputs)."""
        n = self._common_order(other, order)
        a, da = _numerators(self.coefficients[: n + 1])
        b, db = _numerators(other.coefficients[: n + 1])
        d = da * db
        return PowerSeries(
            Fraction(sum(map(_times, a[: k + 1], b[k::-1])), d) for k in range(n + 1)
        )

    __mul__ = mul

    def div(self, other: "PowerSeries", order: "int | None" = None) -> "PowerSeries":
        """Exact quotient q with q*other == self through the truncation.

        If ``other`` has zero constant term, the common factor x**v is
        cancelled first (v = valuation of the divisor); the numerator
        must then vanish to order at least v, otherwise the quotient is
        not a power series and ``ValuationError`` is raised.
        """
        v = other.valuation()
        if v is None:
            raise ConstantTermError("division by the zero series")
        if self.is_zero():
            n = max(0, self._common_order(other, order) - v) if order is None else order
            return PowerSeries.zero(n)
        if v > 0:
            va = self.valuation()
            if va is None or va < v:
                raise ValuationError(
                    f"numerator valuation {va} below divisor valuation {v}"
                )
            num = PowerSeries(self.coefficients[v:])
            den = PowerSeries(other.coefficients[v:])
            return num.div(den, order)
        n = self._common_order(other, order)
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
        return PowerSeries(out)

    __truediv__ = div

    def sqrt(self, order: "int | None" = None) -> "PowerSeries":
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
        return PowerSeries(out)


def _numerators(coefficients: "Sequence[Coefficient]") -> "tuple[list[int], int]":
    """Integer numerators over the least common denominator, and that denominator."""
    d = lcm(*(c.denominator for c in coefficients))
    return [c.numerator * (d // c.denominator) for c in coefficients], d
