"""Truncated formal power series over exact rationals.

A ``PowerSeries`` stores coefficients 0..N as a tuple of exact values,
each an ``int`` or a ``Fraction``; N is the truncation order.  The
constructor keeps an entry whose type is exactly ``int`` or
``Fraction`` and converts anything else to a ``Fraction``
(``exact_tuple``), so an integer series, as every series the package
computes is, stays on ``int``s and a slice or a held series costs no
new objects.  A series is an immutable container: the package computes
its coefficients on integer sequences and hands them out in this form,
so series are safe to cache and to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

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


class PowerSeries:
    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[Coefficient]):
        coeffs = exact_tuple(coefficients)
        if not coeffs:
            raise ValueError("a series needs at least the constant term")
        object.__setattr__(self, "coefficients", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    @staticmethod
    def zero(order: int) -> "PowerSeries":
        return PowerSeries([0] * (order + 1))

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

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.truncation_order:
            raise TruncationError(
                f"cannot extend truncation {self.truncation_order} to {order}"
            )
        return PowerSeries(self.coefficients[: order + 1])

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
