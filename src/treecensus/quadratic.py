"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

Every value is ``rational_part + radical_part * sqrt(radicand)`` with
exact ``Fraction`` parts.  Signs, comparisons and equality are decided
by integer arithmetic only; no floating point is ever consulted, so
expressions such as ``3 - 2*sqrt(2) > 0`` are decided exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


def _squarefree(d: int) -> "tuple[int, int]":
    """Split d > 0 as s*s * d0 with d0 squarefree; returns (s, d0)."""
    s, d0, p = 1, d, 2
    while p * p <= d0:
        while d0 % (p * p) == 0:
            d0 //= p * p
            s *= p
        p += 1
    return s, d0


class QuadraticNumber:
    """An element of Q(sqrt(d)) for a fixed squarefree radicand d > 1.

    Purely rational values carry ``radical_part == 0`` and may combine
    with values from any field; mixing two irrational values from
    different fields raises ``ValueError``.  Instances are immutable
    and hashable, so they are safe to share between threads.
    """

    __slots__ = ("rational_part", "radical_part", "radicand")

    def __init__(self, rational: RationalLike, radical: RationalLike = 0, radicand: int = 2):
        if radicand <= 1:
            raise ValueError(f"radicand must exceed 1, got {radicand}")
        radical = Fraction(radical)
        if radical:
            s, d0 = _squarefree(radicand)
            if d0 == 1:
                # perfect square: fold sqrt(radicand) into the rational part
                rational = Fraction(rational) + radical * s
                radical = Fraction(0)
                radicand = 2
            else:
                radical *= s
                radicand = d0
        object.__setattr__(self, "rational_part", Fraction(rational))
        object.__setattr__(self, "radical_part", radical)
        object.__setattr__(self, "radicand", radicand)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticNumber is immutable")

    # -- helpers -----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.radical_part == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.rational_part

    def conjugate(self) -> "QuadraticNumber":
        return QuadraticNumber(self.rational_part, -self.radical_part, self.radicand)

    def _coerce(self, other) -> "QuadraticNumber | None":
        if isinstance(other, QuadraticNumber):
            if self.radical_part and other.radical_part and self.radicand != other.radicand:
                raise ValueError(
                    f"cannot mix sqrt({self.radicand}) with sqrt({other.radicand})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticNumber(other, 0, self.radicand)
        return None

    def _common_radicand(self, other: "QuadraticNumber") -> int:
        return other.radicand if self.is_rational else self.radicand

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        p, q, d = self.rational_part, self.radical_part, self.radicand
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return 1 if q > 0 else -1
        if (p > 0) == (q > 0):
            return 1 if p > 0 else -1
        # opposite signs: |p| vs |q|*sqrt(d) reduces to p*p vs d*q*q
        lhs, rhs = p * p, d * q * q
        if lhs == rhs:  # impossible for squarefree d > 1 with q != 0
            return 0
        if p > 0:
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadraticNumber(
            self.rational_part + o.rational_part,
            self.radical_part + o.radical_part,
            self._common_radicand(o),
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber(-self.rational_part, -self.radical_part, self.radicand)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_radicand(o)
        p1, q1, p2, q2 = self.rational_part, self.radical_part, o.rational_part, o.radical_part
        return QuadraticNumber(p1 * p2 + d * q1 * q2, p1 * q2 + q1 * p2, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticNumber":
        p, q, d = self.rational_part, self.radical_part, self.radicand
        norm = p * p - d * q * q
        if norm == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        return QuadraticNumber(p / norm, -q / norm, d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = QuadraticNumber(1, 0, self.radicand)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except ValueError:
            return False
        if o is None:
            return NotImplemented
        return (
            self.rational_part == o.rational_part
            and self.radical_part == o.radical_part
        )

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __bool__(self):
        return bool(self.rational_part or self.radical_part)

    def __hash__(self):
        if self.is_rational:
            return hash(self.rational_part)
        return hash((self.rational_part, self.radical_part, self.radicand))

    # -- conversion / display ----------------------------------------------

    def __float__(self) -> float:
        from .render import to_decimal  # render imports this module

        return float(to_decimal(self))

    def __repr__(self):
        return (
            f"QuadraticNumber({self.rational_part!r}, {self.radical_part!r}, "
            f"{self.radicand})"
        )

    def __str__(self):
        p, q, d = self.rational_part, self.radical_part, self.radicand
        if q == 0:
            return str(p)
        root = f"sqrt({d})"
        if abs(q) != 1:
            root = f"{abs(q)}*{root}"
        if p == 0:
            return root if q > 0 else f"-{root}"
        op = "+" if q > 0 else "-"
        return f"{p} {op} {root}"
