"""Arithmetic on bivariate series, the tests' reference for closed forms.

``ReferenceBivariate`` is the package's ``BivariateSeries`` with
truncated arithmetic: ``+``, ``-``, ``scale``, ``mul``, ``div``,
``sqrt`` and ``shift_x_down``, each returning a ``ReferenceBivariate``.
The package builds its bivariate series with an integer solver and
never computes with them; the tests evaluate the published closed forms
(square roots of the radicands) in this arithmetic and compare them
with the package's series, which ``==`` allows across the two classes.
"""

from fractions import Fraction
from typing import Sequence

from treecensus.bivariate import BivariateSeries, _trim
from treecensus.series import ConstantTermError

_ZERO = Fraction(0)


class ReferenceBivariate(BivariateSeries):
    __slots__ = ()

    def _common(self, other: "ReferenceBivariate") -> "tuple[int, int]":
        return min(self.order_x, other.order_x), min(self.order_y, other.order_y)

    def __add__(self, other: "ReferenceBivariate") -> "ReferenceBivariate":
        nx, ny = self._common(other)
        rows = []
        for n in range(nx + 1):
            a, b = self.rows[n], other.rows[n]
            width = max(len(a), len(b))
            rows.append(
                [
                    (a[j] if j < len(a) else _ZERO) + (b[j] if j < len(b) else _ZERO)
                    for j in range(width)
                ]
            )
        return ReferenceBivariate(rows, nx, ny)

    def __sub__(self, other: "ReferenceBivariate") -> "ReferenceBivariate":
        return self + other.scale(-1)

    def scale(self, factor) -> "ReferenceBivariate":
        f = Fraction(factor)
        return ReferenceBivariate([[f * c for c in row] for row in self.rows], self.order_x, self.order_y)

    def mul(self, other: "ReferenceBivariate") -> "ReferenceBivariate":
        nx, ny = self._common(other)
        out = [[_ZERO] * (ny + 1) for _ in range(nx + 1)]
        for n1 in range(min(self.order_x, nx) + 1):
            row1 = self.rows[n1]
            if not row1:
                continue
            for n2 in range(min(other.order_x, nx - n1) + 1):
                row2 = other.rows[n2]
                if not row2:
                    continue
                target = out[n1 + n2]
                for j1, c1 in enumerate(row1):
                    if not c1 or j1 > ny:
                        continue
                    for j2 in range(min(len(row2) - 1, ny - j1) + 1):
                        c2 = row2[j2]
                        if c2:
                            target[j1 + j2] += c1 * c2
        return ReferenceBivariate(out, nx, ny)

    __mul__ = mul

    def shift_x_down(self, power: int) -> "ReferenceBivariate":
        """Divide by x**power; the lowest ``power`` rows must vanish."""
        for n in range(power):
            if self.rows[n]:
                raise ConstantTermError(f"x^{n} slice nonzero, cannot cancel x^{power}")
        return ReferenceBivariate(self.rows[power:], self.order_x - power, self.order_y)

    def sqrt(self) -> "ReferenceBivariate":
        """Square root with constant term +1 (x^0 slice must equal 1)."""
        if self.rows[0] != (Fraction(1),):
            raise ConstantTermError("bivariate sqrt needs x^0 slice equal to 1")
        ny = self.order_y
        out: "list[tuple[Fraction, ...]]" = [(Fraction(1),)]
        for n in range(1, self.order_x + 1):
            acc = list(self.rows[n]) + [_ZERO] * (ny + 1 - len(self.rows[n]))
            for i in range(1, n):
                a, b = out[i], out[n - i]
                for j1, c1 in enumerate(a):
                    if not c1:
                        continue
                    for j2 in range(min(len(b) - 1, ny - j1) + 1):
                        if b[j2]:
                            acc[j1 + j2] -= c1 * b[j2]
            out.append(_trim([c / 2 for c in acc]))
        return ReferenceBivariate(out, self.order_x, self.order_y)

    def div(self, other: "ReferenceBivariate") -> "ReferenceBivariate":
        """Quotient where the divisor's (0, 0) coefficient is nonzero."""
        if not other.rows[0] or other.rows[0][0] == 0:
            raise ConstantTermError("bivariate division needs a unit constant term")
        nx, ny = self._common(other)
        inv0 = _ypoly_inverse(other.rows[0], ny)
        out: "list[tuple[Fraction, ...]]" = []
        for n in range(nx + 1):
            acc = list(self.rows[n][: ny + 1]) + [_ZERO] * (ny + 1 - len(self.rows[n][: ny + 1]))
            for i in range(1, n + 1):
                b = other.rows[i] if i <= other.order_x else ()
                q = out[n - i]
                for j1, c1 in enumerate(b):
                    if not c1 or j1 > ny:
                        continue
                    for j2 in range(min(len(q) - 1, ny - j1) + 1):
                        if q[j2]:
                            acc[j1 + j2] -= c1 * q[j2]
            out.append(_trim(_ypoly_mul(acc, inv0, ny)))
        return ReferenceBivariate(out, nx, ny)


# -- y-polynomial helpers (internal) -----------------------------------------


def _ypoly_mul(a: Sequence[Fraction], b: Sequence[Fraction], ny: int) -> "list[Fraction]":
    out = [_ZERO] * (min(len(a) + len(b) - 2, ny) + 1 if a and b else 1)
    for j1, c1 in enumerate(a):
        if not c1 or j1 > ny:
            continue
        for j2 in range(min(len(b) - 1, ny - j1) + 1):
            if b[j2]:
                out[j1 + j2] += c1 * b[j2]
    return out


def _ypoly_inverse(b: Sequence[Fraction], ny: int) -> "list[Fraction]":
    """Truncated power-series inverse in y of a polynomial with b[0] != 0."""
    inv = [_ZERO] * (ny + 1)
    inv[0] = Fraction(1) / b[0]
    for j in range(1, ny + 1):
        acc = _ZERO
        for i in range(1, min(j, len(b) - 1) + 1):
            if b[i]:
                acc -= b[i] * inv[j - i]
        inv[j] = acc / b[0]
    return inv
