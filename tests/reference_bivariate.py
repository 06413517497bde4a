"""Bivariate series for the tests: the refinement's solver and its arithmetic.

Entry (n, j) of a ``ReferenceBivariate`` is the coefficient of
x**n * y**j; the logical shape is the full rectangle
(order_x+1) x (order_y+1).  Rows are stored as tuples of exact
coefficients with trailing zeros trimmed: an ``int`` or a ``Fraction``
is kept as it is and anything else becomes a ``Fraction``
(``exact_tuple``), so the integer rows the solver builds stay on
``int``s.  The class offers coefficient access, the extractions that tie
it to univariate series (a y-slice, y = 1 and d/dy at y = 1) and
truncated arithmetic: ``+``, ``-``, ``scale``, ``mul``, ``div``,
``sqrt`` and ``shift_x_down``.

``bivariate_series`` solves the bivariate functional equation of a family
x-adically, with x the family's size unit and y the other statistic
(``bivariate_y``).  The package computes every census from closed forms
and never builds these series; the tests use them as an independent
derivation: the y-slices fit the root-statistic GFs, y = 1 gives the
counting series, d/dy the totals, and the published closed forms
(square roots of the radicands), evaluated in this arithmetic, must
match the solver.
"""

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from reference_series import ConstantTermError

from treecensus import DomainError, FamilyId, PowerSeries, StatKind, TruncationError, descriptor
from treecensus.families import _padd, _product
from treecensus.series import exact_tuple

_ZERO = Fraction(0)


def _trim(row: "Sequence[int | Fraction]") -> "tuple[int | Fraction, ...]":
    last = -1
    for i, c in enumerate(row):
        if c:
            last = i
    return tuple(row[: last + 1])


class ReferenceBivariate:
    __slots__ = ("rows", "order_x", "order_y")

    def __init__(self, rows: "Iterable[Sequence[int | Fraction]]", order_x: int, order_y: int):
        prepared = []
        for row in rows:
            if len(row) > order_y + 1:
                row = row[: order_y + 1]
            prepared.append(_trim(exact_tuple(row)))
        if len(prepared) != order_x + 1:
            raise ValueError(f"expected {order_x + 1} rows, got {len(prepared)}")
        object.__setattr__(self, "rows", tuple(prepared))
        object.__setattr__(self, "order_x", order_x)
        object.__setattr__(self, "order_y", order_y)

    def __setattr__(self, name, value):
        raise AttributeError("ReferenceBivariate is immutable")

    def coefficient(self, n: int, j: int) -> "int | Fraction":
        if not (0 <= n <= self.order_x and 0 <= j <= self.order_y):
            raise TruncationError(f"({n}, {j}) outside ({self.order_x}, {self.order_y}) rectangle")
        row = self.rows[n]
        return row[j] if j < len(row) else 0

    def __eq__(self, other):
        if not isinstance(other, ReferenceBivariate):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.order_x == other.order_x
            and self.order_y == other.order_y
        )

    def __hash__(self):
        return hash((self.rows, self.order_x, self.order_y))

    def __repr__(self):
        return f"ReferenceBivariate(order_x={self.order_x}, order_y={self.order_y})"

    # -- extraction ------------------------------------------------------------

    def coeff_y(self, k: int) -> PowerSeries:
        """The univariate series in x multiplying y**k."""
        if not (0 <= k <= self.order_y):
            raise TruncationError(f"y-power {k} outside truncation {self.order_y}")
        return PowerSeries([row[k] if k < len(row) else 0 for row in self.rows])

    def at_y_one(self) -> PowerSeries:
        """Substitute y = 1 (row sums)."""
        return PowerSeries([sum(row) for row in self.rows])

    def dy_at_y_one(self) -> PowerSeries:
        """d/dy at y = 1: sum of j * coefficient(n, j) over j."""
        return PowerSeries([sum(j * c for j, c in enumerate(row)) for row in self.rows])

    # -- arithmetic ------------------------------------------------------------

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


# -- the refinement's solver ----------------------------------------------------


def bivariate_y(family: FamilyId) -> StatKind:
    """The statistic y tracks: the one that is not the family's size unit."""
    return StatKind.LEAVES if descriptor(family).size_unit is StatKind.VERTICES else StatKind.VERTICES


def _bucket_x(order: int) -> int:
    return 64 if order <= 64 else 32 * ((order + 31) // 32)


def _bucket_y(order: int) -> int:
    return 24 if order <= 24 else 8 * ((order + 7) // 8)


@lru_cache(maxsize=None)
def _bivariate_bucketed(family: FamilyId, order_x: int, order_y: int) -> ReferenceBivariate:
    """x-adic solution of the bivariate functional equation, y the other statistic.

    A vertex-counted family has T = x*y + x*(T + psi(T)) (y marks
    leaves), a leaf-counted one T = x*y + y*psi(T) (y marks vertices),
    with psi as in ``fixed_point_solve``, whose step rule this is on
    integer y-polynomials truncated at y**order_y: psi(T) = T**2 as a
    symmetric sum, or T*(T + psi(T)) against the running T + psi(T).
    """
    desc = descriptor(family)
    vertex_counted = desc.size_unit is StatKind.VERTICES
    size = order_y + 1

    def convolve(pairs: "Iterable[tuple[list[int], list[int]]]") -> "list[int]":
        out: "list[int]" = []
        for a, b in pairs:
            out = _padd(out, _product(a, b, min(len(a) + len(b) - 1, size)))
        return out

    t: "list[list[int]]" = [[]]
    psi: "list[list[int]]" = [[]]  # psi(T); T_n needs psi_(n-1) when vertex-counted, psi_n otherwise
    t_plus_psi: "list[list[int]]" = []  # when psi(T) = T*(T + psi(T))
    for n in range(1, order_x + 1):
        j = n - 1 if vertex_counted else n
        if j == len(psi):
            if desc.geometric_psi:
                t_plus_psi.append(_padd(t[j - 1], psi[j - 1]))
                pj = convolve((t[a], t_plus_psi[j - a]) for a in range(1, j))
            else:  # the pairs (a, j - a) with a < j/2 twice, the middle once
                pj = [2 * c for c in convolve((t[a], t[j - a]) for a in range(1, (j + 1) // 2))]
                if j % 2 == 0:
                    pj = _padd(pj, convolve([(t[j // 2], t[j // 2])]))
            psi.append(pj)
        tn = _padd(t[n - 1], psi[n - 1]) if vertex_counted else [0, *psi[n]][:size]
        t.append(_padd(tn, [0, 1][:size]) if n == 1 else tn)  # + x*y
    return ReferenceBivariate(t, order_x, order_y)


def bivariate_series(family: FamilyId, order_x: int, order_y: int) -> ReferenceBivariate:
    """Bivariate series with x the family's size unit and y the other statistic.

    Solved at bucketed orders and cached, so nearby requests share one solve.
    """
    if order_x < 1 or order_y < 1:
        raise DomainError("orders must be at least 1")
    full = _bivariate_bucketed(family, _bucket_x(order_x), _bucket_y(order_y))
    if full.order_x == order_x and full.order_y == order_y:
        return full
    return ReferenceBivariate(full.rows[: order_x + 1], order_x, order_y)
