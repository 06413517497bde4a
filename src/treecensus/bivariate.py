"""Truncated bivariate power series over exact rationals.

Entry (n, j) of a ``BivariateSeries`` is the coefficient of x**n * y**j;
the logical shape is the full rectangle (order_x+1) x (order_y+1).  Rows
are stored as tuples of exact coefficients with trailing zeros trimmed:
an ``int`` or a ``Fraction`` is kept as it is and anything else becomes
a ``Fraction`` (``series.exact_tuple``), so the integer rows the solver
builds stay on ``int``s.  ``families.bivariate_series``
builds one from its integer solver; the class offers coefficient access
and the extractions that tie it to univariate series (a y-slice, y = 1
and d/dy at y = 1).  Arithmetic on these series is a test-side
reference.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .series import PowerSeries, TruncationError, exact_tuple


def _trim(row: "Sequence[int | Fraction]") -> "tuple[int | Fraction, ...]":
    last = -1
    for i, c in enumerate(row):
        if c:
            last = i
    return tuple(row[: last + 1])


class BivariateSeries:
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
        raise AttributeError("BivariateSeries is immutable")

    def coefficient(self, n: int, j: int) -> "int | Fraction":
        if not (0 <= n <= self.order_x and 0 <= j <= self.order_y):
            raise TruncationError(f"({n}, {j}) outside ({self.order_x}, {self.order_y}) rectangle")
        row = self.rows[n]
        return row[j] if j < len(row) else 0

    def __eq__(self, other):
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.order_x == other.order_x
            and self.order_y == other.order_y
        )

    def __hash__(self):
        return hash((self.rows, self.order_x, self.order_y))

    def __repr__(self):
        return f"BivariateSeries(order_x={self.order_x}, order_y={self.order_y})"

    # -- extraction ------------------------------------------------------------

    def coeff_y(self, k: int) -> PowerSeries:
        """The univariate series in x multiplying y**k."""
        if not (0 <= k <= self.order_y):
            raise TruncationError(f"y-power {k} outside truncation {self.order_y}")
        return PowerSeries(
            [row[k] if k < len(row) else 0 for row in self.rows]
        )

    def at_y_one(self) -> PowerSeries:
        """Substitute y = 1 (row sums)."""
        return PowerSeries([sum(row) for row in self.rows])

    def dy_at_y_one(self) -> PowerSeries:
        """d/dy at y = 1: sum of j * coefficient(n, j) over j."""
        return PowerSeries(
            [sum(j * c for j, c in enumerate(row)) for row in self.rows]
        )
