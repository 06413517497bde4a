"""Deterministic rendering of exact values, tables and reports.

Decimals are produced from the exact values through the ``decimal``
module with round-half-even, never recomputed along a second path, so
csv, markdown and json renderings of one run always agree and repeated
runs are byte-identical.
"""

from __future__ import annotations

import json
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Any, Sequence, Union

from .quadratic import QuadraticNumber

DEFAULT_PRECISION = 10
# ``decimal_string`` works at max(_GUARD_PRECISION, digits + _GUARD_DIGITS)
# digits: 50 up to DEFAULT_PRECISION, and 40 guard digits beyond it.
_GUARD_PRECISION = 50
_GUARD_DIGITS = 40

ExactValue = Union[Fraction, QuadraticNumber]


def _decimal(value: Fraction) -> Decimal:
    return Decimal(value.numerator) / Decimal(value.denominator)


def to_decimal(value: ExactValue, precision: int = _GUARD_PRECISION) -> Decimal:
    """Decimal image of an exact value to ``precision`` significant digits.

    p + q*sqrt(d) with p and q of opposite signs is a small difference of
    large parts, so it is taken as (p**2 - d*q**2) / (p - q*sqrt(d)),
    whose denominator adds two terms of one sign: the relative error
    stays near 10**-precision however many digits the parts have.
    """
    if isinstance(value, Fraction):
        value = QuadraticNumber(value)
    p, q, d = value.rational_part, value.radical_part, value.radicand
    with localcontext() as ctx:
        ctx.prec = precision
        if not q:
            return _decimal(p)
        if (p < 0) == (q < 0) or not p:
            return _decimal(p) + _decimal(q) * Decimal(d).sqrt()
        return _decimal(p * p - d * q * q) / (_decimal(p) - _decimal(q) * Decimal(d).sqrt())


def decimal_string(value: ExactValue, digits: int = DEFAULT_PRECISION) -> str:
    """Round-half-even rendering with exactly ``digits`` significant digits."""
    if digits < 1:
        raise ValueError("need at least one significant digit")
    d = to_decimal(value, max(_GUARD_PRECISION, digits + _GUARD_DIGITS))
    if d == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        d = +d
        quantum = Decimal(1).scaleb(d.adjusted() - digits + 1)
        d = d.quantize(quantum)
    return format(d, "f")


def fraction_string(value: "int | Fraction") -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def exact_json(value: ExactValue) -> "dict[str, Any]":
    """Exact value as numerator/denominator strings plus field parts."""
    if isinstance(value, Fraction):
        value = QuadraticNumber(value)
    return {
        "rational_part": fraction_string(value.rational_part),
        "radical_part": fraction_string(value.radical_part),
        "radicand": value.radicand,
        "text": str(value),
    }


def decimal_places(printed: str) -> int:
    return len(printed.split(".", 1)[1]) if "." in printed else 0


def matches_printed(value: ExactValue, printed: str) -> bool:
    """Does the exact value agree with a printed decimal to 1 ulp of its
    last digit?  Decided exactly in the quadratic field."""
    target = Fraction(printed)
    ulp = Fraction(1, 10 ** decimal_places(printed))
    if isinstance(value, Fraction):
        return abs(value - target) <= ulp
    return abs(value - QuadraticNumber(target, 0, value.radicand)) <= QuadraticNumber(ulp)


# -- table shells -------------------------------------------------------------


def to_markdown(headers: Sequence[str], rows: "Sequence[Sequence[str]]") -> str:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("| " + " | ".join("---" for _ in headers) + " |")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def to_csv(headers: Sequence[str], rows: "Sequence[Sequence[str]]") -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue()


def to_json(payload: Any) -> str:
    return json.dumps(payload, indent=2) + "\n"
