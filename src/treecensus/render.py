"""Deterministic rendering of exact values, tables and reports.

Decimals are produced from the exact values through the ``decimal``
module with round-half-even, never recomputed along a second path, and
repeated runs are byte-identical.  A command's output is one record
stream, and ``render`` draws its markdown, csv and json renderings from
the same row records through one column spec per command, so the three
agree by construction.
"""

from __future__ import annotations

import json
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Sequence, Union

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


def rounded_like(value: ExactValue, printed: str) -> str:
    """Round-half-even rendering at a printed decimal's number of places,
    for side-by-side diffs; a printed integer gets one significant digit."""
    places = decimal_places(printed)
    if places == 0:
        return decimal_string(value, 1)
    d = to_decimal(value)
    return format(d.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN), "f")


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


# -- record streams -----------------------------------------------------------


def _as_is(value: Any) -> Any:
    return value


class Column(NamedTuple):
    """One field of a command's row records, as a table cell and a JSON value.

    ``text`` gives the markdown and csv cell under ``header``, ``json`` the
    JSON value under ``key``.  Both names default to the field's, and a
    form of None leaves the column out of that rendering.
    """

    field: str
    text: "Callable[[Any], str] | None" = str
    json: "Callable[[Any], Any] | None" = _as_is
    header: "str | None" = None
    key: "str | None" = None


def render(
    fmt: str,
    columns: "Sequence[Column]",
    rows: Sequence,
    head: "dict[str, Any]",
    rows_key: str = "rows",
    tail: "dict[str, Any] | None" = None,
    footer: "Sequence[str]" = (),
    keyed: bool = False,
    blocks: bool = False,
) -> str:
    """Markdown, csv or JSON of one command's output: a header record, row
    records and footer records.

    JSON is ``head``, the rows under ``rows_key``, then ``tail``; markdown
    and csv are a table of the rows, then the ``footer`` lines.  ``keyed``
    writes the JSON rows as one object, from each row's first value to its
    second; ``blocks`` writes markdown as one block of JSON values per row.
    """
    if fmt == "json":
        entries = _json_rows(columns, rows)
        if keyed:
            entries = dict(tuple(entry.values()) for entry in entries)
        return to_json({**head, rows_key: entries, **(tail or {})})
    if fmt == "markdown" and blocks:
        return "\n".join(_block(entry) for entry in _json_rows(columns, rows))
    shown = [column for column in columns if column.text]
    cells = [[c.text(getattr(row, c.field)) for c in shown] for row in rows]
    table = (to_markdown if fmt == "markdown" else to_csv)([c.header or c.field for c in shown], cells)
    return table + "".join(f"{line}\n" for line in footer)


def _json_rows(columns: "Sequence[Column]", rows: Sequence) -> "list[dict[str, Any]]":
    columns = [column for column in columns if column.json]
    return [{c.key or c.field: c.json(getattr(row, c.field)) for c in columns} for row in rows]


def _block(entry: "dict[str, Any]") -> str:
    (_, title), *items = entry.items()
    return f"### {title}\n" + "".join(f"- {key}: {value}\n" for key, value in items)
