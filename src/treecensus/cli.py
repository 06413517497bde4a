"""Command-line front end.

Subcommands: ``table`` (limit-probability tables with errata markers),
``coeffs`` (exact series coefficients), ``prob`` (finite-size or limit
probabilities), ``verify`` (exhaustive-enumeration cross-check),
``errata`` (the documented discrepancy ledger) and ``tightness``
(partial sums of limit probabilities).

Exit status: 0 on success, 1 on a verification mismatch, 2 on usage or
domain errors.  Output is deterministic: no timestamps, fixed key
order; a version header is added only on request.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple
from itertools import accumulate

from . import __version__
from .asymptotics import limit_probability, tightness_report
from .errata import ERRATA, published_row
from .families import (
    DomainError,
    FamilyId,
    SolverError,
    StatKind,
    census_coefficient,
    census_series,
    counting_series,
    finite_probability,
    multiplier_gf,
    root_stat_gf,
)
from .render import (
    DEFAULT_PRECISION,
    Column,
    decimal_string,
    exact_json,
    fraction_string,
    matches_printed,
    render,
    rounded_like,
    to_csv,
)
from .series import SeriesError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

_ERRATUM_FOR_ROW = {
    (FamilyId.MOTZKIN, StatKind.VERTICES): "motzkin-vertex-rows-shifted",
    (FamilyId.FULL_BINARY, StatKind.VERTICES): "fullbinary-vertex-k7",
    (FamilyId.SCHROEDER, StatKind.VERTICES): "schroeder-probability-columns-halved",
    (FamilyId.SCHROEDER, StatKind.LEAVES): "schroeder-probability-columns-halved",
}


# The most values one --k or --n range may hold: far above any table worth
# printing, and checked before the range is built or anything computed.
MAX_RANGE_VALUES = 10_000


# The highest truncation order a request may reach: the k of a table, a
# limit or tightness, and the n of coeffs or prob --n, checked before any
# series is built.  A series through order N holds O(N**2) digits; at this
# bound the costliest single value, an ordered-tree leaf census at
# k = 1299, takes about 1 s and 19 MB in a cold process.
MAX_ORDER = 1300


# The most significant digits a decimal may be printed with (--precision,
# from 1), checked before anything is computed.  Each digit costs working
# precision in every decimal: a cold `table --family schroeder --stat leaves
# --k 1..100` took 0.50 s at this bound, 0.42 s at 10 digits and 6.2 s at
# 10000 (Python 3.11, 2-vCPU Xeon).
MAX_PRECISION = 1000


def _check_order(flag: str, value: int) -> None:
    if value > MAX_ORDER:
        raise DomainError(f"{flag} {value} is above the highest order a request may reach, {MAX_ORDER}")


def _parse_range(text: str) -> range:
    if ".." in text:
        lo, hi = (int(part) for part in text.split("..", 1))
    else:
        lo = hi = int(text)
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    if hi - lo >= MAX_RANGE_VALUES:
        raise ValueError(f"range {text!r} has {hi - lo + 1} values, more than the {MAX_RANGE_VALUES} allowed")
    return range(lo, hi + 1)


def _check_writable(flag: str, path: str) -> None:
    """Refuse an output path that cannot be written, before any work and creating nothing."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        problem = "is a directory"
    elif not os.path.isdir(folder):
        problem = f"no such directory {folder}"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        problem = "permission denied"
    else:
        return
    raise DomainError(f"{flag} {path}: {problem}")


def _emit(args, columns, rows, head, **shape) -> int:
    """Write one record stream in --format; ``shape`` as in ``render``."""
    text = render(args.format, columns, rows, head, **shape)
    if args.header:
        text = f"# treecensus {__version__}\n" + text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _digits(args):
    """The decimal form of an exact value at --precision."""
    return lambda value: decimal_string(value, args.precision)


# -- table ------------------------------------------------------------------------


_TableRow = namedtuple("_TableRow", "k root_gf exact decimal published erratum")
_TABLE_COLUMNS = (
    Column("k"),
    Column("root_gf", json=str),
    Column("exact", json=exact_json),
    Column("decimal"),
    Column("published", json=lambda text: text or None),
    Column("erratum", json=lambda text: text or None),
)


def _cmd_table(args) -> int:
    family, stat = args.family, args.stat
    ks = _parse_range(args.k)
    _check_order("--k", ks[-1])
    rows = []
    for k in ks:
        exact = limit_probability(family, stat, k).exact_value
        published = published_row(family, stat, k)
        published_text = published.probability_text if published else ""
        erratum = ""
        if published and not matches_printed(exact, published_text):
            erratum = _ERRATUM_FOR_ROW.get((family, stat), "published-value-differs")
        if args.paper_precision and published_text:
            shown = rounded_like(exact, published_text)
        else:
            shown = decimal_string(exact, args.precision)
        rows.append(_TableRow(k, root_stat_gf(family, stat, k), exact, shown, published_text, erratum))
    return _emit(args, _TABLE_COLUMNS, rows, {"family": family.value, "stat": stat.value})


# -- coeffs ------------------------------------------------------------------------


_Coefficient = namedtuple("_Coefficient", "n coefficient")
# n keys a JSON object, so its JSON form is text
_COEFFS_COLUMNS = (Column("n", json=str), Column("coefficient", text=fraction_string, json=fraction_string))


def _cmd_coeffs(args) -> int:
    family = args.family
    ns = _parse_range(args.n)
    if ns[0] < 0:
        raise DomainError(f"--n must be nonnegative, got {ns[0]}")
    _check_order("--n", ns[-1])
    order = max(ns[-1], 1)
    if args.series == "census":
        if args.stat is None or args.k is None:
            raise DomainError("census coefficients need --stat and --k")
        series = census_series(family, args.stat, args.k, order)
        label = f"census[{args.stat.value}, k={args.k}]"
    else:
        for flag, value in (("--stat", args.stat), ("--k", args.k)):
            if value is not None:
                raise DomainError(f"{flag} applies only to --series census, not {args.series}")
        series = (counting_series if args.series == "counting" else multiplier_gf)(family, order)
        label = args.series
    rows = [_Coefficient(n, series.coefficient(n)) for n in ns]
    head = {"family": family.value, "series": label}
    return _emit(args, _COEFFS_COLUMNS, rows, head, rows_key="coefficients", keyed=True)


# -- prob --------------------------------------------------------------------------


# A finite row is named as a limit's record, so both share the value columns.
_FiniteRow = namedtuple("_FiniteRow", "k n exact_value")


def _diagnostics_json(diag) -> dict:
    return {
        "sizes": list(diag.sizes),
        "probabilities": [fraction_string(p) for p in diag.probabilities],
        "extrapolate": fraction_string(diag.extrapolate),
        "gap": decimal_string(diag.gap, 3),
    }


def _cmd_prob(args) -> int:
    family, stat = args.family, args.stat
    ks = _parse_range(args.k)
    if args.n is None:
        _check_order("--k", ks[-1])
    else:
        _check_order("--n", args.n)
        if args.check:
            raise DomainError("--check diagnoses a limit; it does not apply to a finite probability (--n)")
    shown = _digits(args)
    values = (
        Column("exact_value", json=exact_json, header="exact", key="exact"),
        Column("exact_value", text=shown, json=shown, header="decimal", key="decimal"),
    )
    if args.n is not None:
        columns = [Column("k"), Column("n", text="n={}".format, header="kind"), *values]
        rows = [_FiniteRow(k, args.n, finite_probability(family, stat, k, args.n)) for k in ks]
    else:  # the library's records
        kind = Column("k", text=lambda _: "limit", json=lambda _: True, header="kind", key="limit")
        columns = [Column("k"), kind, *values, Column("method", text=None)]
        if args.check:
            columns.append(Column("diagnostics", text=None, json=_diagnostics_json))
        rows = [limit_probability(family, stat, k, check=args.check) for k in ks]
    return _emit(args, columns, rows, {"family": family.value, "stat": stat.value})


# -- verify ------------------------------------------------------------------------


# The rows are the oracle's reports; markdown and csv show a pass as a status.
_VERIFY_COLUMNS = (
    Column("family", text=lambda family: family.value),
    Column("n_max"),
    Column("checks"),
    Column("passed", text=None),
    Column("mismatches", text=lambda found: str(len(found)), json=lambda found: [m._asdict() for m in found]),
    Column("passed", text=lambda passed: "pass" if passed else "FAIL", json=None, header="status"),
)


def _cmd_verify(args) -> int:
    from .oracle import check_budget, verify_family

    families = [args.family] if args.family else list(FamilyId)
    if args.n_max is not None:
        for family in families:
            check_budget(family, args.n_max)
    # Refuse an unusable golden file before the enumeration, which takes
    # seconds.  The csv is written before it is read, so the same path may be
    # both.
    golden_rows = None
    if args.golden and not (args.write_golden and os.path.abspath(args.golden) == os.path.abspath(args.write_golden)):
        golden_rows = _read_golden(args.golden)
    reports = [verify_family(family, args.n_max) for family in families]
    all_passed = all(report.passed for report in reports)
    if args.write_golden:
        _write_golden(args.write_golden, families, args.n_max)
    footer = []
    golden = None
    if args.golden:
        golden = _check_golden(args.golden, golden_rows or _read_golden(args.golden))
        all_passed &= golden["passed"]
        status = "pass" if golden["passed"] else "FAIL"
        footer.append(f"golden file: {status} ({golden['checked']} rows, {len(golden['mismatches'])} mismatches)")
    first = next((r.mismatches[0] for r in reports if r.mismatches), None)
    if first is not None:
        footer.append(
            f"first mismatch: family={first.family.value} stat={first.stat and first.stat.value} "
            f"n={first.n} k={first.k} {first.quantity}: oracle {first.expected} vs series {first.actual}"
        )
    tail = {"golden": golden, "passed": all_passed}
    _emit(args, _VERIFY_COLUMNS, reports, {}, rows_key="families", tail=tail, footer=footer)
    return EXIT_OK if all_passed else EXIT_MISMATCH


_GOLDEN_COLUMNS = ("family", "stat", "n", "k", "count")


def _golden_rows(families, n_max_flag):
    from .oracle import DEFAULT_BUDGETS, aggregate_census

    for family in families:
        n_max = n_max_flag if n_max_flag is not None else DEFAULT_BUDGETS[family]
        for stat in StatKind:
            for n in range(1, n_max + 1):
                for k, count in sorted(aggregate_census(family, n, stat).items()):
                    yield family.value, stat.value, n, k, count


def _write_golden(path: str, families, n_max_flag) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_csv(_GOLDEN_COLUMNS, list(_golden_rows(families, n_max_flag))))


def _read_golden(path: str) -> list:
    """The (family, stat, n, k, count) rows of a stored census csv.

    A file with no rows, or a row with too few or too many fields, a
    negative n, an n above ``MAX_ORDER`` or a k below 1, is refused,
    before anything is computed.
    """
    import csv as _csv

    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv.DictReader(fh)
        if reader.fieldnames is not None:
            missing = [column for column in _GOLDEN_COLUMNS if column not in reader.fieldnames]
            if missing:
                raise ValueError(f"golden file {path} lacks the column(s) {', '.join(missing)}")
        for row in reader:
            where = f"golden file {path}, line {reader.line_num}"
            if None in row.values():
                raise ValueError(f"{where}: too few fields")
            if None in row:  # DictReader's key for the fields past the header's
                raise ValueError(f"{where}: more fields than the header's {len(reader.fieldnames)}")
            n, k = int(row["n"]), int(row["k"])
            if n < 0:
                raise ValueError(f"{where}: n {n} is negative")
            if k < 1:
                raise ValueError(f"{where}: k {k} is below 1")
            _check_order(f"{where}: n", n)
            rows.append((FamilyId(row["family"]), StatKind(row["stat"]), n, k, int(row["count"])))
    if not rows:
        raise ValueError(f"golden file {path} has no rows to check")
    return rows


def _check_golden(path: str, rows: list) -> dict:
    """Recompute every row read from a stored census csv."""
    mismatches = []
    for family, stat, n, k, count in rows:
        actual = census_coefficient(family, stat, k, n)
        if actual != count:
            mismatches.append(
                {"family": family.value, "stat": stat.value, "n": n, "k": k, "stored": count, "computed": actual}
            )
    return {"path": path, "checked": len(rows), "mismatches": mismatches, "passed": not mismatches}


# -- errata ------------------------------------------------------------------------


# The rows are the ledger's records; csv leaves out the long fields.
_ERRATA_COLUMNS = (
    Column("ident", header="id"),
    Column("location"),
    Column("printed"),
    Column("computed"),
    Column("note", text=None),
    Column("derivation", text=None),
)


def _cmd_errata(args) -> int:
    return _emit(args, _ERRATA_COLUMNS, ERRATA, {}, rows_key="errata", blocks=True)


# -- tightness ----------------------------------------------------------------------


_TermRow = namedtuple("_TermRow", "k term partial_sum")


def _cmd_tightness(args) -> int:
    _check_order("--k-max", args.k_max)
    report = tightness_report(args.family, args.stat, args.k_max)
    shown = _digits(args)
    columns = (Column("k"), Column("term", text=shown, json=exact_json), Column("partial_sum", text=shown, json=exact_json))
    rows = [_TermRow(k, *pair) for k, pair in enumerate(zip(report.terms, accumulate(report.terms)), start=1)]
    head = {"family": args.family.value, "stat": args.stat.value, "k_max": report.k_max}
    tail = {"partial_sum": exact_json(report.partial_sum), "deficiency": exact_json(report.deficiency)}
    footer = [f"partial sum: {shown(report.partial_sum)}  deficiency: {shown(report.deficiency)}"]
    return _emit(args, columns, rows, head, rows_key="terms", tail=tail, footer=footer)


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecensus",
        description="Exact subtree-statistic censuses and limit probabilities "
        "for Motzkin, ordered, full binary and Schroeder trees.",
    )
    parser.add_argument("--version", action="version", version=f"treecensus {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_member(p, flag, kind, **options):
        # Members compare equal to their values (str enums), so plain value
        # lists serve as choices and print as {motzkin,...} in --help.
        choices = [member.value for member in kind]

        def member(value: str):
            # argparse names the converter in its own message, so reject here
            try:
                return kind(value)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"invalid choice: {value!r} (choose from {{{','.join(choices)}}})"
                ) from None

        p.add_argument(flag, type=member, choices=choices, **options)

    def finish(p, func, precision=True):
        """Add the output options every subcommand ends with, and its handler."""
        p.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")
        p.add_argument("--out", metavar="PATH", default=None, help="write output to a file")
        p.add_argument("--header", action="store_true", help="prepend a version header line")
        if precision:
            p.add_argument(
                "--precision", type=int, default=DEFAULT_PRECISION, metavar="DIGITS",
                help=f"significant digits (at most {MAX_PRECISION})",
            )
        p.set_defaults(func=func)

    p_table = sub.add_parser("table", help="limit-probability table for one family/statistic")
    add_member(p_table, "--family", FamilyId, required=True)
    add_member(p_table, "--stat", StatKind, required=True)
    p_table.add_argument(
        "--k", required=True, help=f"k value or range, e.g. 1..7 (at most {MAX_RANGE_VALUES} values); k <= {MAX_ORDER}"
    )
    p_table.add_argument(
        "--paper-precision",
        action="store_true",
        help="round decimals to each published row's printed precision",
    )
    finish(p_table, _cmd_table)

    p_coeffs = sub.add_parser("coeffs", help="exact series coefficients")
    add_member(p_coeffs, "--family", FamilyId, required=True)
    p_coeffs.add_argument("--series", choices=("counting", "multiplier", "census"), required=True)
    add_member(p_coeffs, "--stat", StatKind, default=None)
    p_coeffs.add_argument("--k", type=int, default=None)
    p_coeffs.add_argument(
        "--n", required=True, help=f"index or range, e.g. 0..10 (at most {MAX_RANGE_VALUES} values); n <= {MAX_ORDER}"
    )
    finish(p_coeffs, _cmd_coeffs, precision=False)

    p_prob = sub.add_parser("prob", help="finite-size or limiting probabilities")
    add_member(p_prob, "--family", FamilyId, required=True)
    add_member(p_prob, "--stat", StatKind, required=True)
    p_prob.add_argument(
        "--k", required=True, help=f"k value or range (at most {MAX_RANGE_VALUES} values); k <= {MAX_ORDER} for a limit"
    )
    p_prob.add_argument("--n", type=int, default=None, help=f"tree size for a finite probability (n <= {MAX_ORDER})")
    p_prob.add_argument("--check", action="store_true", help="attach convergence diagnostics (json)")
    finish(p_prob, _cmd_prob)

    p_verify = sub.add_parser("verify", help="cross-check series against exhaustive enumeration")
    add_member(p_verify, "--family", FamilyId, default=None)
    p_verify.add_argument("--n-max", type=int, default=None, dest="n_max")
    p_verify.add_argument("--golden", metavar="PATH", default=None, help="compare against a stored census csv")
    p_verify.add_argument("--write-golden", metavar="PATH", default=None, help="write the census csv")
    finish(p_verify, _cmd_verify, precision=False)

    p_errata = sub.add_parser("errata", help="documented discrepancies with the published tables")
    finish(p_errata, _cmd_errata, precision=False)

    p_tight = sub.add_parser("tightness", help="partial sums of limit probabilities")
    add_member(p_tight, "--family", FamilyId, required=True)
    add_member(p_tight, "--stat", StatKind, required=True)
    p_tight.add_argument("--k-max", type=int, required=True, dest="k_max", help=f"largest k summed; k_max <= {MAX_ORDER}")
    finish(p_tight, _cmd_tightness)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 1 <= getattr(args, "precision", DEFAULT_PRECISION) <= MAX_PRECISION:
            raise DomainError(f"--precision {args.precision} is outside 1..{MAX_PRECISION}")
        for flag, path in (("--out", args.out), ("--write-golden", getattr(args, "write_golden", None))):
            if path:
                _check_writable(flag, path)
        return args.func(args)
    except (
        ValueError,  # DomainError among them
        SeriesError,
        SolverError,
        OSError,  # an unusable --out, --golden or --write-golden path
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
