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
    decimal_places,
    decimal_string,
    exact_json,
    fraction_string,
    matches_printed,
    to_csv,
    to_json,
    to_markdown,
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


# Members compare equal to their values (str enums), so plain value lists
# serve as choices and print as {motzkin,...} in --help.
_FAMILY_CHOICES = [family.value for family in FamilyId]
_STAT_CHOICES = [stat.value for stat in StatKind]


def _member(kind, value: str):
    # argparse names the converter in its own message, so reject here
    try:
        return kind(value)
    except ValueError:
        choices = ",".join(member.value for member in kind)
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r} (choose from {{{choices}}})"
        ) from None


def _family(value: str) -> FamilyId:
    return _member(FamilyId, value)


def _stat(value: str) -> StatKind:
    return _member(StatKind, value)


def _emit(text: str, out_path: "str | None", header: bool) -> None:
    if header:
        text = f"# treecensus {__version__}\n" + text
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tabular(fmt: str, headers, rows, json_payload) -> str:
    if fmt == "markdown":
        return to_markdown(headers, rows)
    if fmt == "csv":
        return to_csv(headers, rows)
    return to_json(json_payload)


# -- table ------------------------------------------------------------------------


def _cmd_table(args) -> int:
    family, stat = args.family, args.stat
    ks = _parse_range(args.k)
    _check_order("--k", ks[-1])
    headers = ["k", "root_gf", "exact", "decimal", "published", "erratum"]
    rows = []
    json_rows = []
    for k in ks:
        prob = limit_probability(family, stat, k)
        gf_text = str(root_stat_gf(family, stat, k))
        published = published_row(family, stat, k)
        erratum = ""
        published_text = published.probability_text if published else ""
        if published and not matches_printed(prob.exact_value, published.probability_text):
            erratum = _ERRATUM_FOR_ROW.get((family, stat), "published-value-differs")
        if args.paper_precision and published_text:
            shown = _published_rounded(prob, published_text)
        else:
            shown = decimal_string(prob.exact_value, args.precision)
        rows.append([str(k), gf_text, str(prob.exact_value), shown, published_text, erratum])
        json_rows.append(
            {
                "k": k,
                "root_gf": gf_text,
                "exact": exact_json(prob.exact_value),
                "decimal": shown,
                "published": published_text or None,
                "erratum": erratum or None,
            }
        )
    payload = {"family": family.value, "stat": stat.value, "rows": json_rows}
    _emit(_tabular(args.format, headers, rows, payload), args.out, args.header)
    return EXIT_OK


def _published_rounded(prob, published_text: str) -> str:
    """Render at the printed number of decimal places for side-by-side diffs."""
    from decimal import ROUND_HALF_EVEN, Decimal

    from .render import to_decimal

    places = decimal_places(published_text)
    if places == 0:
        return decimal_string(prob.exact_value, 1)
    d = to_decimal(prob.exact_value)
    return format(d.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN), "f")


# -- coeffs ------------------------------------------------------------------------


def _cmd_coeffs(args) -> int:
    family = args.family
    ns = _parse_range(args.n)
    if ns[0] < 0:
        raise DomainError(f"--n must be nonnegative, got {ns[0]}")
    _check_order("--n", ns[-1])
    order = max(ns)
    if args.series == "counting":
        series = counting_series(family, max(order, 1))
        label = "counting"
    elif args.series == "multiplier":
        series = multiplier_gf(family, order)
        label = "multiplier"
    else:
        if args.stat is None or args.k is None:
            raise DomainError("census coefficients need --stat and --k")
        series = census_series(family, args.stat, args.k, max(order, 1))
        label = f"census[{args.stat.value}, k={args.k}]"
    headers = ["n", "coefficient"]
    rows = [[str(n), fraction_string(series.coefficient(n))] for n in ns]
    payload = {
        "family": family.value,
        "series": label,
        "coefficients": {str(n): fraction_string(series.coefficient(n)) for n in ns},
    }
    _emit(_tabular(args.format, headers, rows, payload), args.out, args.header)
    return EXIT_OK


# -- prob --------------------------------------------------------------------------


def _cmd_prob(args) -> int:
    family, stat = args.family, args.stat
    ks = _parse_range(args.k)
    if args.n is None:
        _check_order("--k", ks[-1])
    else:
        _check_order("--n", args.n)
        if args.check:
            raise DomainError("--check diagnoses a limit; it does not apply to a finite probability (--n)")
    headers = ["k", "kind", "exact", "decimal"]
    rows = []
    json_rows = []
    for k in ks:
        if args.n is not None:
            value = finite_probability(family, stat, k, args.n)
            shown = decimal_string(value, args.precision)
            rows.append([str(k), f"n={args.n}", fraction_string(value), shown])
            json_rows.append({"k": k, "n": args.n, "exact": exact_json(value), "decimal": shown})
            continue
        prob = limit_probability(family, stat, k, check=args.check)
        shown = decimal_string(prob.exact_value, args.precision)
        rows.append([str(k), "limit", str(prob.exact_value), shown])
        entry = {
            "k": k,
            "limit": True,
            "exact": exact_json(prob.exact_value),
            "decimal": shown,
            "method": prob.method,
        }
        if prob.diagnostics is not None:
            diag = prob.diagnostics
            entry["diagnostics"] = {
                "sizes": list(diag.sizes),
                "probabilities": [fraction_string(p) for p in diag.probabilities],
                "extrapolate": fraction_string(diag.extrapolate),
                "gap": decimal_string(diag.gap, 3) if diag.gap else "0",
            }
        json_rows.append(entry)
    payload = {"family": family.value, "stat": stat.value, "rows": json_rows}
    _emit(_tabular(args.format, headers, rows, payload), args.out, args.header)
    return EXIT_OK


# -- verify ------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    from .oracle import check_budget, verify_family

    families = [args.family] if args.family else list(FamilyId)
    reports = []
    all_passed = True
    if args.n_max is not None:
        for family in families:
            check_budget(family, args.n_max)
    # Refuse an unusable path or golden file before the enumeration, which
    # takes seconds.  The csv is written before it is read, so the same path
    # may be both.
    golden_rows = None
    if args.golden and not (args.write_golden and os.path.abspath(args.golden) == os.path.abspath(args.write_golden)):
        golden_rows = _read_golden(args.golden)
    if args.write_golden:
        open(args.write_golden, "a", encoding="utf-8").close()
    for family in families:
        report = verify_family(family, args.n_max)
        reports.append(report)
        all_passed &= report.passed
    golden_result = None
    if args.write_golden:
        _write_golden(args.write_golden, families, args.n_max)
    if args.golden:
        golden_result = _check_golden(args.golden, golden_rows or _read_golden(args.golden))
        all_passed &= golden_result["passed"]

    headers = ["family", "n_max", "checks", "mismatches", "status"]
    rows = [
        [r.family.value, str(r.n_max), str(r.checks), str(len(r.mismatches)), "pass" if r.passed else "FAIL"]
        for r in reports
    ]
    payload = {
        "families": [
            {
                "family": r.family.value,
                "n_max": r.n_max,
                "checks": r.checks,
                "passed": r.passed,
                "mismatches": [m._asdict() for m in r.mismatches],
            }
            for r in reports
        ],
        "golden": golden_result,
        "passed": all_passed,
    }
    text = _tabular(args.format, headers, rows, payload)
    if golden_result is not None and args.format != "json":
        status = "pass" if golden_result["passed"] else "FAIL"
        text += f"golden file: {status} ({golden_result['checked']} rows, {len(golden_result['mismatches'])} mismatches)\n"
    if not all_passed and args.format != "json":
        first = next((r.mismatches[0] for r in reports if r.mismatches), None)
        if first is not None:
            text += (
                f"first mismatch: family={first.family.value} stat={first.stat and first.stat.value} "
                f"n={first.n} k={first.k} {first.quantity}: oracle {first.expected} vs series {first.actual}\n"
            )
    _emit(text, args.out, args.header)
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


def _cmd_errata(args) -> int:
    headers = ["id", "location", "printed", "computed"]
    rows = [[e.ident, e.location, e.printed, e.computed] for e in ERRATA]
    payload = {"errata": [e._asdict() for e in ERRATA]}
    if args.format == "markdown":
        blocks = []
        for e in ERRATA:
            blocks.append(
                f"### {e.ident}\n"
                f"- location: {e.location}\n"
                f"- printed: {e.printed}\n"
                f"- computed: {e.computed}\n"
                f"- note: {e.note}\n"
                f"- derivation: {e.derivation}\n"
            )
        _emit("\n".join(blocks), args.out, args.header)
        return EXIT_OK
    _emit(_tabular(args.format, headers, rows, payload), args.out, args.header)
    return EXIT_OK


# -- tightness ----------------------------------------------------------------------


def _cmd_tightness(args) -> int:
    _check_order("--k-max", args.k_max)
    report = tightness_report(args.family, args.stat, args.k_max)
    headers = ["k", "term", "partial_sum"]
    rows = []
    json_terms = []
    for k, (term, partial) in enumerate(zip(report.terms, accumulate(report.terms)), start=1):
        rows.append(
            [str(k), decimal_string(term, args.precision), decimal_string(partial, args.precision)]
        )
        json_terms.append(
            {
                "k": k,
                "term": exact_json(term),
                "partial_sum": exact_json(partial),
            }
        )
    payload = {
        "family": args.family.value,
        "stat": args.stat.value,
        "k_max": report.k_max,
        "terms": json_terms,
        "partial_sum": exact_json(report.partial_sum),
        "deficiency": exact_json(report.deficiency),
    }
    text = _tabular(args.format, headers, rows, payload)
    if args.format != "json":
        text += (
            f"partial sum: {decimal_string(report.partial_sum, args.precision) if report.terms else '0'}"
            f"  deficiency: {decimal_string(report.deficiency, args.precision)}\n"
        )
    _emit(text, args.out, args.header)
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecensus",
        description="Exact subtree-statistic censuses and limit probabilities "
        "for Motzkin, ordered, full binary and Schroeder trees.",
    )
    parser.add_argument("--version", action="version", version=f"treecensus {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, precision=True):
        p.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")
        p.add_argument("--out", metavar="PATH", default=None, help="write output to a file")
        p.add_argument("--header", action="store_true", help="prepend a version header line")
        if precision:
            p.add_argument(
                "--precision", type=int, default=DEFAULT_PRECISION, metavar="DIGITS",
                help=f"significant digits (at most {MAX_PRECISION})",
            )

    p_table = sub.add_parser("table", help="limit-probability table for one family/statistic")
    p_table.add_argument("--family", type=_family, required=True, choices=_FAMILY_CHOICES)
    p_table.add_argument("--stat", type=_stat, required=True, choices=_STAT_CHOICES)
    p_table.add_argument(
        "--k", required=True, help=f"k value or range, e.g. 1..7 (at most {MAX_RANGE_VALUES} values); k <= {MAX_ORDER}"
    )
    p_table.add_argument(
        "--paper-precision",
        action="store_true",
        help="round decimals to each published row's printed precision",
    )
    add_common(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_coeffs = sub.add_parser("coeffs", help="exact series coefficients")
    p_coeffs.add_argument("--family", type=_family, required=True, choices=_FAMILY_CHOICES)
    p_coeffs.add_argument("--series", choices=("counting", "multiplier", "census"), required=True)
    p_coeffs.add_argument("--stat", type=_stat, default=None, choices=_STAT_CHOICES)
    p_coeffs.add_argument("--k", type=int, default=None)
    p_coeffs.add_argument(
        "--n", required=True, help=f"index or range, e.g. 0..10 (at most {MAX_RANGE_VALUES} values); n <= {MAX_ORDER}"
    )
    add_common(p_coeffs, precision=False)
    p_coeffs.set_defaults(func=_cmd_coeffs)

    p_prob = sub.add_parser("prob", help="finite-size or limiting probabilities")
    p_prob.add_argument("--family", type=_family, required=True, choices=_FAMILY_CHOICES)
    p_prob.add_argument("--stat", type=_stat, required=True, choices=_STAT_CHOICES)
    p_prob.add_argument(
        "--k", required=True, help=f"k value or range (at most {MAX_RANGE_VALUES} values); k <= {MAX_ORDER} for a limit"
    )
    p_prob.add_argument("--n", type=int, default=None, help=f"tree size for a finite probability (n <= {MAX_ORDER})")
    p_prob.add_argument("--check", action="store_true", help="attach convergence diagnostics (json)")
    add_common(p_prob)
    p_prob.set_defaults(func=_cmd_prob)

    p_verify = sub.add_parser("verify", help="cross-check series against exhaustive enumeration")
    p_verify.add_argument("--family", type=_family, default=None, choices=_FAMILY_CHOICES)
    p_verify.add_argument("--n-max", type=int, default=None, dest="n_max")
    p_verify.add_argument("--golden", metavar="PATH", default=None, help="compare against a stored census csv")
    p_verify.add_argument("--write-golden", metavar="PATH", default=None, help="write the census csv")
    add_common(p_verify, precision=False)
    p_verify.set_defaults(func=_cmd_verify)

    p_errata = sub.add_parser("errata", help="documented discrepancies with the published tables")
    add_common(p_errata, precision=False)
    p_errata.set_defaults(func=_cmd_errata)

    p_tight = sub.add_parser("tightness", help="partial sums of limit probabilities")
    p_tight.add_argument("--family", type=_family, required=True, choices=_FAMILY_CHOICES)
    p_tight.add_argument("--stat", type=_stat, required=True, choices=_STAT_CHOICES)
    p_tight.add_argument("--k-max", type=int, required=True, dest="k_max", help=f"largest k summed; k_max <= {MAX_ORDER}")
    add_common(p_tight)
    p_tight.set_defaults(func=_cmd_tightness)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 1 <= getattr(args, "precision", DEFAULT_PRECISION) <= MAX_PRECISION:
            raise DomainError(f"--precision {args.precision} is outside 1..{MAX_PRECISION}")
        return args.func(args)
    except (
        DomainError,
        ValueError,
        SeriesError,
        SolverError,
        OSError,  # an unusable --out, --golden or --write-golden path
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
