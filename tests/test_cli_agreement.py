"""The markdown, csv and JSON renderings of one run carry the same values,
and the JSON values are the library's.

For every subcommand and a seeded sample of its arguments, the run is
made in all three formats.  The markdown and csv tables hold the same
cells and footer lines; every cell is the text form of the JSON value in
its row; and the JSON values equal those of ``limit_probability``,
``finite_probability``, ``counting_series``, ``multiplier_gf``,
``census_series``, ``tightness_report``, ``verify_family`` and
``ERRATA``.
"""

import csv
import io
import json
import random
from fractions import Fraction
from itertools import accumulate

import pytest

from cli_golden import run_case
from treecensus import (
    ERRATA,
    FamilyId,
    StatKind,
    census_series,
    counting_series,
    finite_probability,
    limit_probability,
    multiplier_gf,
    root_stat_gf,
    tightness_report,
)
from treecensus.errata import published_row
from treecensus.oracle import verify_family
from treecensus.quadratic import QuadraticNumber
from treecensus.render import decimal_string, exact_json, fraction_string, matches_printed

SEEDS = range(3)


def _three(argv):
    """The markdown cells, csv cells, shared footer lines and JSON payload of one run."""
    texts = {}
    for fmt in ("markdown", "csv", "json"):
        code, texts[fmt] = run_case([*argv, "--format", fmt])
        assert code == 0, argv
    lines = texts["markdown"].splitlines()
    table = [line for line in lines if line.startswith("|")]
    footer = lines[len(table):]
    assert lines[: len(table)] == table
    markdown = [[cell.strip() for cell in line.split("|")[1:-1]] for line in table]
    assert set(markdown[1]) == {"---"}
    del markdown[1]
    csv_lines = texts["csv"].splitlines(keepends=True)
    split = len(csv_lines) - len(footer)
    assert [line.rstrip("\n") for line in csv_lines[split:]] == footer
    cells = list(csv.reader(io.StringIO("".join(csv_lines[:split]))))
    assert cells == markdown
    return cells[0], cells[1:], footer, json.loads(texts["json"])


def _field_value(parts):
    """The exact value of an ``exact_json`` dict."""
    return QuadraticNumber(Fraction(parts["rational_part"]), Fraction(parts["radical_part"]), parts["radicand"])


def _pair(seed):
    rng = random.Random(seed)
    return rng, rng.choice(list(FamilyId)), rng.choice(list(StatKind))


@pytest.mark.parametrize("seed", SEEDS)
def test_table_renderings_agree_with_the_limits(seed):
    rng, family, stat = _pair(seed)
    lo = rng.randint(1, 10)
    argv = ["table", "--family", family.value, "--stat", stat.value, "--k", f"{lo}..{lo + rng.randint(0, 6)}"]
    argv += rng.choice([[], ["--paper-precision"], ["--precision", str(rng.randint(1, 40))]])
    headers, rows, footer, payload = _three(argv)
    assert headers == ["k", "root_gf", "exact", "decimal", "published", "erratum"]
    assert footer == []
    assert (payload["family"], payload["stat"]) == (family.value, stat.value)
    assert len(rows) == len(payload["rows"])
    for row, entry in zip(rows, payload["rows"]):
        k = entry["k"]
        value = limit_probability(family, stat, k).exact_value
        assert entry["exact"] == exact_json(value)
        assert entry["root_gf"] == str(root_stat_gf(family, stat, k))
        published = published_row(family, stat, k)
        assert entry["published"] == (published.probability_text if published else None)
        differs = published is not None and not matches_printed(value, published.probability_text)
        assert (entry["erratum"] is not None) == differs
        if "--paper-precision" not in argv or published is None:
            digits = int(argv[-1]) if "--precision" in argv else 10
            assert entry["decimal"] == decimal_string(value, digits)
        text = [str(k), entry["root_gf"], entry["exact"]["text"], entry["decimal"]]
        assert row == text + [entry["published"] or "", entry["erratum"] or ""]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("series", ["counting", "multiplier", "census"])
def test_coeffs_renderings_agree_with_the_series(series, seed):
    rng, family, stat = _pair(seed)
    lo = rng.randint(0, 40)
    ns = range(lo, lo + rng.randint(1, 20))
    argv = ["coeffs", "--family", family.value, "--series", series, "--n", f"{ns[0]}..{ns[-1]}"]
    if series == "census":
        k = rng.randint(1, 8)
        argv += ["--stat", stat.value, "--k", str(k)]
        held = census_series(family, stat, k, max(ns[-1], 1))
    else:
        held = (counting_series if series == "counting" else multiplier_gf)(family, max(ns[-1], 1))
    headers, rows, footer, payload = _three(argv)
    assert headers == ["n", "coefficient"] and footer == []
    assert payload["family"] == family.value
    assert payload["coefficients"] == {str(n): fraction_string(held.coefficient(n)) for n in ns}
    assert rows == [[n, value] for n, value in payload["coefficients"].items()]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["finite", "limit", "check"])
def test_prob_renderings_agree_with_the_probabilities(kind, seed):
    rng, family, stat = _pair(seed)
    lo = rng.randint(1, 8)
    ks = range(lo, lo + rng.randint(1, 4))
    digits = rng.randint(1, 30)
    argv = ["prob", "--family", family.value, "--stat", stat.value, "--k", f"{ks[0]}..{ks[-1]}"]
    argv += ["--precision", str(digits)]
    n = rng.randint(1, 40)
    argv += {"finite": ["--n", str(n)], "limit": [], "check": ["--check"]}[kind]
    headers, rows, footer, payload = _three(argv)
    assert headers == ["k", "kind", "exact", "decimal"] and footer == []
    assert [entry["k"] for entry in payload["rows"]] == list(ks)
    for k, row, entry in zip(ks, rows, payload["rows"]):
        if kind == "finite":
            value = finite_probability(family, stat, k, n)
            assert list(entry) == ["k", "n", "exact", "decimal"] and entry["n"] == n
        else:
            limit = limit_probability(family, stat, k, check=kind == "check")
            value = limit.exact_value
            assert entry["limit"] is True and entry["method"] == limit.method
            assert ("diagnostics" in entry) == (kind == "check")
            if kind == "check":
                diag = limit.diagnostics
                assert entry["diagnostics"]["sizes"] == list(diag.sizes)
                assert entry["diagnostics"]["probabilities"] == [fraction_string(p) for p in diag.probabilities]
                assert entry["diagnostics"]["extrapolate"] == fraction_string(diag.extrapolate)
        assert entry["exact"] == exact_json(value)
        assert entry["decimal"] == decimal_string(value, digits)
        kind_text = f"n={n}" if kind == "finite" else "limit"
        assert row == [str(k), kind_text, entry["exact"]["text"], entry["decimal"]]


@pytest.mark.parametrize("seed", SEEDS)
def test_tightness_renderings_agree_with_the_report(seed):
    rng, family, stat = _pair(seed)
    k_max, digits = rng.randint(0, 15), rng.randint(1, 30)
    argv = ["tightness", "--family", family.value, "--stat", stat.value, "--k-max", str(k_max)]
    headers, rows, footer, payload = _three([*argv, "--precision", str(digits)])
    report = tightness_report(family, stat, k_max)
    assert headers == ["k", "term", "partial_sum"]
    assert payload["k_max"] == k_max
    assert payload["terms"] == [
        {"k": k, "term": exact_json(term), "partial_sum": exact_json(partial)}
        for k, term, partial in zip(range(1, k_max + 1), report.terms, accumulate(report.terms))
    ]
    assert payload["partial_sum"] == exact_json(report.partial_sum)
    assert payload["deficiency"] == exact_json(report.deficiency)

    def shown(parts):
        return decimal_string(_field_value(parts), digits)

    assert rows == [[str(t["k"]), shown(t["term"]), shown(t["partial_sum"])] for t in payload["terms"]]
    assert footer == [f"partial sum: {shown(payload['partial_sum'])}  deficiency: {shown(payload['deficiency'])}"]


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_renderings_agree_with_the_oracle(seed):
    rng, family, _ = _pair(seed)
    n_max = rng.randint(1, 5)
    families = [family] if rng.random() < 0.7 else list(FamilyId)
    argv = ["verify", "--n-max", str(n_max)] + (["--family", family.value] if len(families) == 1 else [])
    headers, rows, footer, payload = _three(argv)
    assert headers == ["family", "n_max", "checks", "mismatches", "status"] and footer == []
    assert payload["golden"] is None and payload["passed"] is True
    for member, row, entry in zip(families, rows, payload["families"], strict=True):
        report = verify_family(member, n_max)
        assert entry == {
            "family": member.value, "n_max": report.n_max, "checks": report.checks,
            "passed": report.passed, "mismatches": [],
        }
        assert row == [member.value, str(n_max), str(report.checks), "0", "pass"]


def test_errata_renderings_agree_with_the_ledger():
    # markdown writes one block per erratum, not a table
    (_, markdown), (_, csv_text), (_, json_text) = (
        run_case(["errata", "--format", fmt]) for fmt in ("markdown", "csv", "json")
    )
    entries = json.loads(json_text)["errata"]
    assert entries == [entry._asdict() for entry in ERRATA]
    cells = list(csv.reader(io.StringIO(csv_text)))
    assert cells[0] == ["id", "location", "printed", "computed"]
    assert cells[1:] == [[e["ident"], e["location"], e["printed"], e["computed"]] for e in entries]
    blocks = [
        "\n".join([f"### {e['ident']}", *(f"- {key}: {value}" for key, value in list(e.items())[1:])]) + "\n"
        for e in entries
    ]
    assert markdown == "\n".join(blocks)
