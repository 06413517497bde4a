"""End-to-end command-line behavior: output, determinism, exit codes."""

import json
import tracemalloc
from pathlib import Path

import pytest

from treecensus import DomainError, SeriesError, SolverError, cli, families, oracle
from treecensus.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_table_reproduces_published_motzkin_leaves(capsys):
    code, out = run(
        capsys, "table", "--family", "motzkin", "--stat", "leaves", "--k", "1..6",
        "--paper-precision",
    )
    assert code == 0
    for printed in ("0.5", "0.125", "0.0625", "0.0391", "0.02734", "0.02051"):
        assert f" {printed} " in out
    assert "erratum" in out.splitlines()[0]


def test_table_marks_errata_rows(capsys):
    code, out = run(capsys, "table", "--family", "fullbinary", "--stat", "vertices", "--k", "7")
    assert code == 0
    assert "fullbinary-vertex-k7" in out
    assert "0.03906250000" in out  # computed value
    assert "0.0161133" in out  # published value shown alongside


def test_table_exact_zero_row(capsys):
    code, out = run(
        capsys, "table", "--family", "fullbinary", "--stat", "vertices", "--k", "2",
        "--format", "json",
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["exact"]["rational_part"] == "0"
    assert row["erratum"] is None


def test_csv_and_json_carry_identical_values(capsys):
    _, csv_out = run(
        capsys, "prob", "--family", "ordered", "--stat", "leaves", "--k", "3",
        "--format", "csv",
    )
    _, json_out = run(
        capsys, "prob", "--family", "ordered", "--stat", "leaves", "--k", "3",
        "--format", "json",
    )
    payload = json.loads(json_out)["rows"][0]
    assert payload["exact"]["text"] == "10/243"
    decimal = payload["decimal"]
    assert decimal in csv_out
    assert "10/243" in csv_out


def test_prob_finite_and_limit(capsys):
    code, out = run(capsys, "prob", "--family", "motzkin", "--stat", "vertices", "--k", "1")
    assert code == 0 and "1/3" in out
    code, out = run(
        capsys, "prob", "--family", "schroeder", "--stat", "leaves", "--k", "1",
        "--n", "3", "--format", "csv",
    )
    assert code == 0 and "9/14" in out


def test_prob_check_includes_diagnostics(capsys):
    code, out = run(
        capsys, "prob", "--family", "ordered", "--stat", "vertices", "--k", "1",
        "--check", "--format", "json",
    )
    assert code == 0
    diag = json.loads(out)["rows"][0]["diagnostics"]
    assert diag["sizes"] == [150, 300, 600]
    assert len(diag["probabilities"]) == 3


def test_prob_domain_error_exit_code(capsys):
    code = main(["prob", "--family", "motzkin", "--stat", "vertices", "--k", "1", "--n", "0"])
    capsys.readouterr()
    assert code == 2


def test_prob_beyond_the_largest_statistic_prints_zero(capsys, monkeypatch):
    # a size-5 Motzkin tree has 5 vertices: the census is 0 with no root GF
    def refuse(*args):
        raise AssertionError("a root GF was built")

    monkeypatch.setattr(families, "root_stat_gf", refuse)
    families.clear_caches()
    code, out = run(capsys, "prob", "--family", "motzkin", "--stat", "vertices", "--k", "1000000", "--n", "5")
    assert code == 0
    assert out.splitlines()[-1] == "| 1000000 | n=5 | 0 | 0 |"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["table", "--family", "nosuch", "--stat", "leaves", "--k", "1"])
    assert err.value.code == 2


def test_coeffs_counting_and_multiplier(capsys):
    code, out = run(
        capsys, "coeffs", "--family", "schroeder", "--series", "counting",
        "--n", "1..7", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[1:] == ["1,1", "2,1", "3,3", "4,11", "5,45", "6,197", "7,903"]
    code, out = run(
        capsys, "coeffs", "--family", "fullbinary", "--series", "multiplier",
        "--n", "0..3", "--format", "csv",
    )
    assert out.splitlines()[1:] == ["0,1", "1,2", "2,6", "3,20"]


def test_coeffs_census(capsys):
    code, out = run(
        capsys, "coeffs", "--family", "ordered", "--series", "census", "--stat",
        "vertices", "--k", "3", "--n", "3..3", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[1] == "3,2"


def test_coeffs_census_requires_stat(capsys):
    code = main(["coeffs", "--family", "ordered", "--series", "census", "--n", "1..3"])
    capsys.readouterr()
    assert code == 2


def test_verify_small_budget_passes(capsys):
    code, out = run(capsys, "verify", "--n-max", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert {f["family"] for f in payload["families"]} == {
        "motzkin", "ordered", "fullbinary", "schroeder"
    }


def test_verify_golden_roundtrip(tmp_path, capsys):
    golden = DATA / "census_small.csv"
    code, out = run(
        capsys, "verify", "--family", "motzkin", "--n-max", "3",
        "--golden", str(golden), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["golden"]["passed"] is True


def test_verify_corrupted_golden_fails(tmp_path, capsys):
    corrupted = tmp_path / "census_bad.csv"
    lines = (DATA / "census_small.csv").read_text().splitlines()
    target = lines[3].rsplit(",", 1)
    lines[3] = f"{target[0]},{int(target[1]) + 1}"
    corrupted.write_text("\n".join(lines) + "\n")
    code, out = run(
        capsys, "verify", "--family", "motzkin", "--n-max", "3",
        "--golden", str(corrupted), "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["golden"]["passed"] is False
    assert payload["golden"]["mismatches"]


def test_write_golden_matches_fixture(tmp_path, capsys):
    out_path = tmp_path / "census.csv"
    code, _ = run(capsys, "verify", "--n-max", "4", "--write-golden", str(out_path))
    assert code == 0
    assert out_path.read_text() == (DATA / "census_small.csv").read_text()


def test_errata_listing(capsys):
    code, out = run(capsys, "errata", "--format", "json")
    assert code == 0
    entries = json.loads(out)["errata"]
    assert len(entries) >= 6
    for entry in entries:
        assert entry["location"]
        assert entry["printed"]
        assert entry["computed"]
    idents = [e["ident"] for e in entries]
    assert len(set(idents)) == len(idents)
    assert "fullbinary-vertex-k7" in idents


def test_tightness_output(capsys):
    code, out = run(
        capsys, "tightness", "--family", "fullbinary", "--stat", "vertices",
        "--k-max", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["partial_sum"]["text"] == "1/2"
    assert payload["deficiency"]["text"] == "1/2"


def test_reproducible_byte_identical(capsys):
    args = ("table", "--family", "schroeder", "--stat", "vertices", "--k", "1..7",
            "--format", "csv")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    assert "T" not in first.split("\n")[1]  # no timestamps anywhere


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "table.md"
    code, out = run(
        capsys, "table", "--family", "motzkin", "--stat", "vertices", "--k", "1",
        "--out", str(path),
    )
    assert code == 0
    assert out == ""
    assert "| 1 | x | 1/3 |" in path.read_text()


def test_header_flag(capsys):
    _, with_header = run(
        capsys, "coeffs", "--family", "motzkin", "--series", "counting",
        "--n", "1..3", "--header",
    )
    assert with_header.startswith("# treecensus ")
    _, without = run(
        capsys, "coeffs", "--family", "motzkin", "--series", "counting", "--n", "1..3",
    )
    assert not without.startswith("#")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--n-max", "0"),
        ("verify", "--family", "schroeder", "--n-max", "-1"),
        ("verify", "--family", "motzkin", "--n-max", "15"),
        # within the Motzkin budget of 14, above the ordered budget of 12
        ("verify", "--n-max", "13"),
        ("verify", "--family", "fullbinary", "--n-max", "99", "--write-golden", "unused.csv"),
    ],
)
def test_verify_out_of_bounds_n_max_exit_code(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: size ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "unused.csv").exists()


@pytest.mark.parametrize(
    "error",
    [
        SeriesError("series failure"),
        SolverError("solver failure"),
        DomainError("domain failure"),
    ],
    ids=lambda err: type(err).__name__,
)
def test_package_errors_exit_2_without_traceback(error, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "limit_probability", fail)
    code = main(["prob", "--family", "motzkin", "--stat", "vertices", "--k", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {error}\n"


def test_help_lists_choice_values(capsys):
    with pytest.raises(SystemExit) as err:
        main(["table", "--help"])
    out = capsys.readouterr().out
    assert err.value.code == 0
    assert "{motzkin,ordered,fullbinary,schroeder}" in out
    assert "{vertices,leaves}" in out
    assert "FamilyId" not in out and "StatKind" not in out


FAMILIES = "{motzkin,ordered,fullbinary,schroeder}"
STATS = "{vertices,leaves}"


@pytest.mark.parametrize(
    "argv, bad, choices",
    [
        (("table", "--family", "motzkinx", "--stat", "leaves", "--k", "1"), "motzkinx", FAMILIES),
        (("prob", "--family", "motzkin", "--stat", "leaf", "--k", "1"), "leaf", STATS),
        (("coeffs", "--family", "Motzkin", "--series", "counting", "--n", "1"), "Motzkin", FAMILIES),
        (("verify", "--family", "binary"), "binary", FAMILIES),
        (("tightness", "--family", "ordered", "--stat", "vertex", "--k-max", "3"), "vertex", STATS),
    ],
)
def test_bad_choice_lists_valid_values(argv, bad, choices, capsys):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].endswith(f"invalid choice: {bad!r} (choose from {choices})")
    assert "_family" not in captured.err and "_stat" not in captured.err


def _assert_one_line_error(code, captured, start="error: "):
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(start)
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_over_long_range_exits_2_before_building_it(capsys, monkeypatch):
    # 10**11 values: refused from the two ends alone, before a list of them
    # exists or a first probability is computed
    def refuse(*args, **kwargs):
        raise AssertionError("a probability was computed")

    monkeypatch.setattr(cli, "limit_probability", refuse)
    monkeypatch.setattr(cli, "finite_probability", refuse)
    tracemalloc.start()
    try:
        code = main(["prob", "--family", "ordered", "--stat", "leaves", "--k", "1..100000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_one_line_error(code, capsys.readouterr(), "error: range '1..100000000000' has 100000000000 values")
    assert peak < 1 << 20


_ABOVE = str(cli.MAX_ORDER + 1)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("table", "--family", "motzkin", "--stat", "vertices", "--k", f"1..{_ABOVE}"), "--k"),
        (("prob", "--family", "ordered", "--stat", "leaves", "--k", _ABOVE, "--check"), "--k"),
        (("prob", "--family", "ordered", "--stat", "leaves", "--k", "1..3", "--n", _ABOVE), "--n"),
        (("tightness", "--family", "schroeder", "--stat", "leaves", "--k-max", _ABOVE), "--k-max"),
        (("coeffs", "--family", "motzkin", "--series", "counting", "--n", _ABOVE), "--n"),
        (("coeffs", "--family", "motzkin", "--series", "census", "--stat", "leaves", "--k", "1", "--n", _ABOVE), "--n"),
    ],
)
def test_orders_above_the_bound_exit_2_before_any_series(argv, flag, capsys, monkeypatch):
    for name in ("counting_series", "census_series", "finite_probability", "limit_probability", "tightness_report"):
        monkeypatch.setattr(cli, name, None)  # a call would raise TypeError, not exit 2
    code = main(list(argv))
    _assert_one_line_error(code, capsys.readouterr(), f"error: {flag} {_ABOVE} is above the highest order")


def test_orders_at_the_bound_are_admitted(capsys):
    top = str(cli.MAX_ORDER)
    code, out = run(capsys, "prob", "--family", "motzkin", "--stat", "vertices", "--k", top, "--format", "csv")
    assert code == 0 and out.splitlines()[-1].startswith(f"{top},limit,")
    code, out = run(capsys, "coeffs", "--family", "motzkin", "--series", "counting", "--n", top, "--format", "csv")
    assert code == 0 and out.splitlines()[-1].startswith(f"{top},")


def test_range_bound_is_exact_and_in_help(capsys):
    assert cli._parse_range(f"5..{cli.MAX_RANGE_VALUES + 4}") == range(5, cli.MAX_RANGE_VALUES + 5)
    with pytest.raises(ValueError, match="more than the"):
        cli._parse_range(f"5..{cli.MAX_RANGE_VALUES + 5}")
    assert cli._parse_range("7") == range(7, 8)
    for command in ("table", "coeffs", "prob", "tightness"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert command == "tightness" or f"(at most {cli.MAX_RANGE_VALUES} values)" in text
        assert f"<= {cli.MAX_ORDER}" in text, command


@pytest.mark.parametrize("digits", ["0", str(cli.MAX_PRECISION + 1)])
@pytest.mark.parametrize("command, k_flag", [("table", "--k"), ("prob", "--k"), ("tightness", "--k-max")])
def test_precision_outside_the_bound_exits_2_before_any_value(command, k_flag, digits, capsys, monkeypatch):
    for name in ("limit_probability", "finite_probability", "tightness_report"):
        monkeypatch.setattr(cli, name, None)  # a call would raise TypeError, not exit 2
    code = main([command, "--family", "motzkin", "--stat", "vertices", k_flag, "3", "--precision", digits])
    _assert_one_line_error(code, capsys.readouterr(), f"error: --precision {digits} is outside 1..{cli.MAX_PRECISION}")


def test_precision_at_the_bound_is_admitted_and_in_help(capsys):
    top = str(cli.MAX_PRECISION)
    code, out = run(capsys, "prob", "--family", "schroeder", "--stat", "leaves", "--k", "1", "--precision", top, "--format", "csv")
    assert code == 0
    decimal = out.splitlines()[-1].split(",")[-1]
    assert decimal.startswith("0.5857864376269") and len(decimal) == len("0.") + cli.MAX_PRECISION
    for command in ("table", "prob", "tightness"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert f"(at most {top})" in " ".join(capsys.readouterr().out.split()), command


def test_prob_check_with_n_exits_2(capsys, monkeypatch):
    # the diagnostics are the limit's; a finite probability has none, so
    # the flag is refused rather than ignored
    monkeypatch.setattr(cli, "finite_probability", None)
    code = main(["prob", "--family", "motzkin", "--stat", "vertices", "--k", "1", "--n", "5", "--check"])
    _assert_one_line_error(code, capsys.readouterr(), "error: --check diagnoses a limit")


@pytest.mark.parametrize(
    "argv",
    [
        ("coeffs", "--family", "motzkin", "--series", "counting", "--n", "-1"),
        ("coeffs", "--family", "motzkin", "--series", "census", "--stat", "vertices", "--k", "1", "--n", "-1"),
        ("coeffs", "--family", "ordered", "--series", "multiplier", "--n=-2..3"),
    ],
)
def test_coeffs_negative_n_exit_code(argv, capsys):
    code = main(list(argv))
    _assert_one_line_error(code, capsys.readouterr(), "error: --n must be nonnegative")


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--family", "motzkin", "--stat", "vertices", "--k", "1", "--out", "{missing}/x.md"),
        ("table", "--family", "motzkin", "--stat", "vertices", "--k", "1", "--out", "{tmp}"),
        ("verify", "--family", "motzkin", "--n-max", "3", "--write-golden", "{missing}/g.csv"),
        ("verify", "--family", "motzkin", "--n-max", "3", "--golden", "{tmp}"),
        ("verify", "--family", "motzkin", "--n-max", "3", "--golden", "{missing}/g.csv"),
    ],
    ids=["out-missing-dir", "out-directory", "write-golden-missing-dir", "golden-directory", "golden-missing"],
)
def test_unusable_path_exit_code(argv, capsys, tmp_path):
    paths = {"missing": tmp_path / "missing", "tmp": tmp_path}
    code = main([arg.format(**paths) for arg in argv])
    _assert_one_line_error(code, capsys.readouterr())


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--golden", "{missing}/g.csv"),
        ("verify", "--golden", "{tmp}"),
        ("verify", "--write-golden", "{missing}/g.csv"),
        ("verify", "--write-golden", "{tmp}"),
        ("verify", "--write-golden", "{tmp}/g.csv", "--golden", "{missing}/g.csv"),
    ],
    ids=["golden-missing", "golden-directory", "write-golden-missing-dir", "write-golden-directory", "golden-and-write"],
)
def test_unusable_golden_path_is_refused_before_enumerating(argv, monkeypatch, capsys, tmp_path):
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("verify enumerated trees before refusing the path")

    monkeypatch.setattr(oracle, "verify_family", enumerate_nothing)
    paths = {"missing": tmp_path / "missing", "tmp": tmp_path}
    code = main([arg.format(**paths) for arg in argv])
    _assert_one_line_error(code, capsys.readouterr())
    assert not (tmp_path / "g.csv").exists()


def test_write_golden_then_check_the_same_path(tmp_path, capsys):
    path = tmp_path / "census.csv"
    code, out = run(
        capsys, "verify", "--n-max", "4", "--write-golden", str(path), "--golden", str(path), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["golden"] == {"path": str(path), "checked": 76, "mismatches": [], "passed": True}
    assert path.read_text() == (DATA / "census_small.csv").read_text()


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "has no rows to check"),
        ("family,stat,n,k,count\n", "has no rows to check"),
        ("family,stat,n,count\nmotzkin,vertices,1,1\n", "lacks the column(s) k"),
        ("family,stat,n,k,count\nmotzkin,vertices,1\n", "line 2: too few fields"),
        ("family,stat,n,k,count\nmotzkin,vertices,1,1,1,99\n", "line 2: more fields than the header's 5"),
        (
            "family,stat,n,k,count\nmotzkin,vertices,1,1,1\nmotzkin,vertices,20000,1,5\n",
            f"line 3: n 20000 is above the highest order a request may reach, {cli.MAX_ORDER}",
        ),
        ("family,stat,n,k,count\nmotzkin,vertices,1,1,1\nmotzkin,vertices,-1,1,0\n", "line 3: n -1 is negative"),
        ("family,stat,n,k,count\nmotzkin,vertices,1,0,0\n", "line 2: k 0 is below 1"),
    ],
    ids=["empty", "header-only", "missing-column", "short-row", "long-row", "order-above-bound", "negative-n", "k-below-one"],
)
def test_unusable_golden_file_exit_code(text, message, capsys, tmp_path, monkeypatch):
    def compute_nothing(*args, **kwargs):
        raise AssertionError("verify computed before refusing the golden file")

    # the file is read whole before any tree is enumerated or row recomputed
    monkeypatch.setattr(oracle, "verify_family", compute_nothing)
    monkeypatch.setattr(cli, "census_coefficient", compute_nothing)
    golden = tmp_path / "golden.csv"
    golden.write_text(text)
    code = main(["verify", "--family", "motzkin", "--n-max", "3", "--golden", str(golden)])
    captured = capsys.readouterr()
    _assert_one_line_error(code, captured)
    assert message in captured.err


def test_golden_row_at_the_order_bound_is_checked(capsys, tmp_path):
    golden = tmp_path / "golden.csv"
    count = families.census_coefficient("motzkin", "vertices", 1, cli.MAX_ORDER)
    golden.write_text(f"family,stat,n,k,count\nmotzkin,vertices,{cli.MAX_ORDER},1,{count}\n")
    code, out = run(capsys, "verify", "--family", "motzkin", "--n-max", "1", "--golden", str(golden), "--format=json")
    assert code == 0 and json.loads(out)["golden"]["checked"] == 1
