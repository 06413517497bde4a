"""Fixed CLI invocations whose output is stored byte for byte.

``tests/data/cli_golden/`` holds one ``<name>.out`` file per case with
the exact stdout of ``treecensus <argv>``; ``test_cli_golden.py``
replays every case through ``cli.main`` and compares bytes.  The
``help*`` cases pin ``--help`` of the top level and of each subcommand,
wrapped at a fixed width (``HELP_COLUMNS``).  Regenerate
the files only from a commit whose output is trusted:

    PYTHONPATH=src python3 tests/cli_golden.py
"""

import contextlib
import io
import os
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "data" / "cli_golden"
# A stored census; only its row count reaches the output of a markdown verify.
CENSUS_SMALL = Path(__file__).parent / "data" / "census_small.csv"
# The terminal width ``--help`` wraps at while a case runs.
HELP_COLUMNS = "80"

_FAMILIES = ("motzkin", "ordered", "fullbinary", "schroeder")
_PAIRS = [(family, stat) for family in _FAMILIES for stat in ("vertices", "leaves")]

CASES: "dict[str, list[str]]" = {}
for _family in _FAMILIES:
    CASES[f"coeffs-counting-{_family}"] = [
        "coeffs", "--family", _family, "--series", "counting", "--n", "630..700", "--format", "csv",
    ]
    CASES[f"coeffs-multiplier-{_family}"] = [
        "coeffs", "--family", _family, "--series", "multiplier", "--n", "630..700", "--format", "csv",
    ]
for _family, _stat in _PAIRS:
    CASES[f"coeffs-census-{_family}-{_stat}"] = [
        "coeffs", "--family", _family, "--series", "census", "--stat", _stat, "--k", "3",
        "--n", "250..300", "--format", "json",
    ]
    CASES[f"table-{_family}-{_stat}"] = [
        "table", "--family", _family, "--stat", _stat, "--k", "1..8", "--format", "json",
    ]
CASES.update(
    {
        "prob-check-motzkin-vertices": [
            "prob", "--family", "motzkin", "--stat", "vertices", "--k", "3", "--check", "--format", "json",
        ],
        "prob-check-schroeder-leaves": [
            "prob", "--family", "schroeder", "--stat", "leaves", "--k", "2", "--check", "--format", "json",
        ],
        "prob-n700-ordered-leaves": [
            "prob", "--family", "ordered", "--stat", "leaves", "--k", "1..3", "--n", "700",
        ],
        "prob-n700-schroeder-vertices": [
            "prob", "--family", "schroeder", "--stat", "vertices", "--k", "1..4", "--n", "700",
            "--format", "json",
        ],
        "tightness-motzkin-vertices": [
            "tightness", "--family", "motzkin", "--stat", "vertices", "--k-max", "40", "--format", "json",
        ],
        "tightness-schroeder-leaves": [
            "tightness", "--family", "schroeder", "--stat", "leaves", "--k-max", "20",
        ],
        "verify-small": ["verify", "--n-max", "5", "--format", "json"],
        # every subcommand in every format it supports, --paper-precision and --header
        "table-motzkin-leaves-markdown": ["table", "--family", "motzkin", "--stat", "leaves", "--k", "1..8"],
        "table-schroeder-vertices-csv": [
            "table", "--family", "schroeder", "--stat", "vertices", "--k", "1..8", "--format", "csv",
        ],
        "table-paper-precision-schroeder-leaves": [
            "table", "--family", "schroeder", "--stat", "leaves", "--k", "1..8", "--paper-precision",
        ],
        "table-paper-precision-fullbinary-vertices-json": [
            "table", "--family", "fullbinary", "--stat", "vertices", "--k", "1..8", "--paper-precision",
            "--format", "json",
        ],
        "coeffs-census-ordered-leaves-markdown": [
            "coeffs", "--family", "ordered", "--series", "census", "--stat", "leaves", "--k", "2", "--n", "0..12",
        ],
        "prob-limit-ordered-leaves-csv": [
            "prob", "--family", "ordered", "--stat", "leaves", "--k", "1..6", "--precision", "25", "--format", "csv",
        ],
        "prob-n12-motzkin-vertices-csv": [
            "prob", "--family", "motzkin", "--stat", "vertices", "--k", "1..13", "--n", "12", "--format", "csv",
        ],
        "prob-limit-fullbinary-leaves-json": [
            "prob", "--family", "fullbinary", "--stat", "leaves", "--k", "1..4", "--format", "json",
        ],
        "verify-golden-markdown": [
            "verify", "--n-max", "4", "--golden", str(CENSUS_SMALL),
        ],
        "verify-schroeder-csv": ["verify", "--family", "schroeder", "--n-max", "6", "--format", "csv"],
        "errata-markdown": ["errata"],
        "errata-csv": ["errata", "--format", "csv"],
        "errata-json": ["errata", "--format", "json"],
        "tightness-ordered-leaves-csv": [
            "tightness", "--family", "ordered", "--stat", "leaves", "--k-max", "12", "--precision", "6",
            "--format", "csv",
        ],
        "tightness-fullbinary-vertices-k0": [
            "tightness", "--family", "fullbinary", "--stat", "vertices", "--k-max", "0",
        ],
        "header-prob-json": [
            "prob", "--family", "motzkin", "--stat", "leaves", "--k", "2", "--header", "--format", "json",
        ],
    }
)
# --help of the top level and of each subcommand, at a fixed terminal width
CASES["help"] = ["--help"]
for _command in ("table", "coeffs", "prob", "verify", "errata", "tightness"):
    CASES[f"help-{_command}"] = [_command, "--help"]


def run_case(argv: "list[str]") -> "tuple[int, str]":
    """Exit status and stdout of one in-process CLI run."""
    from treecensus.cli import main

    out = io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = HELP_COLUMNS
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    except SystemExit as done:  # --help prints and exits
        code = done.code
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, out.getvalue()


def _write_all() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        code, text = run_case(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit status {code}")
        (GOLDEN_DIR / f"{name}.out").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    _write_all()
