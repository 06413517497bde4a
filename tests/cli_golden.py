"""Fixed CLI invocations whose output is stored byte for byte.

``tests/data/cli_golden/`` holds one ``<name>.out`` file per case with
the exact stdout of ``treecensus <argv>``; ``test_cli_golden.py``
replays every case through ``cli.main`` and compares bytes.  Regenerate
the files only from a commit whose output is trusted:

    PYTHONPATH=src python3 tests/cli_golden.py
"""

import contextlib
import io
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "data" / "cli_golden"

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
    }
)


def run_case(argv: "list[str]") -> "tuple[int, str]":
    """Exit status and stdout of one in-process CLI run."""
    from treecensus.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
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
