"""Random argv over every subcommand and flag.

Each case draws a subcommand, then each of its flags with a valid, an
invalid or an edge value (empty, half-open and reversed ranges, signs,
underscores, non-ASCII digits, a range one value too long), in a random
order, with stdlib ``random`` at fixed seeds.  Orders stay at 60 or below
so that the whole run is quick.  Whatever the argv, the CLI exits 0, 1
or 2 and never with a traceback.
"""

import contextlib
import io
import json
import random

import pytest

from treecensus.cli import main

# (values that parse, values that may not) per kind of flag; the first
# list holds the edge spellings int() accepts
_FAMILIES = (["motzkin", "ordered", "fullbinary", "schroeder"], ["", "Motzkin", "nosuch"])
_STATS = (["vertices", "leaves"], ["", "leaf"])
_FORMATS = (["markdown", "csv", "json", "json"], ["", "xml"])
_PRECISIONS = (["1", "7", "30", "+3", "1_0"], ["0", "1001", "-3", "", "x"])
# --k and --n ranges
_RANGES = (
    ["1", "7", "2..5", "4..4", "1..60", "60", "-0", "+3", "1_0", "\u0663", "2..\u0664"],
    ["0", "-2", "", "1..", "3..1", "1..10001", "x", "1.5"],
)
# the plain integers of --k (coeffs), --n (prob), --k-max and --n-max
_INTEGERS = (["0", "1", "3", "12", "60", "-0", "+3", "1_0", "\u0663"], ["-1", "", "x", "1.5", "1..3"])
_N_MAX = (["1", "2", "3", "+2", "\u0662"], ["0", "-1", "15", "", "x"])
_FLAG = ([None], [None])  # a flag without a value

_COMMANDS = {
    "table": {
        "--family": _FAMILIES, "--stat": _STATS, "--k": _RANGES, "--paper-precision": _FLAG,
        "--precision": _PRECISIONS, "--format": _FORMATS, "--header": _FLAG,
    },
    "coeffs": {
        "--family": _FAMILIES, "--series": (["counting", "multiplier", "census", "census"], ["", "gf"]),
        "--stat": _STATS, "--k": _INTEGERS, "--n": _RANGES, "--format": _FORMATS, "--header": _FLAG,
    },
    "prob": {
        "--family": _FAMILIES, "--stat": _STATS, "--k": _RANGES, "--n": _INTEGERS, "--check": _FLAG,
        "--precision": _PRECISIONS, "--format": _FORMATS, "--header": _FLAG,
    },
    "verify": {
        "--family": _FAMILIES, "--n-max": _N_MAX, "--golden": ([""], ["no-such-dir/census.csv"]),
        "--format": _FORMATS, "--header": _FLAG,
    },
    "errata": {"--format": _FORMATS, "--header": _FLAG},
    "tightness": {
        "--family": _FAMILIES, "--stat": _STATS, "--k-max": _INTEGERS,
        "--precision": _PRECISIONS, "--format": _FORMATS, "--header": _FLAG,
    },
}


def _argv(rng: random.Random) -> "list[str]":
    """A subcommand and its flags; half the cases draw no value that may fail."""
    command = rng.choice(sorted(_COMMANDS))
    faulty = rng.random() < 0.5
    pairs = []
    for flag, (good, bad) in _COMMANDS[command].items():
        # a full verify enumerates for a second: --n-max is always given
        if flag != "--n-max" and rng.random() < (0.15 if faulty else 0.5 if bad == [None] else 0.03):
            continue
        value = rng.choice(bad if faulty and rng.random() < 0.3 else good)
        pairs.append([flag] if value is None else [flag, value])
    if faulty and rng.random() < 0.1:
        pairs.append(["--no-such-flag"])
    rng.shuffle(pairs)
    return [command, *(word for pair in pairs for word in pair)]


def _run(argv: "list[str]") -> "tuple[int, str, str]":
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as done:  # argparse refuses the argv
            assert done.code == 2, argv
            code = 2
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", range(4))
def test_random_argv_exits_0_1_or_2_without_a_traceback(seed):
    rng = random.Random(seed)
    for _ in range(60):
        argv = _argv(rng)
        code, out, err = _run(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code == 2:
            assert out == "", argv
            assert "error:" in err.splitlines()[-1], argv
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "markdown"
        if code == 0 and fmt == "json":
            if "--header" in argv:
                header, out = out.split("\n", 1)
                assert header.startswith("# treecensus "), argv
            json.loads(out)
