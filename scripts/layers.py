"""Per-layer timing baseline: each layer and CLI subcommand in a fresh process.

Usage (standard library only, from any directory):

    python scripts/layers.py --out BENCH.json [--repeats 5] [--only NAME ...]

Every entry runs ``--repeats`` times, each time in a new interpreter, so
the package's caches start cold:

* a layer times one library statement inside its process, after its
  setup (the imports, and for a warm entry the same call once);
* a ``cli:`` entry times a whole cold ``python -m treecensus.cli`` launch;
* ``tier1`` times the Tier-1 suite (``python -m pytest -q``), wall and CPU.

The JSON file holds, per entry, every run, the median and the minimum,
and the child's peak RSS per run and its median; and, for the run as a
whole, the Python version, the number of usable CPUs, the git revision,
the load average before and after, and a fixed pure-Python calibration
loop timed in the same run, so that a slow host can be told from a slow
tree.  ``--only`` picks entries by name; an
unknown name exits 2 and lists the names.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("motzkin", "ordered", "fullbinary", "schroeder")
STATS = ("vertices", "leaves")
SOLVE = "from treecensus import fixed_point_solve"


def _call(function: str, *args, warm: bool = False) -> "tuple[str, tuple[str, str]]":
    """An entry timing one call of a public function, cold or after the same call."""
    statement = f"{function}({', '.join(map(repr, args))})"
    setup = f"from treecensus import {function}" + (f"; {statement}" if warm else "")
    return f"{function}({', '.join(map(str, args))}){', warm' if warm else ''}", (setup, statement)


# name -> (setup: the imports and any warm-up, the one statement timed)
LAYERS = {
    # the first touch of both series, derived from one radical, each held at the order asked for
    **{
        f"counting_series + multiplier_gf({family}, {order})": (
            "from treecensus import counting_series, multiplier_gf",
            f"counting_series('{family}', {order}); multiplier_gf('{family}', {order})",
        )
        for order in (640, 1300)
        for family in FAMILIES
    },
    # a cold solve, so a return of Fraction work to the solver shows; then a held solve
    # extended by 2 orders and a slice of a held one, so a return to re-solving every order shows
    **{
        f"fixed_point_solve({family}, {order}){label}": (
            SOLVE + (f"; fixed_point_solve('{family}', {held})" if held else ""),
            f"fixed_point_solve('{family}', {order})",
        )
        for order in (80, 200)
        for family in FAMILIES
        for label, held in (("", None), (", held extension by 2", order - 2), (", slice of a held solve", order + 2))
    },
    # the Phi(s) == s check alone on a solved series, so a check that outgrows the solve shows
    **{
        f"_phi_terms({family}, {order})": (
            f"{SOLVE}, FAMILIES; from treecensus.families import _phi_terms; "
            f"a = fixed_point_solve('{family}', {order}).coefficients",
            f"_phi_terms(FAMILIES['{family}'], a, [1], 1, {order})",
        )
        for order in (80, 200)
        for family in FAMILIES
    },
    # each pair whose root GF is not a monomial, so a return of an O(k**3) power loop shows at k = 600
    **dict(
        _call("root_stat_gf", family, stat, k)
        for k in (12, 40, 600)
        for family, stat in (("motzkin", "leaves"), ("ordered", "leaves"), ("fullbinary", "vertices"), ("schroeder", "vertices"))
    ),
    **dict(
        [
            _call("root_stat_gf", "ordered", "leaves", 300),
            _call("census_coefficient", "motzkin", "leaves", 3, 600),
            _call("limit_probability", "ordered", "leaves", 300),
            _call("richardson_check", "schroeder", "leaves", 3),
            _call("tightness_report", "ordered", "leaves", 300),
            *(_call("verify_family", family) for family in FAMILIES),
        ]
    ),
    # the root GF, Cat(599)*x**1199/(1-x)**1199, is built first, so this times the level m = 1199
    "census_coefficient(motzkin, leaves, 600, 1300), root GF warm": (
        "from treecensus import census_coefficient, root_stat_gf; root_stat_gf('motzkin', 'leaves', 600)",
        "census_coefficient('motzkin', 'leaves', 600, 1300)",
    ),
    # one process's census table (each root GF over (1-x)**(2k-1)), so a return to building each
    # level from the multiplier shows in the time, and a return to holding more levels in the peak RSS
    "census_coefficient(motzkin, leaves, k, 1300) for k = 1..100": (
        "from treecensus import census_coefficient",
        "for k in range(1, 101): census_coefficient('motzkin', 'leaves', k, 1300)",
    ),
    # a first and a warm finite probability, so a return of a per-call O(n) convolution in the
    # census or the vertex total shows in the warm time
    **dict(
        _call("finite_probability", family, stat, 3, 600, warm=warm)
        for family in FAMILIES
        for stat in STATS
        for warm in (False, True)
    ),
    # warm census calls: an O(n) copy per coefficient shows as growth from n = 600 to 1300, a
    # per-coefficient conversion in the two series that set the bench's finite-size tail, and
    # a multiplication by the k leading zeros of t_k*x**k as growth from k = 3 to 600
    **dict(
        _call(function, *args, warm=True)
        for function, args in (
            ("census_coefficient", ("motzkin", "leaves", 3, 600)),
            ("census_coefficient", ("motzkin", "leaves", 3, 1300)),
            ("census_series", ("ordered", "leaves", 4, 300)),
            ("census_series", ("motzkin", "leaves", 2, 301)),
            ("census_coefficient", ("ordered", "vertices", 3, 1300)),
            ("census_coefficient", ("ordered", "vertices", 600, 1300)),
        )
    ),
    # what start-up imports: an eager import of dataclasses or the oracle, or a slow module-level table
    **{f"import {module}": ("", f"import {module}") for module in ("treecensus.cli", "treecensus.oracle")},
}

# cold launches, start-up included, so a slower renderer shows too
CLI = {
    "cli: table": ["table", "--family", "motzkin", "--stat", "leaves", "--k", "1..20"],
    # the root GF Cat(599)*x**1199/(1-x)**1199, so the m running sums over the multiplier show
    "cli: coeffs": ["coeffs", "--family", "motzkin", "--series", "census", "--stat", "leaves", "--k", "600", "--n", "1300"],
    "cli: prob --check": ["prob", "--family", "schroeder", "--stat", "leaves", "--k", "3", "--check"],
    "cli: verify": ["verify"],
    "cli: errata": ["errata"],
    "cli: tightness": ["tightness", "--family", "ordered", "--stat", "leaves", "--k-max", "60"],
    # with the peak RSS, a return of the per-vertex walk or of one object per tree (Schroeder trees set the peak)
    **{f"cli: verify --family {family}": ["verify", "--family", family] for family in FAMILIES},
}

TIER1 = "tier1"

_CHILD = "import time\n{setup}\nstart = time.perf_counter()\n{statement}\nprint(time.perf_counter() - start)\n"


def _run(argv: "list[str]") -> "tuple[float, float, float, str]":
    """Wall time, CPU time, peak RSS in MB and stdout of one child process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    child = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status):
        raise RuntimeError(f"{' '.join(argv)} exited with status {os.waitstatus_to_exitcode(status)}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, out


def measure(name: str) -> "tuple[float, float, float]":
    """One run of an entry: its time in seconds, the child's CPU time and peak RSS in MB."""
    if name in LAYERS:
        setup, statement = LAYERS[name]
        _, cpu, rss, out = _run([sys.executable, "-c", _CHILD.format(setup=setup, statement=statement)])
        return float(out), cpu, rss
    argv = ["-m", "treecensus.cli", *CLI[name]] if name in CLI else ["-m", "pytest", "-q", "--continue-on-collection-errors"]
    wall, cpu, rss, _ = _run([sys.executable, *argv])
    return wall, cpu, rss


def calibration(repeats: int) -> "list[float]":
    """A fixed pure-Python loop, timed in this process."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        sum(i * i % 7 for i in range(300_000))
        times.append(time.perf_counter() - start)
    return times


def _summary(times: "list[float]") -> dict:
    return {"median_s": statistics.median(times), "min_s": min(times), "runs_s": times}


def _git(*args: str) -> "str | None":
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def main(argv: "list[str] | None" = None) -> int:
    names = [*LAYERS, *CLI, TIER1]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--repeats", type=int, default=5, help="fresh processes per entry (default 5)")
    parser.add_argument("--only", action="append", choices=names, metavar="NAME", help="run only this entry (repeatable)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    selected = args.only or names
    load_before = os.getloadavg()
    calibrated = _summary(calibration(args.repeats))
    entries = {}
    for name in selected:
        times, cpus, peaks = zip(*(measure(name) for _ in range(args.repeats)))
        entries[name] = _summary(list(times))
        entries[name].update(peak_rss_median_mb=statistics.median(peaks), peak_rss_runs_mb=list(peaks))
        if name == TIER1:
            entries[name].update(cpu_median_s=statistics.median(cpus), cpu_min_s=min(cpus))
    report = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "revision": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "repeats": args.repeats,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "calibration": calibrated,
        "entries": entries,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
