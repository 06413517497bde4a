"""Per-layer timing baseline: each layer and CLI subcommand in a fresh process.

Usage (standard library only, from any directory):

    python scripts/layers.py --out BENCH.json [--repeats 5] [--only NAME ...]

Every entry runs ``--repeats`` times, each time in a new interpreter, so
the package's caches start cold:

* a layer times one library call inside its process, after the imports;
* a ``cli:`` entry times a whole cold ``python -m treecensus.cli`` launch;
* ``tier1`` times the Tier-1 suite (``python -m pytest -q``), wall and CPU.

The JSON file holds, per entry, every run, the median and the minimum,
and, for the run as a whole, the Python version, the number of usable
CPUs, the git revision, the load average before and after, and a fixed
pure-Python calibration loop timed in the same run, so that a slow host
can be told from a slow tree.  ``--only`` picks entries by name; an
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

# name -> (imports, the one statement timed)
LAYERS = {
    **{
        f"counting_series + multiplier_gf({family}, 1300)": (
            "from treecensus import counting_series, multiplier_gf",
            f"counting_series('{family}', 1300); multiplier_gf('{family}', 1300)",
        )
        for family in FAMILIES
    },
    "root_stat_gf(ordered, leaves, 300)": ("from treecensus import root_stat_gf", "root_stat_gf('ordered', 'leaves', 300)"),
    "census_coefficient(motzkin, leaves, 3, 600)": (
        "from treecensus import census_coefficient",
        "census_coefficient('motzkin', 'leaves', 3, 600)",
    ),
    # the root GF, Cat(599)*x**1199/(1-x)**1199, is built first, so this times the level m = 1199
    "census_coefficient(motzkin, leaves, 600, 1300), root GF warm": (
        "from treecensus import census_coefficient, root_stat_gf; root_stat_gf('motzkin', 'leaves', 600)",
        "census_coefficient('motzkin', 'leaves', 600, 1300)",
    ),
    "limit_probability(ordered, leaves, 300)": (
        "from treecensus import limit_probability",
        "limit_probability('ordered', 'leaves', 300)",
    ),
    "richardson_check(schroeder, leaves, 3)": (
        "from treecensus import richardson_check",
        "richardson_check('schroeder', 'leaves', 3)",
    ),
    "tightness_report(ordered, leaves, 300)": (
        "from treecensus import tightness_report",
        "tightness_report('ordered', 'leaves', 300)",
    ),
    **{
        f"verify_family({family})": ("from treecensus import verify_family", f"verify_family('{family}')")
        for family in FAMILIES
    },
}

CLI = {
    "cli: table": ["table", "--family", "motzkin", "--stat", "leaves", "--k", "1..20"],
    "cli: coeffs": ["coeffs", "--family", "motzkin", "--series", "census", "--stat", "leaves", "--k", "600", "--n", "1300"],
    "cli: prob --check": ["prob", "--family", "schroeder", "--stat", "leaves", "--k", "3", "--check"],
    "cli: verify": ["verify"],
    "cli: errata": ["errata"],
    "cli: tightness": ["tightness", "--family", "ordered", "--stat", "leaves", "--k-max", "60"],
}

TIER1 = "tier1"

_CHILD = "import time\n{imports}\nstart = time.perf_counter()\n{statement}\nprint(time.perf_counter() - start)\n"


def _run(argv: "list[str]") -> "tuple[float, float, str]":
    """Wall time, child CPU time and stdout of one process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    child = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status):
        raise RuntimeError(f"{' '.join(argv)} exited with status {os.waitstatus_to_exitcode(status)}")
    return wall, usage.ru_utime + usage.ru_stime, out


def measure(name: str) -> "tuple[float, float]":
    """One run of an entry: its time in seconds and the child's CPU time."""
    if name in LAYERS:
        imports, statement = LAYERS[name]
        _, cpu, out = _run([sys.executable, "-c", _CHILD.format(imports=imports, statement=statement)])
        return float(out), cpu
    if name in CLI:
        wall, cpu, _ = _run([sys.executable, "-m", "treecensus.cli", *CLI[name]])
        return wall, cpu
    wall, cpu, _ = _run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"])
    return wall, cpu


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
        runs = [measure(name) for _ in range(args.repeats)]
        entries[name] = _summary([wall for wall, _ in runs])
        if name == TIER1:
            entries[name].update(cpu_median_s=statistics.median(cpu for _, cpu in runs), cpu_min_s=min(cpu for _, cpu in runs))
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
