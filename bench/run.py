"""treecensus benchmark: one seeded workload, timed end to end or traced.

Usage (from the repository root):

    python3 bench/run.py --workload limits --seed 1 --seconds 20 --trace 0

Runs passes of the seeded workload (``workloads.py``) as a closed loop with
one client until ``--seconds`` are used up, checks every result against the
stored exact answers, and prints one JSON object as the last line of
stdout: the end-to-end metrics with ``--trace 0``, the per-layer metrics
(``layers.py``) with ``--trace 1``.  A run record (versions, load, tail
percentile, failures) goes to stderr and to ``.bench_build/records/``.
The program is run from ``src/`` of the current directory, only from
outside: as ``python3 -m treecensus.cli`` processes or through the public
library API in a worker process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

BENCH = Path(__file__).resolve().parent
SETUP_LAUNCHES = 6  # before the passes, and as many again after them
CALL_TIMEOUT = 60.0
HARD_LIMIT = 165.0  # seconds; every run must end within 180
SETUP_CODE = "import treecensus.cli as c; c.build_parser()"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}


class Run:
    """State of one benchmark run: where it writes and what it has measured."""

    def __init__(self, workload: str, seed: int, root: Path, trace: bool):
        self.workload, self.root = workload, root
        self.started = time.perf_counter()
        self.work = root / ".bench_build" / "runs" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        # Byte code is cached (under .bench_build) as in an installed package, so
        # setup_s measures a warm start whatever the caller's environment says.
        self.env["PYTHONPYCACHEPREFIX"] = str(root / ".bench_build" / "pycache")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        with open(BENCH / "answers.json", encoding="utf-8") as fh:
            self.answers = json.load(fh)[workload]
        self.latencies: "list[float]" = []
        self.calls: "list[list]" = []  # [query key, seconds or None] in call order
        self.attempted = 0
        self.failures: "list[str]" = []

    def remaining(self) -> float:
        return HARD_LIMIT - (time.perf_counter() - self.started)

    def tally(self, query, ok: bool, seconds: "float | None", why: str = "") -> None:
        self.attempted += 1
        self.calls.append([workloads.key(query), seconds])
        if seconds is not None:
            self.latencies.append(seconds)
        if not ok:
            self.failures.append(f"{workloads.key(query)}: {why}")

    def launch(self, argv, extra_env=None, timeout=CALL_TIMEOUT) -> "subprocess.CompletedProcess | None":
        """Run a process to its end; None when it timed out or the run's time is up."""
        timeout = min(timeout, self.remaining())
        if timeout <= 0:
            return None
        env = dict(self.env, **(extra_env or {}))
        try:
            return subprocess.run(
                argv, cwd=self.root, env=env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return None

    # -- passes ------------------------------------------------------------------

    def cli_pass(self, queries, spans_dir: "Path | None") -> None:
        golden = self.work / "golden.csv"
        golden.unlink(missing_ok=True)
        for i, query in enumerate(queries):
            args = [str(golden) if a == workloads.GOLDEN else a for a in query]
            if spans_dir is None:
                argv, extra = [sys.executable, "-m", "treecensus.cli", *args], None
            else:
                argv = [sys.executable, str(BENCH / "cli_traced.py"), *args]
                extra = {"BENCH_SPANS": str(spans_dir / f"{i}.jsonl"), "BENCH_CALL": str(i)}
            start = time.perf_counter()
            proc = self.launch(argv, extra)
            seconds = time.perf_counter() - start
            if proc is None:
                self.tally(query, False, None, "timeout")
                continue
            if proc.returncode != 0:
                self.tally(query, False, seconds, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
                continue
            try:
                golden_text = golden.read_text(encoding="utf-8") if "--write-golden" in query else None
                value = workloads.cli_value(query, json.loads(proc.stdout), golden_text)
            except (ValueError, KeyError, TypeError, OSError) as err:
                self.tally(query, False, seconds, f"unreadable result: {err}")
                continue
            ok = workloads.check(query, workloads.digest(value), self.answers)
            self.tally(query, ok, seconds, "" if ok else "value differs from the stored answer")

    def lib_pass(self, queries, spans_dir: "Path | None") -> None:
        query_file, result_file = self.work / "queries.json", self.work / "results.json"
        query_file.write_text(json.dumps(queries), encoding="utf-8")
        result_file.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "libworker.py"), str(query_file), str(result_file)]
        if spans_dir is not None:
            argv.append(str(spans_dir / "worker.jsonl"))
        proc = self.launch(argv, timeout=HARD_LIMIT)  # one process answers the whole pass
        try:
            if proc is None or proc.returncode != 0:
                raise OSError("timeout" if proc is None else f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
            results = json.loads(result_file.read_text(encoding="utf-8"))
            if len(results) != len(queries):
                raise ValueError(f"{len(results)} results for {len(queries)} queries")
        except (OSError, ValueError) as err:
            for query in queries:
                self.tally(query, False, None, f"worker failed: {err}")
            return
        for query, res in zip(queries, results):
            if res["error"] is not None:
                self.tally(query, False, res["seconds"], res["error"])
            else:
                ok = workloads.check(query, res["digest"], self.answers)
                self.tally(query, ok, res["seconds"], "" if ok else "value differs from the stored answer")

    def one_pass(self, queries, traced_index: "int | None" = None) -> "tuple[float, float, Path | None]":
        """Run a pass; return its wall time, its CPU time and its span directory."""
        spans_dir = None
        if traced_index is not None:
            spans_dir = self.work / f"spans-{traced_index}"
            spans_dir.mkdir()
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        if self.workload in workloads.CLI_WORKLOADS:
            self.cli_pass(queries, spans_dir)
        else:
            self.lib_pass(queries, spans_dir)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return wall, cpu, spans_dir

    # -- setup --------------------------------------------------------------------

    def setup_times(self) -> "list[float]":
        """Launch-to-exit times of processes that import the CLI and build its parser."""
        argv = [sys.executable, "-c", SETUP_CODE]
        times = []
        for _ in range(SETUP_LAUNCHES):
            start = time.perf_counter()
            proc = self.launch(argv)
            if proc is None or proc.returncode != 0:
                raise RuntimeError(f"the CLI does not start: {proc and proc.stderr.strip()[-300:]}")
            times.append(time.perf_counter() - start)
        return times


def tail(values: "list[float]", percentile: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = math.ceil(percentile / 100 * len(ordered) - 1e-9)  # tolerate 66.666...% of 30
    return ordered[max(0, rank - 1)]


def git_revision(root: Path) -> "str | None":
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text(encoding="utf-8").strip()
        if text.startswith("ref: "):
            return (root / ".git" / text[5:]).read_text(encoding="utf-8").strip()
        return text
    except OSError:
        return None


def execute(workload: str, seed: int, seconds: int, trace: bool, root: Path) -> "tuple[dict, dict, list]":
    """One benchmark run: its result line, its run record and its calls' latencies."""
    run = Run(workload, seed, root, trace)
    try:
        return (*measure(run, workload, seed, seconds, trace, root), run.calls)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)


def measure(run: Run, workload: str, seed: int, seconds: int, trace: bool, root: Path) -> "tuple[dict, dict]":
    """Time the set-up, run passes until ``seconds`` are used, and compute the metrics."""
    load_before = os.getloadavg()
    run.launch([sys.executable, "-c", SETUP_CODE])  # compiles the byte code cache; not timed
    setup = run.setup_times()
    queries = [list(q) for q in workloads.generate(workload, seed)]
    walls, cpus, traced_walls, span_dirs = [], [], [], []
    measure_start = time.perf_counter()
    while True:
        # The traced run alternates untraced and traced passes.
        traced = trace and len(walls) > len(traced_walls)
        wall, cpu, spans_dir = run.one_pass(queries, len(traced_walls) if traced else None)
        if traced:
            traced_walls.append(wall)
            span_dirs.append(spans_dir)
        else:
            walls.append(wall)
            cpus.append(cpu)
        typical = statistics.median(walls + traced_walls)
        done = bool(walls and traced_walls) if trace else len(walls) >= workloads.MIN_PASSES[workload]
        elapsed = time.perf_counter() - measure_start
        if (done and elapsed + typical > seconds) or typical > run.remaining():
            break
    if run.attempted == 0:
        raise RuntimeError("the run checked zero calls")
    # Launches at both ends of the run, so that their median does not hang
    # on the load of one moment.
    setup += run.setup_times()
    percentile = workloads.tail_percentile(workload)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(root),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "passes": len(walls),
        "calls_per_pass": len(queries),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failed_ratio": len(run.failures) / run.attempted,
        "failures": run.failures[:20],
        "call_tail": {"percentile": round(percentile, 2), "samples": len(run.latencies)},
        "pass_walls_s": walls,
    }
    if not trace:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "call_p50_ms": 1000 * statistics.median(run.latencies) if run.latencies else 0.0,
            "call_tail_ms": 1000 * tail(run.latencies, percentile) if run.latencies else 0.0,
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "ok_ratio": 1 - len(run.failures) / run.attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        totals = layers.Totals()
        for spans_dir in span_dirs:
            for path in sorted(spans_dir.glob("*.jsonl")):
                totals.add_file(path)
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1
        values = totals.metrics(len(span_dirs), overhead)
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in layers.METRICS.items()}
        record["traced_pass_walls_s"] = traced_walls
        record["missing"] = totals.missing_metrics()
        record["self_shares"] = totals.self_shares()
        # Keep the spans of the latest traced run of this workload.
        keep = root / ".bench_build" / "trace" / workload
        shutil.rmtree(keep, ignore_errors=True)
        keep.parent.mkdir(parents=True, exist_ok=True)
        shutil.copytree(span_dirs[-1], keep)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "treecensus" / "cli.py").is_file():
        print("error: run from a treecensus checkout (src/treecensus/cli.py not found)", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result, record, calls = execute(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}), file=sys.stderr)
    records = root / ".bench_build" / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record["calls_s"] = calls  # every call's latency, in the record file only
    (records / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
