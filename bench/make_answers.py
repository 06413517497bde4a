"""Recompute the exact answers of every workload universe into answers.json.

Usage (from the repository root): PYTHONPATH=src python3 bench/make_answers.py

Run it only at a commit whose outputs are trusted (the tier-1 suite and
``treecensus verify`` pass): the benchmark fails every call whose value
differs from what this script stored.  Queries run in one warm process
through ``treecensus.cli.main`` and the library API; the values compared
do not depend on caching, only the timings do.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import libworker
import workloads

BENCH = Path(__file__).resolve().parent


def cli_answers(cli, queries, golden: Path) -> "dict[str, str]":
    out = {}
    for query in queries:
        args = [str(golden) if a == workloads.GOLDEN else a for a in query]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(args)
        if code != 0:
            raise SystemExit(f"{workloads.key(query)} exited with {code}")
        golden_text = golden.read_text(encoding="utf-8") if "--write-golden" in query else None
        value = workloads.cli_value(query, json.loads(buffer.getvalue()), golden_text)
        out[workloads.key(query)] = workloads.digest(value)
    return out


def main() -> int:
    import treecensus
    import treecensus.cli

    answers = {}
    with tempfile.TemporaryDirectory() as tmp:
        golden = Path(tmp) / "golden.csv"
        for workload in workloads.WORKLOADS:
            queries = workloads.universe(workload)
            print(f"{workload}: {len(queries)} queries", file=sys.stderr, flush=True)
            if workload in workloads.CLI_WORKLOADS:
                answers[workload] = cli_answers(treecensus.cli, queries, golden)
            else:
                answers[workload] = {
                    workloads.key(q): workloads.digest(workloads.lib_value(libworker.answer(treecensus, q)))
                    for q in queries
                }
    (BENCH / "answers.json").write_text(json.dumps(answers, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
