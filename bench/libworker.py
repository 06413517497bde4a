"""Answer a pass of library queries in one warm process.

Usage: python3 libworker.py QUERIES.json RESULTS.json [SPANS.jsonl]

Each query is ``[function name, *arguments]`` naming a public function of
the ``treecensus`` package.  The worker times every call, reduces its
result to the digest the exact-answer gate compares, and writes one
record per query.  With a third argument it records spans (see
``tracer.py``) and writes them there.
"""

from __future__ import annotations

import json
import sys
import time

import workloads


def answer(treecensus, query):
    """Call the public function a query names, with typed arguments."""
    name, family, *rest = query
    args = [treecensus.FamilyId(family)]
    if rest and rest[0] in workloads.STATS:
        args.append(treecensus.StatKind(rest[0]))
        rest = rest[1:]
    kwargs = {"check": True} if name == "limit_probability" else {}
    return getattr(treecensus, name)(*args, *rest, **kwargs)


def main(argv) -> int:
    queries_path, results_path = argv[1], argv[2]
    spans_path = argv[3] if len(argv) > 3 else None
    import treecensus

    recorder = None
    if spans_path:
        import tracer

        recorder = tracer.install(tracer.Recorder())
    with open(queries_path, encoding="utf-8") as fh:
        queries = json.load(fh)
    results = []
    for call, query in enumerate(queries):
        if recorder:
            recorder.call_id = call
        start = time.perf_counter()
        try:
            result = answer(treecensus, query)
        except Exception as err:  # a failed query is recorded, the pass goes on
            seconds = time.perf_counter() - start
            results.append({"seconds": seconds, "digest": None, "error": f"{type(err).__name__}: {err}"})
            continue
        seconds = time.perf_counter() - start
        results.append({"seconds": seconds, "digest": workloads.digest(workloads.lib_value(result)), "error": None})
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    if recorder:
        recorder.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
