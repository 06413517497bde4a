"""Tests of the benchmark itself (not of treecensus).

Run from the repository root:  python3 -m unittest discover -s bench/tests
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def answers():
    with open(BENCH / "answers.json", encoding="utf-8") as fh:
        return json.load(fh)


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_identical_list(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(workloads.generate(workload, 7), workloads.generate(workload, 7))

    def test_other_seed_gives_other_list_from_the_same_universe(self):
        for workload in workloads.WORKLOADS:
            universe = set(workloads.universe(workload))
            first, second = workloads.generate(workload, 1), workloads.generate(workload, 2)
            self.assertNotEqual(first, second)
            self.assertEqual(len(first), len(second))
            self.assertTrue(universe.issuperset(first + second))

    def test_every_seed_draws_the_same_number_of_calls_from_each_cost_class(self):
        limits_class = {q: name for name, qs in workloads._limits_classes().items() for q in qs}

        def verify_class(q):
            if "--family" not in q:
                return "full"
            family, n_max = q[q.index("--family") + 1], int(q[q.index("--n-max") + 1])
            return (family, "golden" if "--write-golden" in q or "--golden" in q
                    else "budget" if n_max == workloads.BUDGETS[family] - 1 else "small")

        def fixed_class(q):
            return (q[1], "mid" if q[2] in workloads._FP_MID else "high")

        for workload, cost_class in (("limits", limits_class.get), ("verify", verify_class),
                                     ("fixed-point", fixed_class)):
            counts = [
                sorted(map(str, collections.Counter(map(cost_class, workloads.generate(workload, seed))).items()))
                for seed in range(1, 21)
            ]
            self.assertTrue(all(c == counts[0] for c in counts), workload)

    def test_every_universe_query_has_a_stored_answer(self):
        stored = answers()
        for workload in workloads.WORKLOADS:
            keys = {workloads.key(q) for q in workloads.universe(workload)}
            self.assertEqual(keys, set(stored[workload]))

    def test_inputs_are_valid_and_within_budget(self):
        for query in workloads.universe("verify"):
            if "--n-max" in query:
                family = query[query.index("--family") + 1]
                n_max = int(query[query.index("--n-max") + 1])
                self.assertTrue(1 <= n_max <= workloads.BUDGETS[family], query)
        for query in workloads.universe("limits"):
            if "--k" in query:
                bounds = [int(b) for b in query[query.index("--k") + 1].split("..")]
                self.assertTrue(1 <= bounds[0] <= bounds[-1], query)
            else:
                self.assertGreaterEqual(int(query[query.index("--k-max") + 1]), 1)
        for workload in workloads.LIB_WORKLOADS:
            for query in workloads.universe(workload):
                self.assertTrue(all(v >= 1 for v in query if isinstance(v, int)), query)


class Metrics(unittest.TestCase):
    def test_metric_names_and_units(self):
        table = dict(run.END_TO_END)
        table.update({name: unit for name, (unit, _) in layers.METRICS.items()})
        for name, unit in table.items():
            self.assertRegex(name, NAME)
            self.assertTrue(UNIT.fullmatch(unit), (name, unit))

    def test_benchmark_json_lists_the_metrics_the_runner_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            {name: unit for name, (unit, _) in layers.METRICS.items()},
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_tail_percentile_leaves_ten_calls_beyond_it(self):
        for workload in workloads.WORKLOADS:
            n = workloads.MIN_PASSES[workload] * len(workloads.generate(workload, 0))
            p = workloads.tail_percentile(workload)
            values = list(range(n))
            beyond = sum(v > run.tail(values, p) for v in values)
            self.assertEqual(beyond, 10, workload)

    def test_missing_function_is_reported_not_fatal(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spans.jsonl"
            path.write_text(json.dumps({"missing": ["ratfunc.fit_rational"]}) + "\n", encoding="utf-8")
            totals = layers.Totals()
            totals.add_file(path)
            values = totals.metrics(1, 0.0)
        self.assertEqual(set(values), set(layers.METRICS))
        self.assertEqual(values["ratfunc.fit_rational.calls"], 0)
        self.assertIn("ratfunc.fit_rational.ok_ratio", totals.missing_metrics())


class Gate(unittest.TestCase):
    QUERY = ("table", "--family", "motzkin", "--stat", "vertices", "--k", "1..4", "--format", "json")

    def value_digest(self):
        import treecensus.cli

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            self.assertEqual(treecensus.cli.main(list(self.QUERY)), 0)
        return workloads.digest(workloads.cli_value(self.QUERY, json.loads(buffer.getvalue())))

    def test_stored_answer_passes_and_corrupted_answer_fails(self):
        stored = answers()["limits"]
        found = self.value_digest()
        self.assertTrue(workloads.check(self.QUERY, found, stored))
        corrupted = dict(stored)
        text = corrupted[workloads.key(self.QUERY)]
        corrupted[workloads.key(self.QUERY)] = ("0" if text[0] != "0" else "1") + text[1:]
        self.assertFalse(workloads.check(self.QUERY, found, corrupted))

    def test_query_without_stored_answer_fails(self):
        self.assertFalse(workloads.check(("table",), "0" * 20, {}))

    def test_verify_with_zero_checks_is_a_failure(self):
        payload = {
            "families": [{"family": "motzkin", "n_max": 0, "checks": 0, "passed": True, "mismatches": []}],
            "golden": None,
            "passed": True,
        }
        with self.assertRaises(ValueError):
            workloads.cli_value(("verify", "--family", "motzkin", "--n-max", "0"), payload)


class TracedCall(unittest.TestCase):
    def test_spans_cover_the_cli_copies_of_wrapped_functions(self):
        with tempfile.TemporaryDirectory() as tmp:
            spans = Path(tmp) / "spans.jsonl"
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), BENCH_SPANS=str(spans), BENCH_CALL="3")
            proc = subprocess.run(
                [sys.executable, str(BENCH / "cli_traced.py"), "prob", "--family", "schroeder",
                 "--stat", "vertices", "--k", "2", "--format", "json"],
                env=env, capture_output=True, text=True, timeout=120,
            )
            self.assertEqual(proc.returncode, 0, proc.stderr)
            missing, records = layers.read_spans(spans)
        self.assertEqual(missing, [])
        names = {r["name"] for r in records}
        # cli.py calls its own copy of limit_probability and render helpers
        self.assertTrue({"cli.main", "asymptotics.limit_probability", "render.to_json",
                         "families.root_stat_gf", "ratfunc.fit_rational"} <= names)
        self.assertEqual({r["call"] for r in records}, {"3"})
        self.assertIsNone(records[0]["parent"])


if __name__ == "__main__":
    unittest.main()
