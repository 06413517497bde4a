"""Per-layer metrics computed from the span files of traced passes.

* ``<name>.calls`` counts every call of a wrapped function.
* ``<name>.busy_s`` is the inclusive time of its outermost calls (a call
  inside another call of the same function is not counted twice).
* ``<layer>.self_s`` is the time spent in the layer's spans minus the time
  of their wrapped child spans, i.e. busy time less the time of wrapped
  children in other layers.
* ``quadratic`` and ``errata`` have no spans: their time lands in the
  caller's ``self_s``.
"""

from __future__ import annotations

import json
from pathlib import Path

_COUNTED = (
    "series.sqrt", "series.div", "series.mul",
    "bivariate.bivariate_series",
    "ratfunc.fit_rational",
    *("families." + fn for fn in (
        "counting_series", "multiplier_gf", "fixed_point_solve", "root_stat_gf",
        "census_coefficient", "census_series", "total_vertices", "total_leaves",
        "finite_probability",
    )),
    "asymptotics.limit_probability", "asymptotics.richardson_check", "asymptotics.tightness_report",
    "oracle.verify_family",
    "cli.main",
)
_BUSY_ONLY = ("ratfunc.expand", "ratfunc.eval", "oracle.enumerate_trees", "oracle.aggregate_census")
_SELF_LAYERS = ("cli", "series", "bivariate", "ratfunc", "families", "asymptotics", "oracle")

# metric name -> (unit, span names it needs)
METRICS: "dict[str, tuple[str, tuple[str, ...]]]" = {}
for _name in _COUNTED:
    METRICS[_name + ".calls"] = ("count", (_name,))
    METRICS[_name + ".busy_s"] = ("s", (_name,))
for _name in _BUSY_ONLY:
    METRICS[_name + ".busy_s"] = ("s", (_name,))
for _layer in _SELF_LAYERS:
    METRICS[_layer + ".self_s"] = ("s", ())
METRICS.update({
    "render.busy_s": ("s", ()),
    "series.max_order": ("count", ("series.sqrt", "series.div", "series.mul")),
    "bivariate.max_cells": ("count", ("bivariate.bivariate_series",)),
    "ratfunc.fit_rational.ok_ratio": ("1", ("ratfunc.fit_rational",)),
    "families.root_stat_gf.hit_ratio": ("1", ("families.root_stat_gf", "families.root_stat_gf.hit_ratio")),
    "oracle.trees": ("count", ("oracle.enumerate_trees",)),
    "oracle.checks": ("count", ("oracle.verify_family",)),
    "trace.overhead_ratio": ("1", ()),
})


def read_spans(path: Path) -> "tuple[list[str], list[dict]]":
    with open(path, encoding="utf-8") as fh:
        missing = json.loads(fh.readline())["missing"]
        return missing, [json.loads(line) for line in fh]


class Totals:
    """Sums over the span files of a run's traced passes."""

    def __init__(self):
        self.calls: "dict[str, int]" = {}
        self.busy: "dict[str, float]" = {}
        self.self_s: "dict[str, float]" = {}
        self.layer_busy: "dict[str, float]" = {}
        self.counters: "dict[str, float]" = {}
        self.maxima: "dict[str, int]" = {}
        self.missing: "set[str]" = set()

    def add_file(self, path: Path) -> None:
        missing, spans = read_spans(path)
        self.missing.update(missing)
        child_time = [0.0] * len(spans)
        above: "list[frozenset]" = []  # names and layers of each span's ancestors
        for s in spans:
            parent = s["parent"]
            duration = s["end"] - s["start"]
            if parent is None:
                chain = frozenset()
            else:
                p = spans[parent]
                chain = above[parent] | {p["name"], "layer:" + p["layer"]}
                child_time[parent] += duration
            above.append(chain)
            name, layer = s["name"], s["layer"]
            self.calls[name] = self.calls.get(name, 0) + 1
            if name not in chain:
                self.busy[name] = self.busy.get(name, 0.0) + duration
            if "layer:" + layer not in chain:
                self.layer_busy[layer] = self.layer_busy.get(layer, 0.0) + duration
            for attr in ("trees", "checks"):
                if attr in s:
                    self.counters[attr] = self.counters.get(attr, 0) + s[attr]
            if "hit" in s:
                self.counters["hits"] = self.counters.get("hits", 0) + s["hit"]
            if name == "ratfunc.fit_rational":
                self.counters["fits_ok"] = self.counters.get("fits_ok", 0) + s["ok"]
            for attr, metric in (("order", "series.max_order"), ("cells", "bivariate.max_cells")):
                if attr in s:
                    self.maxima[metric] = max(self.maxima.get(metric, 0), s[attr])
        for s, inner in zip(spans, child_time):
            layer = s["layer"]
            self.self_s[layer] = self.self_s.get(layer, 0.0) + (s["end"] - s["start"] - inner)

    def metrics(self, passes: int, overhead_ratio: float) -> "dict[str, float]":
        """Every per-layer metric, as a mean per traced pass (maxima as maxima)."""
        out = {}
        for name in _COUNTED:
            out[name + ".calls"] = self.calls.get(name, 0) / passes
        for name in _COUNTED + _BUSY_ONLY:
            out[name + ".busy_s"] = self.busy.get(name, 0.0) / passes
        for layer in _SELF_LAYERS:
            out[layer + ".self_s"] = self.self_s.get(layer, 0.0) / passes
        fits = self.calls.get("ratfunc.fit_rational", 0)
        roots = self.calls.get("families.root_stat_gf", 0)
        out.update({
            "render.busy_s": self.layer_busy.get("render", 0.0) / passes,
            "series.max_order": self.maxima.get("series.max_order", 0),
            "bivariate.max_cells": self.maxima.get("bivariate.max_cells", 0),
            "ratfunc.fit_rational.ok_ratio": self.counters.get("fits_ok", 0) / fits if fits else 0.0,
            "families.root_stat_gf.hit_ratio": self.counters.get("hits", 0) / roots if roots else 0.0,
            "oracle.trees": self.counters.get("trees", 0) / passes,
            "oracle.checks": self.counters.get("checks", 0) / passes,
            "trace.overhead_ratio": overhead_ratio,
        })
        return {name: out[name] for name in METRICS}

    def missing_metrics(self) -> "list[str]":
        """Per-layer metrics whose function the program no longer has."""
        return sorted(m for m, (_, needs) in METRICS.items() if self.missing.intersection(needs))

    def self_shares(self) -> "dict[str, float]":
        """Each layer's share of the summed self time of all layers."""
        total = sum(self.self_s.values())
        return {layer: round(t / total, 4) for layer, t in sorted(self.self_s.items())} if total else {}
