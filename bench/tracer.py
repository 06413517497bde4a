"""Span recorder for the traced run, installed from outside the package.

``install`` wraps the public functions and series methods listed in
``TARGETS``.  It rebinds every name that refers to a wrapped object, in
every ``treecensus`` module and class, because ``cli``, ``oracle`` and
``asymptotics`` hold their own ``from .families import ...`` copies and
``PowerSeries`` aliases ``mul``/``div`` as ``__mul__``/``__truediv__``.
A target that no longer exists is reported as missing instead of failing,
so the traced run survives refactors that move or delete functions.

Spans (id, parent, call id, name, layer, start, end, attributes) are kept
in memory and written as JSON lines by ``Recorder.dump`` when the process
ends; ``layers.py`` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _order(result):
    return {"order": result.truncation_order}


def _cells(result):
    return {"cells": result.order_x * result.order_y}


def _trees(result):
    return {"trees": len(result)}


def _checks(result):
    return {"checks": result.checks}


# (span name, layer, module, attribute path, attributes of a result)
TARGETS = (
    ("cli.main", "cli", "cli", "main", None),
    *(("render." + fn, "render", "render", fn, None) for fn in (
        "to_decimal", "decimal_string", "fraction_string", "exact_json",
        "matches_printed", "to_markdown", "to_csv", "to_json",
    )),
    ("series.sqrt", "series", "series", "PowerSeries.sqrt", _order),
    ("series.div", "series", "series", "PowerSeries.div", _order),
    ("series.mul", "series", "series", "PowerSeries.mul", _order),
    ("bivariate.bivariate_series", "bivariate", "families", "bivariate_series", _cells),
    *(("bivariate." + m, "bivariate", "bivariate", "BivariateSeries." + m, None) for m in (
        "mul", "sqrt", "div", "coeff_y", "at_y_one", "dy_at_y_one",
    )),
    ("ratfunc.fit_rational", "ratfunc", "ratfunc", "fit_rational", None),
    ("ratfunc.expand", "ratfunc", "ratfunc", "RationalFunction.expand", None),
    ("ratfunc.eval", "ratfunc", "ratfunc", "RationalFunction.eval", None),
    *(("families." + fn, "families", "families", fn, None) for fn in (
        "counting_series", "multiplier_gf", "fixed_point_solve", "root_stat_gf",
        "census_coefficient", "census_series", "total_vertices", "total_leaves",
        "finite_probability",
    )),
    *(("asymptotics." + fn, "asymptotics", "asymptotics", fn, None) for fn in (
        "limit_probability", "richardson_check", "tightness_report",
    )),
    ("oracle.enumerate_trees", "oracle", "oracle", "enumerate_trees", _trees),
    ("oracle.aggregate_census", "oracle", "oracle", "aggregate_census", None),
    ("oracle.verify_family", "oracle", "oracle", "verify_family", _checks),
)

# Spans whose result tells whether an lru_cache answered the call.
CACHED = {"families.root_stat_gf"}


class Recorder:
    """Spans of one process; ``call_id`` names the benchmark call in progress."""

    def __init__(self, call_id=None):
        self.call_id = call_id
        self.spans: "list[list]" = []
        self.stack: "list[int]" = []
        self.missing: "list[str]" = []

    def wrap(self, name, layer, fn, attrs):
        spans, stack = self.spans, self.stack
        cache_info = getattr(fn, "cache_info", None) if name in CACHED else None
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else None, recorder.call_id, name, layer, 0.0, 0.0, {}]
            spans.append(span)
            stack.append(sid)
            hits = cache_info().hits if cache_info else 0
            span[5] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[7]["ok"] = False
                raise
            finally:
                span[6] = time.perf_counter()
                stack.pop()
            span[7]["ok"] = True
            if cache_info:
                span[7]["hit"] = cache_info().hits > hits
            if attrs:
                span[7].update(attrs(result))
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"missing": self.missing}) + "\n")
            for sid, parent, call, name, layer, start, end, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "call": call, "name": name,
                    "layer": layer, "start": start, "end": end, **attrs,
                }) + "\n")


def _rebind(original, wrapper) -> None:
    """Replace every binding of ``original`` in the package's modules and classes."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "treecensus" or mod_name.startswith("treecensus.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        setattr(value, cattr, wrapper)


def install(recorder: Recorder, package: str = "treecensus") -> Recorder:
    """Wrap every target that exists; record the others as missing."""
    for name, layer, module_name, path, attrs in TARGETS:
        try:
            obj = importlib.import_module(f"{package}.{module_name}")
            for part in path.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            recorder.missing.append(name)
            continue
        if name in CACHED and not hasattr(obj, "cache_info"):
            recorder.missing.append(name + ".hit_ratio")
        _rebind(obj, recorder.wrap(name, layer, obj, attrs))
    return recorder
