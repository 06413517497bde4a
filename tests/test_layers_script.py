"""The per-layer baseline script runs one entry and writes every field,
and every entry names code and flags that exist."""

import ast
import builtins
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from treecensus import cli

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "layers.py"
CHEAP = "census_coefficient(motzkin, leaves, 3, 600)"


def test_one_cheap_layer_writes_every_field(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(SCRIPT), "--only", CHEAP, "--repeats", "1", "--out", str(out)], check=True)
    report = json.loads(out.read_text())
    assert set(report) == {
        "python", "nproc", "revision", "dirty", "repeats", "loadavg_before", "loadavg_after", "calibration", "entries"
    }
    assert report["python"] == ".".join(map(str, sys.version_info[:3])) and report["nproc"] >= 1
    assert report["revision"] is None or len(report["revision"]) == 40
    assert report["repeats"] == 1 and len(report["loadavg_before"]) == len(report["loadavg_after"]) == 3
    assert list(report["entries"]) == [CHEAP]
    calibration, entry = report["calibration"], report["entries"][CHEAP]
    assert set(calibration) == {"median_s", "min_s", "runs_s"}
    assert set(entry) == {"median_s", "min_s", "runs_s", "peak_rss_median_mb", "peak_rss_runs_mb"}
    for summary in (calibration, entry):
        assert len(summary["runs_s"]) == 1 and 0 < summary["min_s"] == summary["median_s"] < 1
    assert len(entry["peak_rss_runs_mb"]) == 1 and 1 < entry["peak_rss_runs_mb"][0] == entry["peak_rss_median_mb"] < 200


def test_an_unknown_entry_exits_2_and_names_the_entries(tmp_path):
    out = tmp_path / "bench.json"
    done = subprocess.run([sys.executable, str(SCRIPT), "--only", "nope", "--out", str(out)], capture_output=True, text=True)
    assert done.returncode == 2 and not out.exists()
    assert "invalid choice: 'nope'" in done.stderr and CHEAP in done.stderr


def _script():
    spec = importlib.util.spec_from_file_location("layers_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_compiles_and_names_what_exists():
    # a renamed function fails here, not only when the script runs in CI
    problems = []
    for name, (setup, statement) in _script().LAYERS.items():
        bound, loaded = set(dir(builtins)), set()
        for source in (setup, statement):
            compile(source, name, "exec")
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.ImportFrom) and node.module in ("treecensus", "treecensus.families"):
                    module = importlib.import_module(node.module)
                    problems += [f"{name}: {node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
                    bound.update(a.asname or a.name for a in node.names)
                elif isinstance(node, ast.Import):
                    problems += [f"{name}: {a.name}" for a in node.names if importlib.util.find_spec(a.name) is None]
                elif isinstance(node, ast.Name):
                    (bound if isinstance(node.ctx, ast.Store) else loaded).add(node.id)
        problems += [f"{name}: {unbound} is not bound" for unbound in sorted(loaded - bound)]
    assert problems == []


def test_every_cli_entry_parses():
    parser = cli.build_parser()
    for argv in _script().CLI.values():
        parser.parse_args(argv)  # an unknown flag or choice exits 2 here
