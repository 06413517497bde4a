"""The per-layer baseline script runs one entry and writes every field."""

import json
import subprocess
import sys
from pathlib import Path

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
    for summary in (report["calibration"], report["entries"][CHEAP]):
        assert set(summary) == {"median_s", "min_s", "runs_s"} and len(summary["runs_s"]) == 1
        assert 0 < summary["min_s"] == summary["median_s"] < 1


def test_an_unknown_entry_exits_2_and_names_the_entries(tmp_path):
    out = tmp_path / "bench.json"
    done = subprocess.run([sys.executable, str(SCRIPT), "--only", "nope", "--out", str(out)], capture_output=True, text=True)
    assert done.returncode == 2 and not out.exists()
    assert "invalid choice: 'nope'" in done.stderr and CHEAP in done.stderr
