"""tools/allocbench.py reports allocation counts for both history shapes."""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "tools" / "allocbench.py"


def test_quick_run_names_both_shapes():
    done = subprocess.run(
        [sys.executable, str(BENCH), "--quick"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(report["shapes"]) == {"drive-history", "stream-history"}
    for shape in report["shapes"].values():
        assert shape["tile_peak_bytes"] > 0
        for key in ("faults_per_call", "faults_min", "faults_max"):
            assert shape[key] is None or shape[key] >= 0
        assert shape["wall_ms_per_call"] > 0
    assert report["env"]["rounds"] == 3
