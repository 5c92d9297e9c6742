"""tools/allocbench.py reports allocation counts for both history shapes and
the working memory of fuse_parallel at each history length."""

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
        for key in ("faults_per_call", "faults_min", "faults_max"):
            assert shape[key] is None or shape[key] >= 0
        assert shape["wall_ms_per_call"] > 0
    assert report["env"]["rounds"] == 3
    peaks = report["fuse_peak_bytes"]
    assert set(peaks) == {"float32", "float64"}
    for by_length in peaks.values():
        assert set(by_length) == {"512", "2048", "8192"}
        assert all(peak > 0 for peak in by_length.values())
