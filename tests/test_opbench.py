"""tools/opbench.py counts the calls of every op and times them."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "tools" / "opbench.py"


def run_quick(*args):
    done = subprocess.run(
        [sys.executable, str(BENCH), "--quick", *args], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_quick_run_names_every_op():
    report = run_quick()
    assert set(report["ops"]) == {"drive", "stream", "resume", "drive_history", "stream_history"}
    for op in report["ops"].values():
        assert op["this"]["calls"]["python"] > 0
        assert op["this"]["calls"]["c"] > 0
        assert op["this"]["ms_per_op"] > 0
        assert op["this"]["minflt_per_op"] >= 0
    assert report["env"]["passes"] == 2


def test_against_loads_the_other_tree():
    # this checkout against itself: the same calls, one ratio per pass
    report = run_quick("--against", str(ROOT))
    for op in report["ops"].values():
        assert op["against"]["calls"] == op["this"]["calls"]
        assert op["pair_ratio"] > 0
        assert 0 <= op["wins"] <= 2
