"""tools/kernelbench.py times chunk_readouts over every case it names."""

import itertools
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "tools" / "kernelbench.py"


def run_quick(*args):
    done = subprocess.run(
        [sys.executable, str(BENCH), "--quick", *args], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_quick_run_names_every_case():
    report = run_quick()
    want = {
        f"{dtype}/d{d}h{heads}/T{T}"
        for dtype, (d, heads), T in itertools.product(
            ("float32", "float64"), ((64, 1), (64, 4), (16, 4)), (8, 17, 32, 512)
        )
    }
    assert set(report["cases"]) == want
    for case in report["cases"].values():
        assert 0 < case["min_us"] <= case["median_us"]
    assert report["env"]["rounds"] == 3


def test_against_times_the_other_tree():
    # this checkout against itself: both trees time every case, one ratio
    # per round
    report = run_quick("--against", str(ROOT))
    for case in report["cases"].values():
        assert 0 < case["against"]["min_us"] <= case["against"]["median_us"]
        assert case["pair_ratio"] > 0
        assert 0 <= case["wins"] <= 3
