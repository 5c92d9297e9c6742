"""tools/kernelbench.py times chunk_readouts over every case it names."""

import itertools
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "tools" / "kernelbench.py"


def test_quick_run_names_every_case():
    done = subprocess.run(
        [sys.executable, str(BENCH), "--quick"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
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
