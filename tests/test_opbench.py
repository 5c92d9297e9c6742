"""tools/opbench.py counts the calls of every op, times them, counts their
page faults and reports the working memory of the history rebuild."""

import importlib.util
import itertools
import json
import subprocess
import sys
from pathlib import Path

import lindrive

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "tools" / "opbench.py"
KERNEL_OPS = {
    f"kernel/{dtype}/d{d}h{heads}/T{T}"
    for dtype, (d, heads), T in itertools.product(
        ("float32", "float64"), ((64, 1), (64, 4), (16, 4)), (8, 17, 32, 512)
    )
}


def run_quick(*args):
    done = subprocess.run(
        [sys.executable, str(BENCH), "--quick", *args], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_tree(report, tree):
    for op in report["ops"].values():
        cost = op[tree]
        assert cost["calls"]["python"] > 0
        assert cost["calls"]["c"] > 0
        assert 0 < cost["ms_min"] <= cost["ms_per_op"]
        assert cost["sys_ms_per_op"] >= 0
        assert 0 <= cost["minflt_min"] <= cost["minflt_per_op"] <= cost["minflt_max"]
    peaks = report["fuse_peak_bytes"][tree]
    assert set(peaks) == {"float32", "float64"}
    for by_length in peaks.values():
        assert set(by_length) == {"512", "2048", "8192"}
        assert all(peak > 0 for peak in by_length.values())


def test_quick_run_names_every_op():
    report = run_quick()
    assert set(report["ops"]) == {"drive", "stream", "resume", "drive_history", "stream_history"} | KERNEL_OPS
    check_tree(report, "this")
    assert set(report["fuse_peak_bytes"]) == {"this"}
    assert report["env"]["passes"] == 2


def test_against_loads_the_other_tree():
    # this checkout against itself: the same calls, one ratio per pass
    report = run_quick("--against", str(ROOT))
    assert KERNEL_OPS <= set(report["ops"])
    check_tree(report, "this")
    check_tree(report, "against")
    for op in report["ops"].values():
        assert op["against"]["calls"] == op["this"]["calls"]
        assert op["pair_ratio"] > 0
        assert 0 <= op["wins"] <= 2


def test_workloads_bind_their_tree():
    # a bad swap would A/B a tree against itself and still print ratios
    spec = importlib.util.spec_from_file_location("opbench", BENCH)
    opbench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(opbench)
    try:
        other = opbench.load_tree(ROOT, "lindrive_other")
        workloads = opbench.load_workloads(other)
        assert workloads.fusion is other.fusion and workloads.decoder is other.decoder
        assert workloads.fusion is not lindrive.fusion
        assert sys.modules["lindrive"] is lindrive
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == "lindrive_other"]:
            del sys.modules[name]
