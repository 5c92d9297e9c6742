"""tools/bitprobe.py prints one stable SHA-256 digest of the numeric paths."""

import re
import subprocess
import sys
from pathlib import Path

PROBE = Path(__file__).resolve().parents[1] / "tools" / "bitprobe.py"


def run_probe():
    done = subprocess.run(
        [sys.executable, str(PROBE), "--tiny"], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_tiny_digest_is_stable():
    first = run_probe()
    assert re.fullmatch(r"[0-9a-f]{64}", first)
    assert run_probe() == first
