"""The traced benchmark patches package attributes from a fixed table.

`perfbench/tracer.py` wraps each `(module, attr)` of its TARGETS with
`getattr`, so a rename in the package breaks `run.py --trace 1`. This test
loads the table by path and checks that every entry still resolves.
"""

import importlib.util
from pathlib import Path

import lindrive

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        f"{mod}.{attr}"
        for mod, attr in tracer.TARGETS
        if not callable(getattr(getattr(lindrive, mod, None), attr, None))
    ]
    assert not missing, f"perfbench tracer targets missing from lindrive: {missing}"
