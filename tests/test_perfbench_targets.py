"""The benchmark resolves package attributes by name.

`perfbench/tracer.py` wraps each `(module, attr)` of its TARGETS with
`getattr`, so a rename in the package breaks `run.py --trace 1`, and
`perfbench/workloads.py` calls `module.attr` for the modules it imports from
`lindrive`, so a rename breaks every run. These tests read both by path and
check that every name still resolves.
"""

import ast
import importlib.util
from pathlib import Path

import lindrive

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


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


def test_workload_attributes_resolve():
    tree = ast.parse(WORKLOADS.read_text())
    # local name -> lindrive module, for every `from lindrive import ...`
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "lindrive"
        for alias in node.names
    }
    assert {"decoder", "fusion", "harness", "pdms"} <= set(modules.values())
    used = {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert used
    missing = [
        f"{mod}.{attr}" for mod, attr in sorted(used) if not hasattr(getattr(lindrive, mod), attr)
    ]
    assert not missing, f"perfbench workload attributes missing from lindrive: {missing}"
