"""Every public name of the package has a caller outside its own definition.

A public module-level function or class of `src/lindrive` must be named
elsewhere in the package, in a file under `tools/`, `demos/` or
`perfbench/`, in `README.md`, or in an import of `tests/test_acceptance.py`.
A name that only its own tests use is dead weight in the package; a paper
feature that no code calls is named in the README.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lindrive"


def acceptance_imports() -> set[str]:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lindrive")
        for alias in node.names
    }


def test_every_public_name_has_a_caller():
    outside = [ROOT / "README.md"] + [
        path
        for folder in ("tools", "demos", "perfbench")
        for path in sorted((ROOT / folder).rglob("*"))
        if path.suffix in (".py", ".md")
    ]
    outside_text = "\n".join(path.read_text() for path in outside)
    imported = acceptance_imports()
    sources = {module: module.read_text() for module in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for module, source in sources.items():
        lines = source.splitlines()
        others = "\n".join(s for m, s in sources.items() if m != module) + outside_text
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            # the module without the definition itself
            rest = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno :])
            named = re.compile(rf"\b{node.name}\b")
            if node.name not in imported and not named.search(rest) and not named.search(others):
                unused.append(f"{module.stem}.{node.name}")
    assert not unused, f"public names no caller uses: {unused}"
