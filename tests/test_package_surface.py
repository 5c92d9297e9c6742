"""Every public name and option of the package has a caller outside its own
definition.

A public module-level function or class of `src/lindrive` must be named in
the code of another package module (docstrings and comments do not count),
in a file under `tools/`, `demos/` or `perfbench/`, in `README.md`, or in an
import of `tests/test_acceptance.py`. A name that only its own tests use is
dead weight in the package; a paper feature that no code calls is named in
the README.

A defaulted parameter of a public function or method must be passed, by
keyword or by position, by a call in the package, `tools/`, `demos/`,
`perfbench/` or `tests/` outside its own definition. An option that no call
sets is a constant.

Every package name the README names in backticks, as `lindrive.<module>`
or `<module>.<name>[.<attr>]`, exists.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lindrive"
CALLERS = [PACKAGE] + [ROOT / folder for folder in ("tools", "demos", "perfbench", "tests")]


def acceptance_imports() -> set[str]:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lindrive")
        for alias in node.names
    }


def without_docstrings(tree: ast.Module) -> ast.Module:
    """`tree` with the docstring of every module, class and function removed."""
    for node in ast.walk(tree):
        scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, scopes) and ast.get_docstring(node) is not None:
            node.body = node.body[1:] or [ast.Pass()]
    return tree


def test_every_public_name_has_a_caller():
    outside = [ROOT / "README.md"] + [
        path
        for folder in ("tools", "demos", "perfbench")
        for path in sorted((ROOT / folder).rglob("*"))
        if path.suffix in (".py", ".md")
    ]
    outside_text = "\n".join(path.read_text() for path in outside)
    imported = acceptance_imports()
    # the code of each module, unparsed without docstrings or comments
    bodies = {
        module: without_docstrings(ast.parse(module.read_text())).body
        for module in sorted(PACKAGE.glob("*.py"))
    }
    texts = {module: [ast.unparse(node) for node in body] for module, body in bodies.items()}
    unused = []
    for module, body in bodies.items():
        others = "\n".join("\n".join(t) for m, t in texts.items() if m != module) + outside_text
        for i, node in enumerate(body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            # the module without the definition itself
            rest = "\n".join(texts[module][:i] + texts[module][i + 1 :])
            named = re.compile(rf"\b{node.name}\b")
            if node.name not in imported and not named.search(rest) and not named.search(others):
                unused.append(f"{module.stem}.{node.name}")
    assert not unused, f"public names no caller uses: {unused}"


def public_functions():
    """(module, qualified name, FunctionDef, is method) for every public
    module-level function and every public method of a public class."""
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(module.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield module, node.name, node, False
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        yield module, f"{node.name}.{fn.name}", fn, True


def defaulted(fn: ast.FunctionDef, is_method: bool) -> dict[str, int | None]:
    """Each defaulted parameter of `fn` and its position in a call (None
    for keyword-only ones); a method's self or cls takes no position."""
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    positional = fn.args.posonlyargs + fn.args.args
    skip = 1 if is_method and not static else 0
    first = len(positional) - len(fn.args.defaults)
    out = {a.arg: i - skip for i, a in enumerate(positional) if i >= first}
    keyword_only = zip(fn.args.kwonlyargs, fn.args.kw_defaults)
    out.update((a.arg, None) for a, default in keyword_only if default is not None)
    return out


def test_every_option_is_set_by_a_call():
    calls = []  # (path, line, called name, positions passed, keywords passed)
    for folder in CALLERS:
        for path in sorted(folder.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                n_args = float("inf") if starred else len(node.args)
                calls.append((path, node.lineno, name, n_args, keywords))
    unset = []
    for module, qualname, fn, is_method in public_functions():
        params = defaulted(fn, is_method)
        for path, line, name, n_args, keywords in calls:
            if name != fn.name or (path == module and fn.lineno <= line <= fn.end_lineno):
                continue
            params = {
                p: pos for p, pos in params.items()
                if p not in keywords and None not in keywords and (pos is None or pos >= n_args)
            }
        unset += [f"{module.stem}.{qualname}.{p}" for p in params]
    assert not unset, f"defaulted parameters no call sets: {unset}"


def test_readme_references_resolve():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    reference = re.compile(rf"`(?:lindrive\.(\w+)|({'|'.join(modules)}))((?:\.\w+)*)`")
    missing = []
    for match in reference.finditer((ROOT / "README.md").read_text()):
        try:
            target = importlib.import_module(f"lindrive.{match[1] or match[2]}")
        except ModuleNotFoundError:
            missing.append(match[0])
            continue
        for attr in match[3].split(".")[1:]:
            if not hasattr(target, attr):
                missing.append(match[0])
                break
            target = getattr(target, attr)
    assert not missing, f"README names that do not exist: {missing}"
