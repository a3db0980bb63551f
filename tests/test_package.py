"""Package-level checks that span every module."""

import ast
import importlib
import importlib.util
import io
import pkgutil
import sys
import tokenize
from pathlib import Path

import ambo


def test_every_public_name_resolves():
    """Each name a module lists in ``__all__`` exists in that module."""
    declaring = 0
    for info in pkgutil.iter_modules(ambo.__path__):
        module = importlib.import_module(f"ambo.{info.name}")
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        declaring += 1
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"ambo.{info.name}.__all__ lists missing {missing}"
    assert declaring >= 11


def test_every_traced_layer_resolves(monkeypatch):
    """Each ``ambo`` target the benchmark tracer wraps still exists, as a
    module attribute or as ``Class.method``; a renamed layer would
    otherwise read 0 in the benchmark instead of failing here."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec.loader.exec_module(tracer)
    checked = 0
    for layer, owner_name, target in tracer.FUNCTIONS:
        if owner_name != "ambo" and not owner_name.startswith("ambo."):
            continue
        owner = importlib.import_module(owner_name)
        for attr in target.split("."):
            assert hasattr(owner, attr), f"{layer}: {owner_name}.{target} is gone"
            owner = getattr(owner, attr)
        assert callable(owner), f"{layer}: {owner_name}.{target} is not callable"
        checked += 1
    assert checked >= 15


# Entry points called from outside the package: the console script and
# the summary reader of the benchmark worker.
CALLED_FROM_OUTSIDE = {"cli.main", "io.read_summary"}


def test_every_definition_is_named_by_the_package():
    """Each module-level function or class, and each method, of ``ambo``
    is named in ``ambo`` code somewhere outside its own definition (a
    name token: strings such as ``__all__`` entries do not count), so no
    code exists that only its own tests call."""
    package = Path(ambo.__path__[0])
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    names = {
        module: [
            (token.string, token.start[0])
            for token in tokenize.generate_tokens(io.StringIO(text).readline)
            if token.type == tokenize.NAME
        ]
        for module, text in sources.items()
    }
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unnamed = []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if not isinstance(node, kinds):
                continue
            defs = [(node, node.name)]
            if isinstance(node, ast.ClassDef):
                defs += [
                    (m, f"{node.name}.{m.name}") for m in node.body if isinstance(m, kinds)
                ]
            for definition, qualified in defs:
                name = definition.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                span = range(definition.lineno, definition.end_lineno + 1)
                if not any(
                    string == name and not (other == module and line in span)
                    for other, tokens in names.items()
                    for string, line in tokens
                ):
                    unnamed.append(f"{module}.{qualified}")
    assert sorted(set(unnamed) - CALLED_FROM_OUTSIDE) == []


def test_no_module_imports_scipy_or_jsonschema():
    """The package runs on numpy and PyYAML alone; scipy and jsonschema
    serve the tests only, not even through a deferred import."""
    package = Path(ambo.__path__[0])
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] in ("scipy", "jsonschema") for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_evaluates_code():
    """No ``ambo`` module names ``eval``, ``exec``, ``compile`` or
    ``__import__``: the expression grammar walks its parsed tree, and
    nothing else runs text as code."""
    package = Path(ambo.__path__[0])
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id in ("eval", "exec", "compile", "__import__")
    ]
    assert found == []
