import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "lensgrid"


def test_every_traced_binding_resolves(monkeypatch):
    # perfbench/run.py --trace 1 wraps each (module, attribute) of LAYERS in
    # place, so a renamed or deleted binding would break the traced run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert Path(tracing.__file__).parent == PERFBENCH
    missing = [(layer, module, attr)
               for layer, bindings in tracing.LAYERS.items()
               for module, attr, _ in bindings
               if not callable(getattr(importlib.import_module(
                   "lensgrid." + module), attr, None))]
    assert missing == []


def unused_imports(source):
    """Names a module's imports bind that its code never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_unused_imports_but_the_traced_bindings(monkeypatch):
    # an import nothing reads is dead code, unless the tracer wraps the
    # module's binding of it
    assert unused_imports("from __future__ import annotations\n"
                          "from .a import b, c as d\nimport e.f\n"
                          "e.f(d)\n") == {"b"}
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("tracing").LAYERS
    traced = {(module, attr)
              for bindings in layers.values() for module, attr, _ in bindings}
    unused = {(path.stem, name)
              for path in PACKAGE.glob("*.py") if path.stem != "__init__"
              for name in unused_imports(path.read_text())}
    assert unused - traced == set()


def test_no_unused_imports_in_tests_or_tools():
    # the tracer wraps no binding of these files, so nothing is exempt
    unused = {(path.parent.name, path.stem, name)
              for folder in ("tests", "tools")
              for path in (ROOT / folder).glob("*.py")
              for name in unused_imports(path.read_text())}
    assert unused == set()
