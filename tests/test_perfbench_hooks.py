import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
