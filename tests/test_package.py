"""Package-level checks that span every module."""

import importlib
import importlib.util
import pkgutil
import sys
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
