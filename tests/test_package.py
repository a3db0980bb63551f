"""Package-level checks that span every module."""

import importlib
import pkgutil

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
