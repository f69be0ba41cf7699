"""Every name listed in a module's ``__all__`` exists in that module."""
from __future__ import annotations

import importlib
import pkgutil

import pesin_coder


def test_every_exported_name_resolves():
    exported = 0
    stale = []
    for info in pkgutil.iter_modules(pesin_coder.__path__):
        module = importlib.import_module(f"pesin_coder.{info.name}")
        for name in getattr(module, "__all__", ()):
            exported += 1
            if not hasattr(module, name):
                stale.append(f"{info.name}.{name}")
    assert exported > 0
    assert stale == []
