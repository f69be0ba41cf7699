"""Every name listed in a module's ``__all__`` exists in that module, and
every module imports with numpy as its only third-party dependency."""
from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_every_module_imports_without_scipy():
    # a fresh interpreter, so that no scipy import from another test hides one
    script = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['scipy'] = None\n"
        "import pesin_coder\n"
        "for info in pkgutil.iter_modules(pesin_coder.__path__):\n"
        "    importlib.import_module('pesin_coder.' + info.name)\n")
    src = os.path.dirname(pesin_coder.__path__[0])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
