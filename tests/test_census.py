"""The source census on a small canned tree: which public names only tests
read, which member names classes share, where BLAS can be reached, and which
imports go unread."""
from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "census", ROOT / "tools" / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

MOD_A = '''\
import os
import json

__all__ = ["used"]


def used(x=1):
    return json.dumps(x)


def only_tests():
    return None


class A:
    shared: int

    def read(self):
        return self

    def unread(self):
        return self @ self
'''

MOD_B = '''\
import numpy as np

from .mod_a import used


class B:
    shared: int

    def read(self):
        return used() + np.linalg.norm(self.shared)


def go(b):
    return b.read() + b.shared
'''

TEST_X = '''\
from pkg.mod_a import only_tests


def test_it():
    only_tests()
'''


def canned_tree(root: Path) -> dict:
    """The census of a checkout with two modules, one test and empty tools
    and perfbench directories."""
    files = {"src/pkg/mod_a.py": MOD_A, "src/pkg/mod_b.py": MOD_B,
             "tests/test_x.py": TEST_X, "tools/.keep": "",
             "perfbench/.keep": ""}
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return census.census(root / "src" / "pkg", root / "tests")


def test_counts_lines_and_defaulted_parameters(tmp_path):
    report = canned_tree(tmp_path)
    assert report["src_lines"] == {"mod_a.py": 22, "mod_b.py": 14}
    assert report["src_lines_total"] == 36
    assert report["test_lines_total"] == 5
    assert report["defaulted_parameter_names"] == ["mod_a.used(x)"]


def test_test_only_public(tmp_path):
    # only_tests is read by a test alone, go by nothing; a member counts as
    # read when any object loads its name, so A.shared rides on b.shared
    report = canned_tree(tmp_path)
    assert report["test_only_public"] == ["mod_a.only_tests", "mod_b.go",
                                          "mod_a.A.unread"]


def test_shared_members(tmp_path):
    # the members that test_only_public can miss, with their classes
    report = canned_tree(tmp_path)
    assert report["shared_members"] == {"read": ["mod_a.A", "mod_b.B"],
                                        "shared": ["mod_a.A", "mod_b.B"]}


def test_blas_sites(tmp_path):
    report = canned_tree(tmp_path)
    assert report["blas_sites"] == ["mod_a.py:22 @",
                                    "mod_b.py:10 np.linalg.norm"]


def test_unused_imports(tmp_path):
    # os is bound and never read; json is read, and the test's import is
    # called
    report = canned_tree(tmp_path)
    assert report["unused_imports"] == ["src/pkg/mod_a.py:1 os"]
