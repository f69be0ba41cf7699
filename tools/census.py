"""Size census of the package source, printed as one JSON line.

Reports the line count of each module under ``src/pesin_coder`` and their
total, the total line count of the test files under ``tests``, and the
number of defaulted parameters (positional and keyword-only)
of the public functions and methods: every ``def`` whose name does not start
with an underscore, ``__init__`` included, at any nesting depth. Dataclass
fields are not parameters and are not counted.

Run it as ``python3 tools/census.py``; it counts the package of the checkout
it sits in. Standard library only; the count is informational and gates
nothing.
"""
from __future__ import annotations

import ast
import json
from pathlib import Path


def _public(name: str) -> bool:
    return name == "__init__" or not name.startswith("_")


def defaulted_parameters(tree: ast.AST) -> int:
    n = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and _public(node.name):
            n += len(node.args.defaults)
            n += sum(d is not None for d in node.args.kw_defaults)
    return n


def census(src: Path, tests: Path) -> dict:
    lines = {}
    defaults = 0
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        lines[path.name] = len(text.splitlines())
        defaults += defaulted_parameters(ast.parse(text))
    test_lines = sum(len(path.read_text().splitlines())
                     for path in tests.glob("*.py"))
    return {"src_lines": lines, "src_lines_total": sum(lines.values()),
            "test_lines_total": test_lines, "defaulted_parameters": defaults}


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    print(json.dumps(census(root / "src" / "pesin_coder", root / "tests"),
                     sort_keys=True))
