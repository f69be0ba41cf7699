"""Size census of the package source, printed as one JSON line.

Reports the line count of each module under ``src/pesin_coder`` and their
total, the total line count of the test files under ``tests``, and the
number of defaulted parameters (positional and keyword-only)
of the public functions and methods: every ``def`` whose name does not start
with an underscore, ``__init__`` included, at any nesting depth. Dataclass
fields are not parameters and are not counted.  ``defaulted_parameter_names``
lists them, one ``module.function(parameter)`` each, where ``function`` is
the dotted path of the ``def`` through its enclosing classes and functions.

It also lists ``unused_imports`` in ``src``, ``tests`` and ``tools``: names
bound by an import and never read in that file, as ``path:line name``.
``from __future__`` imports, ``__init__.py`` files (they re-export) and
names listed in a module's ``__all__`` are not reported.

It also lists ``test_only_public``: each public module-level function in
``src`` that no code in ``src``, ``perfbench`` or ``tools`` reads, so only
tests call it.  A read of ``name`` from module ``mod`` must name ``mod``:
``from ...mod import name`` followed by a load of that binding, ``m.name``
where ``m`` is bound to ``mod`` by an import, or a load of the bare ``name``
inside ``mod.py`` itself.  A string constant outside ``__all__`` (a table
of names to wrap, say) counts as a read of that name from any module.  So a
method or variable that shares a function's name (``OrbitSegment.rho``
beside a module-level ``rho``) hides nothing.

``test_only_public`` also lists, as ``module.Class.member``, each public
method, property or annotated field (a dataclass field, say) defined in the
body of a module-level class in ``src`` that no code in ``src``,
``perfbench`` or ``tools`` reads as an attribute: no expression there loads
``.member`` on any object.  Building the class with ``member=...`` is not a
read.  Matching by the member's name alone errs towards reads, so a member
listed here is read by tests alone, but a member whose name another class
shares can hide: a read of the other class's member counts for it too
(``OrbitSegment.points`` hid behind ``GammaPoint.points`` that way).

It also lists ``shared_members``: each public member name (method,
property or annotated field, as above) that two or more module-level
classes in ``src`` define, with those classes as ``module.Class``.  These
are the members that ``test_only_public`` can miss, for a reader to check
by hand (``Splitting.e_s`` and ``e_u`` count as read because
``HyperbolicFrame``'s are).  The list is informational and gates nothing.

Each name left on ``test_only_public`` must be in ``TEST_ONLY_ALLOWED``
below, with its one-line reason, and each allowed name must still be on the
list: a new function or member that only tests reach is used, allowed with
a reason, or deleted, and a stale allowance is removed.

It also lists ``blas_sites``: each expression in ``src`` that can reach
BLAS or LAPACK, as ``module.py:line what``.  These are the ``@`` operator
and each load of ``matmul``, ``dot`` (as ``np.dot`` or a ``.dot`` method),
``einsum``, anything under ``np.linalg`` and anything under numpy's
LAPACK gufunc module ``_umath_linalg``, which ``np.linalg`` wraps: a call,
or a reference passed on as a value (``np.matmul`` given to a loop that
calls it, say), which reaches the same kernel when it is called.  Their
bits depend on the host's kernels, not on IEEE arithmetic alone (ROADMAP
item 10).

Run it as ``python3 tools/census.py``; it counts the checkout it sits in.
Standard library only.  The sizes and the BLAS sites are informational;
the exit status is 1 when any unused import is found or when
``test_only_public`` and ``TEST_ONLY_ALLOWED`` differ (the names on only
one side are printed as ``test_only_mismatch``), and 0 otherwise.
"""
from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

# each public function or member that only tests reach, with the reason it stays
_REPORT = "diagnostic for the run report (ROADMAP items 5 and 6)"
_DIAMETER = ("the diam(M) < 1 hypothesis, which tests assert and the run "
             "report is to read (ROADMAP item 6)")
_ANGLE = ("the splitting's margin against CONVERGENCE_TOL, which the run "
          "report is to read (ROADMAP aim 4)")
_QR = "the independent QR estimate that the confidence radius is taken against"
_FACTOR = ("the completed one-step norms for callers outside cocycle, whose "
           "own readers push only the rows they read")
_SU = ("a point's s and u without its frame, a one-point window of the "
       "series pass that frames_along makes, pinned by tests to closed forms")
TEST_ONLY_ALLOWED = {
    "cocycle.c_inverse_growth_check": _REPORT,
    "cocycle.nuh_diagnostics": _REPORT,
    "coding.sigma_sharp_filter": _REPORT,
    "coding.detect_double_codings": _REPORT,
    "coding.discreteness_certificate": _REPORT,
    "dynamics.verify_assumptions": _REPORT,
    "manifolds.contraction_measurement": _REPORT,
    "charts.chart_from_segment": "the one-chart constructor; coding shares "
                                 "frames between neighbours instead",
    "cocycle.s_u_parameters": _SU,
    "cocycle.SUParams.s": _SU,
    "cocycle.SUParams.u": _SU,
    "tables.fd_derivative": "the finite-difference reference that tier-1 pins "
                            "the mirror formula against",
    "tables.BilliardTable.diameter": _DIAMETER,
    "tables.LinearFixtureMap.diameter": _DIAMETER,
    "cocycle.Splitting.convergence_angle_s": _ANGLE,
    "cocycle.Splitting.convergence_angle_u": _ANGLE,
    "cocycle.Splitting.factor_s": _FACTOR,
    "cocycle.Splitting.factor_u": _FACTOR,
    "cocycle.LyapunovEstimate.qr_lambda1": _QR,
    "cocycle.LyapunovEstimate.qr_lambda2": _QR,
    "coding.Itinerary.in_alphabet": "which steps of a coded word left the "
                                    "alphabet (ROADMAP item 3(c))",
    "coding.Itinerary.symbols": "a coded word's symbol sequence, the input "
                                "of sigma_sharp_filter",
}


def _public(name: str) -> bool:
    return name == "__init__" or not name.startswith("_")


def defaulted_parameters(tree: ast.AST, module: str) -> list[str]:
    """``module.function(parameter)`` of each defaulted parameter of the
    public functions and methods in the tree, in source order."""
    names = []

    def visit(node: ast.AST, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{module}.{path}{child.name}"
                args = child.args
                positional = args.posonlyargs + args.args
                if _public(child.name):
                    names.extend(
                        f"{where}({a.arg})" for a in
                        positional[len(positional) - len(args.defaults):])
                    names.extend(
                        f"{where}({a.arg})" for a, d in
                        zip(args.kwonlyargs, args.kw_defaults) if d is not None)
                visit(child, f"{path}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{path}{child.name}.")
            else:
                visit(child, path)

    visit(tree, "")
    return names


def _all_values(tree: ast.Module) -> list[ast.expr]:
    """The value of each top-level ``__all__ = ...`` assignment."""
    return [node.value for node in tree.body
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets)]


def _exported(tree: ast.Module) -> set[str]:
    return {name for value in _all_values(tree)
            for name in ast.literal_eval(value)}


def names_read(path: Path, tree: ast.Module
               ) -> tuple[set[str], set[str], set[str]]:
    """``mod.name`` of each module-level name the file reads through its
    module (see the module docstring), the string constants it holds
    outside ``__all__``, and the attribute names it loads."""
    exports = {id(n) for value in _all_values(tree) for n in ast.walk(value)}
    funcs = {}  # local name -> "mod.name" it was imported as
    mods = {}  # local name or dotted path -> module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                local = alias.asname or alias.name
                mods[local] = alias.name
                if node.module:
                    funcs[local] = f"{node.module.split('.')[-1]}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                mods[alias.asname or alias.name] = alias.name.split(".")[-1]
    read, strings, attrs = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(funcs.get(node.id, f"{path.stem}.{node.id}"))
        elif isinstance(node, ast.Attribute):
            owner = mods.get(ast.unparse(node.value))
            if owner is not None:
                read.add(f"{owner}.{node.attr}")
            if isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in exports:
            strings.add(node.value)
    return read, strings, attrs


def _public_defs(body: list[ast.stmt]) -> list[ast.FunctionDef]:
    return [node for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def _public_members(body: list[ast.stmt]) -> list[str]:
    """The public methods, properties and annotated fields of a class body."""
    fields = [node.target.id for node in body
              if isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)
              and not node.target.id.startswith("_")]
    return [node.name for node in _public_defs(body)] + fields


def _classes(trees: dict) -> list[tuple[str, ast.ClassDef]]:
    """(module, class) of each module-level class of the trees."""
    return [(path.stem, cls) for path, tree in trees.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)]


def shared_members(trees: dict) -> dict[str, list[str]]:
    """Each public member name that two or more module-level classes of
    the trees define, with ``module.Class`` of each of those classes."""
    owners = {}
    for mod, cls in _classes(trees):
        for name in dict.fromkeys(_public_members(cls.body)):
            owners.setdefault(name, []).append(f"{mod}.{cls.name}")
    return {name: classes for name, classes in sorted(owners.items())
            if len(classes) > 1}


def test_only_public(src: Path, readers) -> list[str]:
    """``module.name`` of each public module-level function in ``src`` that
    no code under the ``readers`` directories reads, then
    ``module.Class.member`` of each public method, property or annotated
    field that no code there loads as an attribute."""
    trees = {path: ast.parse(path.read_text())
             for d in readers for path in sorted(d.rglob("*.py"))}
    found = [names_read(path, tree) for path, tree in trees.items()]
    read, strings, attrs = (set().union(*part) for part in zip(*found))
    mods = {path: tree for path, tree in trees.items() if path.parent == src}
    functions = [f"{path.stem}.{node.name}" for path, tree in mods.items()
                 for node in _public_defs(tree.body)
                 if f"{path.stem}.{node.name}" not in read
                 and node.name not in strings]
    members = [f"{mod}.{cls.name}.{name}" for mod, cls in _classes(mods)
               for name in _public_members(cls.body) if name not in attrs]
    return functions + members


def blas_sites(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, what) of each ``@`` and each load of a ``matmul``, ``dot``,
    ``einsum``, ``np.linalg`` or ``_umath_linalg`` attribute in the tree,
    called or passed on as a value, in line order."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            sites.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = getattr(node.value, "attr", getattr(node.value, "id", None))
            if node.attr in ("matmul", "dot", "einsum") \
                    or owner in ("linalg", "_umath_linalg"):
                sites.append((node.lineno, ast.unparse(node)))
    return sorted(sites)


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each import binding that no expression reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    bound.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    keep = read | _exported(tree)
    return [(line, name) for line, name in bound if name not in keep]


def census(src: Path, tests: Path) -> dict:
    lines = {}
    defaults = []
    blas = []
    trees = {}
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        tree = trees[path] = ast.parse(text)
        lines[path.name] = len(text.splitlines())
        defaults += defaulted_parameters(tree, path.stem)
        blas += [f"{path.name}:{line} {what}" for line, what in blas_sites(tree)]
    test_lines = sum(len(path.read_text().splitlines())
                     for path in tests.glob("*.py"))
    root = src.parent.parent
    unused = [f"{path.relative_to(root)}:{line} {name}"
              for path in sorted(p for d in (src, tests, root / "tools")
                                 for p in d.rglob("*.py"))
              if path.name != "__init__.py"
              for line, name in unused_imports(ast.parse(path.read_text()))]
    return {"src_lines": lines, "src_lines_total": sum(lines.values()),
            "test_lines_total": test_lines,
            "defaulted_parameters": len(defaults),
            "defaulted_parameter_names": defaults,
            "unused_imports": unused, "blas_sites": blas,
            "shared_members": shared_members(trees),
            "test_only_public": test_only_public(
                src, (src, root / "perfbench", root / "tools"))}


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    report = census(root / "src" / "pesin_coder", root / "tests")
    report["test_only_mismatch"] = sorted(
        set(report["test_only_public"]) ^ set(TEST_ONLY_ALLOWED))
    print(json.dumps(report, sort_keys=True))
    sys.exit(1 if report["unused_imports"] or report["test_only_mismatch"]
             else 0)
