"""The package holds only what its computations run.

The library stays stdlib-only, never imports the test helpers, and
exposes none of the reference implementations in `oracles.py` nor the
helpers deleted because no library code called them. It never sets
the interpreter's recursion limit, and only the four functions listed
below call themselves. Sources are read with `ast`, so an import that
only runs on some path is still seen.
Importing the package loads no process pool until a census asks for one.
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "cliquedyn"
MODULES = sorted(PACKAGE.glob("*.py"))

DELETED = (
    "CliqueList",
    "OracleLimitError",
    "_connected_cubic_classes",
    "_cubic_classes",
    "_edge_insert",
    "_edge_pair_orbit_representatives",
    "_irreducible_cubic_connected",
    "_pairing_can_continue",
    "_transposition_raises",
    "automorphism_generators",
    "common_neighbors",
    "cone_apex",
    "count_cotriangle_incidences",
    "count_cotriangles_at_vertex",
    "is_cotriangle",
    "write_edge_list",
    "write_graph6_lines",
)


def _imports(path: Path):
    """(relative level, dotted module name) of every import in one source file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield 0, alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.level, node.module or ""


def _oracle_names() -> set[str]:
    tree = ast.parse((TESTS / "oracles.py").read_text())
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def test_package_imports_only_itself_and_the_stdlib():
    outside = [
        (path.name, module)
        for path in MODULES
        for level, module in _imports(path)
        if level == 0
        and module != "__future__"
        and module.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_package_never_imports_test_helpers():
    helpers = {"oracles", "strategies", "tests"}
    reached = [
        (path.name, module)
        for path in MODULES
        for _, module in _imports(path)
        if helpers & set(module.split("."))
    ]
    assert reached == []


def test_oracles_and_deleted_helpers_are_not_library_names():
    gone = _oracle_names() | set(DELETED)
    assert {"enumerate_regular_brute", "helly_brute_oracle"} <= gone
    homes = [importlib.import_module("cliquedyn")] + [
        importlib.import_module(f"cliquedyn.{path.stem}")
        for path in MODULES
        if path.stem != "__init__"
    ]
    present = [
        (home.__name__, name) for home in homes for name in sorted(gone) if hasattr(home, name)
    ]
    assert present == []


def test_package_never_sets_the_recursion_limit():
    # the limit is interpreter-global state: an input too deep for a
    # recursive search is refused, not given more stack; the name may not
    # appear at all, so no import, alias or getattr string gets round it
    assert [path.name for path in MODULES if "setrecursionlimit" in path.read_text()] == []


def _calls_itself(func: ast.FunctionDef) -> bool:
    """Whether `func`'s body calls its own name, bare or as a method of `self`."""
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == func.name:
                return True
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr == func.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "self"
            ):
                return True
    return False


def test_only_the_listed_functions_recurse():
    # `_regular_classes` calls itself once, for the complement's degree;
    # `_as_lists` and `parse_expr` follow the nesting of their input; only
    # `place`, one row per call, goes as deep as the order. The canonical
    # and coaffination searches keep their levels on explicit stacks.
    recursive = sorted(
        node.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and _calls_itself(node)
    )
    assert recursive == ["_as_lists", "_regular_classes", "parse_expr", "place"]


def test_import_leaves_the_process_pool_unloaded():
    # only a census with jobs > 1 needs multiprocessing
    probe = (
        "import sys, cliquedyn; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    ).stdout
    assert out == "[]\n"
