"""Rules read off the package source.  The runtime needs the Python
standard library alone: every import in the package is relative, of
``r1poly`` itself, or of a standard module.  And no function keeps a
parameter that it never reads."""

import ast
import sys
from pathlib import Path

import r1poly
from r1poly.checks import SUITES

SOURCES = sorted(Path(r1poly.__file__).parent.glob("*.py"))


def imported_modules(path: Path) -> list[str]:
    """The top-level names of the absolute imports in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module.partition(".")[0])
    return names


def test_the_package_imports_only_the_standard_library():
    assert len(SOURCES) > 1
    outside = {(path.name, name) for path in SOURCES for name in imported_modules(path)
               if name != "r1poly" and name not in sys.stdlib_module_names}
    assert not outside


def unread_parameters(path: Path) -> set[tuple[str, str]]:
    """(function, parameter) for each parameter of a named function in one
    source file that the function's body, nested code included, never reads."""
    unread = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            read = {name.id for name in ast.walk(node) if isinstance(name, ast.Name)}
            unread |= {(node.name, p.arg) for p in params if p and p.arg not in read}
    return unread


def test_no_function_keeps_a_parameter_it_never_reads():
    allowed = {
        # the suites are called as suite(rng), whether or not they draw from it
        *(("checks.py", suite.__name__, "rng") for suite in SUITES.values()),
        # bench/workloads.py still passes build(depth); the argument is ignored
        ("families.py", "build", "depth"),
    }
    unread = {(path.name, name, param) for path in SOURCES
              for name, param in unread_parameters(path)
              # dunder methods take the parameters their protocol names
              if not (name.startswith("__") and name.endswith("__"))}
    assert unread <= allowed
