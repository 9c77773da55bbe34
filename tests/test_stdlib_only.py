"""The runtime needs the Python standard library alone: every import in the
package is relative, of ``r1poly`` itself, or of a standard module."""

import ast
import sys
from pathlib import Path

import r1poly

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
