"""Every import in the package sits at module level.

An import inside a function body hides a dependency from the module graph,
usually to dodge an import cycle; this test keeps the graph honest.
"""

import ast
from pathlib import Path

import treedet

PACKAGE = Path(treedet.__file__).parent


def _nested_imports(tree: ast.Module) -> list[int]:
    lines = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.extend(
                node.lineno
                for node in ast.walk(fn)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            )
    return sorted(set(lines))


def test_no_import_inside_a_function():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = {
        path.name: lines
        for path in sources
        if (lines := _nested_imports(ast.parse(path.read_text(), filename=str(path))))
    }
    assert found == {}
