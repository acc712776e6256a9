"""Every import in the package sits at module level, the exports hold, every
private module-level name is used in the package, every private name a
docstring or comment quotes is defined, and no source line is over 104 columns.

An import inside a function body hides a dependency from the module graph,
usually to dodge an import cycle; this test keeps the graph honest.  The
benchmark imports from the package's top level, so a name it imports must
stay exported; it also reads tree metrics by name, so each of those must
stay an attribute of ``Tree``.  ``__all__`` lists exactly the public names
the package defines, so no deleted function lingers there.  A private helper that only
its own definition or the tests read is dead code the tests keep alive, and a
docstring that quotes a deleted helper points its reader at nothing.
"""

import ast
import io
import re
import tokenize
import types
from pathlib import Path

import treedet

PACKAGE = Path(treedet.__file__).parent
WORKLOADS = PACKAGE.parents[1] / "bench" / "workloads.py"
MAX_COLUMNS = 104


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


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(treedet).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(treedet.__all__) == len(set(treedet.__all__))
    assert set(treedet.__all__) == public


def test_benchmark_imports_stay_exported():
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "treedet"
        for alias in node.names
    }
    assert imported
    assert imported <= set(treedet.__all__)


def test_benchmark_tree_reads_stay_attributes():
    # the bench reads tree metrics by name, which no import check sees
    module = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    (touch,) = [
        node for node in module.body
        if isinstance(node, ast.FunctionDef) and node.name == "_touch_metrics"
    ]
    by_string = {
        node.value
        for node in ast.walk(touch)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    by_dot = {
        node.attr
        for node in ast.walk(module)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "tree"
    }
    assert {"depth", "subtree_leaf_count", "subtree_node_count", "fringe", "shape_ids"} <= by_string
    assert by_dot
    tree = treedet.Tree([-1, 0, 0, 1])
    assert {name for name in by_string | by_dot if not hasattr(tree, name)} == set()


def test_no_line_over_the_column_limit():
    long = {
        f"{path.name}:{i}": len(line)
        for path in sorted(PACKAGE.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_COLUMNS
    }
    assert long == {}


def _defined_names(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)}


def test_every_private_name_is_used_in_the_package():
    defined, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            names = _defined_names(stmt)
            defined |= {n for n in names if n.startswith("_") and not n.startswith("__")}
            # a name read only inside its own definition is not used
            used |= {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute))
            } - names
    assert defined
    assert defined - used == set()


def _prose(text: str, module: ast.Module) -> list[str]:
    """The docstrings and comments of one module."""
    docs = [
        ast.get_docstring(node, clean=False)
        for node in ast.walk(module)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return [d for d in docs if d] + [t.string for t in tokens if t.type == tokenize.COMMENT]


def test_every_quoted_private_name_is_defined():
    # a backticked ``_name``, alone or in a dotted path, must be a function, class, name,
    # attribute or argument somewhere in the package
    defined, quoted = set(), {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        module = ast.parse(text, filename=str(path))
        for node in ast.walk(module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif isinstance(node, ast.arg):
                defined.add(node.arg)
        for chunk in _prose(text, module):
            for ticked in re.findall(r"`+([A-Za-z_][\w.]*)", chunk):
                for part in ticked.split("."):
                    if part.startswith("_"):
                        quoted.setdefault(part, set()).add(path.name)
    assert len(quoted) > 10
    assert {name: files for name, files in quoted.items() if name not in defined} == {}
