"""Every name that a module of the package or of the tests imports is used
in that module: a standard-library `ast` stand-in for a linter's unused-import
rule (F401), which honours `# noqa: F401` on the import's lines."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "hypdiss").glob("*.py"), *(ROOT / "tests").glob("*.py")])
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(scope):
    # the nodes of a scope that no nested function holds
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source):
    """(line, name) of each name imported in a scope (the module or a
    function) that nothing in that scope or its nested scopes reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    found = []
    for scope in (n for n in ast.walk(tree) if isinstance(n, SCOPES)):
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for node in _own_nodes(scope):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if alias.name != "*" and name not in used:
                    found.append((node.lineno, name))
    return sorted(found)


def test_finds_unused_and_honours_noqa():
    source = ("import os\nimport sys  # noqa: F401\nfrom a import (b,\n    c)\n"
              "import x.y as z\n\ndef f():\n    import json\n    return c, z.q\n\n"
              "def g():\n    from k import m\n    return lambda: m\n")
    assert unused_imports(source) == [(1, "os"), (3, "b"), (8, "json")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text()) == []
