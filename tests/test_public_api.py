"""Every public top-level function and class of the package is reached: a
module of `src/hypdiss` names it outside its own definition, the benchmark's
tracer (`perfbench/tracer.py`) patches it by name, or it is on a short
allowlist.  A public name that only the tests reach is dead code; a test
reaches the stacked form instead."""

import ast
from pathlib import Path

from test_tracer import _load_tracer

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "hypdiss").glob("*.py"))
#: the energy monitor, which ROADMAP item 4 wires into `run`
ALLOWED = frozenset({"energy_monitor", "monitor_rayleigh_floor"})


def _names(tree):
    # (name, line) of every name a module reads, imports or looks up as an attribute
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((alias.name, node.lineno) for alias in node.names)


def unreached(sources, pinned=frozenset()):
    """`module.name` of each public top-level function or class in
    sources ({module: source}) that no module names outside its own
    definition and that `pinned` does not hold."""
    trees = {mod: ast.parse(source) for mod, source in sources.items()}
    used = [(mod, name, line) for mod, tree in trees.items() for name, line in _names(tree)]
    found = []
    for mod, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in pinned):
                continue
            if not any(name == node.name and not (m == mod and node.lineno <= line <= node.end_lineno)
                       for m, name, line in used):
                found.append(f"{mod}.{node.name}")
    return sorted(found)


def test_finds_names_only_their_own_definition_reaches():
    sources = {"a": "def f():\n    return f()\n\n\ndef g():\n    pass\n\n\n"
                    "class C:\n    pass\n\n\ndef _h():\n    return g\n",
               "b": "from .a import C\n\n\nclass D:\n    pass\n"}
    assert unreached(sources) == ["a.f", "b.D"]
    assert unreached(sources, pinned={"f", "D"}) == []


def test_every_public_name_is_reached():
    tracer = _load_tracer()
    pinned = ({attr.split(".")[0] for _, attr, _ in tracer.SPANS}
              | set(tracer.MODEL_BUILDERS) | ALLOWED)
    assert unreached({p.stem: p.read_text() for p in SRC}, pinned) == []
