"""The package keeps no code that the command line cannot reach.

A name-based reachability walk over every top-level `def` and `class` in
src/medner: it starts from cli.main and every name that module-level
statements use, and follows the names (and attribute names) each reached
definition uses. Definitions that share a name count as one, so the walk
can miss dead code but never flags live code. Reference implementations
that only the tests call belong in tests/oracles.py.
"""

import ast
from pathlib import Path

import medner


def _names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_definition_is_reachable_from_the_cli():
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    roots = {"main"}
    for path in sorted(Path(medner.__file__).parent.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.name, node))
            else:
                roots |= _names(node)
    reached, todo = set(), [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for _, node in defs[name] for n in _names(node) if n in defs]
    unreached = sorted(f"{path}:{name}" for name in defs.keys() - reached for path, _ in defs[name])
    assert unreached == [], "definitions no command reaches: " + ", ".join(unreached)
