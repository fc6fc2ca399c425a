"""The package keeps no code that the command line cannot reach.

A name-based reachability walk over every top-level `def` and `class` in
src/medner and every method and property of those classes: it starts from
cli.main and every name that module-level statements use, and follows the
names (and attribute names) each reached definition uses. A reached class
reaches only its header (bases, decorators), its dunder methods and its
field defaults; any other method is reached only by a use of its name.
Definitions that share a name count as one, so the walk can miss dead code
but never flags live code. Reference implementations that only the tests
call belong in tests/oracles.py.
"""

import ast
from pathlib import Path

import medner


def _names(*nodes: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(path: Path):
    """(name, label, names its body uses) of each top-level def and class of
    a module and each non-dunder method of its classes; and the names the
    module's other statements use."""
    defs, roots = [], set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            defs.append((node.name, f"{path.name}:{node.name}", _names(node)))
        elif isinstance(node, ast.ClassDef):
            own = [*node.bases, *node.keywords, *node.decorator_list]
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    label = f"{path.name}:{node.name}.{item.name}"
                    defs.append((item.name, label, _names(item)))
                else:
                    own.append(item)
            defs.append((node.name, f"{path.name}:{node.name}", _names(*own)))
        else:
            roots |= _names(node)
    return defs, roots


def test_every_definition_is_reachable_from_the_cli():
    defs: dict[str, list[tuple[str, set[str]]]] = {}
    roots = {"main"}
    for path in sorted(Path(medner.__file__).parent.rglob("*.py")):
        module_defs, module_roots = _definitions(path)
        for name, label, uses in module_defs:
            defs.setdefault(name, []).append((label, uses))
        roots |= module_roots
    reached, todo = set(), [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for _, uses in defs[name] for n in uses if n in defs]
    unreached = sorted(label for name in defs.keys() - reached for label, _ in defs[name])
    assert unreached == [], "definitions no command reaches: " + ", ".join(unreached)
