"""The package keeps no code that the command line cannot reach, and reads
its input files in one place.

A name-based reachability walk over every top-level `def` and `class` in
src/medner and every method and property of those classes: it starts from
cli.main and every name that module-level statements use, and follows the
names (and attribute names) each reached definition uses. A reached class
reaches only its header (bases, decorators), its dunder methods and its
field defaults; any other method is reached only by a use of its name.
Definitions that share a name count as one, so the walk can miss dead code
but never flags live code. Reference implementations that only the tests
call belong in tests/oracles.py.

A second walk finds every call that opens or reads a file, decodes UTF-8 or
splits text with str.splitlines(), and allows each only in corpus.read_text
or in the model container's code.
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


# (module, function) -> the file reads and UTF-8 decodes it may make:
# corpus.read_text is the one reader of input files, and serialize.py
# writes and reads the binary model container, whose manifest is UTF-8 JSON
READERS = {("corpus.py", "read_text"): {"read_bytes", "decode"},
           ("serialize.py", "save_model"): {"open"},
           ("serialize.py", "_read_container"): {"open"},
           ("serialize.py", "_checked_manifest"): {"decode"}}


def _file_reads(node: ast.Call) -> str | None:
    """What kind of file read or line split a call is, if any: `splitlines`,
    a text-mode or binary `open`, `read_text`, `read_bytes`, or a UTF-8
    `decode` (which is the default)."""
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name == "open":  # open(path, mode) or path.open(mode)
        at = 1 if isinstance(func, ast.Name) else 0
        mode = node.args[at] if len(node.args) > at else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
        return "open" if binary else "text-mode open"
    if isinstance(func, ast.Attribute) and name in ("splitlines", "read_text", "read_bytes"):
        return name
    if name == "decode":
        encoding = node.args[0] if node.args else next(
            (k.value for k in node.keywords if k.arg == "encoding"), None)
        if encoding is None or (isinstance(encoding, ast.Constant)
                                and str(encoding.value).lower() in ("utf-8", "utf8", "utf_8")):
            return "decode"
    return None


def test_one_reader_and_one_line_rule():
    """Every input file but the model container is read by corpus.read_text,
    which reads '\\r\\n' and '\\r' as '\\n', and no text is split with
    str.splitlines(), which also ends a line at U+2028, U+0085, '\\x1c' and
    more. A call that opens or reads a file or decodes UTF-8 is allowed only
    where READERS says."""
    found = []
    for path in sorted(Path(medner.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        owner = {id(call): f.name for f in functions for call in ast.walk(f)}
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            kind = _file_reads(call)
            where = (path.name, owner.get(id(call)))
            if kind is not None and kind not in READERS.get(where, ()):
                found.append(f"{path.name}:{call.lineno} {where[1]}: {kind}")
    assert found == [], "file reads or line splits outside corpus.read_text: " + ", ".join(found)
