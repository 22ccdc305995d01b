"""Every definition in the library is used by the library.

A top-level function or class, or a method that is not a dunder, that no
code in ``src/riskroute`` refers to is a second implementation that only
tests run; it belongs in the tests. The check reads the package's source
with ``ast``: a name loaded where it resolves to a definition (the module's
own or one imported from a sibling module), an attribute of a sibling
module, and any attribute of the method's name count as references, those
inside the definition's own body do not, and docstrings and comments are no
code. Unreferenced definitions are dropped, and the references inside them
with them, until none is left, so a chain of definitions that only call one
another fails as a whole.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "riskroute"

#: Definitions kept though no library code refers to them, as (module, name).
ALLOWED: frozenset = frozenset()

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCS, ast.ClassDef)


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(trees):
    """(module, name) for each top-level function and class, and (module,
    'Class.method') for each non-dunder method of a top-level class, each
    with its node."""
    defs = {}
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            defs[module, node.name] = node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, _FUNCS) and not _dunder(sub.name):
                        defs[module, f"{node.name}.{sub.name}"] = sub
    return defs


def _bindings(module, tree):
    """What the module's top-level names stand for: (module, name) for its
    own definitions and for names imported from a sibling module, (module,
    None) for a sibling module imported whole."""
    names = {node.name: (module, node.name) for node in tree.body if isinstance(node, _DEFS)}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                key = (alias.name, None) if node.module is None else (node.module, alias.name)
                names[alias.asname or alias.name] = key
    return names


def _references(trees, defs):
    """(definition referred to, the definitions whose bodies hold the
    reference) for every reference in the package's code."""
    node_keys = {id(node): key for key, node in defs.items()}
    methods = {}
    for module, name in defs:
        if "." in name:
            methods.setdefault(name.split(".")[1], []).append((module, name))
    refs = []
    for module, tree in trees.items():
        names = _bindings(module, tree)
        stack = [(tree, frozenset())]
        while stack:
            node, inside = stack.pop()
            key = node_keys.get(id(node))
            if key is not None and key[0] == module:
                inside = inside | {key}
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                target = names.get(node.id)
                if target in defs:
                    refs.append((target, inside))
            elif isinstance(node, ast.Attribute):
                for target in methods.get(node.attr, ()):
                    refs.append((target, inside))
                if isinstance(node.value, ast.Name):
                    owner = names.get(node.value.id)
                    if owner is not None and owner[1] is None and (owner[0], node.attr) in defs:
                        refs.append(((owner[0], node.attr), inside))
            stack += [(child, inside) for child in ast.iter_child_nodes(node)]
    return refs


def unreferenced(src=SRC):
    """The package's definitions that no live code refers to, dropped
    round by round until the rest all have a reference."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    defs = _definitions(trees)
    refs = _references(trees, defs)
    dead: set = set()
    while True:
        live = {target for target, inside in refs if not inside & (dead | {target})}
        newly = defs.keys() - live - dead
        if not newly:
            return dead
        dead |= newly


def test_every_definition_is_used_by_the_library():
    dead = unreferenced()
    assert sorted(dead - ALLOWED) == [], "definitions only tests can reach"


def test_the_rule_drops_chains_and_skips_docstrings(tmp_path):
    """A chain of functions that only the chain calls is dropped whole, a
    name in a docstring is no reference, and a method counts as used through
    any attribute of its name."""
    (tmp_path / "a.py").write_text(
        '"""main calls used; first and second are named here only."""\n'
        "def first():\n    return second()\n"
        "def second():\n    return second()\n"
        "def used():\n    return 1\n"
        "class Box:\n    def open(self):\n        return 1\n"
        "    def shut(self):\n        return self.shut()\n"
        "def main(box: Box):\n    return used() + box.open()\n"
        "main(Box())\n"
    )
    (tmp_path / "b.py").write_text("from . import a\nfrom .a import used as u\nu()\na.first\n")
    assert unreferenced(tmp_path) == {("a", "Box.shut")}
    (tmp_path / "b.py").write_text("from .a import used\n")
    assert unreferenced(tmp_path) == {("a", "first"), ("a", "second"), ("a", "Box.shut")}
