"""Every public name in src/iondec has a caller other than the tests.

A public function or class must be exported in ``iondec.__all__`` or be
referenced somewhere in the package's sources outside its own definition.
A public method of an exported class must be referenced in the sources
outside its own definition, since exporting the class does not export a
second way to use it.  A name that only tests call is API kept for
nobody; delete it instead.
"""
import ast
from collections import Counter
from pathlib import Path

import iondec

SRC = Path(__file__).resolve().parent.parent / "src" / "iondec"


def _public_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _references(node):
    """How often each name or attribute is used within node."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
    return counts


def _parse_sources():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    return trees, sum((_references(tree) for tree in trees.values()), Counter())


def test_every_public_name_has_a_caller_in_the_package():
    trees, used = _parse_sources()
    orphans = [f"{module}:{node.name}"
               for module, tree in trees.items() for node in _public_definitions(tree)
               if node.name not in iondec.__all__
               # uses inside the definition itself (recursion, methods) do not count
               and used[node.name] - _references(node)[node.name] == 0]
    assert orphans == []


def test_every_public_method_of_an_export_has_a_caller_in_the_package():
    trees, used = _parse_sources()
    orphans = [f"{module}:{cls.name}.{node.name}"
               for module, tree in trees.items() for cls in _public_definitions(tree)
               if isinstance(cls, ast.ClassDef) and cls.name in iondec.__all__
               for node in _public_definitions(cls)
               if isinstance(node, ast.FunctionDef)
               and used[node.name] - _references(node)[node.name] == 0]
    assert orphans == []


def test_exports_exist():
    assert all(hasattr(iondec, name) for name in iondec.__all__)
