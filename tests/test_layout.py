"""The library holds no code that only tests use, and no result type that
exists to be turned into a dict.

Every top-level function and class in ``src/minksoliton/``, and every
public method of such a class, must be referenced by code in ``src/``
outside its own definition.  A reference is a name or an attribute of that
name, so the scan may pass a definition that only shares its name with
something used; it never fails one that is used.  Docstrings, comments and
the re-exports of ``__init__.py`` do not count.  References the tests need
live in ``tests/scalar_reference.py``.

The analysis report is built in ``analysis.py`` alone, from the plain
arrays, numbers and dicts the other modules return, so no module defines a
``to_dict`` method or calls ``dataclasses.asdict``.  Two readers know its
paths: ``catalog.EXPECTATION_KEYS`` reads the values that expectations
check, and ``cli._text_report`` formats the text report.
"""

import ast
from collections import Counter
from pathlib import Path

import minksoliton

SRC = Path(minksoliton.__file__).parent


def _names(node):
    """How often each name is read or taken as an attribute under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(tree):
    """(qualified name, name, node) of each top-level function and class,
    and of each public method of a top-level class."""
    kinds = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def unreferenced():
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    used = sum((_names(tree) for tree in modules.values()), Counter())
    return [f"{module}.{qualified}"
            for module, tree in modules.items()
            for qualified, name, node in _definitions(tree)
            if used[name] - _names(node)[name] <= 0]


def test_every_library_definition_is_used_by_the_library():
    assert unreferenced() == []


def dict_conversions():
    """Each ``to_dict`` definition and each ``asdict`` call in src/, as
    module:line."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "to_dict":
                found.append(f"{path.stem}:{node.lineno}")
            if isinstance(node, ast.Call) and "asdict" in _names(node.func):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_report_layout_outside_analysis():
    assert dict_conversions() == []
