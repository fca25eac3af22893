"""The package's modules form layers, each importing only from layers below:
ring < exterior < algebroid < pair < constructions, serialize < cli.
constructions and serialize share a layer and import neither each other.
Every relative import counts, function-local ones included.

Every store that outlives a call is an algebroid.FrameTable, apart from
the bounded functools.lru_cache sign tables of exterior, so no module
keeps a hand-rolled get/fill cache, and every FrameTable an owner keeps
as an attribute is named in FrameTable's docstring, the one list of
stores."""

import ast
from pathlib import Path

import bialgebroid
from bialgebroid.algebroid import FrameTable

from test_frame_tables import PAIR_TABLES, STRUCTURE_TABLES

PACKAGE = Path(bialgebroid.__file__).parent

LAYER = {"ring": 0, "exterior": 1, "algebroid": 2, "pair": 3,
         "constructions": 4, "serialize": 4, "cli": 5}


def relative_imports(source):
    """(line, module) for every `from .x import ...` and `from . import x`
    anywhere in source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.lineno, node.module.split(".")[0]
            else:
                yield from ((node.lineno, alias.name) for alias in node.names)


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"} == set(LAYER)


def test_the_scan_sees_function_local_imports():
    source = "import json\nfrom .ring import Polynomial\n\n\ndef f():\n" \
             "    from .cli import main\n    from . import pair, exterior\n"
    assert list(relative_imports(source)) == [(2, "ring"), (6, "cli"), (7, "pair"),
                                              (7, "exterior")]


def test_modules_import_only_from_lower_layers():
    wrong = [f"{path.name}:{line} imports .{target}"
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"
             for line, target in relative_imports(path.read_text())
             if LAYER[target] >= LAYER[path.stem]]
    assert not wrong


def memo_sites(source):
    """(kind, name) for every class that defines __missing__ and every
    mention of lru_cache in source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                targets = item.targets if isinstance(item, ast.Assign) else [item]
                if any(getattr(t, "name", getattr(t, "id", None)) == "__missing__"
                       for t in targets):
                    yield "__missing__", node.name
        name = getattr(node, "attr", None) or getattr(node, "id", None) \
            or (node.name if isinstance(node, ast.alias) else None)
        if name == "lru_cache":
            yield "lru_cache", type(node).__name__


def test_the_scan_sees_every_memo():
    source = "import functools\nfrom functools import lru_cache\n\n\n" \
             "class T(dict):\n    def __missing__(self, key):\n        return key\n\n\n" \
             "class U(dict):\n    __missing__ = len\n\n\n" \
             "@functools.lru_cache\ndef f():\n    pass\n"
    assert sorted(memo_sites(source)) == [("__missing__", "T"), ("__missing__", "U"),
                                          ("lru_cache", "Attribute"), ("lru_cache", "alias")]


def test_frame_table_is_the_one_table_type():
    sites = {path.stem: list(memo_sites(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert [(stem, name) for stem, found in sites.items()
            for kind, name in found if kind == "__missing__"] == [("algebroid", "FrameTable")]
    assert {stem for stem, found in sites.items()
            if any(kind == "lru_cache" for kind, _ in found)} == {"exterior"}


def frame_table_attributes(source):
    """(line, name) for every `self.<name> = FrameTable(...)` in source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                and getattr(node.value.func, "id", None) == "FrameTable":
            for target in node.targets:
                if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "self":
                    yield node.lineno, target.attr


def test_the_scan_sees_every_frame_table_attribute():
    source = "class T:\n    def __init__(self):\n        self.a = FrameTable(self, f)\n" \
             "        self.b = FrameTable(self, lambda o, k: FrameTable(o, g))\n" \
             "        c = FrameTable(self, f)\n        self.d = dict()\n"
    assert list(frame_table_attributes(source)) == [(3, "a"), (4, "b")]


def test_every_frame_table_is_documented():
    names = {name for path in sorted(PACKAGE.glob("*.py"))
             for _line, name in frame_table_attributes(path.read_text())}
    assert [name for name in sorted(names) if name not in FrameTable.__doc__] == []
    assert names == STRUCTURE_TABLES | PAIR_TABLES
