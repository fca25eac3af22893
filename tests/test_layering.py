"""The package's modules form layers, each importing only from layers below:
ring < exterior < algebroid < pair < constructions, serialize < cli.
constructions and serialize share a layer and import neither each other.
Every relative import counts, function-local ones included."""

import ast
from pathlib import Path

import bialgebroid

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
