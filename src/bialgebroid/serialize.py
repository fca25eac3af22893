"""JSON documents for pairs and single algebroid structures.

A pair document looks like

    {
      "base_dim": 2,
      "coordinates": ["x1", "x2"],
      "rank": 2,
      "A": {"anchor": [["1", "0"], ["0", "1"]], "brackets": {}},
      "Astar": {"anchor": [["0", "x1"], ["-x1", "0"]],
                "brackets": {"1,2": ["1", "0"]}},
      "frame": {"s_density": "1"}
    }

with every coefficient a polynomial string over the declared coordinates.
Bracket keys are "i,j" with i < j; all-zero entries are omitted.  The
layout is the one `schemas/*.json` publishes, and it is checked in the walk
that reads each field: a wrong key set or type is a "schema violation at
<path>", with `base_dim` and `rank` JSON integers proper (2.0 and true are
refused).  The same walk then checks what a schema cannot express: index
ranges, matrix shapes and polynomial syntax.
"""

from __future__ import annotations

import re
from typing import Tuple

from .algebroid import AlgebroidStructure
from .exterior import FrameData
from .pair import BialgebroidPair
from .ring import Polynomial, PolynomialError


class DocumentError(ValueError):
    pass


_SIDE_KEYS = ("anchor", "brackets")
_BRACKET_KEY = re.compile(r"[1-9][0-9]*,[1-9][0-9]*")


def _violation(where: str, message: str) -> DocumentError:
    return DocumentError(f"schema violation at {where}: {message}")


_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string"}


def _typed(value, kind: type, where: str):
    """value if it is a JSON object, array or string as kind says."""
    if not isinstance(value, kind):
        raise _violation(where, f"must be {_TYPE_NAMES[kind]}")
    return value


def _object(value, where: str, required=(), optional=()) -> dict:
    """value if it is an object with every required key and no other key
    than required and optional ones."""
    _typed(value, dict, where)
    for key in required:
        if key not in value:
            raise _violation(where, f"{key!r} is a required property")
    for key in value:
        if key not in required and key not in optional:
            raise _violation(where, f"unexpected property {key!r}")
    return value


def _strings(value, where: str) -> list:
    """value if it is an array of strings."""
    for i, v in enumerate(_typed(value, list, where)):
        _typed(v, str, f"{where}/{i}")
    return value


def _natural(value, where: str, minimum: int) -> int:
    """value if it is a JSON integer, not 2.0 or true, of at least minimum."""
    if type(value) is not int or value < minimum:
        raise _violation(where, f"must be an integer >= {minimum}")
    return value


def _header(doc, required, optional=()) -> Tuple[tuple, int, str, str]:
    """Check the fields a pair and a single-structure document share; return
    the coordinates, the rank, the label and the density text."""
    _object(doc, "(document root)", ("base_dim", "coordinates", "rank") + required, optional)
    base_dim = _natural(doc["base_dim"], "base_dim", 0)
    coords = tuple(_strings(doc["coordinates"], "coordinates"))
    if "" in coords:
        raise _violation(f"coordinates/{coords.index('')}", "must be a non-empty string")
    rank = _natural(doc["rank"], "rank", 1)
    label = _typed(doc.get("label", ""), str, "label")
    frame = _object(doc.get("frame", {}), "frame", optional=("s_density",))
    density = _typed(frame.get("s_density", "1"), str, "frame/s_density")
    if len(coords) != base_dim:
        raise DocumentError("coordinates must list exactly base_dim names")
    if len(set(coords)) != len(coords):
        raise DocumentError("coordinate names must be distinct")
    return coords, rank, label, density


def _parse_poly(text: str, coords, where: str) -> Polynomial:
    try:
        return Polynomial.parse(text, coords)
    except PolynomialError as exc:
        raise DocumentError(f"bad polynomial at {where}: {exc}") from exc


def _bracket_indices(key: str, rank: int, owner: str) -> Tuple[int, int]:
    """(i, j) of a key "i,j" that _BRACKET_KEY matches, or a DocumentError
    naming owner unless 1 <= i < j <= rank."""
    i_text, j_text = key.split(",")
    try:
        i, j = int(i_text), int(j_text)
    except ValueError:  # more digits than int() converts: far out of range
        i = j = 0
    if not (1 <= i < j <= rank):
        raise DocumentError(f"{owner} key '{key}' must satisfy 1 <= i < j <= {rank}")
    return i, j


def _structure_from_subdoc(sub, rank: int, coords, kind: str,
                           where: str) -> AlgebroidStructure:
    _object(sub, where, _SIDE_KEYS)
    anchor = [_strings(row, f"{where}/anchor/{i}")
              for i, row in enumerate(_typed(sub["anchor"], list, f"{where}/anchor"))]
    if len(anchor) != rank:
        raise DocumentError(f"{where}.anchor must have {rank} rows")
    rows = []
    for i, row in enumerate(anchor, start=1):
        if len(row) != len(coords):
            raise DocumentError(
                f"{where}.anchor row {i} must have {len(coords)} entries")
        rows.append([_parse_poly(v, coords, f"{where}.anchor[{i}]") for v in row])
    brackets = {}
    for key, entry in _typed(sub["brackets"], dict, f"{where}/brackets").items():
        if not (isinstance(key, str) and _BRACKET_KEY.fullmatch(key)):
            raise _violation(f"{where}/brackets", f"key {key!r} is not of the form 'i,j'")
        _strings(entry, f"{where}/brackets/{key}")
        i, j = _bracket_indices(key, rank, f"{where}.brackets")
        if len(entry) != rank:
            raise DocumentError(
                f"{where}.brackets['{key}'] must have {rank} components")
        brackets[(i, j)] = tuple(
            _parse_poly(v, coords, f"{where}.brackets['{key}']") for v in entry)
    return AlgebroidStructure(rank, coords, rows, brackets, kind)


def document_to_structures(doc: dict) -> Tuple[AlgebroidStructure, AlgebroidStructure,
                                               FrameData, str]:
    """Parse a pair document without running the algebroid-axiom checks."""
    coords, rank, label, density = _header(doc, ("A", "Astar"), ("frame", "label"))
    A = _structure_from_subdoc(doc["A"], rank, coords, "vector", "A")
    Astar = _structure_from_subdoc(doc["Astar"], rank, coords, "covector", "Astar")
    frame = FrameData(rank, coords, _parse_poly(density, coords, "frame.s_density"))
    return A, Astar, frame, label


def pair_from_json(doc: dict) -> BialgebroidPair:
    A, Astar, frame, label = document_to_structures(doc)
    return BialgebroidPair(A, Astar, frame, label=label)


def _structure_to_subdoc(alg: AlgebroidStructure) -> dict:
    return {"anchor": [[str(p) for p in row] for row in alg.anchor],
            "brackets": {f"{i},{j}": [str(p) for p in entry]
                         for (i, j), entry in sorted(alg.brackets.items())}}


def pair_to_json(P: BialgebroidPair) -> dict:
    doc = {
        "base_dim": len(P.coordinates),
        "coordinates": list(P.coordinates),
        "rank": P.rank,
        "A": _structure_to_subdoc(P.A),
        "Astar": _structure_to_subdoc(P.Astar),
        "frame": {"s_density": str(P.frame.s_density)},
    }
    if P.label:
        doc["label"] = P.label
    return doc


def algebroid_from_json(doc: dict, kind: str = "vector") -> AlgebroidStructure:
    """Parse a single-structure document (used by the example builders)."""
    coords, rank, _label, _density = _header(doc, _SIDE_KEYS)
    side = {key: doc[key] for key in _SIDE_KEYS}
    return _structure_from_subdoc(side, rank, coords, kind, "(root)")
