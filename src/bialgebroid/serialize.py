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
Bracket keys are "i,j" with i < j; all-zero entries are omitted.  Loading
validates against the shipped JSON schema first, then re-checks the rules
a schema cannot express (index ranges, matrix shapes, polynomial syntax).
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Dict, Tuple

import jsonschema

from .algebroid import AlgebroidStructure
from .exterior import FrameData
from .pair import BialgebroidPair
from .ring import Polynomial, PolynomialError


class DocumentError(ValueError):
    pass


def _load_schema(name: str) -> dict:
    path = resources.files("bialgebroid").joinpath(f"schemas/{name}")
    return json.loads(path.read_text(encoding="utf-8"))


PAIR_SCHEMA = _load_schema("pair-spec.schema.json")
ALGEBROID_SCHEMA = _load_schema("algebroid-spec.schema.json")


def _check_schema(doc, schema) -> None:
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "(document root)"
        raise DocumentError(f"schema violation at {where}: {exc.message}") from exc


def _parse_poly(text: str, coords, where: str) -> Polynomial:
    try:
        return Polynomial.parse(text, coords)
    except PolynomialError as exc:
        raise DocumentError(f"bad polynomial at {where}: {exc}") from exc


def _structure_from_subdoc(sub: dict, rank: int, coords, kind: str,
                           where: str) -> AlgebroidStructure:
    anchor = sub["anchor"]
    if len(anchor) != rank:
        raise DocumentError(f"{where}.anchor must have {rank} rows")
    rows = []
    for i, row in enumerate(anchor, start=1):
        if len(row) != len(coords):
            raise DocumentError(
                f"{where}.anchor row {i} must have {len(coords)} entries")
        rows.append([_parse_poly(v, coords, f"{where}.anchor[{i}]") for v in row])
    brackets = {}
    for key, entry in sub["brackets"].items():
        i_text, j_text = key.split(",")
        try:
            i, j = int(i_text), int(j_text)
        except ValueError:  # more digits than int() converts: far out of range
            i = j = 0
        if not (1 <= i < j <= rank):
            raise DocumentError(
                f"{where}.brackets key '{key}' must satisfy 1 <= i < j <= {rank}")
        if len(entry) != rank:
            raise DocumentError(
                f"{where}.brackets['{key}'] must have {rank} components")
        brackets[(i, j)] = tuple(
            _parse_poly(v, coords, f"{where}.brackets['{key}']") for v in entry)
    return AlgebroidStructure(rank, coords, rows, brackets, kind)


def document_to_structures(doc: dict) -> Tuple[AlgebroidStructure, AlgebroidStructure,
                                               FrameData, str]:
    """Parse a pair document without running the algebroid-axiom checks."""
    _check_schema(doc, PAIR_SCHEMA)
    coords = tuple(doc["coordinates"])
    if len(coords) != doc["base_dim"]:
        raise DocumentError("coordinates must list exactly base_dim names")
    if len(set(coords)) != len(coords):
        raise DocumentError("coordinate names must be distinct")
    rank = doc["rank"]
    A = _structure_from_subdoc(doc["A"], rank, coords, "vector", "A")
    Astar = _structure_from_subdoc(doc["Astar"], rank, coords, "covector", "Astar")
    density = doc.get("frame", {}).get("s_density", "1")
    frame = FrameData(rank, coords, _parse_poly(density, coords, "frame.s_density"))
    return A, Astar, frame, doc.get("label", "")


def pair_from_json(doc: dict) -> BialgebroidPair:
    A, Astar, frame, label = document_to_structures(doc)
    return BialgebroidPair(A, Astar, frame, label=label)


def _structure_to_subdoc(alg: AlgebroidStructure) -> dict:
    brackets: Dict[str, list] = {}
    for (i, j) in sorted(alg.brackets):
        entry = alg.brackets[(i, j)]
        if any(not p.is_zero() for p in entry):
            brackets[f"{i},{j}"] = [str(p) for p in entry]
    return {"anchor": [[str(p) for p in row] for row in alg.anchor],
            "brackets": brackets}


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
    _check_schema(doc, ALGEBROID_SCHEMA)
    coords = tuple(doc["coordinates"])
    if len(coords) != doc["base_dim"]:
        raise DocumentError("coordinates must list exactly base_dim names")
    if len(set(coords)) != len(coords):
        raise DocumentError("coordinate names must be distinct")
    return _structure_from_subdoc(doc, doc["rank"], coords, kind, "(root)")
